(* perfbench: one process of one benchmark workload.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

   Runs from a scratch directory (it writes its sockets and traces
   there). It sets the workload up from the seed and prints, as its
   last line, one JSON object: the monotonic-clock time at which set-up
   ended and a probe of the state it left, and — unless --setup-only —
   the run's end-to-end figures (at the reference host speed of
   [Common.Speed], and in plain wall time), checks, exact counts and
   fingerprints. With --trace 1 the object also holds the per-layer
   rows and span totals, and the raw span log is written to spans.tsv.
   perfbench/run.py builds it, runs it and turns these objects into the
   benchmark result; see perfbench/README.md. Exits 1 when the workload
   raises. *)

open Common
module J = Ihnet_record.Trace

let workloads =
  [
    ("daemon-write", Daemon.setup Daemon.Write);
    ("daemon-read", Daemon.setup Daemon.Read);
    ("host-churn", Churn.setup);
    ("fleet-rounds", Fleet_rounds.setup);
  ]

let usage () =
  prerr_endline "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]";
  exit 2

let fail cfg e =
  Printf.eprintf "perfbench: %s raised %s\n%s" cfg.workload (Printexc.to_string e) (Printexc.get_backtrace ());
  exit 1

let spans_json () =
  let agg = Span.aggregate () in
  J.Obj
    (List.filter_map
       (fun nm ->
         let a = agg (Span.name nm) in
         if a.Span.count = 0 then None
         else
           Some
             ( nm,
               J.Obj
                 [
                   ("count", J.jint a.Span.count);
                   ("total_us", J.jfloat (float_of_int a.Span.total_ns /. 1e3));
                   ("self_us", J.jfloat (float_of_int a.Span.self_ns /. 1e3));
                 ] ))
       (Array.to_list !Span.names))

let report cfg (r : result) =
  let obj kv f = J.Obj (List.map (fun (k, v) -> (k, f v)) kv) in
  let f = figures ~lat:r.lat_us ~done_s:r.done_s ~elapsed:r.elapsed () in
  let w = figures ~scaled:false ~lat:r.lat_us ~done_s:r.done_s ~elapsed:r.elapsed () in
  [
    ("ops", J.jint r.ops);
    ("failed", J.jint r.failed);
    ("elapsed_s", J.jfloat r.elapsed);
    ( "e2e",
      J.Obj
        [
          ("ops_per_s", J.jfloat f.ops_per_s);
          ("op_p50_us", J.jfloat f.p50_us);
          ("op_p99_us", J.jfloat f.p99_us);
          ("fail_ratio", J.jfloat (float_of_int r.failed /. float_of_int (max 1 r.ops)));
          ("peak_rss_mb", J.jfloat r.rss_mb);
        ] );
    ("samples", J.jint (Samples.count r.lat_us));
    ("probes", J.jint f.probes);
    ( "wall",
      J.Obj [ ("ops_per_s", J.jfloat w.ops_per_s); ("op_p50_us", J.jfloat w.p50_us); ("op_p99_us", J.jfloat w.p99_us) ] );
    ( "checks",
      J.Arr
        (List.map
           (fun c -> J.Obj [ ("name", J.Str c.c_name); ("ok", J.Bool c.c_ok); ("detail", J.Str c.c_detail) ])
           r.checks) );
    ("layers", J.Obj (List.map (fun (k, v, u) -> (k, J.Obj [ ("value", J.jfloat v); ("unit", J.Str u) ])) r.layers));
    ("counts", obj r.counts J.jint);
    ("fingerprint", obj r.fingerprint (fun v -> J.Str v));
    ("pools", obj r.pools J.jint);
  ]
  @ if cfg.traced then [ ("spans", spans_json ()) ] else []

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and traced = ref false in
  let setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      traced := v = "1";
      parse rest
    | "--setup-only" :: rest ->
      setup_only := true;
      parse rest
    | [] -> ()
    | a :: _ ->
      Printf.eprintf "perfbench: unknown or incomplete argument %S\n" a;
      usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let setup =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      usage ()
  in
  let cfg = { workload = !workload; seed = !seed; seconds = !seconds; traced = !traced } in
  Span.enabled := cfg.traced;
  let prepared = try setup cfg with e -> fail cfg e in
  let setup_done_ns = Span.now_ns () in
  let head =
    [
      ("workload", J.Str cfg.workload);
      ("seed", J.jint cfg.seed);
      ("traced", J.Bool cfg.traced);
      ("setup_done_ns", J.Str (string_of_int setup_done_ns));
      ("setup_probe", J.Str (prepared.probe ()));
      ("ocaml", J.Str Sys.ocaml_version);
    ]
  in
  let rest =
    if !setup_only then []
    else begin
      let r = try prepared.run () with e -> fail cfg e in
      if cfg.traced then Out_channel.with_open_text "spans.tsv" Span.dump;
      report cfg r
    end
  in
  print_endline (J.json_to_string (J.Obj (head @ rest)))
