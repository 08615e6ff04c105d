(* Fabric/allocator scaling benchmark.

   Emits a machine-readable BENCH_fabric.json (ops/sec per subject) so
   successive PRs can track the perf trajectory of the allocation hot
   path (the §3.2-Q3 "enforcement overhead" cost model).

   Subjects:
   - allocate-{64,512,4096}: one Fairshare.allocate call over n demands
     with overlapping usages on a 96-resource pool (distinct weights and
     caps so the filling front hits many separate events).
   - flow-churn-{256,4096}: one start_flow + stop_flow pair against a
     dgx-like fabric carrying that many GPU->local-NIC flows. The eight
     gpu_i->nic_i paths are link-disjoint, so the churned flow's
     contention component holds ~n/8 flows — the case incremental,
     component-scoped reallocation is built for.
   - flow-churn-coupled-4096: same, but every background flow crosses
     switch/socket boundaries (gpu_i->nic_{i+3 mod 8}), welding the
     whole host into one contention component. Worst case: the
     component IS the full flow set, so only the allocator speedup
     shows, not the scoping.

   Usage: fabric_bench [--smoke] [-o FILE] [--subject NAME]...
   --smoke runs every subject exactly once (CI liveness check) and
   writes no file. --subject restricts the run to the named subject(s)
   (repeatable) — used by the CI bench-regression smoke step to time
   only the sentinel subject. *)

module U = Ihnet_util
module E = Ihnet_engine
module T = Ihnet_topology
module M = Ihnet_manager
module Mon = Ihnet_monitor
module Rec = Ihnet_record
module F = Ihnet_fleet
module Api = Ihnet_api

let usage () =
  prerr_endline "usage: fabric_bench [--smoke] [-o FILE] [--subject NAME]...";
  exit 2

let smoke, out_file, only =
  let smoke = ref false and out = ref "BENCH_fabric.json" and only = ref [] in
  let rec parse i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--smoke" ->
          smoke := true;
          parse (i + 1)
      | "-o" when i + 1 < Array.length Sys.argv ->
          out := Sys.argv.(i + 1);
          parse (i + 2)
      | "--subject" when i + 1 < Array.length Sys.argv ->
          only := Sys.argv.(i + 1) :: !only;
          parse (i + 2)
      | a ->
          Printf.eprintf "fabric_bench: unknown or incomplete argument %S\n" a;
          usage ()
  in
  parse 1;
  (!smoke, !out, !only)

(* ops/sec of [f], adaptively iterated; one shot in smoke mode *)
let time_ops f =
  if smoke then begin
    ignore (f ());
    0.0
  end
  else begin
    ignore (f ());
    (* warmup *)
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    let min_time = 0.5 and min_iters = 5 in
    while
      let dt = Unix.gettimeofday () -. t0 in
      dt < min_time || !iters < min_iters
    do
      ignore (f ());
      incr iters
    done;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int !iters /. dt
  end

(* {1 allocate-n: the bare allocator} *)

let make_demands n =
  let nr = 96 in
  Array.init n (fun i ->
      {
        E.Fairshare.weight = 1.0 +. (0.01 *. float_of_int (i mod 37));
        floor = 0.01;
        cap = (if i mod 4 = 0 then 5.0 +. (0.37 *. float_of_int (i mod 59)) else infinity);
        usage =
          [
            (i mod nr, 1.0);
            ((i * 7) + 1 mod nr, 1.1);
            (((i * 13) + 5) mod nr, 1.0);
          ]
          |> List.map (fun (r, c) -> (r mod nr, c));
      })

let bench_allocate n =
  let capacities = Array.init 96 (fun r -> 80.0 +. float_of_int (r mod 7)) in
  let demands = make_demands n in
  time_ops (fun () -> Sys.opaque_identity (E.Fairshare.allocate ~capacities demands))

(* {1 flow-churn-n: start/stop against a loaded fabric} *)

let bench_churn ?domains ?warm ?(wire = fun _ -> ()) ~nic_of n =
  let topo = T.Builder.dgx_like () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ?domains ?warm sim topo in
  wire fab;
  let dev name =
    match T.Topology.device_by_name topo name with
    | Some d -> d.T.Device.id
    | None -> failwith ("fabric_bench: no device " ^ name)
  in
  let paths =
    List.init 8 (fun i ->
        let src = Printf.sprintf "gpu%d" i and dst = Printf.sprintf "nic%d" (nic_of i) in
        Option.get (T.Routing.shortest_path topo (dev src) (dev dst)))
    |> Array.of_list
  in
  E.Fabric.batch fab (fun () ->
      for i = 0 to n - 1 do
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (i mod 16))
             ~weight:(1.0 +. float_of_int (i mod 3))
             ~path:paths.(i mod Array.length paths)
             ~size:E.Flow.Unbounded ())
      done);
  let churn_path = paths.(0) in
  time_ops (fun () ->
      let f = E.Fabric.start_flow fab ~tenant:99 ~path:churn_path ~size:E.Flow.Unbounded () in
      E.Fabric.stop_flow fab f)

let bench_churn_local n = bench_churn ~nic_of:Fun.id n
let bench_churn_coupled n = bench_churn ~nic_of:(fun i -> (i + 3) mod 8) n

(* flow-churn-warm-4096 passes [~warm:true] explicitly: the component
   memo is on by default, so this is the flow-churn-4096 fabric, kept
   as its own subject so the snapshot carries one explicitly memoized
   churn subject to hold against [baseline_pre_warmstart]. *)
let bench_churn_warm n = bench_churn ~warm:true ~nic_of:Fun.id n

(* flow-churn-sketch-4096 is flow-churn-4096 with the always-on
   latency-sketch plane recording at every reallocation epoch — the
   "active" half of the sketch perf contract (stay within noise of the
   dormant run; the gate tolerance absorbs runner jitter). *)
let bench_churn_sketch n = bench_churn ~wire:E.Fabric.enable_latency_sketches ~nic_of:Fun.id n

(* flow-churn-coupled-par-* runs the coupled (single giant component)
   churn at pool widths 1/2/4. One component cannot shard, so these
   measure the domain pool's overhead on the worst case — the contract
   is parity with flow-churn-coupled-4096, not speedup — while the
   determinism contract keeps all three bit-identical. *)
let bench_churn_coupled_par ~domains n =
  bench_churn ~domains ~nic_of:(fun i -> (i + 3) mod 8) n

(* {1 flow-churn-par-*: domain-parallel reallocation}

   Same dgx fabric and link-disjoint gpu_i->nic_i background load as
   flow-churn, but each op batches one start+stop per disjoint path, so
   a single reallocation carries all eight contention components —
   exactly the shape Fabric's domain pool shards. The -seq/-2/-4
   variants differ only in the fabric's [~domains]; the determinism
   contract says their rate tables are bit-identical, so any rate delta
   is pure wall-clock scaling (on a 1-core runner expect parity, not
   speedup). *)

let bench_churn_par ~domains n =
  let topo = T.Builder.dgx_like () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~domains sim topo in
  let dev name =
    match T.Topology.device_by_name topo name with
    | Some d -> d.T.Device.id
    | None -> failwith ("fabric_bench: no device " ^ name)
  in
  let paths =
    List.init 8 (fun i ->
        let src = Printf.sprintf "gpu%d" i and dst = Printf.sprintf "nic%d" i in
        Option.get (T.Routing.shortest_path topo (dev src) (dev dst)))
    |> Array.of_list
  in
  E.Fabric.batch fab (fun () ->
      for i = 0 to n - 1 do
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (i mod 16))
             ~weight:(1.0 +. float_of_int (i mod 3))
             ~path:paths.(i mod Array.length paths)
             ~size:E.Flow.Unbounded ())
      done);
  time_ops (fun () ->
      let churned =
        ref []
      in
      E.Fabric.batch fab (fun () ->
          Array.iter
            (fun path ->
              churned :=
                E.Fabric.start_flow fab ~tenant:99 ~path ~size:E.Flow.Unbounded () :: !churned)
            paths);
      E.Fabric.batch fab (fun () -> List.iter (E.Fabric.stop_flow fab) !churned))

(* {1 allocate-par-*: the bare allocator over disjoint banks}

   Eight independent allocation problems (disjoint resource ranges, no
   shared state), solved inline vs fanned out over a domain pool. This
   isolates Pool.map's dispatch overhead and its best-case scaling from
   everything fabric-specific. *)

let bench_allocate_par ~domains n =
  let banks = 8 in
  let per = n / banks in
  let capacities = Array.init 96 (fun r -> 80.0 +. float_of_int (r mod 7)) in
  let demand_banks = Array.init banks (fun _ -> make_demands per) in
  let pool = if domains > 1 then Some (U.Pool.get domains) else None in
  time_ops (fun () ->
      let solve i = E.Fairshare.allocate ~capacities demand_banks.(i) in
      let results =
        match pool with
        | Some p -> U.Pool.map p banks solve
        | None -> Array.init banks solve
      in
      Sys.opaque_identity results)

(* {1 remediation-idle: the supervisor must be free when nothing is
   broken}

   A managed two-socket host with guaranteed pipes and live flows runs
   50 simulated ms twice — without and with the remediation loop — and
   no fault is ever injected. The loop must take zero actions and leave
   the fabric's reallocation count and the arbiter's decision count
   exactly unchanged (deterministic, not a timing judgement; it holds
   in --smoke too). The reported rate is then simulated-ms/sec with the
   idle supervisor ticking. *)

let make_managed_host ?(wire = fun _ -> ()) () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create sim topo in
  wire fab;
  let mgr = M.Manager.create fab () in
  List.iter
    (fun intent ->
      match M.Manager.submit mgr intent with
      | Ok ps ->
        List.iter
          (fun (p : M.Placement.t) ->
            let f =
              E.Fabric.start_flow fab ~tenant:p.M.Placement.tenant
                ~demand:p.M.Placement.rate ~path:p.M.Placement.path ~size:E.Flow.Unbounded ()
            in
            ignore (M.Manager.attach mgr f))
          ps
      | Error e -> failwith ("fabric_bench: admission refused: " ^ M.Mgr_error.to_string e))
    [
      M.Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:8e9;
      M.Intent.pipe ~tenant:2 ~src:"gpu0" ~dst:"socket0" ~rate:4e9;
      M.Intent.pipe ~tenant:3 ~src:"ext" ~dst:"socket1" ~rate:6e9;
    ];
  M.Manager.start_shim mgr ~period:5e4;
  (sim, fab, mgr)

let bench_remediation_idle () =
  let measure ~remediate =
    let sim, fab, mgr = make_managed_host () in
    let rem =
      if remediate then begin
        let r = M.Remediation.create mgr in
        M.Remediation.start r;
        Some r
      end
      else None
    in
    E.Sim.run ~until:50e6 sim;
    ((E.Fabric.reallocations fab, M.Manager.decisions mgr), rem, sim)
  in
  let baseline, _, _ = measure ~remediate:false in
  let supervised, rem, sim = measure ~remediate:true in
  (match rem with
  | Some r when M.Remediation.actions_count r > 0 ->
    failwith
      (Printf.sprintf "remediation-idle: %d action(s) taken with no fault injected"
         (M.Remediation.actions_count r))
  | _ -> ());
  if supervised <> baseline then
    failwith
      (Printf.sprintf
         "remediation-idle: fault-free overhead detected — %d reallocations/%d decisions \
          without the loop, %d/%d with it"
         (fst baseline) (snd baseline) (fst supervised) (snd supervised));
  (* rate: simulated ms advanced per wall second with the loop idle *)
  let t = ref (E.Sim.now sim) in
  time_ops (fun () ->
      t := !t +. 1e6;
      E.Sim.run ~until:!t sim)

(* {1 recorder-idle: the flight-recorder hooks must be free when no
   recorder is attached, and an active recorder must observe without
   steering}

   Three identical 50 ms managed-host runs: bare, with a recorder
   attached and immediately stopped (dormant listener, cleared
   dispatch tap), and with a recorder streaming the whole run into a
   buffer. All three must leave the reallocation and decision counts
   exactly equal — recording is passive, and recording-off costs only
   the emptiness checks the compiler already paid for. The reported
   rate is simulated-ms/sec with the dormant recorder in place. *)

let bench_recorder_idle () =
  let signature wire =
    let sim, fab, mgr = make_managed_host ~wire () in
    E.Sim.run ~until:50e6 sim;
    ((E.Fabric.reallocations fab, M.Manager.decisions mgr), sim)
  in
  let baseline, _ = signature (fun _ -> ()) in
  let stopped, sim =
    signature (fun fab ->
        let buf = Buffer.create 256 in
        Rec.Recorder.stop (Rec.Recorder.attach ~sink:(Rec.Recorder.buffer_sink buf) fab))
  in
  let buf = Buffer.create 65536 in
  let recording, _ =
    signature (fun fab ->
        ignore (Rec.Recorder.attach ~label:"bench" ~sink:(Rec.Recorder.buffer_sink buf) fab))
  in
  if stopped <> baseline then
    failwith
      (Printf.sprintf
         "recorder-idle: dormant recorder changed the run — %d reallocations/%d decisions bare, \
          %d/%d with it"
         (fst baseline) (snd baseline) (fst stopped) (snd stopped));
  if recording <> baseline then
    failwith
      (Printf.sprintf
         "recorder-idle: active recording steered the run — %d reallocations/%d decisions bare, \
          %d/%d recording"
         (fst baseline) (snd baseline) (fst recording) (snd recording));
  if Buffer.length buf = 0 then failwith "recorder-idle: active recorder captured nothing";
  let t = ref (E.Sim.now sim) in
  time_ops (fun () ->
      t := !t +. 1e6;
      E.Sim.run ~until:!t sim)

(* {1 evidence-idle: the corroboration gate must be free when every
   sensor is honest}

   Two identical 50 ms supervised runs with no fault and no lying
   sensor: one with the bare remediation loop, one with an evidence
   gate installed (and its fabric subscription live). Both must take
   zero actions and leave reallocation and decision counts exactly
   equal — with no detector reports the gate's verdict path is a hash
   lookup that never fires, and its fabric listener only reacts to
   fault events that never come. The reported rate is simulated-ms/sec
   with the gated supervisor ticking. *)

let bench_evidence_idle () =
  let measure ~gated =
    let sim, fab, mgr = make_managed_host () in
    let rem = M.Remediation.create mgr in
    if gated then begin
      let ev = Mon.Evidence.create fab in
      M.Remediation.set_gate rem (Mon.Evidence.gate ev)
    end;
    M.Remediation.start rem;
    E.Sim.run ~until:50e6 sim;
    ((E.Fabric.reallocations fab, M.Manager.decisions mgr), rem, sim)
  in
  let baseline, rem0, _ = measure ~gated:false in
  let gated, rem1, sim = measure ~gated:true in
  List.iter
    (fun (label, r) ->
      if M.Remediation.actions_count r > 0 then
        failwith
          (Printf.sprintf "evidence-idle: %d action(s) taken with no fault injected (%s)"
             (M.Remediation.actions_count r) label))
    [ ("ungated", rem0); ("gated", rem1) ];
  if gated <> baseline then
    failwith
      (Printf.sprintf
         "evidence-idle: fault-free gate overhead detected — %d reallocations/%d decisions \
          ungated, %d/%d gated"
         (fst baseline) (snd baseline) (fst gated) (snd gated));
  let t = ref (E.Sim.now sim) in
  time_ops (fun () ->
      t := !t +. 1e6;
      E.Sim.run ~until:!t sim)

(* {1 sketch-idle: the always-on sketch plane must observe without
   steering}

   Two identical 50 ms managed-host runs — one bare, one with the
   latency-sketch plane enabled — must leave the reallocation and
   decision counts exactly equal: recording is pure observation (no
   RNG, no events, no rate mutation), so an enabled plane cannot
   perturb the run, and a dormant one costs only a None check
   (deterministic, not a timing judgement; it holds in --smoke too).
   The active run must also have actually recorded samples — a plane
   optimized into a no-op would pass the equality vacuously. The
   reported rate is simulated-ms/sec with the plane recording. *)

let bench_sketch_idle () =
  let measure wire =
    let sim, fab, mgr = make_managed_host ~wire () in
    E.Sim.run ~until:50e6 sim;
    ((E.Fabric.reallocations fab, M.Manager.decisions mgr), fab, sim)
  in
  let baseline, _, _ = measure (fun _ -> ()) in
  let sketched, fab, sim = measure E.Fabric.enable_latency_sketches in
  if sketched <> baseline then
    failwith
      (Printf.sprintf
         "sketch-idle: sketch plane steered the run — %d reallocations/%d decisions bare, \
          %d/%d with it"
         (fst baseline) (snd baseline) (fst sketched) (snd sketched));
  let samples = ref 0 in
  List.iter
    (fun (l : T.Link.t) ->
      List.iter
        (fun dir ->
          match E.Fabric.link_latency_sketch fab l.T.Link.id dir with
          | Some sk -> samples := !samples + U.Sketch.count sk
          | None -> ())
        [ T.Link.Fwd; T.Link.Rev ])
    (T.Topology.links (E.Fabric.topology fab));
  if !samples = 0 then failwith "sketch-idle: active sketch plane recorded nothing";
  let t = ref (E.Sim.now sim) in
  time_ops (fun () ->
      t := !t +. 1e6;
      E.Sim.run ~until:!t sim)

(* {1 scanport-idle: the zero-impact guarantee, mechanically checked}

   Two identical 50 ms managed-host runs, both streaming the flight
   recorder into a buffer. One additionally captures a full Scanport
   snapshot at every reallocation epoch from a fabric listener. Because
   capture is a pure read (no RNG draw, no lazy-sync, no event, no heap
   generation, no warm-solver movement), the scanned run must be
   bit-identical to the bare one: the two trace buffers compare equal
   byte for byte — every digest the recorder emitted matches — and the
   reallocation/decision counts are exactly equal. The scanned run must
   also have captured something, or the equality would be vacuous. The
   reported rate is simulated-ms/sec with scan-every-epoch active. *)

let bench_scanport_idle () =
  let measure ~scan =
    let buf = Buffer.create 65536 in
    let snaps = ref [] in
    let sim, fab, mgr =
      make_managed_host
        ~wire:(fun fab ->
          ignore (Rec.Recorder.attach ~label:"bench" ~sink:(Rec.Recorder.buffer_sink buf) fab);
          if scan then
            E.Fabric.subscribe fab (function
              | E.Fabric.Reallocated _ -> snaps := Rec.Scanport.capture fab :: !snaps
              | _ -> ()))
        ()
    in
    E.Sim.run ~until:50e6 sim;
    ((E.Fabric.reallocations fab, M.Manager.decisions mgr), Buffer.contents buf, !snaps, sim)
  in
  let baseline, bare_trace, _, _ = measure ~scan:false in
  let scanned, scanned_trace, snaps, sim = measure ~scan:true in
  if scanned <> baseline then
    failwith
      (Printf.sprintf
         "scanport-idle: scanning steered the run — %d reallocations/%d decisions bare, %d/%d \
          scanned"
         (fst baseline) (snd baseline) (fst scanned) (snd scanned));
  if scanned_trace <> bare_trace then
    failwith "scanport-idle: scan-every-epoch run produced a different trace than the bare run";
  (match snaps with
  | [] -> failwith "scanport-idle: scan-every-epoch run captured no snapshots"
  | last :: _ ->
    (* the chain must really be read out, not elided *)
    if last.Rec.Scanport.s_regs = [] then failwith "scanport-idle: empty scan chain");
  let t = ref (E.Sim.now sim) in
  time_ops (fun () ->
      t := !t +. 1e6;
      E.Sim.run ~until:!t sim)

(* {1 fleet-idle: a dormant fleet controller is invisible}

   Same discipline as recorder-idle and scanport-idle, one layer up:
   enrolling a live host in a fleet controller with no tenants and no
   channel faults must leave the host's run byte-identical to an
   unmanaged one. The proof is mechanical — equal Scanport digests
   after the same simulated time, an empty decision log, and channel
   RNG state untouched (Chanfault's RNG-only-under-fault discipline).
   The reported rate is controller rounds/sec over the wrapped host. *)

let bench_fleet_idle () =
  let build () =
    let host = Ihnet.Host.create ~seed:11 ~domains:1 Ihnet.Host.Minimal in
    let fab = Ihnet.Host.fabric host in
    let topo = Ihnet.Host.topology host in
    let dev name =
      match T.Topology.device_by_name topo name with
      | Some d -> d.T.Device.id
      | None -> failwith ("fabric_bench: no device " ^ name)
    in
    let path =
      match T.Routing.shortest_path topo (dev "nic0") (dev "socket0") with
      | Some p -> p
      | None -> failwith "fabric_bench: no nic0->socket0 path"
    in
    ignore (E.Fabric.start_flow fab ~tenant:1 ~path ~size:E.Flow.Unbounded ());
    host
  in
  let rounds = 50 and round_len = U.Units.us 100.0 in
  let bare = build () in
  for _ = 1 to rounds do
    Ihnet.Host.run_for bare round_len
  done;
  let wrapped = build () in
  let cfg = { F.Controller.default_config with F.Controller.round_len = round_len } in
  let t = F.Controller.create ~config:cfg ~seed:7 () in
  F.Controller.add_host t ~label:"live0" wrapped;
  let rng_before = F.Controller.channel_rng_peek t "live0" in
  F.Controller.run t ~rounds;
  if
    (Ihnet.Host.scan wrapped).Rec.Scanport.s_digest
    <> (Ihnet.Host.scan bare).Rec.Scanport.s_digest
  then failwith "fleet-idle: dormant controller changed the wrapped host's run";
  if F.Controller.decisions t <> [] then
    failwith
      (Printf.sprintf "fleet-idle: %d decision(s) with no tenants and no faults"
         (List.length (F.Controller.decisions t)));
  if F.Controller.channel_rng_peek t "live0" <> rng_before then
    failwith "fleet-idle: fault-free channel plane drew from its RNG";
  time_ops (fun () -> F.Controller.run t ~rounds:10)

(* {1 fleet-churn-1k: the control loop at fleet scale}

   1000 minimal hosts, 1000 placed tenants. The measured op is one
   tenant replacement through the full control plane — revoke the
   oldest tenant, submit a fresh one, run one controller round (1000
   host advances + 1000 health reports + the control step that routes
   the cleanup and the new placement). *)

let bench_fleet_churn () =
  let n = 1000 in
  let cfg =
    { F.Controller.default_config with F.Controller.round_len = U.Units.us 100.0 }
  in
  let t = F.Controller.create ~config:cfg ~seed:5 () in
  for i = 0 to n - 1 do
    F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%d" i)
  done;
  let submit i =
    F.Controller.submit t
      (M.Intent.pipe ~tenant:i ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0))
  in
  for i = 1 to n do
    submit i
  done;
  let placed () =
    List.for_all
      (fun id ->
        match F.Controller.tenant_view t id with Some (F.Controller.Placed _) -> true | _ -> false)
      (F.Controller.tenants t)
  in
  let guard = ref 0 in
  while (not (placed ())) && !guard < 50 do
    incr guard;
    F.Controller.round t
  done;
  if not (placed ()) then failwith "fleet-churn-1k: fleet failed to converge during setup";
  let next = ref (n + 1) in
  time_ops (fun () ->
      F.Controller.revoke t ~tenant:(!next - n);
      submit !next;
      incr next;
      F.Controller.round t)

(* {1 daemon-cmds-4: the wire command plane}

   One in-process ihnetd server with four connected clients; each op
   pushes a Flow_start from every client through the full wire path
   (encode, frame, select loop, batched ingestion, typed reply) and
   then the four matching Flow_stops. Measures command-plane overhead
   — framing, JSON codecs, the select loop and per-tick batching — on
   top of mutations whose raw fabric cost flow-churn already tracks. *)

let bench_daemon_cmds () =
  let module C = Api.Command in
  let module Resp = Api.Response in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ihnetd-bench-%d.sock" (Unix.getpid ()))
  in
  let srv = Api.Server.create (Api.Handlers.local (Api.Host_spec.make ~seed:11 ())) path in
  let pump () = ignore (Api.Server.step ~timeout:0.0 srv) in
  let conns =
    Array.init 4 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd)
  in
  (* clients and server share this thread, so drive the select loop by
     hand until every client has a reply waiting *)
  let await_replies () =
    let fds = Array.to_list conns in
    let rec go n =
      if n > 10_000 then failwith "daemon-cmds-4: daemon never replied";
      let ready, _, _ = Unix.select fds [] [] 0.0 in
      if List.length ready < Array.length conns then begin
        pump ();
        go (n + 1)
      end
    in
    go 0
  in
  let exchange cmd_of check =
    Array.iteri (fun i fd -> Api.Wire.write_frame fd (C.to_json (cmd_of i))) conns;
    await_replies ();
    Array.map
      (fun fd ->
        match Api.Wire.read_frame fd with
        | None -> failwith "daemon-cmds-4: connection closed"
        | Some j -> (
          match Resp.of_json j with
          | Ok r -> check r
          | Error e -> failwith ("daemon-cmds-4: bad reply: " ^ e)))
      conns
  in
  ignore
    (exchange
       (fun _ -> C.Hello { version = C.version })
       (function Resp.Hello_ok _ -> 0 | _ -> failwith "daemon-cmds-4: bad hello"));
  let tenant = ref 0 in
  let ops =
    time_ops (fun () ->
        let flows =
          exchange
            (fun i ->
              incr tenant;
              C.Flow_start
                {
                  tenant = !tenant;
                  src = "ext";
                  dst = (if i mod 2 = 0 then "socket0" else "socket1");
                  gbps = Some 1.0;
                })
            (function
              | Resp.Flow_ok { flow } -> flow | _ -> failwith "daemon-cmds-4: flow refused")
        in
        ignore
          (exchange
             (fun i -> C.Flow_stop { flow = flows.(i) })
             (function Resp.Err _ -> failwith "daemon-cmds-4: stop refused" | _ -> 0)))
  in
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  Api.Server.stop srv;
  ops

let () =
  let subjects =
    [
      ("allocate-64", fun () -> bench_allocate 64);
      ("allocate-512", fun () -> bench_allocate 512);
      ("allocate-4096", fun () -> bench_allocate 4096);
      ("flow-churn-256", fun () -> bench_churn_local 256);
      ("flow-churn-4096", fun () -> bench_churn_local 4096);
      ("flow-churn-coupled-4096", fun () -> bench_churn_coupled 4096);
      ("flow-churn-par-seq-4096", fun () -> bench_churn_par ~domains:1 4096);
      ("flow-churn-par-2-4096", fun () -> bench_churn_par ~domains:2 4096);
      ("flow-churn-par-4-4096", fun () -> bench_churn_par ~domains:4 4096);
      ("allocate-par-seq-4096", fun () -> bench_allocate_par ~domains:1 4096);
      ("allocate-par-4-4096", fun () -> bench_allocate_par ~domains:4 4096);
      ("remediation-idle", bench_remediation_idle);
      ("recorder-idle", bench_recorder_idle);
      ("evidence-idle", bench_evidence_idle);
      (* new subjects go AFTER every pre-warm-start subject: despite the
         per-subject compaction above, a subject's throughput is still
         sensitive to the ambient heap/pool state its predecessors leave
         behind, so keeping the historical prefix order is what makes
         the [baseline_pre_warmstart] comparison like-for-like. *)
      ("flow-churn-warm-4096", fun () -> bench_churn_warm 4096);
      ("flow-churn-coupled-par-seq-4096", fun () -> bench_churn_coupled_par ~domains:1 4096);
      ("flow-churn-coupled-par-2-4096", fun () -> bench_churn_coupled_par ~domains:2 4096);
      ("flow-churn-coupled-par-4-4096", fun () -> bench_churn_coupled_par ~domains:4 4096);
      ("sketch-idle", bench_sketch_idle);
      ("flow-churn-sketch-4096", fun () -> bench_churn_sketch 4096);
      ("scanport-idle", bench_scanport_idle);
      ("fleet-idle", bench_fleet_idle);
      ("fleet-churn-1k", bench_fleet_churn);
      ("daemon-cmds-4", bench_daemon_cmds);
    ]
  in
  let subjects =
    match only with
    | [] -> subjects
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n subjects) then begin
              Printf.eprintf "fabric_bench: unknown subject %S\n" n;
              usage ()
            end)
          names;
        List.filter (fun (n, _) -> List.mem n names) subjects
  in
  let results =
    List.map
      (fun (name, f) ->
        (* decouple subjects: start each from a compacted heap so a
           fast, allocation-heavy subject can't skew the next one's
           numbers through inherited GC state *)
        Gc.compact ();
        let ops = f () in
        if smoke then Printf.printf "%-18s ok\n%!" name
        else Printf.printf "%-18s %12.1f ops/sec\n%!" name ops;
        (name, ops))
      subjects
  in
  (* Frozen pre-warmstart measurements (commit before the warm-started
     solver + component memo landed), taken on the same machine as the
     committed subjects snapshot: mean of three full runs of this
     harness built from that commit. Kept in the emitted JSON so every
     regenerated snapshot still documents the cliff the warm path
     removed; new warm-era subjects have no pre-warmstart value. *)
  let baseline_pre_warmstart =
    [
      ("allocate-64", 46862.75);
      ("allocate-512", 9004.39);
      ("allocate-4096", 1041.73);
      ("flow-churn-256", 72133.34);
      ("flow-churn-4096", 3942.28);
      ("flow-churn-coupled-4096", 138.60);
      ("flow-churn-par-seq-4096", 315.31);
      ("flow-churn-par-2-4096", 198.01);
      ("flow-churn-par-4-4096", 82.40);
      ("allocate-par-seq-4096", 304.72);
      ("allocate-par-4-4096", 230.36);
      ("remediation-idle", 269.76);
      ("recorder-idle", 250.81);
      ("evidence-idle", 272.41);
    ]
  in
  if not smoke then begin
    let oc = open_out out_file in
    output_string oc "{\n  \"benchmark\": \"fabric\",\n  \"unit\": \"ops_per_sec\",\n  \"subjects\": {\n";
    List.iteri
      (fun i (name, ops) ->
        Printf.fprintf oc "    \"%s\": %.2f%s\n" name ops
          (if i = List.length results - 1 then "" else ","))
      results;
    output_string oc "  },\n  \"baseline_pre_warmstart\": {\n";
    List.iteri
      (fun i (name, ops) ->
        Printf.fprintf oc "    \"%s\": %.2f%s\n" name ops
          (if i = List.length baseline_pre_warmstart - 1 then "" else ","))
      baseline_pre_warmstart;
    output_string oc "  }\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n%!" out_file
  end
