(* daemon-write and daemon-read: the wire command plane as a client
   sees it.

   The server is built in-process the way bin/ihnetd.ml builds it — a
   two-socket Host_spec, the flight recorder on a file sink, Handlers,
   Server — and one thread drives it: two closed-loop client
   connections (each sends its next command only once the previous
   reply is decoded) and a [Server.step ~timeout:0.] between client
   reads. With one thread every batch and every count is a function
   of the seed alone.

   daemon-write issues seeded Flow_start/Flow_stop over at most 64 live
   flows per connection, with about 5% of commands Fault_inject /
   Fault_clear pairs. daemon-read preloads 256 flows plus two Poisson
   transfer streams, subscribes connection 0 to telemetry and
   decisions, and issues a seeded read mix: Stats, Scan with snapshot,
   Latency with the link table, Monitor, Report, Path_trace. A Scan is
   sent only while the other connection is idle, so the host the reply
   describes is exactly the host an in-process [Host.scan] sees right
   after the reply. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module Rec = Ihnet_record
module Api = Ihnet_api
module C = Api.Command
module Resp = Api.Response
open Common

type mode = Write | Read

let sp_encode = Span.name "api.encode"
let sp_decode = Span.name "api.decode"
let sp_step = Span.name "api.step"
let sp_step_idle = Span.name "api.step_idle"
let sp_batch = Span.name "engine.batch"
let sp_scan = Span.name "record.scan"

let kind_of = function
  | C.Flow_start _ -> "flow_start"
  | C.Flow_stop _ -> "flow_stop"
  | C.Fault_inject _ | C.Fault_clear _ -> "fault"
  | C.Stats -> "stats"
  | C.Scan _ -> "scan"
  | C.Latency _ -> "latency"
  | C.Monitor _ -> "monitor"
  | C.Report _ -> "report"
  | C.Path_trace _ -> "trace"
  | _ -> "other"

let kinds = function
  | Write -> [ "flow_start"; "flow_stop"; "fault" ]
  | Read -> [ "stats"; "scan"; "latency"; "monitor"; "report"; "trace" ]

(* a reply of the kind the command asks for *)
let reply_ok cmd resp =
  match (cmd, resp) with
  | _, Resp.Err _ -> false
  | C.Hello _, Resp.Hello_ok _
  | C.Subscribe _, Resp.Ack
  | C.Flow_start _, Resp.Flow_ok _
  | (C.Flow_stop _ | C.Fault_inject _ | C.Fault_clear _), Resp.Ack
  | C.Stats, Resp.Stats_report _
  | C.Scan _, Resp.Scan_report _
  | C.Latency _, Resp.Latency_report _
  | C.Monitor _, Resp.Csv _
  | C.Report _, Resp.Health _
  | C.Path_trace _, Resp.Trace_report _ ->
    true
  | _ -> false

let is_scan = function C.Scan _ -> true | _ -> false

(* {1 Connections} *)

type conn = {
  idx : int;
  fd : Unix.file_descr;
  rd : Api.Wire.reader;
  rng : U.Rng.t;
  pairs : (string * string) array;  (** Flow / trace endpoints. *)
  fault_links : (string * string) array;
  mutable next : C.t option;  (** Generated, not yet sent. *)
  mutable inflight : C.t option;
  mutable t_send : int;
  mutable enc_ns : int;
  mutable served_ns : int;  (** The step that executed the command; -1 before. *)
  mutable dec_ns : int;
  live : int array;
  mutable nlive : int;
  mutable clear : (string * string) option;
  mutable deck : C.t list;  (** daemon-read commands still to deal. *)
  mutable frames : int;  (** Frames decoded: replies and events. *)
  mutable events : int;
  mutable telemetry : int;
}

let max_live = 64

(* daemon-write: flows over this connection's own endpoints, a fault
   on one of its own links every ~40 commands, cleared by the next *)
let next_write c =
  match c.clear with
  | Some (a, b) ->
    c.clear <- None;
    C.Fault_clear { a; b }
  | None ->
    if U.Rng.float c.rng 1.0 < 0.025 then begin
      let a, b = U.Rng.pick c.rng c.fault_links in
      c.clear <- Some (a, b);
      C.Fault_inject { a; b; factor = 0.5; extra_us = 0.5; loss = 0.0 }
    end
    else if c.nlive = 0 || (c.nlive < max_live && U.Rng.int c.rng max_live >= c.nlive) then begin
      let src, dst = U.Rng.pick c.rng c.pairs in
      let gbps = if U.Rng.bool c.rng then Some (1.0 +. U.Rng.float c.rng 9.0) else None in
      C.Flow_start { tenant = 1 + (16 * c.idx) + U.Rng.int c.rng 16; src; dst; gbps }
    end
    else begin
      let i = U.Rng.int c.rng c.nlive in
      let flow = c.live.(i) in
      c.nlive <- c.nlive - 1;
      c.live.(i) <- c.live.(c.nlive);
      C.Flow_stop { flow }
    end

(* daemon-read: each connection deals its commands from a shuffled
   deck of 15, so every run holds the same mix. A fifth are cheap
   reads, the median falls inside the Latency reads (2/5) and the tail
   inside the Scan snapshots; a percentile at the edge of a command
   class would swing with the drawn mix. Every command that advances
   simulated time covers at most 0.2 ms. *)
let read_deck c =
  let src, dst = U.Rng.pick c.rng c.pairs in
  let d =
    Array.concat
      [
        Array.make 2 C.Stats;
        [| C.Path_trace { src; dst; load = false } |];
        Array.make 6 (C.Latency { link = true; ms = 0.1; load = false });
        Array.make 2 (C.Report { fidelity = C.Fid_oracle; load = false });
        Array.make 2 (C.Monitor { ms = 0.2; period_us = 50.0; series = None; load = false });
        Array.make 2 (C.Scan { ms = 0.1; load = false; step = None; snapshot = true });
      ]
  in
  U.Rng.shuffle c.rng d;
  Array.to_list d

let next_read c =
  (match c.deck with [] -> c.deck <- read_deck c | _ -> ());
  match c.deck with
  | cmd :: rest ->
    c.deck <- rest;
    cmd
  | [] -> assert false

(* {1 One served host} *)

type inst = {
  host : Ihnet.Host.t;
  fab : E.Fabric.t;
  handlers : Api.Handlers.t;
  srv : Api.Server.t;
  recorder : Rec.Recorder.t;
  oc : out_channel;
  trace_path : string;
  conns : conn array;
  gens : W.Traffic.stream list;
  completions : int ref;  (** [Flow_completed] events seen. *)
}

let rbuf = Bytes.create 65536

let rec write_all srv fd b off len =
  if len > 0 then
    match Unix.single_write fd b off len with
    | n -> write_all srv fd b (off + n) (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Api.Server.step ~timeout:0.0 srv);
      write_all srv fd b off len

let send inst c cmd =
  let t0 = Span.now_ns () in
  let sp = Span.enter sp_encode in
  let frame = Api.Wire.encode (C.to_json cmd) in
  write_all inst.srv c.fd frame 0 (Bytes.length frame);
  c.enc_ns <- Span.leave sp;
  c.t_send <- t0;
  c.inflight <- Some cmd;
  c.served_ns <- -1;
  c.dec_ns <- 0

(* one server tick; returns the number of commands it executed *)
let step inst =
  let before = Api.Handlers.commands inst.handlers in
  let sp = Span.enter sp_step in
  ignore (Api.Server.step ~timeout:0.0 inst.srv);
  let d = Span.leave sp in
  let executed = Api.Handlers.commands inst.handlers - before in
  if executed = 0 then Span.rename sp sp_step_idle
  else
    Array.iter
      (fun c -> if c.inflight <> None && c.served_ns < 0 then c.served_ns <- d)
      inst.conns;
  executed

(* read what the connection has and decode every complete frame;
   returns the command reply (with its frame size) if it arrived. Only
   [Wire.feed], [Wire.pop] and [Response.of_json] run inside
   [api.decode] spans, so polls that find nothing add no decode time. *)
let drain c =
  let decode f =
    let sp = Span.enter sp_decode in
    let v = f () in
    c.dec_ns <- c.dec_ns + Span.leave sp;
    v
  in
  let read () =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> failwith (Printf.sprintf "connection %d closed by the daemon" c.idx)
    | n ->
      decode (fun () -> Api.Wire.feed c.rd rbuf n);
      true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  in
  if not (read ()) then None
  else begin
    while read () do
      ()
    done;
    decode (fun () ->
        let reply = ref None in
        let rec pop () =
          let before = Api.Wire.pending c.rd in
          match Api.Wire.pop c.rd with
          | None -> ()
          | Some j ->
            let size = before - Api.Wire.pending c.rd in
            c.frames <- c.frames + 1;
            (match Resp.of_json j with
            | Ok (Resp.Event ev) ->
              c.events <- c.events + 1;
              (match ev with Resp.Ev_telemetry _ -> c.telemetry <- c.telemetry + 1 | _ -> ())
            | Ok r -> reply := Some (r, size)
            | Error e -> reply := Some (Resp.Err (Api.Api_error.Protocol e), size));
            pop ()
        in
        pop ();
        !reply)
  end

(* a set-up round trip, outside the timed window *)
let exchange inst c cmd =
  send inst c cmd;
  let rec wait n =
    if n > 100_000 then failwith "daemon never replied during set-up";
    ignore (step inst);
    match drain c with Some (r, _) -> r | None -> wait (n + 1)
  in
  let r = wait 0 in
  c.inflight <- None;
  if not (reply_ok cmd r) then failwith "set-up command refused";
  r

let pairs_of = function
  | 0 -> [| ("ext", "socket0"); ("gpu0", "socket0"); ("nic1", "socket0"); ("ssd0", "dimm0.0.0") |]
  | _ -> [| ("ext", "socket1"); ("gpu1", "socket1"); ("nic2", "socket1"); ("ssd1", "dimm1.0.0") |]

let fault_links_of = function
  | 0 -> [| ("nic0", "ext"); ("pciesw0", "gpu0"); ("socket0", "mc0.0") |]
  | _ -> [| ("nic2", "ext"); ("pciesw1", "gpu1"); ("socket1", "mc1.0") |]

let mode_name = function Write -> "daemon-write" | Read -> "daemon-read"

(* 256 long-lived flows and two Poisson transfer streams, so the
   time-advancing reads keep producing reallocation epochs (and so
   telemetry pushes) *)
let preload host ~seed =
  let fab = Ihnet.Host.fabric host in
  let topo = Ihnet.Host.topology host in
  let dev = Api.Host_spec.device_id topo in
  let path (s, d) = Option.get (T.Routing.shortest_path topo (dev s) (dev d)) in
  let paths = Array.map path (Array.append (pairs_of 0) (pairs_of 1)) in
  E.Fabric.batch fab (fun () ->
      for i = 0 to 255 do
        ignore
          (E.Fabric.start_flow fab
             ~tenant:(1 + (i mod 8))
             ~weight:(1.0 +. float_of_int (i mod 3))
             ~path:paths.(i mod Array.length paths)
             ~size:E.Flow.Unbounded ())
      done);
  let rng = U.Rng.create ((seed * 7919) + 17) in
  List.mapi
    (fun i ends ->
      W.Traffic.poisson_transfers fab ~rng ~tenant:(40 + i) ~rate_per_s:5_000.0
        ~size:(W.Traffic.Pareto { alpha = 2.5; x_min = 65536.0 })
        ~path:(path ends) ())
    [ ("gpu0", "dimm0.0.0"); ("gpu1", "dimm1.0.0") ]

let build ~mode ~seed =
  let spec = Api.Host_spec.make ~preset:Ihnet.Host.Two_socket ~domains:1 ~seed () in
  let host = Api.Host_spec.create_host spec in
  let fab = Ihnet.Host.fabric host in
  let trace_path = mode_name mode ^ ".trace.jsonl" in
  let oc = open_out_bin trace_path in
  let recorder = Rec.Recorder.attach ~label:"perfbench" ~seed ~sink:(trace_sink oc) fab in
  let completions = ref 0 and batch = ref (-1) in
  E.Fabric.subscribe fab (function
    | E.Fabric.Batch_started -> batch := Span.enter sp_batch
    | E.Fabric.Batch_ended -> ignore (Span.leave !batch)
    | E.Fabric.Flow_completed _ -> incr completions
    | _ -> ());
  let gens = match mode with Write -> [] | Read -> preload host ~seed in
  let handlers = Api.Handlers.create ~recorder ~spec (Api.Handlers.Host host) in
  let sock = mode_name mode ^ ".sock" in
  let srv = Api.Server.create ~push_every:8 handlers sock in
  let conns =
    Array.init 2 (fun idx ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        Unix.set_nonblock fd;
        {
          idx;
          fd;
          rd = Api.Wire.reader ();
          rng = U.Rng.stream seed (idx + 1);
          pairs = pairs_of idx;
          fault_links = fault_links_of idx;
          next = None;
          inflight = None;
          t_send = 0;
          enc_ns = 0;
          served_ns = -1;
          dec_ns = 0;
          live = Array.make max_live 0;
          nlive = 0;
          clear = None;
          deck = [];
          frames = 0;
          events = 0;
          telemetry = 0;
        })
  in
  let inst = { host; fab; handlers; srv; recorder; oc; trace_path; conns; gens; completions } in
  Array.iter (fun c -> ignore (exchange inst c (C.Hello { version = C.version }))) conns;
  if mode = Read then begin
    ignore (exchange inst conns.(0) (C.Subscribe C.S_telemetry));
    ignore (exchange inst conns.(0) (C.Subscribe C.S_decisions))
  end;
  inst

let close_conns inst =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) inst.conns;
  Api.Server.stop inst.srv;
  List.iter W.Traffic.stop inst.gens

(* {1 The timed window} *)

let run (cfg : config) mode inst =
  let fab = inst.fab in
  let conns = inst.conns in
  Array.iter
    (fun c ->
      c.frames <- 0;
      c.events <- 0;
      c.telemetry <- 0)
    conns;
  let gen c = match mode with Write -> next_write c | Read -> next_read c in
  let lat = Samples.for_ops () and done_at = Samples.for_ops () in
  let by_kind = Hashtbl.create 16 in
  let wait_us = Samples.create () and flows_live = Samples.create () in
  let ops = ref 0 and failed = ref 0 and steps = ref 0 and idle_steps = ref 0 in
  let reply_bytes = ref 0 in
  let scans = ref 0 and scan_mismatch = ref 0 in
  let at = match mode with Write -> 2000 | Read -> 400 in
  let min_ops = max at 1000 in
  let counts = ref [] and fingerprint = ref [] and prefix = ref (0, 0) in
  let e0 = Engine_layers.mark fab inst.completions in
  let cmd0 = Api.Handlers.commands inst.handlers in
  let lines0 = Rec.Recorder.lines inst.recorder and bytes0 = pos_out inst.oc in
  let checkpoint () =
    let snap = Ihnet.Host.scan inst.host in
    let bytes = pos_out inst.oc and lines = Rec.Recorder.lines inst.recorder in
    prefix := (bytes, lines);
    let events = Array.fold_left (fun a c -> a + c.events) 0 conns in
    counts :=
      [
        ("ops", !ops);
        ("epochs", E.Fabric.reallocations fab);
        ("commands", Api.Handlers.commands inst.handlers - cmd0);
        ("trace_lines", lines);
        ("trace_bytes", bytes);
        ("steps", !steps);
        ("idle_steps", !idle_steps);
        ("event_frames", events);
        ("completions", !(inst.completions));
      ];
    fingerprint := [ ("scan_digest", hex64 snap.Rec.Scanport.s_digest) ]
  in
  let on_reply c (r, size) =
    let cmd = Option.get c.inflight in
    let now = Span.now_ns () in
    let us = float_of_int (now - c.t_send) /. 1e3 in
    Samples.add lat us;
    Samples.add done_at (Speed.clock ());
    incr ops;
    reply_bytes := !reply_bytes + size;
    if not (reply_ok cmd r) then incr failed;
    (match (cmd, r) with
    | C.Flow_start _, Resp.Flow_ok { flow } ->
      c.live.(c.nlive) <- flow;
      c.nlive <- c.nlive + 1
    | C.Scan _, Resp.Scan_report { digest; _ } ->
      incr scans;
      let snap = Span.wrap sp_scan (fun () -> Ihnet.Host.scan inst.host) in
      if snap.Rec.Scanport.s_digest <> digest then incr scan_mismatch
    | _ -> ());
    if cfg.traced then begin
      let k = kind_of cmd in
      let s =
        match Hashtbl.find_opt by_kind k with
        | Some s -> s
        | None ->
          let s = Samples.create () in
          Hashtbl.replace by_kind k s;
          s
      in
      Samples.add s us;
      Samples.add wait_us
        (float_of_int (now - c.t_send - c.enc_ns - c.dec_ns - max 0 c.served_ns) /. 1e3);
      Samples.add flows_live (float_of_int (E.Fabric.flow_count fab))
    end;
    c.inflight <- None
  in
  let sends () =
    Array.iter (fun c -> if c.inflight = None && c.next = None then c.next <- Some (gen c)) conns;
    let scan_busy = Array.exists (fun c -> match c.inflight with Some cmd -> is_scan cmd | None -> false) conns in
    let waiting c = c.inflight = None && match c.next with Some cmd -> is_scan cmd | None -> false in
    let go c =
      Span.cur_op := !ops;
      send inst c (Option.get c.next);
      c.next <- None
    in
    if not scan_busy then
      match Array.find_opt waiting conns with
      | Some c -> if Array.for_all (fun c -> c.inflight = None) conns then go c
      | None -> Array.iter (fun c -> if c.inflight = None then go c) conns
  in
  let gc0 = gc_mark () in
  Speed.start ();
  let deadline = Span.now_ns () + int_of_float (cfg.seconds *. 1e9) in
  let sending = ref true and checked = ref false in
  while !sending || Array.exists (fun c -> c.inflight <> None) conns do
    if !sending then sends ();
    if step inst = 0 then incr idle_steps;
    incr steps;
    Array.iter (fun c -> match drain c with Some r -> on_reply c r | None -> ()) conns;
    if (not !checked) && !ops >= at then begin
      checked := true;
      checkpoint ()
    end;
    if !sending && !ops >= min_ops && Span.now_ns () >= deadline then sending := false;
    (* between ops only: no command may wait on a probe *)
    if Array.for_all (fun c -> c.inflight = None) conns then Speed.tick ()
  done;
  let elapsed = Speed.clock () in
  let rss_mb = peak_rss_mb () in
  let gc_rows = gc_layers gc0 ~ops:!ops in
  let e1 = Engine_layers.mark fab inst.completions in
  let cmds = Api.Handlers.commands inst.handlers - cmd0 in
  let lines1 = Rec.Recorder.lines inst.recorder and bytes1 = pos_out inst.oc in
  let events = Array.fold_left (fun a c -> a + c.events) 0 conns in
  let frames = Array.fold_left (fun a c -> a + c.frames) 0 conns in
  close_conns inst;
  Rec.Recorder.stop inst.recorder;
  close_out inst.oc;
  let all_lines = Rec.Recorder.lines inst.recorder in
  let replay_check, replay_us = replay_trace ~domains:1 inst.trace_path in
  let pbytes, plines = !prefix in
  fingerprint :=
    !fingerprint
    @ [
        ("trace_prefix_lines", string_of_int plines);
        ("trace_prefix_bytes", string_of_int pbytes);
        ("trace_prefix_digest", hex64 (file_prefix_digest inst.trace_path pbytes));
      ];
  let checks =
    [ replay_check; check "replies" (!failed = 0) (Printf.sprintf "%d of %d replies failed or of the wrong kind" !failed !ops) ]
    @
    match mode with
    | Write -> []
    | Read ->
      [
        check "scan_cross_check"
          (!scan_mismatch = 0 && !scans > 0)
          (Printf.sprintf "%d Scan replies, %d digest mismatches against Host.scan" !scans !scan_mismatch);
      ]
  in
  let per_op x = x /. float_of_int (max 1 !ops) in
  let layers =
    if not cfg.traced then []
    else begin
      let agg = Span.aggregate () in
      let mean_us = Span.mean_us agg in
      let p50 k = match Hashtbl.find_opt by_kind k with Some s -> Samples.percentile s 0.5 | None -> 0.0 in
      [
        ("api.encode_us", mean_us sp_encode, "us");
        ("api.decode_us", Span.per_span (agg sp_decode).Span.total_ns frames, "us");
        ("api.reply_bytes", per_op (float_of_int !reply_bytes), "bytes");
        ("api.event_frames", per_op (float_of_int events), "count");
        ("api.step_us", mean_us sp_step, "us");
        ("api.idle_step_ratio", float_of_int !idle_steps /. float_of_int (max 1 !steps), "ratio");
        ( "api.cmds_per_epoch",
          float_of_int cmds /. float_of_int (max 1 (e1.Engine_layers.reallocs - e0.Engine_layers.reallocs)),
          "ratio" );
        ("api.wait_us", Samples.mean wait_us, "us");
        ("api.self_us", Span.mean_self_us agg sp_step, "us");
      ]
      @ List.map (fun k -> ("api.cmd." ^ k ^ "_us", p50 k, "us")) (kinds mode)
      @ Engine_layers.rows e0 e1 ~ops:!ops
      @ [
          ("engine.flows_live", Samples.mean flows_live, "count");
          ("monitor.telemetry_events", per_op (float_of_int conns.(0).telemetry), "count");
          ("record.sink_us", mean_us sp_sink, "us");
          ("record.lines_per_op", per_op (float_of_int (lines1 - lines0)), "count");
          ("record.bytes_per_op", per_op (float_of_int (bytes1 - bytes0)), "bytes");
          ("record.replay_us_per_line", replay_us /. float_of_int (max 1 all_lines), "us");
        ]
      @ (match mode with Read -> [ ("record.scan_us", mean_us sp_scan, "us") ] | Write -> [])
      @ gc_rows
    end
  in
  {
    ops = !ops;
    failed = !failed;
    elapsed;
    lat_us = lat;
    done_s = done_at;
    rss_mb;
    checks;
    layers;
    counts = !counts;
    fingerprint = !fingerprint;
    pools = [ ("host_domains", E.Fabric.domains fab) ];
  }

let setup mode (cfg : config) =
  let inst = build ~mode ~seed:cfg.seed in
  { probe = (fun () -> hex64 (Ihnet.Host.scan inst.host).Rec.Scanport.s_digest); run = (fun () -> run cfg mode inst) }
