(* host-churn: the engine under arrivals, in process, with no wire.

   A DGX host at pool width 2 carries 2048 unbounded background flows
   — 7/8 on the link-disjoint gpu_i->nic_i paths, 1/8 on
   gpu_i->nic_{i+3 mod 8} so some contention components weld together
   — plus LLC-targeted NIC->socket writes that make the DDIO spill
   fixed point iterate, and four guaranteed pipes whose arbiter shim
   keeps ticking. Latency sketches are on and the flight recorder
   writes to a file. The sampler and the heartbeat mesh stay off:
   they would hide the engine (daemon-read measures the monitor).

   A seeded generator, driven by simulator events, adds Poisson
   arrivals of bounded transfers on random gpu->nic paths with sizes
   from [Traffic.draw_size] (every 16th arrival a burst of four under
   one [Fabric.batch], every 8th an unbounded session stopped after an
   exponential lifetime), and degrades then clears a PCIe link every
   4 simulated ms. One op is one simulated ms ([Host.run_for]). *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module W = Ihnet_workload
module M = Ihnet_manager
module Rec = Ihnet_record
open Common

let sp_run = Span.name "engine.run_for"
let sp_mutation = Span.name "engine.mutation"
let sp_submit = Span.name "manager.submit"

let background = 2048
let domains = 2

(* Sized so a run holds over a thousand ops: on a 2-core x86 box one
   epoch costs ~2.5 ms at 2048 flows (~5 ms at 4096) and every shim
   tick re-walks every live flow, so the default 50 us shim period
   alone would make an op ~20 epochs. *)
let shim_period = Ihnet_util.Units.ms 1.0
let mean_interarrival = Ihnet_util.Units.ms 1.0

(* i -> i+3 on every GPU would weld all eight gpu->nic components into
   one (the map is a single 8-cycle); coupling only the even GPUs welds
   them in pairs {0,3} {2,5} {4,7} {6,1}. [pick] selects a quarter of
   the even GPUs' flows, so 1/8 of all. *)
let coupled g pick = g mod 2 = 0 && pick

type inst = {
  host : Ihnet.Host.t;
  fab : E.Fabric.t;
  recorder : Rec.Recorder.t;
  oc : out_channel;
  trace_path : string;
  completions : int ref;
}

let build ~seed =
  let host = Ihnet.Host.create ~seed ~domains Ihnet.Host.Dgx in
  let fab = Ihnet.Host.fabric host and sim = Ihnet.Host.sim host in
  let topo = Ihnet.Host.topology host in
  let trace_path = "host-churn.trace.jsonl" in
  let oc = open_out_bin trace_path in
  let recorder = Rec.Recorder.attach ~label:"perfbench" ~seed ~sink:(trace_sink oc) fab in
  let completions = ref 0 in
  E.Fabric.subscribe fab (function E.Fabric.Flow_completed _ -> incr completions | _ -> ());
  E.Fabric.enable_latency_sketches fab;
  let dev name =
    match T.Topology.device_by_name topo name with
    | Some d -> d.T.Device.id
    | None -> failwith ("no device " ^ name)
  in
  let route src dst =
    match T.Routing.shortest_path topo (dev src) (dev dst) with
    | Some p -> p
    | None -> failwith (Printf.sprintf "no path %s -> %s" src dst)
  in
  let gpu_nic = Array.init 64 (fun k -> route (Printf.sprintf "gpu%d" (k / 8)) (Printf.sprintf "nic%d" (k mod 8))) in
  let gpu_to_nic g n = gpu_nic.((8 * g) + n) in
  E.Fabric.batch fab (fun () ->
      for i = 0 to background - 1 do
        let g = i mod 8 in
        let path = if coupled g ((i / 8) mod 4 = 3) then gpu_to_nic g ((g + 3) mod 8) else gpu_to_nic g g in
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (i mod 16))
             ~weight:(1.0 +. float_of_int (i mod 3))
             ~path ~size:E.Flow.Unbounded ())
      done;
      for n = 0 to 7 do
        let nic = Printf.sprintf "nic%d" n in
        let socket = Printf.sprintf "socket%d" (T.Topology.device topo (dev nic)).T.Device.socket in
        for _ = 1 to 4 do
          ignore
            (E.Fabric.start_flow fab ~tenant:30 ~llc_target:true ~path:(route nic socket)
               ~size:E.Flow.Unbounded ())
        done
      done);
  let wiring = { Ihnet.Host.default_wiring with Ihnet.Host.shim_period = shim_period } in
  ignore (Ihnet.Host.enable_manager host ~wiring ());
  List.iter
    (fun intent ->
      match Span.wrap sp_submit (fun () -> Ihnet.Host.submit_intent host intent) with
      | Error e -> failwith ("pipe refused: " ^ M.Mgr_error.to_string e)
      | Ok ps ->
        let mgr = Option.get (Ihnet.Host.manager host) in
        List.iter
          (fun (p : M.Placement.t) ->
            let f =
              E.Fabric.start_flow fab ~tenant:p.M.Placement.tenant ~demand:p.M.Placement.rate
                ~path:p.M.Placement.path ~size:E.Flow.Unbounded ()
            in
            ignore (M.Manager.attach mgr f))
          ps)
    [
      M.Intent.pipe ~tenant:101 ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 4.0);
      M.Intent.pipe ~tenant:102 ~src:"nic4" ~dst:"socket1" ~rate:(U.Units.gbps 4.0);
      M.Intent.pipe ~tenant:103 ~src:"gpu2" ~dst:"nic2" ~rate:(U.Units.gbps 8.0);
      M.Intent.pipe ~tenant:104 ~src:"gpu6" ~dst:"nic6" ~rate:(U.Units.gbps 8.0);
    ];
  (* the generator: simulator events, so its calls nest inside the
     op's [Host.run_for] *)
  let rng = U.Rng.create ((seed * 104729) + 3) in
  (* heavy-tailed but of finite variance, so the work of a run does
     not swing with the seed *)
  let sizes = W.Traffic.Pareto { alpha = 2.5; x_min = 262144.0 } in
  let mutation f = Span.wrap sp_mutation f in
  let transfer () =
    let g = U.Rng.int rng 8 in
    let n = if coupled g (U.Rng.int rng 4 = 0) then (g + 3) mod 8 else g in
    ignore
      (E.Fabric.start_flow fab ~tenant:(50 + g) ~path:(gpu_to_nic g n)
         ~size:(E.Flow.Bytes (W.Traffic.draw_size rng sizes)) ())
  in
  let arrivals = ref 0 in
  let rec arrive _ =
    incr arrivals;
    if !arrivals mod 16 = 0 then
      mutation (fun () -> E.Fabric.batch fab (fun () -> for _ = 1 to 4 do transfer () done))
    else if !arrivals mod 8 = 0 then begin
      let g = U.Rng.int rng 8 in
      let f =
        mutation (fun () ->
            E.Fabric.start_flow fab ~tenant:(60 + g) ~path:(gpu_to_nic g (U.Rng.int rng 8))
              ~size:E.Flow.Unbounded ())
      in
      E.Sim.schedule sim
        ~after:(U.Rng.exponential rng (U.Units.ms 2.0))
        (fun _ -> mutation (fun () -> E.Fabric.stop_flow fab f))
    end
    else mutation transfer;
    E.Sim.schedule sim ~after:(U.Rng.exponential rng mean_interarrival) arrive
  in
  E.Sim.schedule sim ~after:(U.Rng.exponential rng mean_interarrival) arrive;
  let rec fault _ =
    (* the GPU's own uplink *)
    let g = U.Rng.int rng 8 in
    let link = (List.hd (gpu_to_nic g g).T.Path.hops).T.Path.link.T.Link.id in
    mutation (fun () -> E.Fabric.inject_fault fab link (E.Fault.degrade ~capacity_factor:0.5 ()));
    E.Sim.schedule sim ~after:(U.Units.ms 2.0) (fun _ ->
        mutation (fun () -> E.Fabric.clear_fault fab link));
    E.Sim.schedule sim ~after:(U.Units.ms 4.0) fault
  in
  E.Sim.schedule sim ~after:(U.Units.ms 1.5) fault;
  { host; fab; recorder; oc; trace_path; completions }

let run (cfg : config) inst =
  let fab = inst.fab and host = inst.host in
  let mgr = Option.get (Ihnet.Host.manager host) in
  let failed = ref 0 in
  let flows_live = Samples.create () in
  let counts = ref [] and fingerprint = ref [] and prefix = ref (0, 0) in
  let at = 200 in
  let checkpoint () =
    let bytes = pos_out inst.oc and lines = Rec.Recorder.lines inst.recorder in
    let s = E.Fabric.scan_solver_stats fab in
    prefix := (bytes, lines);
    counts :=
      [
        ("epochs", E.Fabric.reallocations fab);
        ("trace_lines", lines);
        ("trace_bytes", bytes);
        ("solver_full_rebuilds", s.E.Fairshare.full_rebuilds);
        ("solver_incremental", s.E.Fairshare.incremental);
        ("solver_unchanged", s.E.Fairshare.unchanged);
        ("memo_hits", E.Fabric.warm_hits fab);
        ("memo_misses", E.Fabric.warm_misses fab);
        ("completions", !(inst.completions));
        ("manager_decisions", M.Manager.decisions mgr);
        ("flows", E.Fabric.flow_count fab);
      ];
    fingerprint := [ ("scan_digest", hex64 (Ihnet.Host.scan host).Rec.Scanport.s_digest) ]
  in
  let e0 = Engine_layers.mark fab inst.completions in
  let dec0 = M.Manager.decisions mgr in
  let lines0 = Rec.Recorder.lines inst.recorder and bytes0 = pos_out inst.oc in
  let gc0 = gc_mark () in
  let ms = U.Units.ms 1.0 in
  let ops, elapsed, lat, done_s =
    timed_loop ~seconds:cfg.seconds ~min_ops:1000 ~at ~checkpoint (fun _ ->
        (try Span.wrap sp_run (fun () -> Ihnet.Host.run_for host ms)
         with e ->
           incr failed;
           prerr_endline ("host-churn: op raised " ^ Printexc.to_string e));
        if cfg.traced then Samples.add flows_live (float_of_int (E.Fabric.flow_count fab)))
  in
  let rss_mb = peak_rss_mb () in
  let gc_rows = gc_layers gc0 ~ops in
  let e1 = Engine_layers.mark fab inst.completions in
  let dec1 = M.Manager.decisions mgr in
  let lines1 = Rec.Recorder.lines inst.recorder and bytes1 = pos_out inst.oc in
  Rec.Recorder.stop inst.recorder;
  close_out inst.oc;
  let all_lines = Rec.Recorder.lines inst.recorder in
  let replay_check, replay_us = replay_trace ~domains inst.trace_path in
  let pbytes, plines = !prefix in
  fingerprint :=
    !fingerprint
    @ [
        ("trace_prefix_lines", string_of_int plines);
        ("trace_prefix_bytes", string_of_int pbytes);
        ("trace_prefix_digest", hex64 (file_prefix_digest inst.trace_path pbytes));
      ];
  let per_op x = float_of_int x /. float_of_int (max 1 ops) in
  let layers =
    if not cfg.traced then []
    else begin
      let agg = Span.aggregate () in
      let mean_us = Span.mean_us agg in
      let run_ns = (agg sp_run).Span.total_ns in
      let mut_ns = Span.child_time ~parent:sp_run ~child:sp_mutation in
      Engine_layers.rows e0 e1 ~ops
      @ [
          ("engine.mutation_us", mean_us sp_mutation, "us");
          ("engine.advance_us", float_of_int (run_ns - mut_ns) /. float_of_int (max 1 ops) /. 1e3, "us");
          ("engine.flows_live", Samples.mean flows_live, "count");
          ("manager.submit_us", mean_us sp_submit, "us");
          ("manager.decisions_per_op", per_op (dec1 - dec0), "count");
          ("record.sink_us", mean_us sp_sink, "us");
          ("record.lines_per_op", per_op (lines1 - lines0), "count");
          ("record.bytes_per_op", per_op (bytes1 - bytes0), "bytes");
          ("record.replay_us_per_line", replay_us /. float_of_int (max 1 all_lines), "us");
        ]
      @ gc_rows
    end
  in
  {
    ops;
    failed = !failed;
    elapsed;
    lat_us = lat;
    done_s;
    rss_mb;
    checks =
      [
        replay_check;
        check "ops" (!failed = 0) (Printf.sprintf "%d of %d ops raised" !failed ops);
      ];
    layers;
    counts = !counts;
    fingerprint = !fingerprint;
    pools = [ ("host_domains", E.Fabric.domains fab) ];
  }

let setup (cfg : config) =
  let inst = build ~seed:cfg.seed in
  { probe = (fun () -> hex64 (Ihnet.Host.scan inst.host).Rec.Scanport.s_digest); run = (fun () -> run cfg inst) }
