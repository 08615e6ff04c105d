(* fleet-rounds: the fleet control plane.

   [Controller.create ~domains:2] over 256 Minimal hosts with 256 pipe
   tenants placed during set-up; from then on 10% of the hosts (a
   seeded choice) talk over a 5%-loss channel. One op revokes the 4 oldest tenants,
   submits 4 new ones and runs one [Controller.round]; every 25th op is
   a rolling redeploy that replaces the 128 oldest instead. Every 50
   rounds one host crashes and restarts 20 rounds later, and 25 rounds
   after each crash one host partitions and heals 10 rounds later.
   After the timed window every fault is lifted and the fleet
   quiesces; a tenant not Placed on exactly one host then is a
   failure. *)

module E = Ihnet_engine
module U = Ihnet_util
module M = Ihnet_manager
module F = Ihnet_fleet
module C = F.Controller
open Common

let sp_submit = Span.name "fleet.submit"
let sp_revoke = Span.name "fleet.revoke"
let sp_fault = Span.name "fleet.fault"
let sp_round = Span.name "fleet.round"

let hosts = 256
let tenants = 256
let domains = 2

(* Tenants replaced per op, and per redeploy op. Redeploys are 4% of
   the ops, so p99 falls inside their class and is set by placement
   work. Without them p99 fell at the edge between ordinary rounds and
   rounds stalled by the machine, and swung with the machine's load
   (an IQR of 0.39 of the median over ten seeds, against 0.06 to 0.08
   with them, on a shared 2-vCPU VM). *)
let churn = 4
let redeploy = 128
let redeploy_every = 25

type inst = {
  t : C.t;
  labels : string array;
  rng : U.Rng.t;  (** The fault adversary. *)
  queue : int Queue.t;  (** Registered tenants, oldest first. *)
  mutable next_tenant : int;
}

let submit inst =
  let id = inst.next_tenant in
  inst.next_tenant <- id + 1;
  Span.wrap sp_submit (fun () ->
      C.submit inst.t (M.Intent.pipe ~tenant:id ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0)));
  Queue.push id inst.queue

(* tenants Placed on exactly one host, by the controller's view and by
   the hosts' own managers. The controller keeps a revoked tenant
   registered until its revoke completes, so a run can end with more
   than [tenants]. *)
let placed_once t labels =
  let backing = Hashtbl.create 512 in
  Array.iter
    (fun l ->
      match C.host t l with
      | None -> ()
      | Some h -> (
        match Ihnet.Host.manager h with
        | None -> ()
        | Some mgr ->
          List.iter
            (fun (p : M.Placement.t) ->
              let tn = p.M.Placement.tenant in
              Hashtbl.replace backing tn (1 + Option.value ~default:0 (Hashtbl.find_opt backing tn)))
            (M.Manager.placements mgr)))
    labels;
  List.fold_left
    (fun (ok, bad) id ->
      match C.tenant_view t id with
      | Some (C.Placed _) when Hashtbl.find_opt backing id = Some 1 -> (ok + 1, bad)
      | _ -> (ok, bad + 1))
    (0, 0) (C.tenants t)

let build ~seed =
  let config = { C.default_config with C.round_len = U.Units.us 100.0 } in
  let t = C.create ~config ~seed ~domains () in
  for h = 0 to hosts - 1 do
    C.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "h%03d" h)
  done;
  let labels = Array.of_list (C.hosts t) in
  let rng = U.Rng.create ((seed * 65537) + 11) in
  let order = Array.copy labels in
  U.Rng.shuffle rng order;
  let inst = { t; labels; rng; queue = Queue.create (); next_tenant = 1 } in
  for _ = 1 to tenants do
    submit inst
  done;
  let rec converge n =
    if n = 0 then failwith "fleet did not place every tenant during set-up";
    C.round t;
    if snd (placed_once t labels) > 0 then converge (n - 1)
  in
  converge 200;
  (* lossy channels only once every tenant is placed: losses during
     placement cost retries with backoff, so set-up took 4, 8 or 16
     rounds depending on the seed *)
  for i = 0 to (hosts / 10) - 1 do
    C.set_chanfault t order.(i) (E.Chanfault.lossy ~loss:0.05 ())
  done;
  inst

let kinds =
  [
    ("placed", function C.D_placed _ -> true | _ -> false);
    ("migrated", function C.D_migrated _ -> true | _ -> false);
    ("degraded", function C.D_degraded _ -> true | _ -> false);
    ("restored", function C.D_restored _ -> true | _ -> false);
    ("host_lost", function C.D_host_lost _ -> true | _ -> false);
    ("host_recovered", function C.D_host_recovered _ -> true | _ -> false);
    ("held_down", function C.D_held_down _ -> true | _ -> false);
    ("reconciled", function C.D_reconciled _ -> true | _ -> false);
    ("command_failed", function C.D_command_failed _ -> true | _ -> false);
  ]

let by_kind t =
  let ds = C.decisions t in
  ("decisions", List.length ds)
  :: List.map (fun (k, p) -> (k, List.length (List.filter p ds))) kinds

let run (cfg : config) inst =
  let t = inst.t in
  let flows_live = Samples.create () in
  (* faults in flight: (round to lift it, host, lift) *)
  let pending = ref [] in
  let fault what host = Span.wrap sp_fault (fun () -> what t host) in
  let pick () =
    let busy = List.map (fun (_, h, _) -> h) !pending in
    let rec go () =
      let h = U.Rng.pick inst.rng inst.labels in
      if List.mem h busy then go () else h
    in
    go ()
  in
  let op k =
    let n = if k mod redeploy_every = redeploy_every - 1 then redeploy else churn in
    for _ = 1 to n do
      let id = Queue.pop inst.queue in
      Span.wrap sp_revoke (fun () -> C.revoke t ~tenant:id)
    done;
    for _ = 1 to n do
      submit inst
    done;
    if k mod 50 = 0 then begin
      let h = pick () in
      fault C.crash h;
      pending := (k + 20, h, C.restart) :: !pending
    end;
    if k mod 50 = 25 then begin
      let h = pick () in
      fault C.partition h;
      pending := (k + 10, h, C.heal) :: !pending
    end;
    let due, later = List.partition (fun (r, _, _) -> r <= k) !pending in
    pending := later;
    List.iter (fun (_, h, lift) -> fault lift h) (List.rev due);
    Span.wrap sp_round (fun () -> C.round t);
    if cfg.traced then
      Samples.add flows_live
        (float_of_int
           (Array.fold_left
              (fun a l ->
                match C.host t l with
                | Some h -> a + E.Fabric.flow_count (Ihnet.Host.fabric h)
                | None -> a)
              0 inst.labels))
  in
  let counts = ref [] and fingerprint = ref [] in
  let checkpoint () =
    counts := ("rounds", C.rounds t) :: by_kind t;
    fingerprint :=
      [ ("decisions_fingerprint", hex64 (C.decisions_fingerprint t)); ("fleet_digest", hex64 (C.digest t)) ]
  in
  let k0 = by_kind t in
  let gc0 = gc_mark () in
  let ops, elapsed, lat, done_s = timed_loop ~seconds:cfg.seconds ~min_ops:1000 ~at:120 ~checkpoint op in
  let rss_mb = peak_rss_mb () in
  let gc_rows = gc_layers gc0 ~ops in
  let k1 = by_kind t in
  (* quiesce: lift every fault, then let the fleet settle *)
  List.iter (fun (_, h, lift) -> lift t h) !pending;
  let rec quiesce n =
    C.round t;
    if n > 0 && snd (placed_once t inst.labels) > 0 then quiesce (n - 1)
  in
  quiesce 300;
  let placed, unplaced = placed_once t inst.labels in
  let registered = placed + unplaced in
  let delta k = List.assoc k k1 - List.assoc k k0 in
  let per_round k = float_of_int (delta k) /. float_of_int (max 1 ops) in
  let layers =
    if not cfg.traced then []
    else begin
      let agg = Span.aggregate () in
      let mean_us = Span.mean_us agg in
      [
        ("fleet.submit_us", mean_us sp_submit, "us");
        ("fleet.revoke_us", mean_us sp_revoke, "us");
        ("fleet.fault_us", mean_us sp_fault, "us");
        ("fleet.decisions_per_round", per_round "decisions", "count");
        ("fleet.placed", per_round "placed", "count");
        ("fleet.migrated", per_round "migrated", "count");
        ("fleet.host_lost", per_round "host_lost", "count");
        ("fleet.command_failed", per_round "command_failed", "count");
        ("fleet.placed_ratio", float_of_int placed /. float_of_int (max 1 registered), "ratio");
        ("engine.flows_live", Samples.mean flows_live, "count");
      ]
      @ gc_rows
    end
  in
  {
    ops;
    failed = unplaced;
    elapsed;
    lat_us = lat;
    done_s;
    rss_mb;
    checks =
      [
        check "placed_once" (unplaced = 0)
          (Printf.sprintf "%d of %d tenants Placed on exactly one host after quiesce" placed registered);
      ];
    layers;
    counts = !counts;
    fingerprint = !fingerprint;
    pools = [ ("fleet_domains", domains); ("host_domains", 1) ];
  }

let setup (cfg : config) =
  let inst = build ~seed:cfg.seed in
  {
    probe = (fun () -> hex64 (C.decisions_fingerprint inst.t) ^ "/" ^ hex64 (C.digest inst.t));
    run = (fun () -> run cfg inst);
  }
