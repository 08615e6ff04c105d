(* Fleet control plane: channel fault model, lossy channels, typed
   controller errors, cross-host failover/reconciliation, and the
   determinism property (byte-identical decisions and per-host digests
   at every pool width). *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module M = Ihnet_manager
module F = Ihnet_fleet
module Chanfault = E.Chanfault

let tc name f = Alcotest.test_case name `Quick f

let prop name ?(count = 30) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* a fast-clocked controller so tests stay in the microsecond range *)
let quick_config =
  {
    F.Controller.default_config with
    F.Controller.round_len = U.Units.us 100.0;
  }

let mk ?(hosts = 2) ?(config = quick_config) ?(seed = 9) ?domains () =
  let t = F.Controller.create ~config ~seed ?domains () in
  for i = 0 to hosts - 1 do
    F.Controller.spawn t ~preset:Ihnet.Host.Minimal (Printf.sprintf "host%d" i)
  done;
  t

let intent i = M.Intent.pipe ~tenant:i ~src:"nic0" ~dst:"socket0" ~rate:(U.Units.gbps 2.0)

let placements_of t label tenant =
  match F.Controller.host t label with
  | None -> []
  | Some host -> (
    match Ihnet.Host.manager host with
    | None -> []
    | Some mgr ->
      List.filter (fun (p : M.Placement.t) -> p.M.Placement.tenant = tenant) (M.Manager.placements mgr))

(* {1 Chanfault: RNG only under fault} *)

let chanfault_tests =
  [
    tc "healthy model delivers instantly and never draws" (fun () ->
        let rng = U.Rng.create 1 in
        let before = U.Rng.peek rng in
        (match Chanfault.apply rng Chanfault.none with
        | Chanfault.Delivered { delay = 0; copies = 1 } -> ()
        | _ -> Alcotest.fail "expected instant single delivery");
        Alcotest.(check int64) "no draw" before (U.Rng.peek rng));
    tc "partition drops everything without drawing" (fun () ->
        let rng = U.Rng.create 1 in
        let before = U.Rng.peek rng in
        for _ = 1 to 10 do
          match Chanfault.apply rng Chanfault.partition with
          | Chanfault.Dropped -> ()
          | Chanfault.Delivered _ -> Alcotest.fail "partition leaked a message"
        done;
        Alcotest.(check int64) "no draw" before (U.Rng.peek rng));
    tc "total loss drops, certain duplication copies" (fun () ->
        let rng = U.Rng.create 1 in
        (match Chanfault.apply rng (Chanfault.lossy ~loss:1.0 ()) with
        | Chanfault.Dropped -> ()
        | Chanfault.Delivered _ -> Alcotest.fail "loss 1.0 delivered");
        match Chanfault.apply rng (Chanfault.lossy ~loss:0.0 ~dup_prob:1.0 ()) with
        | Chanfault.Delivered { copies = 2; _ } -> ()
        | _ -> Alcotest.fail "dup 1.0 did not duplicate");
    tc "fixed delay needs no draw; merge adds delays and keeps partition" (fun () ->
        let rng = U.Rng.create 1 in
        let before = U.Rng.peek rng in
        (match Chanfault.apply rng (Chanfault.delayed ~lo:3 ~hi:3) with
        | Chanfault.Delivered { delay = 3; copies = 1 } -> ()
        | _ -> Alcotest.fail "expected delay 3");
        Alcotest.(check int64) "no draw for a fixed delay" before (U.Rng.peek rng);
        let m = Chanfault.merge (Chanfault.delayed ~lo:1 ~hi:2) Chanfault.partition in
        Alcotest.(check bool) "partition dominates" true m.Chanfault.partitioned;
        Alcotest.(check int) "delays add" 1 m.Chanfault.delay_lo;
        Alcotest.(check string) "describe" "partitioned" (Chanfault.describe m));
  ]

(* {1 Channel} *)

let channel_tests =
  [
    tc "perfect channel is a one-tick FIFO and never draws" (fun () ->
        let ch = F.Channel.create (U.Rng.create 3) in
        let before = F.Channel.rng_peek ch in
        F.Channel.send ch "a";
        F.Channel.send ch "b";
        Alcotest.(check (list string)) "in order" [ "a"; "b" ] (F.Channel.tick ch);
        Alcotest.(check (list string)) "drained" [] (F.Channel.tick ch);
        Alcotest.(check int64) "no draw" before (F.Channel.rng_peek ch));
    tc "delay fault postpones delivery by whole ticks" (fun () ->
        let ch = F.Channel.create (U.Rng.create 3) in
        F.Channel.set_fault ch (Chanfault.delayed ~lo:2 ~hi:2);
        F.Channel.send ch 7;
        Alcotest.(check (list int)) "tick 1" [] (F.Channel.tick ch);
        Alcotest.(check (list int)) "tick 2" [] (F.Channel.tick ch);
        Alcotest.(check (list int)) "tick 3" [ 7 ] (F.Channel.tick ch));
    tc "clear models a crash losing everything in flight" (fun () ->
        let ch = F.Channel.create (U.Rng.create 3) in
        F.Channel.send ch 1;
        Alcotest.(check int) "in flight" 1 (F.Channel.in_flight ch);
        F.Channel.clear ch;
        Alcotest.(check (list int)) "gone" [] (F.Channel.tick ch));
  ]

(* {1 Typed fleet errors} *)

let error_tests =
  [
    tc "fleet error constructors render stable messages" (fun () ->
        Alcotest.(check string) "unreachable"
          "host host3 unreachable: control channel timed out"
          (M.Mgr_error.to_string (M.Mgr_error.Host_unreachable "host3"));
        Alcotest.(check string) "retries"
          "retries exhausted sending place to host host3"
          (M.Mgr_error.to_string
             (M.Mgr_error.Retries_exhausted { host = "host3"; command = "place" }));
        Alcotest.(check string) "no feasible host"
          "tenant 7: no host in the fleet can admit the placement"
          (M.Mgr_error.to_string (M.Mgr_error.No_feasible_host { tenant = 7 }));
        (* the pre-existing constructors still render byte-identically *)
        Alcotest.(check string) "legacy unchanged"
          "only pipe placements can be re-placed"
          (M.Mgr_error.to_string M.Mgr_error.Not_a_pipe));
  ]

(* {1 Controller: placement, failover, reconciliation} *)

let has_decision t pred = List.exists pred (F.Controller.decisions t)

let controller_tests =
  [
    tc "tenants land on the least-loaded hosts and stay put" (fun () ->
        let t = mk ~hosts:3 () in
        F.Controller.submit t (intent 1);
        F.Controller.submit t (intent 2);
        F.Controller.submit t (intent 3);
        F.Controller.run t ~rounds:6;
        let homes =
          List.filter_map
            (fun i ->
              match F.Controller.tenant_view t i with
              | Some (F.Controller.Placed l) -> Some l
              | _ -> None)
            [ 1; 2; 3 ]
        in
        Alcotest.(check int) "all placed" 3 (List.length homes);
        (* least-loaded spreading: three equal tenants, three hosts *)
        Alcotest.(check int) "spread out" 3 (List.length (List.sort_uniq compare homes));
        Alcotest.(check bool) "no migrations on a healthy fleet" false
          (has_decision t (function F.Controller.D_migrated _ -> true | _ -> false)));
    tc "a crashed host's tenants fail over to a sibling" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:4;
        let home =
          match F.Controller.tenant_view t 1 with
          | Some (F.Controller.Placed l) -> l
          | _ -> Alcotest.fail "tenant 1 not placed"
        in
        F.Controller.crash t home;
        F.Controller.run t ~rounds:12;
        Alcotest.(check bool) "host declared lost" true
          (has_decision t (function
            | F.Controller.D_host_lost { host } -> host = home
            | _ -> false));
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed l) ->
          Alcotest.(check bool) "moved off the dead host" true (l <> home)
        | _ -> Alcotest.fail "tenant 1 lost during failover");
        Alcotest.(check bool) "migration recorded as host-down" true
          (has_decision t (function
            | F.Controller.D_migrated { tenant = 1; from_; reason = F.Controller.Host_down; _ } ->
              from_ = home
            | _ -> false)));
    tc "no feasible host yields an explicit degraded verdict, restored on clear" (fun () ->
        let t = mk ~hosts:1 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:4;
        F.Controller.crash t "host0";
        F.Controller.run t ~rounds:12;
        (match F.Controller.tenant_view t 1 with
        | Some F.Controller.Fleet_degraded -> ()
        | _ -> Alcotest.fail "expected a fleet-level degraded verdict");
        Alcotest.(check bool) "degraded decision carries No_feasible_host" true
          (has_decision t (function
            | F.Controller.D_degraded
                { tenant = 1; cause = M.Mgr_error.No_feasible_host { tenant = 1 } } ->
              true
            | _ -> false));
        F.Controller.restart t "host0";
        F.Controller.run t ~rounds:16;
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed "host0") -> ()
        | _ -> Alcotest.fail "tenant not restored after the host came back");
        Alcotest.(check bool) "restore recorded" true
          (has_decision t (function
            | F.Controller.D_restored { tenant = 1; host = "host0" } -> true
            | _ -> false)));
    tc "a healed partition reconciles without double-applying commands" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:4;
        let home =
          match F.Controller.tenant_view t 1 with
          | Some (F.Controller.Placed l) -> l
          | _ -> Alcotest.fail "tenant 1 not placed"
        in
        let other = if home = "host0" then "host1" else "host0" in
        F.Controller.partition t home;
        F.Controller.run t ~rounds:12;
        (* failed over while the partitioned host kept serving on its
           last-known policy *)
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed l) -> Alcotest.(check string) "failed over" other l
        | _ -> Alcotest.fail "tenant 1 not failed over");
        Alcotest.(check int) "old host still runs the last-known policy" 1
          (List.length (placements_of t home 1));
        F.Controller.heal t home;
        F.Controller.run t ~rounds:12;
        Alcotest.(check bool) "stray revoked on heal" true
          (has_decision t (function
            | F.Controller.D_reconciled { host; revoked = [ 1 ] } -> host = home
            | _ -> false));
        Alcotest.(check int) "stray copy gone" 0 (List.length (placements_of t home 1));
        Alcotest.(check int) "exactly one live placement fleet-wide" 1
          (List.length (placements_of t other 1)));
    tc "lossy duplicated channels still apply each command exactly once" (fun () ->
        let t = mk ~hosts:1 ~seed:21 () in
        F.Controller.set_chanfault t "host0"
          (Chanfault.lossy ~loss:0.3 ~dup_prob:0.5 ());
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:40;
        (match F.Controller.tenant_view t 1 with
        | Some (F.Controller.Placed "host0") -> ()
        | _ -> Alcotest.fail "tenant never landed through the lossy channel");
        Alcotest.(check int) "single application despite retries and duplicates" 1
          (List.length (placements_of t "host0" 1)));
    tc "the fleet roll-up sees controller SLO verdicts" (fun () ->
        let t = mk ~hosts:2 () in
        F.Controller.submit t (intent 1);
        F.Controller.run t ~rounds:6;
        let f = F.Controller.collect t in
        Alcotest.(check int) "both hosts in the roll-up" 2
          (List.length f.Ihnet_monitor.Fleet.hosts);
        List.iter
          (fun (s : Ihnet_monitor.Fleet.host_status) ->
            Alcotest.(check int) "no violated SLO on a healthy fleet" 0
              s.Ihnet_monitor.Fleet.slo_violated)
          f.Ihnet_monitor.Fleet.hosts);
  ]

(* {1 Pinned decisions under an adversarial fleet}

   Every channel loses 10%, duplicates 30% and delays 0–3 rounds; a
   seeded adversary crashes, restarts, partitions and heals hosts while
   tenants churn. The decision count, [decisions_fingerprint] and a
   fingerprint of every host's placements after every round are pinned
   to values recorded before the controller's round was made linear
   (tenant index per host, argmin placement, pruned applied tables,
   packed decision log): none of that may change a decision. *)

let host_placements_fp t labels fp =
  Array.fold_left
    (fun fp l ->
      match F.Controller.host t l with
      | None -> Ihnet_record.Trace.fnv_int fp (-1)
      | Some host -> (
        match Ihnet.Host.manager host with
        | None -> Ihnet_record.Trace.fnv_int fp (-2)
        | Some mgr ->
          List.map (fun (p : M.Placement.t) -> p.M.Placement.tenant) (M.Manager.placements mgr)
          |> List.sort compare
          |> List.fold_left Ihnet_record.Trace.fnv_int (Ihnet_record.Trace.fnv_int fp (-3))))
    fp labels

(* [each_round t] runs after every round *)
let adversarial ~seed ?(each_round = fun _ -> ()) () =
  let t = mk ~hosts:12 ~seed () in
  let labels = Array.of_list (F.Controller.hosts t) in
  let fault = Chanfault.merge (Chanfault.lossy ~loss:0.1 ~dup_prob:0.3 ()) (Chanfault.delayed ~lo:0 ~hi:3) in
  Array.iter (fun l -> F.Controller.set_chanfault t l fault) labels;
  let rng = U.Rng.create ((seed * 31) + 7) in
  let live = Queue.create () and next = ref 0 in
  let submit () =
    incr next;
    F.Controller.submit t (intent !next);
    Queue.push !next live
  in
  for _ = 1 to 24 do
    submit ()
  done;
  let pending = ref [] and pfp = ref Ihnet_record.Trace.fnv_basis in
  let pick () =
    let busy = List.map (fun (_, l, _) -> l) !pending in
    let rec go () =
      let l = U.Rng.pick rng labels in
      if List.mem l busy then go () else l
    in
    go ()
  in
  let round () =
    F.Controller.round t;
    each_round t;
    pfp := host_placements_fp t labels !pfp
  in
  for r = 1 to 240 do
    if r mod 3 = 0 then begin
      F.Controller.revoke t ~tenant:(Queue.pop live);
      submit ()
    end;
    if r mod 20 = 0 then begin
      let l = pick () in
      F.Controller.crash t l;
      pending := (r + 8 + U.Rng.int rng 8, l, F.Controller.restart) :: !pending
    end;
    if r mod 20 = 10 then begin
      let l = pick () in
      F.Controller.partition t l;
      pending := (r + 6, l, F.Controller.heal) :: !pending
    end;
    let due, later = List.partition (fun (at, _, _) -> at <= r) !pending in
    pending := later;
    List.iter (fun (_, l, lift) -> lift t l) (List.rev due);
    round ()
  done;
  List.iter (fun (_, l, lift) -> lift t l) (List.rev !pending);
  Array.iter (fun l -> F.Controller.set_chanfault t l Chanfault.none) labels;
  for _ = 1 to 40 do
    round ()
  done;
  (t, !pfp)

let pinned_tests =
  let pinned seed ~decisions ~fingerprint ~placements =
    tc (Printf.sprintf "seed %d: decisions and placements match the pinned run" seed) (fun () ->
        let t, pfp = adversarial ~seed () in
        Alcotest.(check int) "decision count" decisions (List.length (F.Controller.decisions t));
        Alcotest.(check int64) "decisions_fingerprint" fingerprint (F.Controller.decisions_fingerprint t);
        Alcotest.(check int64) "host placements after every round" placements pfp)
  in
  [
    pinned 1 ~decisions:474 ~fingerprint:0x758f9582bf0fea0aL ~placements:0xaef82e61ab05ab58L;
    pinned 3 ~decisions:415 ~fingerprint:0xa33cbc9d2fdabd50L ~placements:0x167cf385cd5dc523L;
    tc "applied tables stay within the commands outstanding" (fun () ->
        let before = Hashtbl.create 16 and peak = ref 0 in
        let note t =
          List.iter
            (fun l -> Hashtbl.replace before l (F.Controller.commands_outstanding t l))
            (F.Controller.hosts t)
        in
        let each_round t =
          List.iter
            (fun l ->
              let n = F.Controller.applied_size t l in
              peak := max !peak n;
              let bound = Option.value ~default:0 (Hashtbl.find_opt before l) in
              if n > bound then
                Alcotest.failf "round %d: %s holds %d applied entries, %d outstanding before the round"
                  (F.Controller.rounds t) l n bound)
            (F.Controller.hosts t);
          note t
        in
        let t, _ = adversarial ~seed:2 ~each_round () in
        Alcotest.(check bool) "the tables were exercised" true (!peak > 0);
        List.iter
          (fun l -> Alcotest.(check int) (l ^ " drained after quiesce") 0 (F.Controller.applied_size t l))
          (F.Controller.hosts t));
    tc "a retry copy arriving after the ack is re-acked, not re-applied" (fun () ->
        (* a fixed 3-round delay each way outlasts the 2-round ack timeout:
           the retry copy is still on the wire when the ack lands *)
        let t = mk ~hosts:1 () in
        F.Controller.set_chanfault t "host0" (Chanfault.delayed ~lo:3 ~hi:3);
        F.Controller.submit t (intent 1);
        let held = ref false in
        for _ = 1 to 30 do
          F.Controller.round t;
          if F.Controller.tenant_view t 1 = Some (F.Controller.Placed "host0")
             && F.Controller.applied_size t "host0" > 0
          then held := true
        done;
        Alcotest.(check bool) "entry kept while a copy was on the wire" true !held;
        Alcotest.(check int) "applied once" 1 (List.length (placements_of t "host0" 1));
        Alcotest.(check int) "pruned once the wire drained" 0 (F.Controller.applied_size t "host0"));
  ]

(* {1 Idle discipline: a dormant controller is invisible} *)

let idle_tests =
  [
    tc "wrapping an unmanaged host leaves its run byte-identical" (fun () ->
        let build () =
          let host = Ihnet.Host.create ~seed:11 ~domains:1 Ihnet.Host.Minimal in
          let fab = Ihnet.Host.fabric host in
          let topo = Ihnet.Host.topology host in
          let dv name =
            match T.Topology.device_by_name topo name with
            | Some d -> d.T.Device.id
            | None -> Alcotest.failf "no device %s" name
          in
          let p =
            match T.Routing.shortest_path topo (dv "nic0") (dv "socket0") with
            | Some p -> p
            | None -> Alcotest.fail "no path"
          in
          ignore (E.Fabric.start_flow fab ~tenant:1 ~path:p ~size:E.Flow.Unbounded ());
          host
        in
        let bare = build () in
        for _ = 1 to 20 do
          Ihnet.Host.run_for bare (U.Units.us 100.0)
        done;
        let wrapped = build () in
        let t = F.Controller.create ~config:quick_config ~seed:9 () in
        F.Controller.add_host t ~label:"solo" wrapped;
        let rng_before = F.Controller.channel_rng_peek t "solo" in
        F.Controller.run t ~rounds:20;
        Alcotest.(check int64) "scan digests equal"
          (Ihnet.Host.scan bare).Ihnet_record.Scanport.s_digest
          (Ihnet.Host.scan wrapped).Ihnet_record.Scanport.s_digest;
        Alcotest.(check int) "no decisions" 0 (List.length (F.Controller.decisions t));
        Alcotest.(check int64) "channel plane never drew" rng_before
          (F.Controller.channel_rng_peek t "solo"));
  ]

(* {1 Determinism: byte-identical at every pool width} *)

(* A random fleet op sequence, interpreted identically against
   controllers running their host-shard phase at pool widths 1, 2 and
   4: the rendered decision logs and every per-host scan digest must
   be byte-identical (MODEL.md §16). Ops are small ints so qcheck
   shrinks nicely. *)
let interpret ops ~domains =
  let t = mk ~hosts:4 ~seed:77 ~domains () in
  let next_tenant = ref 0 in
  List.iter
    (fun op ->
      match op mod 8 with
      | 0 | 1 ->
        incr next_tenant;
        F.Controller.submit t (intent !next_tenant)
      | 2 ->
        let label = Printf.sprintf "host%d" (op / 8 mod 4) in
        if F.Controller.host_view t label <> Some F.Controller.Crashed then
          F.Controller.crash t label
      | 3 ->
        let label = Printf.sprintf "host%d" (op / 8 mod 4) in
        if F.Controller.host_view t label = Some F.Controller.Crashed then
          F.Controller.restart t label
      | 4 -> F.Controller.partition t (Printf.sprintf "host%d" (op / 8 mod 4))
      | 5 -> F.Controller.heal t (Printf.sprintf "host%d" (op / 8 mod 4))
      | _ -> F.Controller.round t)
    ops;
  F.Controller.run t ~rounds:4;
  ( F.Controller.decisions_fingerprint t,
    F.Controller.digest t,
    F.Controller.host_digests t )

let determinism_props =
  [
    prop "random op sequences are byte-identical at pool widths 1, 2 and 4" ~count:10
      QCheck.(list_of_size Gen.(int_range 4 24) (int_range 0 255))
      (fun ops ->
        let fp1, d1, h1 = interpret ops ~domains:1 in
        let fp2, d2, h2 = interpret ops ~domains:2 in
        let fp4, d4, h4 = interpret ops ~domains:4 in
        fp1 = fp2 && fp2 = fp4 && d1 = d2 && d2 = d4 && h1 = h2 && h2 = h4);
  ]

let suites =
  [
    ("fleet.chanfault", chanfault_tests);
    ("fleet.channel", channel_tests);
    ("fleet.errors", error_tests);
    ("fleet.controller", controller_tests);
    ("fleet.pinned", pinned_tests);
    ("fleet.idle", idle_tests);
    ("fleet.determinism", determinism_props);
  ]
