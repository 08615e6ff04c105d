module U = Ihnet_util
module Units = U.Units
module Rng = U.Rng
module Pool = U.Pool
module M = Ihnet_manager
module Mon = Ihnet_monitor
module Chanfault = Ihnet_engine.Chanfault
module Scanport = Ihnet_record.Scanport
module Trace = Ihnet_record.Trace
module IS = Set.Make (Int)

type config = {
  round_len : Units.ns;
  cmd_timeout : int;
  max_retries : int;
  backoff_factor : float;
  unreachable_after : int;
  flap_window : int;
  flap_threshold : int;
  holddown : int;
  degraded_retry : int;
}

let default_config =
  {
    round_len = Units.ms 1.0;
    cmd_timeout = 2;
    max_retries = 4;
    backoff_factor = 2.0;
    unreachable_after = 3;
    flap_window = 20;
    flap_threshold = 4;
    holddown = 10;
    degraded_retry = 5;
  }

type host_view = Reachable | Unreachable | Crashed

type tenant_view =
  | Unplaced
  | Placing of string
  | Placed of string
  | Migrating of { from_ : string; to_ : string }
  | Fleet_degraded

type reason = Host_down | Slo | Admission

type decision =
  | D_placed of { tenant : int; host : string }
  | D_migrated of { tenant : int; from_ : string; to_ : string; reason : reason }
  | D_degraded of { tenant : int; cause : M.Mgr_error.t }
  | D_restored of { tenant : int; host : string }
  | D_host_lost of { host : string }
  | D_host_recovered of { host : string }
  | D_held_down of { host : string }
  | D_reconciled of { host : string; revoked : int list }
  | D_command_failed of { host : string; tenant : int; error : M.Mgr_error.t }

let reason_to_string = function
  | Host_down -> "host-down"
  | Slo -> "slo"
  | Admission -> "admission"

let decision_to_string = function
  | D_placed { tenant; host } -> Printf.sprintf "place tenant %d on %s" tenant host
  | D_migrated { tenant; from_; to_; reason } ->
    Printf.sprintf "migrate tenant %d %s -> %s (%s)" tenant from_ to_ (reason_to_string reason)
  | D_degraded { tenant; cause } ->
    Printf.sprintf "fleet-degrade tenant %d: %s" tenant (M.Mgr_error.to_string cause)
  | D_restored { tenant; host } -> Printf.sprintf "restore tenant %d on %s" tenant host
  | D_host_lost { host } -> Printf.sprintf "host %s lost" host
  | D_host_recovered { host } -> Printf.sprintf "host %s recovered" host
  | D_held_down { host } -> Printf.sprintf "hold down flapping host %s" host
  | D_reconciled { host; revoked } ->
    Printf.sprintf "reconcile %s: revoke stray tenant(s) %s" host
      (String.concat "," (List.map string_of_int revoked))
  | D_command_failed { host; tenant; error } ->
    Printf.sprintf "command to %s for tenant %d failed: %s" host tenant
      (M.Mgr_error.to_string error)

(* {1 The decision log}

   Two packed ints per decision in fixed-size off-heap chunks, so a
   long run's log neither grows the major heap nor copies itself as it
   grows. A row is [a; kind lor (h1 lsl 4) lor (h2 lsl 33)]: [a] is the
   tenant (or, for a host-only decision, the host) and [h1]/[h2] are
   host indexes. The few decisions that carry a payload (an error or a
   revoked list) are kept whole in a side vector; their row holds
   their position there. *)

module Dlog = struct
  module A1 = Bigarray.Array1

  let rows_per_chunk = 8192

  type t = {
    chunks : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t U.Vec.t;
    side : decision U.Vec.t;
    mutable len : int;
  }

  let create () = { chunks = U.Vec.create (); side = U.Vec.create (); len = 0 }
  let length t = t.len

  let row t kind a ?(h1 = 0) ?(h2 = 0) () =
    let r = t.len mod rows_per_chunk in
    if r = 0 then U.Vec.push t.chunks (A1.create Bigarray.int Bigarray.c_layout (2 * rows_per_chunk));
    let ch = U.Vec.get t.chunks (t.len / rows_per_chunk) in
    A1.set ch (2 * r) a;
    A1.set ch ((2 * r) + 1) (kind lor (h1 lsl 4) lor (h2 lsl 33));
    t.len <- t.len + 1

  let reason_code = function Host_down -> 0 | Slo -> 1 | Admission -> 2
  let reason_of = function 0 -> Host_down | 1 -> Slo | _ -> Admission

  (* [index] maps a host label to its enrollment index *)
  let push t ~index d =
    match d with
    | D_placed { tenant; host } -> row t 0 tenant ~h1:(index host) ()
    | D_migrated { tenant; from_; to_; reason } ->
      row t (1 + reason_code reason) tenant ~h1:(index from_) ~h2:(index to_) ()
    | D_restored { tenant; host } -> row t 4 tenant ~h1:(index host) ()
    | D_host_lost { host } -> row t 5 (index host) ()
    | D_host_recovered { host } -> row t 6 (index host) ()
    | D_held_down { host } -> row t 7 (index host) ()
    | D_degraded _ | D_reconciled _ | D_command_failed _ ->
      row t 8 (U.Vec.length t.side) ();
      U.Vec.push t.side d

  (* [label] is [index]'s inverse *)
  let get t ~label i =
    let ch = U.Vec.get t.chunks (i / rows_per_chunk) and r = i mod rows_per_chunk in
    let a = A1.get ch (2 * r) and w = A1.get ch ((2 * r) + 1) in
    let h1 () = label ((w lsr 4) land 0x1fff_ffff) and h2 () = label (w lsr 33) in
    match w land 0xf with
    | 0 -> D_placed { tenant = a; host = h1 () }
    | (1 | 2 | 3) as k -> D_migrated { tenant = a; from_ = h1 (); to_ = h2 (); reason = reason_of (k - 1) }
    | 4 -> D_restored { tenant = a; host = h1 () }
    | 5 -> D_host_lost { host = label a }
    | 6 -> D_host_recovered { host = label a }
    | 7 -> D_held_down { host = label a }
    | _ -> U.Vec.get t.side a

  let to_list t ~label =
    let rec go i acc = if i < 0 then acc else go (i - 1) (get t ~label i :: acc) in
    go (t.len - 1) []
end

(* {1 Wire messages} *)

type cmd_body = Cplace of M.Intent.t | Crevoke of int

let cmd_name = function Cplace _ -> "place" | Crevoke _ -> "revoke"

type command = { c_seq : int; c_epoch : int; c_body : cmd_body }
type ack = { a_seq : int; a_result : (unit, M.Mgr_error.t) result }

type report = {
  r_round : int;
  r_epoch : int;
  r_placed : int list;  (** Tenants with live placements, ascending. *)
  r_sick : int list;  (** Tenants with a violated SLO, ascending. *)
  r_degraded : int;
  r_violated : int;
}

type uplink = Ack of ack | Report of report

(* {1 Records} *)

type hosted = {
  h_label : string;
  h_index : int;
  h_preset : Ihnet.Host.preset option;  (* None = enrolled via add_host *)
  mutable h_host : Ihnet.Host.t option;  (* None while crashed *)
  h_cmd : command Channel.t;  (* controller -> host *)
  h_up : uplink Channel.t;  (* host -> controller *)
  h_applied : (int, (unit, M.Mgr_error.t) result) Hashtbl.t;
      (* at-most-once stable storage: seq -> outcome, survives restart *)
  h_revoked : (int, int) Hashtbl.t;  (* tenant -> round of last cleanup revoke *)
  h_rng : Rng.t;  (* the host's own stream: restart seeds *)
  mutable h_epoch : int;  (* actual incarnation (host-side truth) *)
  mutable h_known_epoch : int;  (* controller's belief *)
  mutable h_belief : [ `Reachable | `Unreachable ];
  mutable h_last_report : int;
  mutable h_flaps : int list;  (* rounds of belief transitions, newest first *)
  mutable h_held_until : int;
  mutable h_base_fault : Chanfault.fault;
  mutable h_partitioned : bool;
  mutable h_last_slo : int * int;  (* (degraded, violated) from last report *)
  mutable h_sick : int list;
}

type tenant = {
  tn_id : int;
  tn_intent : M.Intent.t;
  mutable tn_state : tenant_view;
  mutable tn_prev : string option;  (* origin of a pending move, for the decision *)
  mutable tn_reason : reason option;
  mutable tn_was_degraded : bool;
  mutable tn_tried : int list;  (* host indexes refused during this attempt *)
  mutable tn_since : int;  (* round of the last successful placement ack *)
  mutable tn_retry_at : int;
  mutable tn_gone : bool;  (* operator revoked *)
}

type purpose = Primary | Cleanup

type inflight = {
  if_seq : int;
  if_host : int;
  if_tenant : int;
  if_body : cmd_body;
  if_purpose : purpose;
  mutable if_attempt : int;
  mutable if_deadline : int;
}

type t = {
  cfg : config;
  seed : int;
  domains : int;  (* pool width for the host-shard phase *)
  mutable harr : hosted array;
  mutable nhosts : int;
  host_by_label : (string, int) Hashtbl.t;
  tenant_tbl : (int, tenant) Hashtbl.t;
  mutable tenant_order : IS.t;
  mutable round_no : int;
  mutable next_seq : int;
  inflight : (int, inflight) Hashtbl.t;
  log : Dlog.t;
  mutable fp : int64;
}

let create ?(config = default_config) ?(seed = 42) ?domains () =
  {
    cfg = config;
    seed;
    domains = (match domains with Some d -> max 1 d | None -> Pool.default_domains ());
    harr = [||];
    nhosts = 0;
    host_by_label = Hashtbl.create 64;
    tenant_tbl = Hashtbl.create 64;
    tenant_order = IS.empty;
    round_no = 0;
    next_seq = 0;
    inflight = Hashtbl.create 17;
    log = Dlog.create ();
    fp = Trace.fnv_basis;
  }

let record t d =
  Dlog.push t.log ~index:(Hashtbl.find t.host_by_label) d;
  t.fp <- Trace.fnv_string (Trace.fnv_int t.fp t.round_no) (decision_to_string d)

let get t label =
  match Hashtbl.find_opt t.host_by_label label with
  | Some i -> t.harr.(i)
  | None -> invalid_arg (Printf.sprintf "Fleet.Controller: unknown host %S" label)

(* {1 Membership} *)

let enroll t label preset host_opt =
  if Hashtbl.mem t.host_by_label label then
    invalid_arg (Printf.sprintf "Fleet.Controller: duplicate host label %S" label);
  let i = t.nhosts in
  let h =
    {
      h_label = label;
      h_index = i;
      h_preset = preset;
      h_host = host_opt;
      h_cmd = Channel.create (Rng.stream t.seed ((3 * i) + 0));
      h_up = Channel.create (Rng.stream t.seed ((3 * i) + 1));
      h_applied = Hashtbl.create 17;
      h_revoked = Hashtbl.create 7;
      h_rng = Rng.stream t.seed ((3 * i) + 2);
      h_epoch = 0;
      h_known_epoch = 0;
      h_belief = `Reachable;
      h_last_report = t.round_no;
      h_flaps = [];
      h_held_until = 0;
      h_base_fault = Chanfault.none;
      h_partitioned = false;
      h_last_slo = (0, 0);
      h_sick = [];
    }
  in
  if i = Array.length t.harr then begin
    let cap = max 8 (2 * Array.length t.harr) in
    let bigger = Array.make cap h in
    Array.blit t.harr 0 bigger 0 i;
    t.harr <- bigger
  end;
  t.harr.(i) <- h;
  t.nhosts <- i + 1;
  Hashtbl.replace t.host_by_label label i;
  h

(* 62 random bits -> a non-negative int seed for a host incarnation. *)
let draw_seed rng = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)

let spawn t ?(preset = Ihnet.Host.Two_socket) label =
  (* the host's stream exists before the host so restart draws continue it *)
  let i = t.nhosts in
  let rng = Rng.stream t.seed ((3 * i) + 2) in
  let seed = draw_seed rng in
  let host = Ihnet.Host.create ~seed ~domains:1 preset in
  let h = enroll t label (Some preset) (Some host) in
  (* keep the pre-advanced stream so the next incarnation draws fresh *)
  ignore (Rng.bits64 h.h_rng)

let add_host t ~label host = ignore (enroll t label None (Some host))

let hosts t = Array.to_list (Array.sub t.harr 0 t.nhosts) |> List.map (fun h -> h.h_label)
let host t label = (get t label).h_host

(* {1 Fault injection} *)

let effective_fault h =
  if h.h_partitioned then Chanfault.merge h.h_base_fault Chanfault.partition
  else h.h_base_fault

let refresh_fault h =
  Channel.set_fault h.h_cmd (effective_fault h);
  Channel.set_fault h.h_up (effective_fault h)

let crash t label =
  let h = get t label in
  h.h_host <- None;
  Channel.clear h.h_cmd;
  Channel.clear h.h_up

let restart t label =
  let h = get t label in
  if h.h_host <> None then
    invalid_arg (Printf.sprintf "Fleet.Controller: host %S is not crashed" label);
  match h.h_preset with
  | None -> invalid_arg (Printf.sprintf "Fleet.Controller: host %S was not spawned here" label)
  | Some preset ->
    h.h_epoch <- h.h_epoch + 1;
    let seed = draw_seed h.h_rng in
    h.h_host <- Some (Ihnet.Host.create ~seed ~domains:1 preset)

let partition t label =
  let h = get t label in
  h.h_partitioned <- true;
  refresh_fault h

let heal t label =
  let h = get t label in
  h.h_partitioned <- false;
  refresh_fault h

let set_chanfault t label fault =
  let h = get t label in
  h.h_base_fault <- fault;
  refresh_fault h

(* {1 Desired state} *)

let submit t intent =
  let id = intent.M.Intent.tenant in
  if Hashtbl.mem t.tenant_tbl id then
    invalid_arg (Printf.sprintf "Fleet.Controller: tenant %d already registered" id);
  Hashtbl.replace t.tenant_tbl id
    {
      tn_id = id;
      tn_intent = intent;
      tn_state = Unplaced;
      tn_prev = None;
      tn_reason = None;
      tn_was_degraded = false;
      tn_tried = [];
      tn_since = 0;
      tn_retry_at = 0;
      tn_gone = false;
    };
  t.tenant_order <- IS.add id t.tenant_order

let revoke t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | None -> ()
  | Some tn -> tn.tn_gone <- true

let remove_tenant t id =
  Hashtbl.remove t.tenant_tbl id;
  t.tenant_order <- IS.remove id t.tenant_order

let iter_tenants t f =
  IS.iter
    (fun id -> match Hashtbl.find_opt t.tenant_tbl id with Some tn -> f tn | None -> ())
    t.tenant_order

(* Host index -> ids of the tenants assigned there, ascending: Placed
   or Placing on it, or Migrating from or to it (make-before-break
   counts both ends). O(hosts + tenants); callers re-check each
   tenant's state at visit time. *)
let tenants_by_host t =
  let idx = Array.make t.nhosts [] in
  let add lbl id =
    match Hashtbl.find_opt t.host_by_label lbl with
    | Some i -> idx.(i) <- id :: idx.(i)
    | None -> ()
  in
  Seq.iter
    (fun id ->
      match Hashtbl.find_opt t.tenant_tbl id with
      | None -> ()
      | Some tn -> (
        match tn.tn_state with
        | Placed l | Placing l -> add l id
        | Migrating { from_; to_ } ->
          add from_ id;
          add to_ id
        | Unplaced | Fleet_degraded -> ()))
    (IS.to_rev_seq t.tenant_order);
  idx

(* the [Placed] tenants among a host's index entries, ascending *)
let placed_on t h ids =
  List.filter
    (fun id ->
      match Hashtbl.find_opt t.tenant_tbl id with
      | Some { tn_state = Placed l; _ } -> l = h.h_label
      | _ -> false)
    ids

let has_cleanup_revoke t ~host ~tenant =
  Hashtbl.fold
    (fun _ inf acc ->
      acc
      || inf.if_purpose = Cleanup && inf.if_host = host && inf.if_tenant = tenant
         && match inf.if_body with Crevoke _ -> true | Cplace _ -> false)
    t.inflight false

let send_cmd t h purpose tenant body =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Hashtbl.replace t.inflight seq
    {
      if_seq = seq;
      if_host = h.h_index;
      if_tenant = tenant;
      if_body = body;
      if_purpose = purpose;
      if_attempt = 0;
      if_deadline = t.round_no + t.cfg.cmd_timeout;
    };
  Channel.send h.h_cmd { c_seq = seq; c_epoch = h.h_known_epoch; c_body = body }

let cleanup_revoke t h tenant =
  Hashtbl.replace h.h_revoked tenant t.round_no;
  send_cmd t h Cleanup tenant (Crevoke tenant)

(* {1 Phase 1: advance every live host and push its report}

   Parallel across the pool: each task owns exactly one host (its
   simulation, manager, SLO reports and uplink channel are all
   host-local), results merge by index, so the phase is byte-identical
   under any pool width or shard grouping. The SLO check only runs
   when the host actually carries placements — a dormant controller
   must not perturb an unmanaged host's float stream. *)

let observe_host host =
  match Ihnet.Host.manager host with
  | None -> ([], [], (0, 0))
  | Some mgr ->
    let placed = List.sort compare (M.Manager.tenants mgr) in
    if placed = [] then ([], [], (0, 0))
    else begin
      let rep = M.Slo.check mgr in
      let sick =
        List.filter_map
          (fun (e : M.Slo.entry) ->
            match e.M.Slo.state with
            | M.Slo.Violated _ -> Some e.M.Slo.placement.M.Placement.tenant
            | M.Slo.Inactive | M.Slo.Met | M.Slo.Degraded _ -> None)
          rep.M.Slo.entries
        |> List.sort_uniq compare
      in
      (placed, sick, (rep.M.Slo.degraded, rep.M.Slo.violations))
    end

let advance_and_report t =
  let n = t.nhosts in
  if n > 0 then begin
    let pool = Pool.get t.domains in
    ignore
      (Pool.map pool n (fun i ->
           let h = t.harr.(i) in
           match h.h_host with
           | None -> ()
           | Some host ->
             Ihnet.Host.run_for host t.cfg.round_len;
             let placed, sick, (deg, viol) = observe_host host in
             Channel.send h.h_up
               (Report
                  {
                    r_round = t.round_no;
                    r_epoch = h.h_epoch;
                    r_placed = placed;
                    r_sick = sick;
                    r_degraded = deg;
                    r_violated = viol;
                  })))
  end

(* {1 Phase 2: channel exchange (coordinator, host index order)} *)

let deliver_commands t h =
  let arrived = Channel.tick h.h_cmd in
  (match h.h_host with
  | None -> ()  (* crashed: arrivals hit a dead box *)
  | Some host ->
    List.iter
      (fun c ->
        if c.c_epoch = h.h_epoch then
          match Hashtbl.find_opt h.h_applied c.c_seq with
          | Some result ->
            (* duplicate: re-ack from stable storage, never re-apply *)
            Channel.send h.h_up (Ack { a_seq = c.c_seq; a_result = result })
          | None ->
            let result =
              match c.c_body with
              | Cplace intent -> (
                match Ihnet.Host.submit_intent host intent with
                | Ok _ -> Ok ()
                | Error e -> Error e)
              | Crevoke tenant -> (
                match Ihnet.Host.manager host with
                | Some mgr ->
                  M.Manager.revoke mgr ~tenant;
                  Ok ()
                | None -> Ok ())
            in
            Hashtbl.replace h.h_applied c.c_seq result;
            Channel.send h.h_up (Ack { a_seq = c.c_seq; a_result = result }))
      arrived);
  (* prune the applied table: a seq that has left [t.inflight] is never
     re-sent, so once no copy is left on the wire it cannot arrive again *)
  Hashtbl.filter_map_inplace
    (fun seq result ->
      if Hashtbl.mem t.inflight seq || Channel.exists h.h_cmd (fun c -> c.c_seq = seq) then
        Some result
      else None)
    h.h_applied

let note_flap t h =
  let cutoff = t.round_no - t.cfg.flap_window in
  h.h_flaps <- t.round_no :: List.filter (fun r -> r > cutoff) h.h_flaps;
  if List.length h.h_flaps >= t.cfg.flap_threshold && t.round_no >= h.h_held_until then begin
    h.h_held_until <- t.round_no + t.cfg.holddown;
    record t (D_held_down { host = h.h_label })
  end

let recently_revoked h tenant report_round =
  match Hashtbl.find_opt h.h_revoked tenant with
  | Some r -> report_round <= r
  | None -> false

(* Compare the host's claimed placements with the desired map: strays
   (tenants the controller failed over elsewhere during a partition)
   are revoked; desired tenants the host no longer carries (it
   restarted) go back to placement. [assigned] is the host's entry in
   {!tenants_by_host}, built before this receive phase: a tenant can
   only become [Placed] here without being listed through
   [placement_confirmed], whose [tn_since] fails the guard below. *)
let reconcile t h ~assigned r =
  let assigned_here tn =
    match tn.tn_state with
    | Placed l | Placing l -> l = h.h_label
    | Migrating { from_; to_ } -> from_ = h.h_label || to_ = h.h_label
    | Unplaced | Fleet_degraded -> false
  in
  let strays =
    List.filter
      (fun id ->
        (match Hashtbl.find_opt t.tenant_tbl id with
        | Some tn -> not (assigned_here tn)
        | None -> true)
        && (not (recently_revoked h id r.r_round))
        && not (has_cleanup_revoke t ~host:h.h_index ~tenant:id))
      r.r_placed
  in
  if strays <> [] then begin
    record t (D_reconciled { host = h.h_label; revoked = strays });
    List.iter (fun id -> cleanup_revoke t h id) strays
  end;
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.tenant_tbl id with
      | Some ({ tn_state = Placed l; _ } as tn)
        when l = h.h_label && (not (List.mem id r.r_placed)) && tn.tn_since < r.r_round ->
        (* the host restarted and lost it: fail over *)
        tn.tn_state <- Unplaced;
        tn.tn_prev <- Some l;
        tn.tn_reason <- Some Host_down;
        tn.tn_tried <- []
      | _ -> ())
    assigned

let on_report t h ~assigned r =
  if r.r_epoch > h.h_known_epoch then h.h_known_epoch <- r.r_epoch;
  h.h_last_report <- max h.h_last_report r.r_round;
  h.h_last_slo <- (r.r_degraded, r.r_violated);
  h.h_sick <- r.r_sick;
  if h.h_belief = `Unreachable then begin
    h.h_belief <- `Reachable;
    record t (D_host_recovered { host = h.h_label });
    note_flap t h
  end;
  reconcile t h ~assigned r

let placement_confirmed t h tn =
  let was_degraded = tn.tn_was_degraded in
  let prev = tn.tn_prev in
  tn.tn_state <- Placed h.h_label;
  tn.tn_since <- t.round_no;
  tn.tn_tried <- [];
  tn.tn_was_degraded <- false;
  let d =
    if was_degraded then D_restored { tenant = tn.tn_id; host = h.h_label }
    else
      match prev with
      | Some from_ when from_ <> h.h_label ->
        D_migrated
          {
            tenant = tn.tn_id;
            from_;
            to_ = h.h_label;
            reason = Option.value tn.tn_reason ~default:Admission;
          }
      | _ -> D_placed { tenant = tn.tn_id; host = h.h_label }
  in
  tn.tn_prev <- None;
  tn.tn_reason <- None;
  record t d

let on_ack t h a =
  match Hashtbl.find_opt t.inflight a.a_seq with
  | None -> ()  (* stale: the command was abandoned; reconciliation owns it now *)
  | Some inf -> (
    Hashtbl.remove t.inflight a.a_seq;
    match inf.if_purpose with
    | Cleanup -> ()
    | Primary -> (
      match Hashtbl.find_opt t.tenant_tbl inf.if_tenant with
      | None -> ()
      | Some tn -> (
        match (inf.if_body, a.a_result) with
        | Crevoke _, _ -> remove_tenant t tn.tn_id
        | Cplace _, Ok () -> (
          match tn.tn_state with
          | Placing l when l = h.h_label -> placement_confirmed t h tn
          | Migrating { from_; to_ } when to_ = h.h_label ->
            placement_confirmed t h tn;
            (* break after make: drop the old copy *)
            (match Hashtbl.find_opt t.host_by_label from_ with
            | Some fi when fi <> h.h_index -> cleanup_revoke t t.harr.(fi) tn.tn_id
            | _ -> ())
          | _ ->
            (* the plan moved on while this ack was in flight: the
               placement landed but is no longer wanted here *)
            cleanup_revoke t h tn.tn_id)
        | Cplace _, Error _ -> (
          (* admission refused: spill to the next candidate *)
          tn.tn_tried <- inf.if_host :: tn.tn_tried;
          match tn.tn_state with
          | Placing l when l = h.h_label -> tn.tn_state <- Unplaced
          | Migrating { from_; to_ } when to_ = h.h_label ->
            (* the better host refused; stay where we are and cool down *)
            tn.tn_state <- Placed from_;
            tn.tn_prev <- None;
            tn.tn_reason <- None;
            tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
          | _ -> ()))))

let receive t h ~assigned =
  List.iter
    (function Report r -> on_report t h ~assigned r | Ack a -> on_ack t h a)
    (Channel.tick h.h_up)

(* {1 Phase 3: control (coordinator)} *)

let sorted_inflight t =
  Hashtbl.fold (fun seq _ acc -> seq :: acc) t.inflight [] |> List.sort compare

let abandon_host t h =
  List.iter
    (fun seq ->
      match Hashtbl.find_opt t.inflight seq with
      | Some inf when inf.if_host = h.h_index ->
        Hashtbl.remove t.inflight seq;
        if inf.if_purpose = Primary then
          record t
            (D_command_failed
               {
                 host = h.h_label;
                 tenant = inf.if_tenant;
                 error = M.Mgr_error.Host_unreachable h.h_label;
               })
      | _ -> ())
    (sorted_inflight t)

let fail_over_tenants t h =
  iter_tenants t (fun tn ->
      match tn.tn_state with
      | Placed l when l = h.h_label ->
        tn.tn_state <- Unplaced;
        tn.tn_prev <- Some l;
        tn.tn_reason <- Some Host_down;
        tn.tn_tried <- [ h.h_index ]
      | Placing l when l = h.h_label ->
        tn.tn_state <- Unplaced;
        tn.tn_tried <- h.h_index :: tn.tn_tried
      | Migrating { from_; to_ } when to_ = h.h_label ->
        tn.tn_state <- Placed from_;
        tn.tn_prev <- None;
        tn.tn_reason <- None
      | _ -> ())

let check_reachability t =
  for i = 0 to t.nhosts - 1 do
    let h = t.harr.(i) in
    if h.h_belief = `Reachable && t.round_no - h.h_last_report > t.cfg.unreachable_after
    then begin
      h.h_belief <- `Unreachable;
      record t (D_host_lost { host = h.h_label });
      note_flap t h;
      abandon_host t h;
      fail_over_tenants t h
    end
  done

let retry_commands t =
  List.iter
    (fun seq ->
      match Hashtbl.find_opt t.inflight seq with
      | None -> ()
      | Some inf ->
        if t.round_no >= inf.if_deadline then begin
          let h = t.harr.(inf.if_host) in
          if inf.if_attempt >= t.cfg.max_retries then begin
            Hashtbl.remove t.inflight seq;
            record t
              (D_command_failed
                 {
                   host = h.h_label;
                   tenant = inf.if_tenant;
                   error =
                     M.Mgr_error.Retries_exhausted
                       { host = h.h_label; command = cmd_name inf.if_body };
                 });
            if inf.if_purpose = Primary then
              match Hashtbl.find_opt t.tenant_tbl inf.if_tenant with
              | None -> ()
              | Some tn -> (
                match (inf.if_body, tn.tn_state) with
                | Cplace _, Placing l when l = h.h_label ->
                  tn.tn_state <- Unplaced;
                  tn.tn_tried <- inf.if_host :: tn.tn_tried
                | Cplace _, Migrating { from_; to_ } when to_ = h.h_label ->
                  tn.tn_state <- Placed from_;
                  tn.tn_prev <- None;
                  tn.tn_reason <- None;
                  tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
                | Crevoke _, _ -> remove_tenant t tn.tn_id
                | _ -> ())
          end
          else begin
            inf.if_attempt <- inf.if_attempt + 1;
            let wait =
              int_of_float
                (ceil
                   (float_of_int t.cfg.cmd_timeout
                   *. (t.cfg.backoff_factor ** float_of_int inf.if_attempt)))
            in
            inf.if_deadline <- t.round_no + max 1 wait;
            Channel.send h.h_cmd
              { c_seq = seq; c_epoch = h.h_known_epoch; c_body = inf.if_body }
          end
        end)
    (sorted_inflight t)

(* The believed load of every host, computed once per control step
   (O(hosts + tenants)) and updated incrementally as placements are
   routed within the same pass — [load_of] per candidate would make
   each drive pass O(hosts × tenants) and fleet-scale rounds cubic. *)
let compute_loads t =
  let loads = Array.make (max 1 t.nhosts) 0.0 in
  let add lbl g =
    match Hashtbl.find_opt t.host_by_label lbl with
    | Some i -> loads.(i) <- loads.(i) +. g
    | None -> ()
  in
  iter_tenants t (fun tn ->
      if not tn.tn_gone then
        let g = M.Intent.total_guaranteed tn.tn_intent in
        match tn.tn_state with
        | Placed l | Placing l -> add l g
        | Migrating { from_; to_ } ->
          add from_ g;
          add to_ g
        | Unplaced | Fleet_degraded -> ());
  loads

(* The least-loaded eligible host, lowest index on ties. *)
let best_host t tn ~loads ~exclude =
  let best = ref None in
  for i = t.nhosts - 1 downto 0 do
    let h = t.harr.(i) in
    if
      h.h_belief = `Reachable
      && t.round_no >= h.h_held_until
      && i <> exclude
      && (not (List.mem i tn.tn_tried))
      && match !best with Some b -> loads.(i) <= loads.(b) | None -> true
    then best := Some i
  done;
  !best

let try_place t tn ~loads =
  match best_host t tn ~loads ~exclude:(-1) with
  | None ->
    if tn.tn_state <> Fleet_degraded then begin
      tn.tn_state <- Fleet_degraded;
      tn.tn_was_degraded <- true;
      record t
        (D_degraded
           { tenant = tn.tn_id; cause = M.Mgr_error.No_feasible_host { tenant = tn.tn_id } })
    end;
    tn.tn_tried <- [];
    tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
  | Some i ->
    let h = t.harr.(i) in
    tn.tn_state <- Placing h.h_label;
    loads.(i) <- loads.(i) +. M.Intent.total_guaranteed tn.tn_intent;
    send_cmd t h Primary tn.tn_id (Cplace tn.tn_intent)

let try_migrate t tn from_label ~loads =
  let from_i = Hashtbl.find t.host_by_label from_label in
  match best_host t tn ~loads ~exclude:from_i with
  | None -> tn.tn_retry_at <- t.round_no + t.cfg.degraded_retry
  | Some i ->
    let h = t.harr.(i) in
    tn.tn_state <- Migrating { from_ = from_label; to_ = h.h_label };
    tn.tn_prev <- Some from_label;
    tn.tn_reason <- Some Slo;
    loads.(i) <- loads.(i) +. M.Intent.total_guaranteed tn.tn_intent;
    send_cmd t h Primary tn.tn_id (Cplace tn.tn_intent)

let drive_tenants t =
  let loads = compute_loads t in
  (* only the visited tenant ever gains a Primary entry below, so one
     snapshot answers "is a Primary command in flight?" for the pass *)
  let busy = Hashtbl.create 17 in
  Hashtbl.iter
    (fun _ inf -> if inf.if_purpose = Primary then Hashtbl.replace busy inf.if_tenant ())
    t.inflight;
  let has_primary_inflight id = Hashtbl.mem busy id in
  IS.iter
    (fun id ->
      match Hashtbl.find_opt t.tenant_tbl id with
      | None -> ()
      | Some tn ->
        if tn.tn_gone then begin
          match tn.tn_state with
          | Unplaced | Fleet_degraded -> remove_tenant t id
          | Placed l when not (has_primary_inflight id) ->
            let h = get t l in
            if h.h_belief = `Reachable then send_cmd t h Primary id (Crevoke id)
            else (
              (* the host is gone; drop the desire and let
                 reconciliation revoke the stray when it reappears *)
              remove_tenant t id)
          | _ -> ()
        end
        else if not (has_primary_inflight id) then
          match tn.tn_state with
          | Unplaced -> try_place t tn ~loads
          | Fleet_degraded when t.round_no >= tn.tn_retry_at ->
            tn.tn_tried <- [];
            try_place t tn ~loads
          | Placed l when t.round_no >= tn.tn_retry_at ->
            let h = get t l in
            if h.h_belief = `Reachable && List.mem id h.h_sick then try_migrate t tn l ~loads
          | _ -> ())
    t.tenant_order

let round t =
  t.round_no <- t.round_no + 1;
  advance_and_report t;
  for i = 0 to t.nhosts - 1 do
    deliver_commands t t.harr.(i)
  done;
  let by_host = tenants_by_host t in
  for i = 0 to t.nhosts - 1 do
    receive t t.harr.(i) ~assigned:by_host.(i)
  done;
  check_reachability t;
  retry_commands t;
  drive_tenants t

let run t ~rounds =
  for _ = 1 to rounds do
    round t
  done

let rounds t = t.round_no

(* {1 Observation} *)

let host_view t label =
  match Hashtbl.find_opt t.host_by_label label with
  | None -> None
  | Some i ->
    let h = t.harr.(i) in
    Some
      (if h.h_host = None then Crashed
       else match h.h_belief with `Reachable -> Reachable | `Unreachable -> Unreachable)

let tenant_view t id =
  Option.map (fun tn -> tn.tn_state) (Hashtbl.find_opt t.tenant_tbl id)

let tenants t = IS.elements t.tenant_order
let decisions t = Dlog.to_list t.log ~label:(fun i -> t.harr.(i).h_label)
let decisions_fingerprint t = t.fp

let applied_size t label = Hashtbl.length (get t label).h_applied

let commands_outstanding t label =
  let h = get t label in
  Hashtbl.fold (fun _ inf n -> if inf.if_host = h.h_index then n + 1 else n) t.inflight 0
  + Channel.in_flight h.h_cmd

let digest t =
  let d = ref Trace.fnv_basis in
  for i = 0 to t.nhosts - 1 do
    match t.harr.(i).h_host with
    | None -> d := Trace.fnv_string !d "crashed"
    | Some host -> d := Trace.fnv_int64 !d (Ihnet.Host.scan host).Scanport.s_digest
  done;
  !d

let host_digests t =
  let acc = ref [] in
  for i = t.nhosts - 1 downto 0 do
    match t.harr.(i).h_host with
    | None -> ()
    | Some host ->
      acc := (t.harr.(i).h_label, (Ihnet.Host.scan host).Scanport.s_digest) :: !acc
  done;
  !acc

let channel_rng_peek t label =
  let h = get t label in
  Trace.fnv_int64
    (Trace.fnv_int64 Trace.fnv_basis (Channel.rng_peek h.h_cmd))
    (Channel.rng_peek h.h_up)

let collect t =
  let by_host = tenants_by_host t in
  let members = ref [] in
  for i = t.nhosts - 1 downto 0 do
    let h = t.harr.(i) in
    match h.h_host with
    | None -> ()
    | Some host ->
      let fab = Ihnet.Host.fabric host in
      members :=
        {
          Mon.Fleet.label = h.h_label;
          counter = Mon.Counter.create fab ~fidelity:Mon.Counter.Software;
          tenants = placed_on t h by_host.(i);
          slo = Some (fun () -> h.h_last_slo);
        }
        :: !members
  done;
  Mon.Fleet.collect ~round:t.round_no !members

let pp ppf t =
  let reach = ref 0 and unreach = ref 0 and crashed = ref 0 in
  for i = 0 to t.nhosts - 1 do
    let h = t.harr.(i) in
    if h.h_host = None then incr crashed
    else match h.h_belief with `Reachable -> incr reach | `Unreachable -> incr unreach
  done;
  Format.fprintf ppf
    "fleet: %d host(s) (%d reachable, %d unreachable, %d crashed), %d tenant(s), round %d, %d decision(s)@."
    t.nhosts !reach !unreach !crashed
    (IS.cardinal t.tenant_order)
    t.round_no (Dlog.length t.log);
  let by_host = tenants_by_host t and loads = compute_loads t in
  for i = 0 to t.nhosts - 1 do
    let h = t.harr.(i) in
    let state =
      if h.h_host = None then "crashed"
      else match h.h_belief with `Reachable -> "reachable" | `Unreachable -> "unreachable"
    in
    Format.fprintf ppf "  %-16s %-11s epoch=%d load=%a tenants=[%s]@." h.h_label state
      h.h_epoch Units.pp_rate loads.(i)
      (String.concat "," (List.map string_of_int (placed_on t h by_host.(i))))
  done;
  iter_tenants t (fun tn ->
      let state =
        match tn.tn_state with
        | Unplaced -> "unplaced"
        | Placing l -> Printf.sprintf "placing on %s" l
        | Placed l -> Printf.sprintf "placed on %s" l
        | Migrating { from_; to_ } -> Printf.sprintf "migrating %s -> %s" from_ to_
        | Fleet_degraded -> "fleet-degraded"
      in
      Format.fprintf ppf "  tenant %d: %s@." tn.tn_id state)
