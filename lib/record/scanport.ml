(* Out-of-band scan port. Capture is built exclusively on the
   engine's scan_* exposition (pure reads): no sync, no events, no RNG
   draws, no heap or solver movement — the zero-impact contract the
   scanport-idle bench pins down. The register chain is emitted in one
   canonical order so two captures of bit-identical fabrics produce
   byte-identical snapshots (and digests) whatever the domain pool
   width or whether the component memo is on. *)

module E = Ihnet_engine
module T = Ihnet_topology
module U = Ihnet_util
module Man = Ihnet_manager
module Mon = Ihnet_monitor

type value =
  | Int of int
  | Float of float
  | Hash of int64
  | Flag of bool
  | Text of string

type kind = [ `Arch | `Micro ]

type reg = { rpath : string; rvalue : value; rkind : kind }

type snapshot = {
  s_version : int;
  s_at : U.Units.ns;
  s_epoch : int;
  s_regs : reg list;
  s_digest : int64;
}

let version = 1

(* {2 Digest} *)

let fnv_int64 acc (h : int64) =
  let acc = Trace.fnv_int acc (Int64.to_int (Int64.shift_right_logical h 32)) in
  Trace.fnv_int acc (Int64.to_int (Int64.logand h 0xFFFFFFFFL))

let fnv_value acc = function
  | Int i -> Trace.fnv_int acc i
  | Float f -> Trace.fnv_float acc f
  | Hash h -> fnv_int64 acc h
  | Flag b -> Trace.fnv_int acc (if b then 1 else 0)
  | Text s -> Trace.fnv_string acc s

let chain_digest regs =
  List.fold_left
    (fun acc r ->
      match r.rkind with
      | `Micro -> acc
      | `Arch -> fnv_value (Trace.fnv_string acc r.rpath) r.rvalue)
    Trace.fnv_basis regs

let digest s = s.s_digest

(* {2 Capture} *)

let dir_name = function T.Link.Fwd -> "fwd" | T.Link.Rev -> "rev"
let cls_names = [| "payload"; "monitoring"; "heartbeat"; "probe"; "induced" |]

let hash_row (row : float array) = Array.fold_left Trace.fnv_float Trace.fnv_basis row

let hash_sketch sk =
  let acc = U.Sketch.fold_buckets sk ~init:Trace.fnv_basis Trace.fnv_int in
  let acc = Trace.fnv_float acc (U.Sketch.min_value sk) in
  Trace.fnv_float acc (U.Sketch.max_value sk)

let capture ?remediation ?evidence fab =
  let regs = ref [] in
  let arch path v = regs := { rpath = path; rvalue = v; rkind = `Arch } :: !regs in
  let micro path v = regs := { rpath = path; rvalue = v; rkind = `Micro } :: !regs in
  let at = E.Fabric.scan_clock fab in
  let epoch = E.Fabric.scan_epoch fab in
  arch "clock/now" (Float at);
  arch "clock/last_update" (Float (E.Fabric.scan_last_update fab));
  arch "epoch" (Int epoch);
  arch "allocs" (Int (E.Fabric.reallocations fab));
  arch "flow/next_id" (Int (E.Fabric.scan_next_flow_id fab));
  arch "rng/state" (Hash (E.Fabric.scan_rng_state fab));
  arch "config/cache_gen" (Int (E.Fabric.scan_cache_gen fab));
  (* per-(link, dir) rate tables, counters and capacities *)
  let nr = E.Fabric.scan_resources fab in
  let load = E.Fabric.scan_load fab
  and flows_on = E.Fabric.scan_flows_on fab
  and bytes = E.Fabric.scan_link_bytes fab
  and caps = E.Fabric.scan_caps fab in
  for r = 0 to nr - 1 do
    let p s = Printf.sprintf "link[%d]/%s/%s" (r / 2) (if r land 1 = 0 then "fwd" else "rev") s in
    arch (p "rate") (Float load.(r));
    arch (p "flows") (Int flows_on.(r));
    arch (p "bytes") (Float bytes.(r));
    arch (p "cap") (Float caps.(r))
  done;
  let ddw, ddh, swb, srr = E.Fabric.scan_ddio fab in
  Array.iteri
    (fun s w ->
      let p n = Printf.sprintf "ddio[%d]/%s" s n in
      arch (p "write") (Float w);
      arch (p "hit") (Float ddh.(s));
      arch (p "spill_wb") (Float swb.(s));
      arch (p "spill_rr") (Float srr.(s)))
    ddw;
  List.iter
    (fun (tn, row) -> arch (Printf.sprintf "tenant[%d]/bytes" tn) (Hash (hash_row row)))
    (E.Fabric.scan_tenant_rows fab);
  Array.iteri
    (fun i row -> arch (Printf.sprintf "cls[%s]/bytes" cls_names.(i)) (Hash (hash_row row)))
    (E.Fabric.scan_cls_rows fab);
  (* flow internals, id ascending *)
  List.iter
    (fun (f : E.Flow.t) ->
      let p s = Printf.sprintf "flow[%d]/%s" f.E.Flow.id s in
      arch (p "tenant") (Int f.E.Flow.tenant);
      arch (p "weight") (Float f.E.Flow.weight);
      arch (p "floor") (Float f.E.Flow.floor);
      arch (p "cap") (Float f.E.Flow.cap);
      arch (p "demand") (Float f.E.Flow.demand);
      arch (p "rate") (Float f.E.Flow.rate);
      arch (p "remaining") (Float f.E.Flow.remaining);
      arch (p "transferred") (Float f.E.Flow.transferred))
    (E.Fabric.scan_flows fab);
  (* completion heap in pop order, lazily-deleted residue included *)
  List.iteri
    (fun i (due, fid, stamp, live) ->
      let p s = Printf.sprintf "heap[%d]/%s" i s in
      arch (p "at") (Float due);
      arch (p "flow") (Int fid);
      arch (p "stamp") (Int stamp);
      arch (p "live") (Flag live))
    (E.Fabric.scan_completion_heap fab);
  (* remediation state machines, link ascending *)
  (match remediation with
  | None -> ()
  | Some rem ->
    let cases =
      List.sort
        (fun (a : Man.Remediation.case) b -> compare a.Man.Remediation.link b.Man.Remediation.link)
        (Man.Remediation.cases rem)
    in
    List.iter
      (fun (c : Man.Remediation.case) ->
        let p s = Printf.sprintf "rem/link[%d]/%s" c.Man.Remediation.link s in
        arch (p "status") (Text (Man.Remediation.status_label c.Man.Remediation.status));
        arch (p "stage") (Text (Man.Remediation.stage_label c.Man.Remediation.stage));
        arch (p "attempts") (Int c.Man.Remediation.attempts);
        arch (p "detected_at") (Float c.Man.Remediation.detected_at);
        arch (p "recovered_at")
          (Float (Option.value ~default:nan c.Man.Remediation.recovered_at));
        arch (p "next_due") (Float c.Man.Remediation.next_due);
        arch (p "held_until") (Float c.Man.Remediation.held_until);
        arch (p "transitions") (Int (List.length c.Man.Remediation.transitions));
        arch (p "degraded") (Int (List.length c.Man.Remediation.degraded_ids));
        arch (p "actions") (Int c.Man.Remediation.total_actions);
        arch (p "gate_waits") (Int c.Man.Remediation.gate_waits))
      cases);
  (* evidence window, raw: (link, modality) ascending *)
  (match evidence with
  | None -> ()
  | Some ev ->
    List.iter
      (fun (link, m, score, rat) ->
        let p s =
          Printf.sprintf "evidence/link[%d]/%s/%s" link (Mon.Evidence.modality_label m) s
        in
        arch (p "score") (Float score);
        arch (p "at") (Float rat))
      (Mon.Evidence.scan_reports ev));
  (* latency-sketch planes (when enabled): bucket-array hash + count *)
  (if E.Fabric.latency_sketches_enabled fab then begin
     for r = 0 to nr - 1 do
       let link = r / 2 and dir = if r land 1 = 0 then T.Link.Fwd else T.Link.Rev in
       match E.Fabric.link_latency_sketch fab link dir with
       | None -> ()
       | Some sk ->
         let p s = Printf.sprintf "sketch/link[%d]/%s/%s" link (dir_name dir) s in
         arch (p "count") (Int (U.Sketch.count sk));
         arch (p "hash") (Hash (hash_sketch sk))
     done;
     match E.Fabric.flow_latency_sketch fab with
     | None -> ()
     | Some sk ->
       arch "sketch/flows/count" (Int (U.Sketch.count sk));
       arch "sketch/flows/hash" (Hash (hash_sketch sk))
   end);
  (* microarchitectural registers: how the answer was produced *)
  micro "warm/enabled" (Flag (E.Fabric.warm_enabled fab));
  micro "warm/hits" (Int (E.Fabric.warm_hits fab));
  micro "warm/misses" (Int (E.Fabric.warm_misses fab));
  List.iteri
    (fun i (key, entries, hit_epoch) ->
      let p s = Printf.sprintf "memo[%d]/%s" i s in
      micro (p "key") (Int key);
      micro (p "entries") (Int entries);
      micro (p "epoch") (Int hit_epoch))
    (E.Fabric.scan_memo_keys fab);
  let st = E.Fabric.scan_solver_stats fab in
  micro "solver/solves" (Int st.E.Fairshare.solves);
  micro "solver/full_rebuilds" (Int st.E.Fairshare.full_rebuilds);
  micro "solver/incremental" (Int st.E.Fairshare.incremental);
  micro "solver/unchanged" (Int st.E.Fairshare.unchanged);
  let regs = List.rev !regs in
  { s_version = version; s_at = at; s_epoch = epoch; s_regs = regs; s_digest = chain_digest regs }

let find s path = List.find_map (fun r -> if r.rpath = path then Some r.rvalue else None) s.s_regs

let render_value = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Hash h -> Printf.sprintf "0x%016Lx" h
  | Flag b -> string_of_bool b
  | Text s -> s

(* {2 Codec} *)

let tag kind v =
  (match kind with `Arch -> "a" | `Micro -> "m")
  ^ match v with Int _ -> "i" | Float _ -> "f" | Hash _ -> "h" | Flag _ -> "b" | Text _ -> "s"

let reg_to_json r =
  let v =
    match r.rvalue with
    | Int i -> Trace.jint i
    | Float f -> Trace.jfloat f
    | Hash h -> Trace.jhash h
    | Flag b -> Trace.Bool b
    | Text s -> Trace.Str s
  in
  Trace.Arr [ Trace.Str r.rpath; Trace.Str (tag r.rkind r.rvalue); v ]

let reg_of_json j =
  match j with
  | Trace.Arr [ Trace.Str path; Trace.Str tag; v ] when String.length tag = 2 ->
    let kind =
      match tag.[0] with
      | 'a' -> `Arch
      | 'm' -> `Micro
      | _ -> raise (Trace.Parse_error ("scan: bad register kind " ^ tag))
    in
    let value =
      match tag.[1] with
      | 'i' -> Int (Trace.as_int v)
      | 'f' -> Float (Trace.as_float v)
      | 'h' -> Hash (Trace.as_hash v)
      | 'b' -> Flag (Trace.as_bool v)
      | 's' -> Text (Trace.as_string v)
      | _ -> raise (Trace.Parse_error ("scan: bad register type " ^ tag))
    in
    { rpath = path; rvalue = value; rkind = kind }
  | _ -> raise (Trace.Parse_error "scan: malformed register")

let to_json s =
  Trace.Obj
    [
      ("scan", Trace.jint s.s_version);
      ("at", Trace.jfloat s.s_at);
      ("epoch", Trace.jint s.s_epoch);
      ("digest", Trace.jhash s.s_digest);
      ("regs", Trace.Arr (List.map reg_to_json s.s_regs));
    ]

let of_json j =
  let v = Trace.as_int (Trace.field j "scan") in
  if v <> version then
    raise (Trace.Parse_error (Printf.sprintf "scan: unsupported version %d" v));
  let regs = List.map reg_of_json (Trace.as_list (Trace.field j "regs")) in
  let stored = Trace.as_hash (Trace.field j "digest") in
  let computed = chain_digest regs in
  if not (Int64.equal stored computed) then
    raise (Trace.Parse_error "scan: stored digest does not match the register chain");
  {
    s_version = v;
    s_at = Trace.as_float (Trace.field j "at");
    s_epoch = Trace.as_int (Trace.field j "epoch");
    s_regs = regs;
    s_digest = stored;
  }

let save path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Trace.json_to_string (to_json s));
      output_char oc '\n')

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match of_json (Trace.json_of_string (String.trim contents)) with
    | s -> Ok s
    | exception Trace.Parse_error e -> Error e)

(* {2 Diff} *)

type mismatch = { d_path : string; d_left : string; d_right : string; d_total : int }

let value_eq a b =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | a, b -> a = b

let diff ?(scope = `Arch) left right =
  let wanted r = match scope with `All -> true | `Arch -> r.rkind = `Arch in
  let lregs = List.filter wanted left.s_regs and rregs = List.filter wanted right.s_regs in
  let rmap = Hashtbl.create (List.length rregs) in
  List.iter (fun r -> Hashtbl.replace rmap r.rpath r.rvalue) rregs;
  let lset = Hashtbl.create (List.length lregs) in
  List.iter (fun r -> Hashtbl.replace lset r.rpath ()) lregs;
  let mismatches =
    List.filter_map
      (fun r ->
        match Hashtbl.find_opt rmap r.rpath with
        | Some v when value_eq r.rvalue v -> None
        | Some v -> Some (r.rpath, render_value r.rvalue, render_value v)
        | None -> Some (r.rpath, render_value r.rvalue, "<absent>"))
      lregs
    @ List.filter_map
        (fun r ->
          if Hashtbl.mem lset r.rpath then None
          else Some (r.rpath, "<absent>", render_value r.rvalue))
        rregs
  in
  match mismatches with
  | [] -> None
  | (p, l, r) :: _ -> Some { d_path = p; d_left = l; d_right = r; d_total = List.length mismatches }

let pp_mismatch ppf m =
  Format.fprintf ppf "%s: %s vs %s (%d register(s) differ)" m.d_path m.d_left m.d_right m.d_total

(* {2 Freeze / single-step} *)

type freeze = { f_fab : E.Fabric.t; mutable f_stepped : int; mutable f_live : bool }

let freeze fab = { f_fab = fab; f_stepped = 0; f_live = true }

let step f n =
  if not f.f_live then invalid_arg "Scanport.step: freeze already thawed";
  if n < 0 then invalid_arg "Scanport.step: negative step count";
  let k = ref 0 in
  (try
     for _ = 1 to n do
       if E.Fabric.step_epoch f.f_fab then incr k else raise Exit
     done
   with Exit -> ());
  f.f_stepped <- f.f_stepped + !k;
  !k

let epochs_stepped f = f.f_stepped
let thaw f = f.f_live <- false
