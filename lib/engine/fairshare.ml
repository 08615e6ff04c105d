module U = Ihnet_util

type demand = {
  weight : float;
  floor : float;
  cap : float;
  usage : (int * float) list;
}

let eps = 1e-9

let invalidf fmt = Printf.ksprintf invalid_arg fmt

(* Input validation raises [Invalid_argument] — deliberately not
   [assert], which vanishes under [-noassert]/release builds: a NaN
   weight or negative coefficient that silently enters the solver
   corrupts every rate downstream, far more expensive to debug than
   these comparisons are to run. The [not (...)] form keeps the
   NaN-rejecting behavior the asserts had. *)
let check_demand ~nr i d =
  if not (d.weight > 0.0) then invalidf "Fairshare: demand %d: weight must be > 0" i;
  if not (d.floor >= 0.0) then invalidf "Fairshare: demand %d: floor must be >= 0" i;
  if not (d.cap >= 0.0) then invalidf "Fairshare: demand %d: cap must be >= 0" i;
  List.iter
    (fun (r, c) ->
      if r < 0 || r >= nr then
        invalidf "Fairshare: demand %d: resource %d out of range [0, %d)" i r nr;
      if not (c > 0.0) then invalidf "Fairshare: demand %d: usage coefficient must be > 0" i)
    d.usage

let validate ~capacities demands =
  let nr = Array.length capacities in
  Array.iteri (fun i d -> check_demand ~nr i d) demands

(* Floor feasibility. Each over-committed resource r gets a scale
   s_r = cap_r / load_r < 1; a demand's floor is scaled by the worst
   s_r among the resources it uses. This keeps infeasibility local: a
   dead link only shrinks the guarantees of the flows crossing it.
   Returns the initial (post-floor) rates and the active set. *)
let seed_rates ~capacities demands =
  let nr = Array.length capacities in
  let rates = Array.map (fun d -> Float.min d.floor d.cap) demands in
  let load = Array.make nr 0.0 in
  Array.iteri
    (fun i d -> List.iter (fun (r, c) -> load.(r) <- load.(r) +. (rates.(i) *. c)) d.usage)
    demands;
  let scale = Array.make nr 1.0 in
  for r = 0 to nr - 1 do
    if load.(r) > capacities.(r) then
      scale.(r) <- (if load.(r) > 0.0 then capacities.(r) /. load.(r) else 0.0)
  done;
  Array.iteri
    (fun i d ->
      let f = List.fold_left (fun acc (r, _) -> Float.min acc scale.(r)) 1.0 d.usage in
      if f < 1.0 then rates.(i) <- rates.(i) *. f)
    demands;
  (* Demands with no usage are not resource-constrained: they simply
     get their cap; demands already at their cap never fill. *)
  let active = Array.map (fun d -> d.usage <> []) demands in
  Array.iteri (fun i d -> if d.usage = [] then rates.(i) <- d.cap) demands;
  Array.iteri (fun i d -> if rates.(i) >= d.cap -. eps then active.(i) <- false) demands;
  (rates, active)

(* {1 Reference implementation}

   Round-based progressive filling: every round scans all demands for
   the next cap hit and all used resources for the next saturation,
   advances the filling front, and freezes what it hit. O(rounds ×
   (n + Σ|usage|)) with up to n + nr rounds — quadratic under churn.
   Kept verbatim as the semantic oracle for the event-driven
   implementation below (see test/test_properties.ml). *)

let allocate_reference ~capacities demands =
  let n = Array.length demands in
  let nr = Array.length capacities in
  validate ~capacities demands;
  let rates, active = seed_rates ~capacities demands in
  (* Only resources some demand actually uses can ever saturate; on a
     large host most links are idle, so iterate over the used set. *)
  let used_resources =
    let seen = Array.make nr false in
    let out = ref [] in
    Array.iter
      (fun d ->
        List.iter
          (fun (r, _) ->
            if not seen.(r) then begin
              seen.(r) <- true;
              out := r :: !out
            end)
          d.usage)
      demands;
    !out
  in
  let saturated = Array.make nr false in
  (* incremental per-resource load and per-resource active growth speed *)
  let load = Array.make nr 0.0 in
  let speed = Array.make nr 0.0 in
  Array.iteri
    (fun i d ->
      List.iter
        (fun (r, c) ->
          load.(r) <- load.(r) +. (rates.(i) *. c);
          if active.(i) then speed.(r) <- speed.(r) +. (d.weight *. c))
        d.usage)
    demands;
  let deactivate i =
    if active.(i) then begin
      active.(i) <- false;
      List.iter
        (fun (r, c) -> speed.(r) <- speed.(r) -. (demands.(i).weight *. c))
        demands.(i).usage
    end
  in
  let continue = ref true in
  let guard = ref (n + nr + 2) in
  while !continue && !guard > 0 do
    decr guard;
    let any_active = Array.exists Fun.id active in
    if not any_active then continue := false
    else begin
      (* time to saturate each used resource *)
      let dt = ref infinity in
      List.iter
        (fun r ->
          if (not saturated.(r)) && speed.(r) > eps then begin
            let res = capacities.(r) -. load.(r) in
            if res <= eps then dt := 0.0 else dt := Float.min !dt (res /. speed.(r))
          end)
        used_resources;
      (* time for each active demand to hit its cap *)
      Array.iteri
        (fun i d ->
          if active.(i) && d.cap < infinity then
            dt := Float.min !dt ((d.cap -. rates.(i)) /. d.weight))
        demands;
      if !dt = infinity then begin
        (* nothing constrains the remaining demands (cannot happen with
           finite capacities on every used resource); freeze defensively *)
        Array.iteri (fun i a -> if a then deactivate i) active;
        continue := false
      end
      else begin
        let dt = Float.max !dt 0.0 in
        Array.iteri
          (fun i d ->
            if active.(i) then begin
              let delta = d.weight *. dt in
              rates.(i) <- rates.(i) +. delta;
              List.iter (fun (r, c) -> load.(r) <- load.(r) +. (delta *. c)) d.usage
            end)
          demands;
        (* freeze capped demands *)
        Array.iteri
          (fun i d ->
            if active.(i) && rates.(i) >= d.cap -. (eps *. Float.max 1.0 d.cap) then begin
              List.iter (fun (r, c) -> load.(r) <- load.(r) +. ((d.cap -. rates.(i)) *. c)) d.usage;
              rates.(i) <- d.cap;
              deactivate i
            end)
          demands;
        (* saturate resources and freeze their demands *)
        List.iter
          (fun r ->
            if
              (not saturated.(r))
              && capacities.(r) -. load.(r) <= eps *. Float.max 1.0 capacities.(r)
            then begin
              saturated.(r) <- true;
              Array.iteri
                (fun i d ->
                  if active.(i) && List.exists (fun (r', _) -> r' = r) d.usage then deactivate i)
                demands
            end)
          used_resources
      end
    end
  done;
  rates

type fill_event = Cap of int | Sat of int * int (* resource, version at push *)

(* {1 Solver state}

   [allocate] is one solve on a fresh [state]. The fabric keeps a
   state across the DDIO spill iterations of a component, so a
   re-solve after a small parameter change re-derives only what the
   change reaches. A [state] holds:

   - the CSR usage arrays and the resource→demand incidence (rebuilt
     only on a structural change: demand count or any usage list);
   - the seed-phase accumulators (per-resource floor load, scale
     factors, per-demand seed rates and initial active set,
     per-resource initial load/speed), re-derived only for the demands
     and resources reachable from a dirty input;
   - the working arrays and the event min-heap of the τ-sweep, which
     are overwritten (not reallocated) by every solve.

   An incremental solve returns bitwise the rates a fresh state would.
   This is load-bearing (the fabric's determinism contract, MODEL.md
   §12–13), and rests on three facts:

   1. Per-resource accumulators (floor load, initial load/speed)
      re-computed by an incidence scan equal [full_seed]'s demand-major
      accumulation bitwise: the incidence index is built by a cursor
      sweep in demand-major order, so for any fixed resource the
      additions happen in exactly the same order, and float addition
      order is all that matters.
   2. The seed of one demand is a pure function of its own
      (floor, cap) and the scale factors of the resources it uses;
      [full_seed]'s [if any_over] guard is equivalent to the per-demand
      f = 1.0 no-op, so re-deriving only affected demands is exact.
   3. The heap's tie-break uses relative insertion order only, so a
      cleared, reused heap replays a fresh heap's tie-breaks exactly.

   Dirty tracking is value-based with exact (bitwise) float compares —
   [feq] below distinguishes -0.0 from 0.0, because Float.min does,
   and a digest over the output rates would too. *)

let feq (a : float) (b : float) = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let usage_eq u1 u2 =
  u1 == u2 || List.equal (fun (r1, c1) (r2, c2) -> r1 = r2 && feq c1 c2) u1 u2

let demand_equal d1 d2 =
  d1 == d2
  || (feq d1.weight d2.weight
     && feq d1.floor d2.floor
     && feq d1.cap d2.cap
     && usage_eq d1.usage d2.usage)

type state = {
  nr : int;
  capacities : float array; (* owned copy, mutated by [set_capacity] *)
  mutable n : int;
  mutable dems : demand array; (* current demand records, slot order *)
  (* scalar parameter mirrors (valid when [not structural]) *)
  mutable weight : float array;
  mutable floor : float array;
  mutable dcap : float array;
  (* usage CSR + resource→demand incidence *)
  mutable off : int array;
  mutable ures : int array;
  mutable ucoef : float array;
  mutable inc_off : int array;
  mutable inc_d : int array;
  mutable inc_coef : float array;
  (* persistent seed accumulators; invariant: when [seeded], each one
     equals what a full reseed over the current inputs would produce *)
  mutable seeded : bool;
  mutable structural : bool;
  mutable floor_load : float array; (* per resource *)
  mutable scale : float array; (* per resource *)
  mutable seed_rate : float array; (* per demand *)
  mutable active0 : bool array; (* per demand *)
  mutable load0 : float array; (* per resource *)
  mutable speed0 : float array; (* per resource *)
  (* inputs changed since the last solve (may hold duplicates;
     consumers dedup with the generation marks below) *)
  dirty_dem : int U.Vec.t;
  dirty_cap : int U.Vec.t;
  (* solve-local scratch *)
  aff_res : int U.Vec.t;
  aff_dem : int U.Vec.t;
  dd_res : int U.Vec.t;
  mutable gmark_dem : int array;
  mutable gmark_res : int array;
  mutable mark_gen : int;
  (* working arrays, overwritten by every sweep *)
  mutable rates : float array;
  mutable wload : float array;
  mutable wspeed : float array;
  mutable tau_r : float array;
  mutable version : int array;
  mutable wsat : bool array;
  mutable wactive : bool array;
  events : fill_event U.Heap.t;
  mutable clean : bool; (* [rates] already solves the current inputs *)
  (* counters *)
  mutable c_solves : int;
  mutable c_full : int;
  mutable c_incremental : int;
  mutable c_noop : int;
}

type stats = { solves : int; full_rebuilds : int; incremental : int; unchanged : int }

let stats st =
  {
    solves = st.c_solves;
    full_rebuilds = st.c_full;
    incremental = st.c_incremental;
    unchanged = st.c_noop;
  }

let state_size st = st.n
let state_demand st i = st.dems.(i)

let make_state ~capacities demands =
  let nr = Array.length capacities in
  {
    nr;
    capacities = Array.copy capacities;
    n = Array.length demands;
    dems = Array.copy demands;
    weight = [||];
    floor = [||];
    dcap = [||];
    off = [||];
    ures = [||];
    ucoef = [||];
    inc_off = [||];
    inc_d = [||];
    inc_coef = [||];
    seeded = false;
    structural = true;
    floor_load = [||];
    scale = [||];
    seed_rate = [||];
    active0 = [||];
    load0 = [||];
    speed0 = [||];
    dirty_dem = U.Vec.create ();
    dirty_cap = U.Vec.create ();
    aff_res = U.Vec.create ();
    aff_dem = U.Vec.create ();
    dd_res = U.Vec.create ();
    gmark_dem = [||];
    gmark_res = [||];
    mark_gen = 0;
    rates = [||];
    wload = [||];
    wspeed = [||];
    tau_r = [||];
    version = [||];
    wsat = [||];
    wactive = [||];
    events = U.Heap.create ();
    clean = false;
    c_solves = 0;
    c_full = 0;
    c_incremental = 0;
    c_noop = 0;
  }

let set_demand st i d =
  if i < 0 || i >= st.n then invalidf "Fairshare.set_demand: index %d out of range" i;
  check_demand ~nr:st.nr i d;
  let old = st.dems.(i) in
  st.dems.(i) <- d;
  if not (demand_equal old d) then begin
    st.clean <- false;
    if not (usage_eq old.usage d.usage) then st.structural <- true
    else if st.seeded && not st.structural then begin
      st.weight.(i) <- d.weight;
      st.floor.(i) <- d.floor;
      st.dcap.(i) <- d.cap;
      U.Vec.push st.dirty_dem i
    end
  end

let set_capacity st r v =
  if r < 0 || r >= st.nr then invalidf "Fairshare.set_capacity: resource %d out of range" r;
  if not (feq st.capacities.(r) v) then begin
    st.capacities.(r) <- v;
    st.clean <- false;
    if st.seeded && not st.structural then U.Vec.push st.dirty_cap r
  end

let reset st demands =
  if Array.length demands <> st.n then begin
    st.dems <- Array.copy demands;
    st.n <- Array.length demands;
    st.structural <- true;
    st.clean <- false
  end
  else Array.iteri (fun i d -> set_demand st i d) demands

(* Rebuild the CSR usage arrays, parameter mirrors, and the incidence
   index from [st.dems]. Local arrays are committed only once fully
   built, so a validation raise leaves the state consistent (still
   structural). *)
let rebuild st =
  let n = st.n and nr = st.nr in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i d -> off.(i + 1) <- List.length d.usage) st.dems;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let m = off.(n) in
  let ures = Array.make (max 1 m) 0 in
  let ucoef = Array.make (max 1 m) 0.0 in
  let weight = Array.make (max 1 n) 0.0 in
  let floor_ = Array.make (max 1 n) 0.0 in
  let dcap = Array.make (max 1 n) 0.0 in
  let k = ref 0 in
  (* validation is fused into the CSR fill so each usage list is
     traversed exactly once. The fast path is one combined comparison
     (NaN-rejecting: a NaN compares false and falls through); only the
     failing branch calls [check_demand], which re-scans the demand and
     raises [Invalid_argument] naming the exact offending field. *)
  Array.iteri
    (fun i (d : demand) ->
      if not (d.weight > 0.0 && d.floor >= 0.0 && d.cap >= 0.0) then check_demand ~nr i d;
      weight.(i) <- d.weight;
      floor_.(i) <- d.floor;
      dcap.(i) <- d.cap;
      List.iter
        (fun (r, c) ->
          if not (r >= 0 && r < nr && c > 0.0) then check_demand ~nr i d;
          ures.(!k) <- r;
          ucoef.(!k) <- c;
          incr k)
        d.usage)
    st.dems;
  let inc_off = Array.make (nr + 1) 0 in
  for j = 0 to m - 1 do
    inc_off.(ures.(j) + 1) <- inc_off.(ures.(j) + 1) + 1
  done;
  for r = 0 to nr - 1 do
    inc_off.(r + 1) <- inc_off.(r + 1) + inc_off.(r)
  done;
  let inc_d = Array.make (max 1 m) 0 in
  let inc_coef = Array.make (max 1 m) 0.0 in
  let cursor = Array.copy inc_off in
  for i = 0 to n - 1 do
    for j = off.(i) to off.(i + 1) - 1 do
      let r = ures.(j) in
      inc_d.(cursor.(r)) <- i;
      inc_coef.(cursor.(r)) <- ucoef.(j);
      cursor.(r) <- cursor.(r) + 1
    done
  done;
  st.off <- off;
  st.ures <- ures;
  st.ucoef <- ucoef;
  st.weight <- weight;
  st.floor <- floor_;
  st.dcap <- dcap;
  st.inc_off <- inc_off;
  st.inc_d <- inc_d;
  st.inc_coef <- inc_coef;
  st.floor_load <- Array.make nr 0.0;
  st.scale <- Array.make nr 1.0;
  st.seed_rate <- Array.make (max 1 n) 0.0;
  st.active0 <- Array.make (max 1 n) false;
  st.load0 <- Array.make nr 0.0;
  st.speed0 <- Array.make nr 0.0;
  st.rates <- Array.make (max 1 n) 0.0;
  st.wload <- Array.make nr 0.0;
  st.wspeed <- Array.make nr 0.0;
  st.tau_r <- Array.make nr 0.0;
  st.version <- Array.make nr 0;
  st.wsat <- Array.make nr false;
  st.wactive <- Array.make (max 1 n) false;
  st.gmark_dem <- Array.make (max 1 n) 0;
  st.gmark_res <- Array.make nr 0;
  U.Vec.clear st.dirty_dem;
  U.Vec.clear st.dirty_cap;
  st.seeded <- false;
  st.structural <- false

(* Full seed-phase pass: the [seed_rates] law restated over the CSR
   arrays (floors, clipped by caps, scaled down locally where jointly
   infeasible), accumulated demand-major. Any divergence from
   [seed_rates] is caught by the differential test against
   [allocate_reference]. *)
let full_seed st =
  let n = st.n and nr = st.nr in
  let off = st.off and ures = st.ures and ucoef = st.ucoef in
  let sr = st.seed_rate in
  for i = 0 to n - 1 do
    sr.(i) <- Float.min st.floor.(i) st.dcap.(i)
  done;
  let fl = st.floor_load in
  Array.fill fl 0 nr 0.0;
  for i = 0 to n - 1 do
    for j = off.(i) to off.(i + 1) - 1 do
      fl.(ures.(j)) <- fl.(ures.(j)) +. (sr.(i) *. ucoef.(j))
    done
  done;
  let any_over = ref false in
  let scale = st.scale in
  for r = 0 to nr - 1 do
    scale.(r) <- 1.0;
    if fl.(r) > st.capacities.(r) then begin
      any_over := true;
      scale.(r) <- (if fl.(r) > 0.0 then st.capacities.(r) /. fl.(r) else 0.0)
    end
  done;
  if !any_over then
    for i = 0 to n - 1 do
      let f = ref 1.0 in
      for j = off.(i) to off.(i + 1) - 1 do
        f := Float.min !f scale.(ures.(j))
      done;
      if !f < 1.0 then sr.(i) <- sr.(i) *. !f
    done;
  let act = st.active0 in
  for i = 0 to n - 1 do
    if off.(i + 1) = off.(i) then begin
      sr.(i) <- st.dcap.(i);
      act.(i) <- false
    end
    else act.(i) <- sr.(i) < st.dcap.(i) -. eps
  done;
  let l0 = st.load0 and s0 = st.speed0 in
  Array.fill l0 0 nr 0.0;
  Array.fill s0 0 nr 0.0;
  for i = 0 to n - 1 do
    for j = off.(i) to off.(i + 1) - 1 do
      let r = ures.(j) in
      l0.(r) <- l0.(r) +. (sr.(i) *. ucoef.(j));
      if act.(i) then s0.(r) <- s0.(r) +. (st.weight.(i) *. ucoef.(j))
    done
  done;
  st.seeded <- true

(* Incremental reseed: re-derive only what a dirty input can reach.
   dirty demand/capacity → floor load and scale of its resources →
   seed rate and active bit of every demand on a rescaled (or dirty)
   resource → initial load/speed of every resource those demands use.
   Per-resource recomputation scans the incidence index, whose order
   matches [full_seed]'s demand-major accumulation (see the section
   comment), so unchanged inputs reproduce the exact same bits. *)
let incremental_seed st =
  let off = st.off and ures = st.ures in
  let inc_off = st.inc_off and inc_d = st.inc_d and inc_coef = st.inc_coef in
  (* affected resources: rows of dirty demands ∪ capacity-dirty *)
  st.mark_gen <- st.mark_gen + 1;
  let g = st.mark_gen in
  U.Vec.clear st.aff_res;
  let mark_res r =
    if st.gmark_res.(r) <> g then begin
      st.gmark_res.(r) <- g;
      U.Vec.push st.aff_res r
    end
  in
  U.Vec.iter
    (fun i ->
      for j = off.(i) to off.(i + 1) - 1 do
        mark_res ures.(j)
      done)
    st.dirty_dem;
  U.Vec.iter mark_res st.dirty_cap;
  (* floor load + scale of affected resources; a scale change taints
     every demand using that resource *)
  U.Vec.clear st.aff_dem;
  let mark_dem i =
    if st.gmark_dem.(i) <> g then begin
      st.gmark_dem.(i) <- g;
      U.Vec.push st.aff_dem i
    end
  in
  U.Vec.iter
    (fun r ->
      let acc = ref 0.0 in
      for jj = inc_off.(r) to inc_off.(r + 1) - 1 do
        let i = inc_d.(jj) in
        acc := !acc +. (Float.min st.floor.(i) st.dcap.(i) *. inc_coef.(jj))
      done;
      st.floor_load.(r) <- !acc;
      let fl = !acc in
      let ns =
        if fl > st.capacities.(r) then
          if fl > 0.0 then st.capacities.(r) /. fl else 0.0
        else 1.0
      in
      if not (feq ns st.scale.(r)) then begin
        st.scale.(r) <- ns;
        for jj = inc_off.(r) to inc_off.(r + 1) - 1 do
          mark_dem inc_d.(jj)
        done
      end)
    st.aff_res;
  U.Vec.iter mark_dem st.dirty_dem;
  (* seed rate + active bit of affected demands; their rows need
     their initial load/speed re-accumulated (a weight change moves
     speed even when the seed rate is unchanged, so mark rows
     unconditionally) *)
  st.mark_gen <- st.mark_gen + 1;
  let g2 = st.mark_gen in
  U.Vec.clear st.dd_res;
  U.Vec.iter
    (fun i ->
      let s =
        if off.(i + 1) = off.(i) then st.dcap.(i)
        else begin
          let s = ref (Float.min st.floor.(i) st.dcap.(i)) in
          let f = ref 1.0 in
          for j = off.(i) to off.(i + 1) - 1 do
            f := Float.min !f st.scale.(ures.(j))
          done;
          if !f < 1.0 then s := !s *. !f;
          !s
        end
      in
      st.seed_rate.(i) <- s;
      st.active0.(i) <- off.(i + 1) <> off.(i) && s < st.dcap.(i) -. eps;
      for j = off.(i) to off.(i + 1) - 1 do
        let r = ures.(j) in
        if st.gmark_res.(r) <> g2 then begin
          st.gmark_res.(r) <- g2;
          U.Vec.push st.dd_res r
        end
      done)
    st.aff_dem;
  U.Vec.iter
    (fun r ->
      let l = ref 0.0 and sp = ref 0.0 in
      for jj = inc_off.(r) to inc_off.(r + 1) - 1 do
        let i = inc_d.(jj) in
        l := !l +. (st.seed_rate.(i) *. inc_coef.(jj));
        if st.active0.(i) then sp := !sp +. (st.weight.(i) *. inc_coef.(jj))
      done;
      st.load0.(r) <- !l;
      st.speed0.(r) <- !sp)
    st.dd_res

(* The τ-sweep: the reference's progressive filling, computed as a
   discrete-event sweep over a virtual fill time τ. While active,
   demand i's rate is rate_i(τ) = start_i + w_i·τ, so the next
   constraint it can hit is known in closed form: a cap hit at
   τ = (cap_i − start_i)/w_i, and a resource saturation at
   τ = τ_r + residual_r/speed_r. Both event kinds go into one min-heap; processing an event freezes demands and
   lowers the growth speed of exactly the resources they use (found
   via a resource→demand incidence index).

   Saturation events use lazy re-insert: each resource keeps at most
   one event in the heap, stamped with the resource's version at push
   time. A freeze bumps the versions of the resources it touches
   without pushing anything; when a stale event reaches the top it is
   re-keyed from the current residual and re-pushed. This is sound
   because speeds only ever decrease, so the true saturation time only
   moves later — a stale event fires early, never late.

   Each demand freezes once and each resource saturates at most once,
   so the total work is O((n + Σ|usage|) · log) plus O(nr) array
   setup — linear in the touched contention component rather than
   quadratic in the demand count.

   The sweep runs over working copies of the persistent seed arrays,
   so a state can be swept again after an incremental reseed. *)
let sweep st =
  let n = st.n and nr = st.nr in
  let off = st.off and ures = st.ures and ucoef = st.ucoef in
  let inc_off = st.inc_off and inc_d = st.inc_d in
  let weight = st.weight and cap = st.dcap in
  let capacities = st.capacities in
  let rates = st.rates in
  let load = st.wload and speed = st.wspeed in
  let tau_r = st.tau_r and version = st.version in
  let saturated = st.wsat and active = st.wactive in
  Array.blit st.seed_rate 0 rates 0 n;
  Array.blit st.load0 0 load 0 nr;
  Array.blit st.speed0 0 speed 0 nr;
  Array.fill tau_r 0 nr 0.0;
  Array.fill version 0 nr 0;
  Array.fill saturated 0 nr false;
  Array.blit st.active0 0 active 0 n;
  let start_rate = st.seed_rate in
  let tau = ref 0.0 in
  let events = st.events in
  U.Heap.clear events;
  let push_sat r =
    if (not saturated.(r)) && speed.(r) > eps then begin
      let residual = capacities.(r) -. load.(r) in
      let at = if residual <= 0.0 then !tau else tau_r.(r) +. (residual /. speed.(r)) in
      U.Heap.push events (Float.max at !tau) (Sat (r, version.(r)))
    end
  in
  (* bring load.(r) forward to virtual time [at] *)
  let touch r at =
    if at > tau_r.(r) then begin
      load.(r) <- load.(r) +. (speed.(r) *. (at -. tau_r.(r)));
      tau_r.(r) <- at
    end
  in
  let freeze i at =
    if active.(i) then begin
      active.(i) <- false;
      rates.(i) <- Float.min cap.(i) (start_rate.(i) +. (weight.(i) *. at));
      for j = off.(i) to off.(i + 1) - 1 do
        let r = ures.(j) in
        touch r at;
        speed.(r) <- speed.(r) -. (weight.(i) *. ucoef.(j));
        (* invalidate r's in-heap saturation event; it will be
           re-keyed lazily if it surfaces before r saturates *)
        version.(r) <- version.(r) + 1
      done
    end
  in
  for i = 0 to n - 1 do
    if active.(i) && cap.(i) < infinity then
      U.Heap.push events ((cap.(i) -. rates.(i)) /. weight.(i)) (Cap i)
  done;
  for r = 0 to nr - 1 do
    push_sat r
  done;
  let continue = ref true in
  while !continue do
    match U.Heap.pop events with
    | None -> continue := false
    | Some (at, Cap i) ->
      if active.(i) then begin
        tau := Float.max !tau at;
        freeze i !tau
      end
    | Some (at, Sat (r, v)) ->
      if not saturated.(r) then begin
        if v = version.(r) then begin
          (* no incident freeze since push: the key is exact *)
          tau := Float.max !tau at;
          saturated.(r) <- true;
          touch r !tau;
          for jj = inc_off.(r) to inc_off.(r + 1) - 1 do
            let i = inc_d.(jj) in
            if active.(i) then freeze i !tau
          done
        end
        else
          (* speeds dropped since push, so r saturates later (or
             never); re-key from the current residual *)
          push_sat r
      end
  done;
  (* anything still active is unconstrained (possible only when every
     resource it uses has vanishing growth speed); freeze defensively
     at the current front, as the reference does *)
  for i = 0 to n - 1 do
    if active.(i) then begin
      active.(i) <- false;
      rates.(i) <- Float.min cap.(i) (start_rate.(i) +. (weight.(i) *. !tau))
    end
  done

let allocate_warm st =
  st.c_solves <- st.c_solves + 1;
  if st.clean then begin
    st.c_noop <- st.c_noop + 1;
    Array.sub st.rates 0 st.n
  end
  else begin
    if st.structural then begin
      rebuild st;
      full_seed st;
      st.c_full <- st.c_full + 1
    end
    else if not st.seeded then begin
      full_seed st;
      st.c_full <- st.c_full + 1
    end
    else begin
      incremental_seed st;
      st.c_incremental <- st.c_incremental + 1
    end;
    U.Vec.clear st.dirty_dem;
    U.Vec.clear st.dirty_cap;
    sweep st;
    st.clean <- true;
    Array.sub st.rates 0 st.n
  end

let allocate ~capacities demands = allocate_warm (make_state ~capacities demands)

let max_min_fair ~capacities usages =
  let demands =
    Array.map (fun usage -> { weight = 1.0; floor = 0.0; cap = infinity; usage }) usages
  in
  allocate ~capacities demands
