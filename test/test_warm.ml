(* Solver state: differential properties and invalidation units. A
   state re-solved incrementally after updates must be BIT-identical
   to a fresh state over the same inputs — not merely close — because
   the fabric's determinism contract digests the output rates
   (MODEL.md §12–13). *)

module E = Ihnet_engine

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let bits_eq (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* {1 Generators} *)

(* One incremental update, interpreted modulo the live demand /
   resource counts at application time. *)
type update =
  | Set_weight of int * float
  | Set_floor of int * float
  | Set_cap of int * float (* infinity encoded as 0.0 *)
  | Set_usage of int * (int * float) list (* structural *)
  | Set_capacity of int * float
  | Touch of int (* re-store the identical record: must be a no-op *)

let gen_usage nr =
  QCheck.Gen.(
    list_size (int_range 1 5) (pair (int_range 0 (nr - 1)) (float_range 0.5 2.0))
    >>= fun usage -> return (List.sort_uniq (fun (a, _) (b, _) -> compare a b) usage))

let gen_update nr =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i w -> Set_weight (i, w)) (int_range 0 1000) (float_range 0.1 8.0);
        map2 (fun i f -> Set_floor (i, f)) (int_range 0 1000) (float_range 0.0 20.0);
        map2
          (fun i c -> Set_cap (i, c))
          (int_range 0 1000)
          (oneof [ return 0.0; float_range 0.1 50.0 ]);
        map2 (fun i u -> Set_usage (i, u)) (int_range 0 1000) (gen_usage nr);
        map2 (fun r v -> Set_capacity (r, v)) (int_range 0 1000) (float_range 5.0 500.0);
        map (fun i -> Touch i) (int_range 0 1000);
      ])

let gen_demand nr =
  QCheck.Gen.(
    float_range 0.1 8.0 >>= fun weight ->
    float_range 0.0 20.0 >>= fun floor ->
    oneof [ return infinity; float_range 0.1 50.0 ] >>= fun cap ->
    gen_usage nr >>= fun usage -> return { E.Fairshare.weight; floor; cap; usage })

(* A base case plus a few epochs, each a batch of updates followed by
   a solve. *)
let gen_case =
  QCheck.Gen.(
    int_range 1 8 >>= fun nr ->
    array_size (return nr) (float_range 5.0 500.0) >>= fun caps ->
    array_size (int_range 1 25) (gen_demand nr) >>= fun demands ->
    list_size (int_range 1 6) (list_size (int_range 0 5) (gen_update nr)) >>= fun epochs ->
    return (caps, demands, epochs))

let print_case (caps, demands, epochs) =
  let b = Buffer.create 256 in
  Buffer.add_string b "caps=[";
  Array.iter (fun c -> Buffer.add_string b (Printf.sprintf "%h;" c)) caps;
  Buffer.add_string b "] demands=[";
  Array.iter
    (fun (d : E.Fairshare.demand) ->
      Buffer.add_string b
        (Printf.sprintf "{w=%h f=%h c=%h u=[%s]};" d.weight d.floor d.cap
           (String.concat ";" (List.map (fun (r, co) -> Printf.sprintf "%d:%h" r co) d.usage))))
    demands;
  Buffer.add_string b (Printf.sprintf "] epochs=%d upd=[" (List.length epochs));
  List.iter
    (fun us ->
      List.iter
        (fun u ->
          Buffer.add_string b
            (match u with
            | Set_weight (i, w) -> Printf.sprintf "w%d=%h;" i w
            | Set_floor (i, f) -> Printf.sprintf "f%d=%h;" i f
            | Set_cap (i, c) -> Printf.sprintf "c%d=%h;" i c
            | Set_usage (i, _) -> Printf.sprintf "u%d;" i
            | Set_capacity (r, v) -> Printf.sprintf "C%d=%h;" r v
            | Touch i -> Printf.sprintf "t%d;" i))
        us;
      Buffer.add_string b "|")
    epochs;
  Buffer.add_string b "]";
  Buffer.contents b

(* Apply one update to both the long-lived state and the mirror a
   fresh state is built from; they must stay in lockstep. *)
let apply st caps (dems : E.Fairshare.demand array ref) u =
  let n = Array.length !dems and nr = Array.length caps in
  match u with
  | Set_weight (i, w) ->
    let i = i mod n in
    let d = { !dems.(i) with E.Fairshare.weight = w } in
    !dems.(i) <- d;
    E.Fairshare.set_demand st i d
  | Set_floor (i, f) ->
    let i = i mod n in
    let d = { !dems.(i) with E.Fairshare.floor = f } in
    !dems.(i) <- d;
    E.Fairshare.set_demand st i d
  | Set_cap (i, c) ->
    let i = i mod n in
    let c = if c = 0.0 then infinity else c in
    let d = { !dems.(i) with E.Fairshare.cap = c } in
    !dems.(i) <- d;
    E.Fairshare.set_demand st i d
  | Set_usage (i, u) ->
    let i = i mod n in
    let d = { !dems.(i) with E.Fairshare.usage = u } in
    !dems.(i) <- d;
    E.Fairshare.set_demand st i d
  | Set_capacity (r, v) ->
    let r = r mod nr in
    caps.(r) <- v;
    E.Fairshare.set_capacity st r v
  | Touch i ->
    let i = i mod n in
    E.Fairshare.set_demand st i !dems.(i)

let warm_props =
  [
    (* The solver's correctness gate: arbitrary update sequences
       through one long-lived state agree bitwise with a fresh state
       over the same inputs ([allocate]), and the fresh solve agrees
       with the round-based oracle to 1e-6 — so incremental ≡ fresh ≡
       reference. *)
    prop "incremental state ≡ fresh state (bitwise) ≡ reference across random update sequences"
      ~count:1000
      (QCheck.make ~print:print_case gen_case)
      (fun (caps0, demands0, epochs) ->
        let caps = Array.copy caps0 in
        let dems = ref (Array.map Fun.id demands0) in
        let st = E.Fairshare.make_state ~capacities:caps demands0 in
        List.for_all
          (fun updates ->
            List.iter (apply st caps dems) updates;
            let incremental = E.Fairshare.allocate_warm st in
            let fresh = E.Fairshare.allocate ~capacities:caps !dems in
            let oracle = E.Fairshare.allocate_reference ~capacities:caps !dems in
            Array.length incremental = Array.length fresh
            && Array.for_all2 bits_eq incremental fresh
            && Array.for_all2
                 (fun a b ->
                   Float.abs (a -. b)
                   <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))
                 fresh oracle)
          epochs);
    prop "reset diffs against the live vector and matches a fresh state bitwise" ~count:300
      (QCheck.make ~print:print_case gen_case)
      (fun (caps, demands, _) ->
        let st = E.Fairshare.make_state ~capacities:caps demands in
        let r1 = E.Fairshare.allocate_warm st in
        (* re-enter with a structurally identical but freshly boxed
           demand vector: must be answered from cache *)
        E.Fairshare.reset st (Array.map (fun d -> { d with E.Fairshare.weight = d.E.Fairshare.weight }) demands);
        let r2 = E.Fairshare.allocate_warm st in
        let stats = E.Fairshare.stats st in
        Array.for_all2 bits_eq r1 r2
        && stats.E.Fairshare.unchanged = 1
        && Array.for_all2 bits_eq r1 (E.Fairshare.allocate ~capacities:caps demands));
  ]

(* {1 Invalidation units} *)

let d w f c u = { E.Fairshare.weight = w; floor = f; cap = c; usage = u }

let check_vs_fresh st caps dems =
  let incremental = E.Fairshare.allocate_warm st in
  let fresh = E.Fairshare.allocate ~capacities:caps dems in
  Alcotest.(check bool) "state matches a fresh state bitwise" true
    (Array.for_all2 bits_eq incremental fresh)

let test_invalidation_fires () =
  let caps = [| 100.0; 50.0; 80.0 |] in
  let dems =
    [|
      d 1.0 10.0 infinity [ (0, 1.0); (1, 1.0) ];
      d 2.0 0.0 30.0 [ (0, 1.0); (2, 1.2) ];
      d 1.0 5.0 infinity [ (1, 1.0); (2, 1.0) ];
    |]
  in
  let st = E.Fairshare.make_state ~capacities:caps dems in
  check_vs_fresh st caps dems;
  let s1 = E.Fairshare.stats st in
  Alcotest.(check int) "first solve is a full rebuild" 1 s1.E.Fairshare.full_rebuilds;
  (* clean re-solve: answered from cache *)
  check_vs_fresh st caps dems;
  Alcotest.(check int) "clean re-solve is a no-op" 1 (E.Fairshare.stats st).E.Fairshare.unchanged;
  (* capacity perturbation must invalidate and take the incremental path *)
  caps.(1) <- 40.0;
  E.Fairshare.set_capacity st 1 40.0;
  check_vs_fresh st caps dems;
  Alcotest.(check int) "capacity change takes the incremental path" 1
    (E.Fairshare.stats st).E.Fairshare.incremental;
  (* floor perturbation (re-floored flow) *)
  dems.(0) <- d 1.0 60.0 infinity [ (0, 1.0); (1, 1.0) ];
  E.Fairshare.set_demand st 0 dems.(0);
  check_vs_fresh st caps dems;
  Alcotest.(check int) "floor change takes the incremental path" 2
    (E.Fairshare.stats st).E.Fairshare.incremental;
  (* cap perturbation *)
  dems.(1) <- d 2.0 0.0 10.0 [ (0, 1.0); (2, 1.2) ];
  E.Fairshare.set_demand st 1 dems.(1);
  check_vs_fresh st caps dems;
  Alcotest.(check int) "cap change takes the incremental path" 3
    (E.Fairshare.stats st).E.Fairshare.incremental;
  (* usage change is structural: full rebuild *)
  dems.(2) <- d 1.0 5.0 infinity [ (0, 1.0); (1, 1.0); (2, 1.0) ];
  E.Fairshare.set_demand st 2 dems.(2);
  check_vs_fresh st caps dems;
  let s = E.Fairshare.stats st in
  Alcotest.(check int) "usage change forces a full rebuild" 2 s.E.Fairshare.full_rebuilds;
  Alcotest.(check int) "no spurious extra solves" 6 s.E.Fairshare.solves

let test_noop_updates_stay_clean () =
  let caps = [| 100.0 |] in
  let dems = [| d 1.0 0.0 infinity [ (0, 1.0) ]; d 2.0 5.0 40.0 [ (0, 1.3) ] |] in
  let st = E.Fairshare.make_state ~capacities:caps dems in
  ignore (E.Fairshare.allocate_warm st);
  (* identical records, equal-valued fresh records, equal capacity
     stores: none of these may dirty the state *)
  E.Fairshare.set_demand st 0 dems.(0);
  E.Fairshare.set_demand st 1 (d 2.0 5.0 40.0 [ (0, 1.3) ]);
  E.Fairshare.set_capacity st 0 100.0;
  ignore (E.Fairshare.allocate_warm st);
  Alcotest.(check int) "no-op updates answered from cache" 1
    (E.Fairshare.stats st).E.Fairshare.unchanged

(* Satellite: [validate] must raise [Invalid_argument] — a real
   raise, not [assert], so it survives [-noassert] builds. This test
   failed before the fix: the old asserts raised [Assert_failure]. *)
let test_validate_raises () =
  let caps = [| 100.0 |] in
  let bad_weight = [| d 0.0 0.0 infinity [ (0, 1.0) ] |] in
  let bad_floor = [| d 1.0 (-1.0) infinity [ (0, 1.0) ] |] in
  let bad_cap = [| d 1.0 0.0 (-2.0) [ (0, 1.0) ] |] in
  let bad_res = [| d 1.0 0.0 infinity [ (7, 1.0) ] |] in
  let bad_coef = [| d 1.0 0.0 infinity [ (0, 0.0) ] |] in
  let nan_weight = [| d Float.nan 0.0 infinity [ (0, 1.0) ] |] in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | exception e ->
      Alcotest.failf "%s: expected Invalid_argument, got %s" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: expected Invalid_argument, got a result" name
  in
  List.iter
    (fun (name, dems) ->
      expect_invalid ("validate " ^ name) (fun () ->
          E.Fairshare.validate ~capacities:caps dems);
      expect_invalid ("allocate " ^ name) (fun () ->
          E.Fairshare.allocate ~capacities:caps dems);
      expect_invalid ("allocate_warm " ^ name) (fun () ->
          E.Fairshare.allocate_warm (E.Fairshare.make_state ~capacities:caps dems)))
    [
      ("weight=0", bad_weight);
      ("floor<0", bad_floor);
      ("cap<0", bad_cap);
      ("resource out of range", bad_res);
      ("coefficient=0", bad_coef);
      ("weight=nan", nan_weight);
    ]

(* A state owns copies of its inputs: neither a one-shot [allocate]
   nor a long-lived state's [set_capacity] may write through to the
   caller's arrays. The fabric passes its live [caps] row to
   [make_state], so an aliasing state would corrupt the fabric. *)
let test_inputs_not_aliased () =
  let caps = [| 100.0; 50.0 |] in
  let dems = [| d 1.0 10.0 infinity [ (0, 1.0); (1, 1.0) ]; d 2.0 0.0 30.0 [ (0, 1.2) ] |] in
  let caps0 = Array.copy caps and dems0 = Array.copy dems in
  let unchanged label =
    Alcotest.(check bool) (label ^ ": capacities unchanged") true (Array.for_all2 bits_eq caps caps0);
    Alcotest.(check bool) (label ^ ": demands unchanged") true (Array.for_all2 ( == ) dems dems0)
  in
  ignore (E.Fairshare.allocate ~capacities:caps dems);
  unchanged "allocate";
  let st = E.Fairshare.make_state ~capacities:caps dems in
  ignore (E.Fairshare.allocate_warm st);
  E.Fairshare.set_capacity st 0 7.0;
  E.Fairshare.set_capacity st 1 3.0;
  E.Fairshare.set_demand st 1 (d 4.0 1.0 20.0 [ (1, 1.0) ]);
  ignore (E.Fairshare.allocate_warm st);
  unchanged "make_state + set_capacity"

let unit_tests =
  [
    Alcotest.test_case "invalidation fires on capacity/floor/cap/usage perturbations" `Quick
      test_invalidation_fires;
    Alcotest.test_case "no-op updates are answered from the cached solution" `Quick
      test_noop_updates_stay_clean;
    Alcotest.test_case "validate raises Invalid_argument (survives -noassert)" `Quick
      test_validate_raises;
    Alcotest.test_case "allocate and set_capacity never write through to the inputs" `Quick
      test_inputs_not_aliased;
  ]

(* {1 Fabric level: the component-result memo and its invalidation}

   Steady flow churn must hit the memo; anything that changes a
   component's inputs — a link fault (capacities), a limits update (a
   demand record), a host-config swap (the cache model) — must miss.
   The hit/miss counters are the observable. *)

module T = Ihnet_topology

let fab_path topo a b =
  let dev n =
    match T.Topology.device_by_name topo n with
    | Some d -> d.T.Device.id
    | None -> Alcotest.failf "no device %s" n
  in
  match T.Routing.shortest_path topo (dev a) (dev b) with
  | Some p -> p
  | None -> Alcotest.failf "no path %s->%s" a b

(* A two-socket fabric carrying 24 background flows on gpu0->nic0,
   plus the path and a faultable mid-path link. *)
let loaded_fabric ?(warm = true) () =
  let topo = T.Builder.two_socket_server () in
  let sim = E.Sim.create () in
  let fab = E.Fabric.create ~warm sim topo in
  let p = fab_path topo "gpu0" "nic0" in
  E.Fabric.batch fab (fun () ->
      for i = 1 to 24 do
        ignore
          (E.Fabric.start_flow fab ~tenant:(1 + (i mod 4))
             ~weight:(1.0 +. float_of_int (i mod 3))
             ~path:p ~size:E.Flow.Unbounded ())
      done);
  (fab, p)

let churn fab p =
  let f = E.Fabric.start_flow fab ~tenant:99 ~path:p ~size:E.Flow.Unbounded () in
  E.Fabric.stop_flow fab f

let test_fabric_steady_churn_hits () =
  let fab, p = loaded_fabric () in
  Alcotest.(check bool) "warm enabled" true (E.Fabric.warm_enabled fab);
  (* first lap populates the memo (both alternation values) *)
  churn fab p;
  let h0 = E.Fabric.warm_hits fab and m0 = E.Fabric.warm_misses fab in
  for _ = 1 to 5 do
    churn fab p
  done;
  Alcotest.(check int) "steady churn misses nothing" m0 (E.Fabric.warm_misses fab);
  Alcotest.(check bool) "steady churn hits the memo" true (E.Fabric.warm_hits fab >= h0 + 10)

let test_fabric_invalidation () =
  let fab, p = loaded_fabric () in
  churn fab p;
  churn fab p;
  let expect_miss label act =
    let m0 = E.Fabric.warm_misses fab in
    act ();
    if E.Fabric.warm_misses fab <= m0 then
      Alcotest.failf "%s did not invalidate the memo (misses stuck at %d)" label m0
  in
  (* capacities changed -> the cached caps row no longer matches *)
  let mid = List.nth p.T.Path.hops (List.length p.T.Path.hops / 2) in
  expect_miss "inject_fault" (fun () ->
      E.Fabric.inject_fault fab mid.T.Path.link.T.Link.id (E.Fault.degrade ~capacity_factor:0.5 ()));
  (* clearing restores the pre-fault capacities, which the bucket still
     holds — the memo is keyed by values, not invalidated by events, so
     returning to a previously-seen state is a legitimate hit *)
  let h0 = E.Fabric.warm_hits fab and m1 = E.Fabric.warm_misses fab in
  E.Fabric.clear_fault fab mid.T.Path.link.T.Link.id;
  Alcotest.(check int) "clear_fault replays the pre-fault memo" m1 (E.Fabric.warm_misses fab);
  Alcotest.(check bool) "clear_fault hits" true (E.Fabric.warm_hits fab > h0);
  (* a never-seen degradation level must miss again *)
  expect_miss "inject_fault (new level)" (fun () ->
      E.Fabric.inject_fault fab mid.T.Path.link.T.Link.id (E.Fault.degrade ~capacity_factor:0.7 ()));
  E.Fabric.clear_fault fab mid.T.Path.link.T.Link.id;
  (* a demand record changed -> the dems row no longer matches *)
  (match E.Fabric.active_flows fab with
  | f :: _ ->
    expect_miss "set_flow_limits" (fun () ->
        E.Fabric.set_flow_limits fab f ~weight:9.5 ())
  | [] -> Alcotest.fail "no active flows");
  (* config swap resets the whole cache generation *)
  expect_miss "set_config" (fun () ->
      E.Fabric.set_config fab
        { T.Hostconfig.default with T.Hostconfig.ddio = T.Hostconfig.Ddio_off });
  (* and after each upset, steady churn re-converges to pure hits *)
  churn fab p;
  let m0 = E.Fabric.warm_misses fab in
  churn fab p;
  Alcotest.(check int) "re-converged to hits" m0 (E.Fabric.warm_misses fab)

let test_fabric_memo_off_counters_stay_zero () =
  let fab, p = loaded_fabric ~warm:false () in
  Alcotest.(check bool) "memo disabled" false (E.Fabric.warm_enabled fab);
  for _ = 1 to 3 do
    churn fab p
  done;
  Alcotest.(check int) "no hits" 0 (E.Fabric.warm_hits fab);
  Alcotest.(check int) "no misses" 0 (E.Fabric.warm_misses fab)

(* With the memo off, every component compute still goes through a
   solver state: the solver-work ledger counts solves and full
   rebuilds (each compute starts from a fresh state) while the memo
   counters stay 0. *)
let test_fabric_memo_off_still_solves () =
  let fab, p = loaded_fabric ~warm:false () in
  churn fab p;
  let s = E.Fabric.scan_solver_stats fab in
  Alcotest.(check bool) "solves > 0" true (s.E.Fairshare.solves > 0);
  Alcotest.(check bool) "full rebuilds > 0" true (s.E.Fairshare.full_rebuilds > 0);
  Alcotest.(check int) "no hits" 0 (E.Fabric.warm_hits fab);
  Alcotest.(check int) "no misses" 0 (E.Fabric.warm_misses fab)

(* Same seed, same scenario, memo on vs off: every flow rate must be
   bit-identical (the memo may only change how fast rates are
   computed, never their bits). *)
let test_fabric_memo_on_off_rates_bitwise () =
  let run warm =
    let fab, p = loaded_fabric ~warm () in
    churn fab p;
    let mid = List.nth p.T.Path.hops (List.length p.T.Path.hops / 2) in
    E.Fabric.inject_fault fab mid.T.Path.link.T.Link.id (E.Fault.degrade ~capacity_factor:0.25 ());
    churn fab p;
    E.Fabric.clear_fault fab mid.T.Path.link.T.Link.id;
    churn fab p;
    E.Fabric.active_flows fab
    |> List.map (fun f -> (f.E.Flow.id, f.E.Flow.rate))
    |> List.sort compare
  in
  let on = run true and off = run false in
  Alcotest.(check int) "same flow count" (List.length off) (List.length on);
  List.iter2
    (fun (oi, orate) (fi, frate) ->
      Alcotest.(check int) "same flow id" fi oi;
      if not (bits_eq orate frate) then
        Alcotest.failf "flow %d: memo-on rate %h <> memo-off rate %h" oi orate frate)
    on off

let fabric_tests =
  [
    Alcotest.test_case "steady churn is answered from the memo" `Quick
      test_fabric_steady_churn_hits;
    Alcotest.test_case "faults, limit updates and config swaps invalidate" `Quick
      test_fabric_invalidation;
    Alcotest.test_case "memo off keeps the memo counters at zero" `Quick
      test_fabric_memo_off_counters_stay_zero;
    Alcotest.test_case "memo off still solves through a solver state" `Quick
      test_fabric_memo_off_still_solves;
    Alcotest.test_case "memo-on and memo-off fabrics produce bit-identical rates" `Quick
      test_fabric_memo_on_off_rates_bitwise;
  ]

let suites =
  [ ("warm.props", warm_props); ("warm.units", unit_tests); ("warm.fabric", fabric_tests) ]
