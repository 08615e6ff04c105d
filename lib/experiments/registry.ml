let all =
  [
    ("E1", E1_figure1.run);
    ("E2", E2_latency_share.run);
    ("E3", E3_loopback.run);
    ("E4", E4_colocation.run);
    ("E5", E5_ddio.run);
    ("E6", E6_detection.run);
    ("E7", E7_overhead.run);
    ("E8", E8_policies.run);
    ("E9", E9_models.run);
    ("E10", E10_decision_cost.run);
    ("E11", E11_work_conserving.run);
    ("E12", E12_multimodal.run);
    ("E13", E13_cxl.run);
    ("E14", E14_ring_placement.run);
    ("E15", E15_admission.run);
    ("E16", E16_heartbeat_sizing.run);
    ("E17", E17_remediation.run);
    ("E18", E18_sensor_trust.run);
    ("E19", E19_tail_latency.run);
    ("E20", E20_fleet_failover.run);
    ("A1", Ablations.run_a1);
    ("A2", Ablations.run_a2);
    ("A3", Ablations.run_a3);
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.assoc_opt id all

let reproduced (r : Common.result) =
  let verdict = r.Common.verdict and needle = "MISMATCH" in
  let n = String.length verdict and m = String.length needle in
  let rec go i = i + m <= n && (String.sub verdict i m = needle || go (i + 1)) in
  not (go 0)

let run_all () =
  let results =
    List.map
      (fun (_, run) ->
        let r = run () in
        Common.print_result r;
        r)
      all
  in
  let summary =
    Ihnet_util.Table.create ~title:"summary: paper claim vs measured"
      ~columns:[ "id"; "experiment"; "outcome" ]
  in
  List.iter
    (fun (r : Common.result) ->
      Ihnet_util.Table.add_row summary
        [
          r.Common.id;
          r.Common.title;
          (if reproduced r then "reproduced" else "MISMATCH");
        ])
    results;
  print_newline ();
  Ihnet_util.Table.print summary;
  let bad = List.length (List.filter (fun r -> not (reproduced r)) results) in
  Printf.printf "%d/%d experiments reproduce their paper claims\n" (List.length results - bad)
    (List.length results);
  results
