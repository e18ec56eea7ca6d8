(* The validation layer turned on itself: clean schedules must pass,
   corrupted ones must be rejected with the right violation code, and
   the differential oracle must agree with the physical switch on
   randomized traces with arrivals. *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units
module Prt = Sunflow_core.Prt
module Sunflow = Sunflow_core.Sunflow
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result
module Check = Sunflow_check
module V = Check.Violation
module PC = Check.Plan_check
module Obs = Sunflow_obs

let b = Units.gbps 1.
let delta = Units.ms 10.
let has code vs = List.exists (fun (v : V.t) -> v.V.code = code) vs

let check_clean what vs =
  Alcotest.(check string) what "ok" (Format.asprintf "%a" V.pp_report vs)

let shuffle_2x2 =
  Demand.of_list
    [
      ((0, 2), Units.mb 10.);
      ((0, 3), Units.mb 10.);
      ((1, 2), Units.mb 10.);
      ((1, 3), Units.mb 10.);
    ]

let shapes =
  [
    ("single flow", Demand.of_list [ ((0, 1), Units.mb 25.) ]);
    ("shuffle 2x2", shuffle_2x2);
    ( "skewed",
      Demand.of_list
        [ ((0, 1), Units.mb 100.); ((0, 2), Units.mb 1.); ((3, 1), Units.mb 7.) ]
    );
  ]

(* --- plan validator --- *)

let test_validator_clean_grid () =
  List.iter
    (fun (dname, d) ->
      List.iter
        (fun (delta, bandwidth) ->
          let c = Coflow.make ~id:0 d in
          let r = Sunflow.schedule ~delta ~bandwidth c in
          check_clean
            (Printf.sprintf "%s at delta=%g B=%g" dname delta bandwidth)
            (PC.intra (PC.spec ~delta ~bandwidth ()) c r))
        [
          (0., b);
          (Units.ms 1., b);
          (Units.ms 10., b);
          (Units.ms 10., Units.gbps 10.);
          (Units.ms 100., Units.gbps 40.);
        ])
    shapes

let two_flow_coflow () =
  Coflow.make ~id:7
    (Demand.of_list [ ((0, 1), Units.mb 10.); ((2, 3), Units.mb 5.) ])

let test_corrupt_overlap () =
  let c = two_flow_coflow () in
  let r = Sunflow.schedule ~delta ~bandwidth:b c in
  (* duplicating a window makes it collide with itself on both ports *)
  let r' =
    { r with Sunflow.reservations = List.hd r.reservations :: r.reservations }
  in
  let vs = PC.intra (PC.spec ~delta ~bandwidth:b ()) c r' in
  Alcotest.(check bool) "port overlap flagged" true (has V.Port_overlap vs)

let test_corrupt_delta_dropped () =
  let c = two_flow_coflow () in
  let r = Sunflow.schedule ~delta ~bandwidth:b c in
  let r' =
    {
      r with
      Sunflow.reservations =
        List.map
          (fun (rv : Prt.reservation) -> { rv with Prt.setup = 0. })
          r.reservations;
    }
  in
  let vs = PC.intra (PC.spec ~delta ~bandwidth:b ()) c r' in
  Alcotest.(check bool) "dropped delta flagged" true (has V.Delta_violation vs)

let test_corrupt_under_service () =
  let c = two_flow_coflow () in
  let r = Sunflow.schedule ~delta ~bandwidth:b c in
  (* same plan, doubled demand: every flow is now under-served *)
  let inflated = Coflow.with_demand c (Demand.scale 2. c.Coflow.demand) in
  let vs = PC.intra (PC.spec ~delta ~bandwidth:b ()) inflated r in
  Alcotest.(check bool) "under-service flagged" true (has V.Under_service vs)

let test_corrupt_preemption () =
  (* split the single window of a one-flow Coflow into two halves with
     a gap and nothing blocking at the first stop: byte coverage stays
     exact, but the non-preemption discipline is broken *)
  let c = Coflow.make ~id:3 (Demand.of_list [ ((0, 1), Units.mb 20.) ]) in
  let r = Sunflow.schedule ~delta ~bandwidth:b c in
  let w = List.hd r.Sunflow.reservations in
  let p = w.Prt.length -. w.Prt.setup in
  let w1 = { w with Prt.length = w.Prt.setup +. (p /. 2.) } in
  let w2 = { w1 with Prt.start = Prt.stop w1 +. 0.05 } in
  let r' =
    {
      Sunflow.reservations = [ w1; w2 ];
      finish = Prt.stop w2;
      setups = 2;
    }
  in
  let vs = PC.intra (PC.spec ~delta ~bandwidth:b ()) c r' in
  Alcotest.(check bool) "preemption flagged" true (has V.Preemption vs);
  (* the fresh-table switching guarantee broke too: 2 setups, 1 subflow *)
  Alcotest.(check bool)
    "switching excess flagged" true
    (has V.Switching_excess vs)

let test_corrupt_result_fields () =
  let c = two_flow_coflow () in
  let r = Sunflow.schedule ~delta ~bandwidth:b c in
  let vs =
    PC.intra
      (PC.spec ~delta ~bandwidth:b ())
      c
      { r with Sunflow.finish = r.finish +. 1. }
  in
  Alcotest.(check bool) "finish lie flagged" true (has V.Result_mismatch vs)

(* --- conservation checker --- *)

let arrival_trace () =
  [
    Coflow.make ~id:0 ~arrival:0. shuffle_2x2;
    Coflow.make ~id:1 ~arrival:0.2
      (Demand.of_list [ ((1, 0), Units.mb 30.) ]);
    Coflow.make ~id:2 ~arrival:0.5
      (Demand.of_list [ ((2, 0), Units.mb 5.); ((3, 1), Units.mb 5.) ]);
  ]

let test_conservation_clean () =
  let coflows = arrival_trace () in
  let r = Circuit_sim.replay ~delta ~bandwidth:b coflows in
  check_clean "circuit replay" (Check.Sim_check.result ~bandwidth:b ~coflows r)

let test_conservation_corrupted () =
  let coflows = arrival_trace () in
  let r = Circuit_sim.replay ~delta ~bandwidth:b coflows in
  let vs corrupted = Check.Sim_check.result ~bandwidth:b ~coflows corrupted in
  Alcotest.(check bool)
    "inflated makespan flagged" true
    (has V.Conservation (vs { r with Sim_result.makespan = r.makespan +. 1. }));
  Alcotest.(check bool)
    "missing Coflow flagged" true
    (has V.Unknown_coflow
       (vs { r with Sim_result.finishes = List.tl r.Sim_result.finishes }));
  let lied =
    match r.Sim_result.ccts with
    | (id, cct) :: rest -> (id, cct +. 0.25) :: rest
    | [] -> []
  in
  Alcotest.(check bool)
    "cct != finish - arrival flagged" true
    (has V.Conservation (vs { r with Sim_result.ccts = lied }));
  Alcotest.(check bool)
    "beating the bottleneck bound flagged" true
    (has V.Conservation
       (vs
          {
            r with
            Sim_result.finishes = List.map (fun (id, _) -> (id, 0.)) r.finishes;
            ccts = List.map (fun (id, _) -> (id, 0.)) r.ccts;
            makespan = 0.;
          }))

(* --- teardown accounting (obs counters) --- *)

let counter_pair () =
  ( Obs.Registry.counter_value (Obs.Registry.counter "sim.setups"),
    Obs.Registry.counter_value (Obs.Registry.counter "sim.teardowns") )

let test_teardowns_balance () =
  List.iter
    (fun carry_circuits ->
      Obs.Control.set_enabled true;
      let s0, t0 = counter_pair () in
      let r =
        Circuit_sim.replay
          ~config:(Sunflow_core.Inter.config ~carry_circuits ())
          ~delta ~bandwidth:b (arrival_trace ())
      in
      let s1, t1 = counter_pair () in
      Obs.Control.set_enabled false;
      Alcotest.(check int)
        (Printf.sprintf "setups counter matches result (carry=%b)"
           carry_circuits)
        r.Sim_result.total_setups (s1 - s0);
      Alcotest.(check int)
        (Printf.sprintf "every setup torn down (carry=%b)" carry_circuits)
        (s1 - s0) (t1 - t0))
    [ true; false ]

let test_teardowns_zero_delta () =
  Obs.Control.set_enabled true;
  let s0, t0 = counter_pair () in
  ignore (Circuit_sim.replay ~delta:0. ~bandwidth:b (arrival_trace ()));
  let s1, t1 = counter_pair () in
  Obs.Control.set_enabled false;
  Alcotest.(check int) "no setups at delta=0" 0 (s1 - s0);
  Alcotest.(check int) "no teardowns at delta=0" 0 (t1 - t0)

(* --- attribution conservation end-to-end --- *)

let test_attribution_conserves () =
  (* a real simulated run, attribution derived from its recorded
     windows: every Coflow's components must sum to its CCT and the
     whole trace must report zero violations *)
  let coflows = arrival_trace () in
  Obs.Control.set_enabled true;
  Obs.Attrib.clear ();
  Obs.Sampler.clear ();
  Obs.Timeline.clear ();
  let r = Circuit_sim.replay ~delta ~bandwidth:b coflows in
  Obs.Control.set_enabled false;
  let breakdowns, vs = Check.Sim_check.attribution ~coflows r in
  Obs.Attrib.clear ();
  Obs.Sampler.clear ();
  Obs.Timeline.clear ();
  check_clean "attribution over the arrival trace" vs;
  Alcotest.(check int) "one breakdown per finished Coflow" 3
    (List.length breakdowns);
  List.iter
    (fun (bk : Obs.Attrib.breakdown) ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "Coflow %d conserves" bk.Obs.Attrib.a_id)
        0.
        (Obs.Attrib.residual bk);
      Alcotest.(check bool)
        (Printf.sprintf "Coflow %d transfers" bk.Obs.Attrib.a_id)
        true
        (bk.Obs.Attrib.a_transfer > 0.))
    breakdowns

let test_attribution_via_oracle () =
  (* the fuzz harness's attribution leg on one deterministic trace *)
  let o =
    Check.Diff_oracle.replay ~check_attrib:true ~replan:`Incremental ~delta
      ~bandwidth:b ~n_ports:4 (arrival_trace ())
  in
  check_clean "oracle replay with check_attrib" o.Check.Diff_oracle.violations

(* --- differential oracle --- *)

let test_oracle_rejects_bad_input () =
  let c = Coflow.make ~id:0 (Demand.of_list [ ((0, 1), Units.mb 1.) ]) in
  let o = Check.Diff_oracle.replay ~delta:0. ~bandwidth:b ~n_ports:4 [ c ] in
  Alcotest.(check bool)
    "delta=0 rejected" true
    (has V.Rejected_plan o.Check.Diff_oracle.violations);
  let o =
    Check.Diff_oracle.replay ~delta ~bandwidth:b ~n_ports:4
      [ c; Coflow.make ~id:0 (Demand.of_list [ ((2, 3), Units.mb 1.) ]) ]
  in
  Alcotest.(check bool)
    "duplicate ids rejected" true
    (has V.Unknown_coflow o.Check.Diff_oracle.violations);
  let o = Check.Diff_oracle.replay ~delta ~bandwidth:b ~n_ports:1 [ c ] in
  Alcotest.(check bool)
    "port outside fabric rejected" true
    (has V.Unknown_coflow o.Check.Diff_oracle.violations)

let test_oracle_deterministic_trace () =
  let o =
    Check.Diff_oracle.replay ~delta ~bandwidth:b ~n_ports:4 (arrival_trace ())
  in
  check_clean "simple arrival trace" o.Check.Diff_oracle.violations;
  Alcotest.(check int) "all three compared" 3 o.Check.Diff_oracle.compared

let fuzz_case (name, delta, bandwidth, traces) =
  Alcotest.test_case name `Slow (fun () ->
      let s =
        Check.Diff_oracle.fuzz ~seed:11 ~traces ~n_ports:6 ~max_coflows:5
          ~span:1.2 ~max_mb:30. ~delta ~bandwidth ()
      in
      check_clean name s.Check.Diff_oracle.total_violations;
      Alcotest.(check bool)
        "compared something" true
        (s.Check.Diff_oracle.total_compared >= traces))

let suite =
  [
    Alcotest.test_case "validator clean across the grid" `Quick
      test_validator_clean_grid;
    Alcotest.test_case "corrupted plan: overlap" `Quick test_corrupt_overlap;
    Alcotest.test_case "corrupted plan: delta dropped" `Quick
      test_corrupt_delta_dropped;
    Alcotest.test_case "corrupted plan: under-service" `Quick
      test_corrupt_under_service;
    Alcotest.test_case "corrupted plan: preemption" `Quick
      test_corrupt_preemption;
    Alcotest.test_case "corrupted result fields" `Quick
      test_corrupt_result_fields;
    Alcotest.test_case "conservation: clean replay" `Quick
      test_conservation_clean;
    Alcotest.test_case "conservation: corrupted results" `Quick
      test_conservation_corrupted;
    Alcotest.test_case "setups and teardowns balance" `Quick
      test_teardowns_balance;
    Alcotest.test_case "zero delta, zero switching" `Quick
      test_teardowns_zero_delta;
    Alcotest.test_case "attribution conserves end-to-end" `Quick
      test_attribution_conserves;
    Alcotest.test_case "attribution rides the oracle replay" `Quick
      test_attribution_via_oracle;
    Alcotest.test_case "oracle rejects bad input" `Quick
      test_oracle_rejects_bad_input;
    Alcotest.test_case "oracle on a deterministic trace" `Quick
      test_oracle_deterministic_trace;
    fuzz_case ("oracle fuzz at 10ms/1Gbps", Units.ms 10., b, 40);
    fuzz_case ("oracle fuzz at 1ms/10Gbps", Units.ms 1., Units.gbps 10., 25);
    fuzz_case ("oracle fuzz at 100ms/1Gbps", Units.ms 100., b, 15);
  ]
