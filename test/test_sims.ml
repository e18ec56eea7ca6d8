(* End-to-end behaviour of the two trace-replay simulators. *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Bounds = Sunflow_core.Bounds
module Units = Sunflow_core.Units
module Packet_sim = Sunflow_sim.Packet_sim
module Circuit_sim = Sunflow_sim.Circuit_sim
module R = Sunflow_sim.Sim_result

let b = Units.gbps 1.
let delta = Units.ms 10.

let mk id ?(arrival = 0.) flows = Coflow.make ~id ~arrival (Demand.of_list flows)

let small_trace () =
  [
    mk 0 [ ((0, 5), Units.mb 100.); ((1, 6), Units.mb 50.); ((0, 6), Units.mb 30.) ];
    mk 1 ~arrival:0.1 [ ((0, 5), Units.mb 5.) ];
    mk 2 ~arrival:0.2
      [ ((2, 5), Units.mb 20.); ((3, 6), Units.mb 20.); ((2, 6), Units.mb 10.) ];
    mk 3 ~arrival:1.5 [ ((1, 5), Units.mb 200.) ];
  ]

let schedulers =
  [
    ("varys", Sunflow_packet.Varys.allocate, []);
    ( "aalo",
      Sunflow_packet.Aalo.allocate,
      Packet_sim.aalo_thresholds Sunflow_packet.Aalo.default_params );
    ("fair", Sunflow_packet.Fair.allocate, []);
  ]

let test_packet_all_complete () =
  List.iter
    (fun (name, scheduler, sent_thresholds) ->
      let r = Packet_sim.run ~sent_thresholds ~scheduler ~bandwidth:b (small_trace ()) in
      Alcotest.(check int) (name ^ " completions") 4 (List.length r.R.ccts))
    schedulers

let test_packet_cct_above_tpl () =
  List.iter
    (fun (name, scheduler, sent_thresholds) ->
      let trace = small_trace () in
      let r = Packet_sim.run ~sent_thresholds ~scheduler ~bandwidth:b trace in
      List.iter
        (fun (c : Coflow.t) ->
          let tpl = Bounds.packet_lower ~bandwidth:b c.demand in
          let cct = R.cct_of r c.id in
          if cct < tpl -. 1e-6 then
            Alcotest.failf "%s: coflow %d CCT %.4f below TpL %.4f" name c.id
              cct tpl)
        trace)
    schedulers

let test_packet_single_coflow_at_bound () =
  (* alone in the fabric, Varys finishes exactly at TpL *)
  let c = mk 0 [ ((0, 5), Units.mb 40.); ((1, 5), Units.mb 20.) ] in
  let r =
    Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b [ c ]
  in
  Util.check_close "at TpL" (Bounds.packet_lower ~bandwidth:b c.Coflow.demand)
    (R.cct_of r 0)

let test_packet_arrival_offsets () =
  let c = mk 5 ~arrival:10. [ ((0, 1), Units.mb 10.) ] in
  let r =
    Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b [ c ]
  in
  Util.check_close "cct measured from arrival" 0.08 (R.cct_of r 5);
  Util.check_close "absolute finish" 10.08 (List.assoc 5 r.R.finishes)

let test_packet_empty_coflow () =
  let c = Coflow.make ~id:0 ~arrival:2. (Demand.create ()) in
  let r =
    Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b [ c ]
  in
  Util.check_close "instant" 0. (R.cct_of r 0)

let test_packet_duplicate_ids () =
  let t = [ mk 1 [ ((0, 1), 1.) ]; mk 1 [ ((0, 2), 1.) ] ] in
  Alcotest.check_raises "dup" (Invalid_argument "Packet_sim.run: duplicate Coflow ids")
    (fun () ->
      ignore (Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b t))

let test_circuit_all_complete () =
  let r = Circuit_sim.replay ~delta ~bandwidth:b (small_trace ()) in
  Alcotest.(check int) "completions" 4 (List.length r.R.ccts);
  Alcotest.(check bool) "setups counted" true (r.R.total_setups >= 6)

let test_circuit_single_coflow_matches_intra () =
  let c = mk 0 [ ((0, 5), Units.mb 40.); ((1, 6), Units.mb 20.); ((0, 6), Units.mb 8.) ] in
  let r = Circuit_sim.replay ~delta ~bandwidth:b [ c ] in
  let intra = Circuit_sim.intra_cct ~delta ~bandwidth:b c in
  Util.check_close "matches intra schedule" intra.finish (R.cct_of r 0)

let test_circuit_cct_above_tpl () =
  let trace = small_trace () in
  let r = Circuit_sim.replay ~delta ~bandwidth:b trace in
  List.iter
    (fun (c : Coflow.t) ->
      let tpl = Bounds.packet_lower ~bandwidth:b c.demand in
      if R.cct_of r c.id < tpl -. 1e-6 then
        Alcotest.failf "coflow %d beats the packet bound" c.id)
    trace

let test_circuit_sequential_coflows_isolated () =
  (* far-apart arrivals: each Coflow behaves as if alone *)
  let c1 = mk 0 [ ((0, 5), Units.mb 10.) ] in
  let c2 = mk 1 ~arrival:100. [ ((0, 5), Units.mb 10.) ] in
  let r = Circuit_sim.replay ~delta ~bandwidth:b [ c1; c2 ] in
  Util.check_close "first alone" 0.09 (R.cct_of r 0);
  Util.check_close "second alone" 0.09 (R.cct_of r 1)

let test_circuit_policy_fifo_vs_scf () =
  (* a big coflow arrives first; under FIFO the later small one waits,
     under shortest-first it preempts *)
  let big = mk 0 [ ((0, 5), Units.mb 500.) ] in
  let small = mk 1 ~arrival:0.5 [ ((0, 6), Units.mb 1.) ] in
  let fifo =
    Circuit_sim.replay ~policy:Sunflow_core.Inter.Fifo ~delta ~bandwidth:b
      [ big; small ]
  in
  let scf = Circuit_sim.replay ~delta ~bandwidth:b [ big; small ] in
  Alcotest.(check bool) "scf small faster than fifo small" true
    (R.cct_of scf 1 < R.cct_of fifo 1);
  Alcotest.(check bool) "fifo big not preempted" true
    (R.cct_of fifo 0 <= R.cct_of scf 0 +. 1e-9)

let test_empty_trace () =
  let r = Circuit_sim.replay ~delta ~bandwidth:b [] in
  Alcotest.(check int) "no completions" 0 (List.length r.R.ccts);
  Alcotest.(check (float 0.)) "zero makespan" 0. r.R.makespan;
  Alcotest.(check bool) "average_cct_opt is None" true
    (R.average_cct_opt r = None);
  Alcotest.check_raises "average_cct raises"
    (Invalid_argument "Sim_result.average_cct: empty result") (fun () ->
      ignore (R.average_cct r));
  (* pp must not itself compute the undefined average *)
  let s = Format.asprintf "%a" R.pp r in
  Alcotest.(check bool) "pp survives emptiness" true (Util.contains s "coflows=0")

let test_sim_result_helpers () =
  let r = Circuit_sim.replay ~delta ~bandwidth:b (small_trace ()) in
  Alcotest.(check int) "cct list length" 4 (List.length (R.cct_list r));
  Alcotest.(check bool) "average positive" true (R.average_cct r > 0.);
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (R.cct_of r 999));
  let s = Format.asprintf "%a" R.pp r in
  Alcotest.(check bool) "pp mentions coflows" true (Util.contains s "coflows=4")

let prop_circuit_completes_everything =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"circuit replay completes every Coflow"
       ~count:60
       QCheck2.Gen.(
         list_size (int_range 1 6)
           (pair (Util.Gen.coflow ~n_ports:5 ~max_flows:6 ()) (float_range 0. 3.)))
       (fun entries ->
         let trace =
           List.mapi
             (fun i (c, arr) -> { c with Coflow.id = i; arrival = arr })
             entries
         in
         let r = Circuit_sim.replay ~delta ~bandwidth:b trace in
         List.length r.R.ccts = List.length trace
         && List.for_all (fun (_, cct) -> cct >= 0.) r.R.ccts))

let prop_packet_completes_everything =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"packet replay completes every Coflow" ~count:60
       QCheck2.Gen.(
         list_size (int_range 1 6)
           (pair (Util.Gen.coflow ~n_ports:5 ~max_flows:6 ()) (float_range 0. 3.)))
       (fun entries ->
         let trace =
           List.mapi
             (fun i (c, arr) -> { c with Coflow.id = i; arrival = arr })
             entries
         in
         let r =
           Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b
             trace
         in
         List.length r.R.ccts = List.length trace))

let suite =
  [
    Alcotest.test_case "packet: all complete" `Quick test_packet_all_complete;
    Alcotest.test_case "packet: CCT >= TpL" `Quick test_packet_cct_above_tpl;
    Alcotest.test_case "packet: single coflow at bound" `Quick
      test_packet_single_coflow_at_bound;
    Alcotest.test_case "packet: arrival offsets" `Quick
      test_packet_arrival_offsets;
    Alcotest.test_case "packet: empty coflow" `Quick test_packet_empty_coflow;
    Alcotest.test_case "packet: duplicate ids" `Quick test_packet_duplicate_ids;
    Alcotest.test_case "circuit: all complete" `Quick test_circuit_all_complete;
    Alcotest.test_case "circuit: single matches intra" `Quick
      test_circuit_single_coflow_matches_intra;
    Alcotest.test_case "circuit: CCT >= TpL" `Quick test_circuit_cct_above_tpl;
    Alcotest.test_case "circuit: isolated sequential" `Quick
      test_circuit_sequential_coflows_isolated;
    Alcotest.test_case "circuit: fifo vs shortest-first" `Quick
      test_circuit_policy_fifo_vs_scf;
    Alcotest.test_case "sim result helpers" `Quick test_sim_result_helpers;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    prop_circuit_completes_everything;
    prop_packet_completes_everything;
  ]
