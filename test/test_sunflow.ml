(* The heart of the reproduction: Algorithm 1 and its proven
   guarantees, property-tested over random Coflows, delays, link rates
   and reservation orderings. *)

module Sunflow = Sunflow_core.Sunflow
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Bounds = Sunflow_core.Bounds
module Units = Sunflow_core.Units
module Order = Sunflow_core.Order
module Prt = Sunflow_core.Prt
module Schedule = Sunflow_core.Schedule

let b = Units.gbps 1.
let delta = Units.ms 10.

let test_empty_coflow () =
  let c = Coflow.make ~id:0 (Demand.create ()) in
  let r = Sunflow.schedule ~now:3. ~delta ~bandwidth:b c in
  Util.check_close "finish at now" 3. r.finish;
  Alcotest.(check int) "no reservations" 0 (List.length r.reservations)

let test_single_flow () =
  let c = Coflow.make ~id:0 (Demand.of_list [ ((0, 1), Units.mb 10.) ]) in
  let r = Sunflow.schedule ~delta ~bandwidth:b c in
  (* one circuit: delta + 80 ms *)
  Util.check_close "finish" 0.09 r.finish;
  Alcotest.(check int) "one setup" 1 r.setups;
  match r.reservations with
  | [ res ] ->
    Util.check_close "setup is delta" delta res.Prt.setup;
    Util.check_close "transmission" 0.08 (Prt.transmission res)
  | _ -> Alcotest.fail "expected exactly one reservation"

let test_fig1_style_dense () =
  (* the 5x2 shape of the paper's Fig. 1: column sums dominate; Sunflow
     should achieve the lower bound exactly on this instance *)
  let d =
    Demand.of_list
      (List.concat_map
         (fun i -> [ ((i, 6), Units.mb 20.); ((i, 7), Units.mb 10.) ])
         [ 1; 2; 3; 4; 5 ])
  in
  let c = Coflow.make ~id:0 d in
  let r = Sunflow.schedule ~delta ~bandwidth:b c in
  let tcl = Bounds.circuit_lower ~bandwidth:b ~delta d in
  Util.check_close "achieves the bound" tcl r.finish

let test_single_line_optimal () =
  (* §5.3.1: O2O, O2M and M2O Coflows finish exactly at T_L^c *)
  let cases =
    [
      [ ((0, 9), Units.mb 3.) ];
      [ ((0, 5), Units.mb 3.); ((0, 6), Units.mb 7.); ((0, 7), Units.mb 1.) ];
      [ ((1, 9), Units.mb 2.); ((2, 9), Units.mb 2.); ((3, 9), Units.mb 8.) ];
    ]
  in
  List.iter
    (fun flows ->
      let d = Demand.of_list flows in
      let r = Sunflow.schedule ~delta ~bandwidth:b (Coflow.make ~id:0 d) in
      Util.check_close "optimal" (Bounds.circuit_lower ~bandwidth:b ~delta d)
        r.finish)
    cases

let drained_exactly ~bandwidth (c : Coflow.t) reservations =
  (* every flow receives exactly its demand in transmission time *)
  let moved : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (res : Prt.reservation) ->
      let k = (res.src, res.dst) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt moved k) in
      Hashtbl.replace moved k (prev +. (Prt.transmission res *. bandwidth)))
    reservations;
  List.for_all
    (fun ((i, j), bytes) ->
      Util.close ~eps:1e-6
        (Option.value ~default:0. (Hashtbl.find_opt moved (i, j)))
        bytes)
    (Demand.entries c.Coflow.demand)
  && Hashtbl.length moved = Demand.n_flows c.Coflow.demand

let scenario_gen =
  QCheck2.Gen.(
    let* c = Util.Gen.coflow ~n_ports:6 ~max_flows:10 () in
    let* dlt = oneofl [ 1e-5; 1e-3; 1e-2; 0.1 ] in
    let* bw = oneofl [ Units.gbps 1.; Units.gbps 10.; Units.gbps 100. ] in
    let* order =
      oneofl
        [
          Order.Ordered_port;
          Order.Sorted_demand_desc;
          Order.Sorted_demand_asc;
          Order.Shuffled 5;
        ]
    in
    pure (c, dlt, bw, order))

let prop_lemma1 =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"Lemma 1: CCT <= 2 T_L^c for any delta, B, demand, ordering"
       ~count:500 scenario_gen
       (fun (c, dlt, bw, order) ->
         let r = Sunflow.schedule ~order ~delta:dlt ~bandwidth:bw c in
         let tcl = Bounds.circuit_lower ~bandwidth:bw ~delta:dlt c.demand in
         r.finish <= (2. *. tcl) +. 1e-9))

let prop_lemma2 =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Lemma 2: CCT <= 2 (1 + alpha) T_L^p" ~count:500
       scenario_gen
       (fun (c, dlt, bw, order) ->
         let r = Sunflow.schedule ~order ~delta:dlt ~bandwidth:bw c in
         let tpl = Bounds.packet_lower ~bandwidth:bw c.demand in
         let alpha = Bounds.alpha ~bandwidth:bw ~delta:dlt c.demand in
         r.finish <= (2. *. (1. +. alpha) *. tpl) +. 1e-9))

let prop_port_constraints_and_coverage =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"schedule respects port constraints and drains demand exactly"
       ~count:500 scenario_gen
       (fun (c, dlt, bw, order) ->
         let r = Sunflow.schedule ~order ~delta:dlt ~bandwidth:bw c in
         (match Schedule.check_port_constraints r.reservations with
         | Ok _ -> true
         | Error _ -> false)
         && drained_exactly ~bandwidth:bw c r.reservations))

let prop_minimal_switching =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"on an idle fabric the switching count equals |C|" ~count:300
       scenario_gen
       (fun (c, dlt, bw, order) ->
         let r = Sunflow.schedule ~order ~delta:dlt ~bandwidth:bw c in
         r.setups = Coflow.n_subflows c
         && List.length r.reservations = Coflow.n_subflows c))

let test_established_reuse () =
  let c = Coflow.make ~id:0 (Demand.of_list [ ((0, 1), Units.mb 10.) ]) in
  let r =
    Sunflow.schedule ~established:(fun p -> p = (0, 1)) ~delta ~bandwidth:b c
  in
  Util.check_close "no setup paid" 0.08 r.finish;
  Alcotest.(check int) "zero setups" 0 r.setups

let test_established_only_at_now () =
  (* a second flow on the same input port starts later and must pay the
     delta even though its circuit was once established *)
  let c =
    Coflow.make ~id:0
      (Demand.of_list [ ((0, 1), Units.mb 10.); ((0, 2), Units.mb 10.) ])
  in
  let r = Sunflow.schedule ~established:(fun _ -> true) ~delta ~bandwidth:b c in
  Alcotest.(check int) "second circuit pays" 1 r.setups

let test_respects_existing_reservations () =
  (* a higher-priority reservation blocks the port; the new Coflow must
     schedule around it without preempting *)
  let prt = Prt.create () in
  Prt.reserve prt
    { Prt.coflow = 99; src = 0; dst = 1; start = 0.; setup = delta; length = 1. };
  let c = Coflow.make ~id:0 (Demand.of_list [ ((0, 2), Units.mb 10.) ]) in
  let r = Sunflow.schedule ~prt ~delta ~bandwidth:b c in
  (* port In 0 is busy until t=1 *)
  Util.check_close "waits for release" 1.09 r.finish;
  match Schedule.check_port_constraints (Prt.all_reservations prt) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_partial_reservation_before_blocker () =
  (* Fig. 2's C2 case: a future reservation caps the usable window, so
     the flow transmits a first slice and finishes after the blocker *)
  let prt = Prt.create () in
  Prt.reserve prt
    { Prt.coflow = 99; src = 0; dst = 1; start = 0.5; setup = delta; length = 1. };
  (* flow 0 -> 2 needs 0.8 s + delta; only 0.5 s available before the
     blocker takes In 0 *)
  let c = Coflow.make ~id:1 (Demand.of_list [ ((0, 2), Units.mb 100.) ]) in
  let r = Sunflow.schedule ~prt ~delta ~bandwidth:b c in
  Alcotest.(check int) "two reservations" 2 (List.length r.reservations);
  Alcotest.(check int) "two setups" 2 r.setups;
  (* slice 1: [0, 0.5) moving 0.49 s of data; slice 2 after the blocker:
     delta + 0.31 s -> finish at 1.5 + 0.32 *)
  Util.check_close "finish" 1.82 r.finish;
  (match Schedule.check_port_constraints (Prt.all_reservations prt) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "demand covered" true
    (drained_exactly ~bandwidth:b c r.reservations)

let test_quantum_approximation () =
  let c = Coflow.make ~id:0 (Demand.of_list [ ((0, 1), Units.mb 10.) ]) in
  (* 80 ms rounded up to 100 ms quantum *)
  let r = Sunflow.schedule ~quantum:0.1 ~delta ~bandwidth:b c in
  Util.check_close "rounded" 0.11 r.finish

let test_validation () =
  let c = Coflow.make ~id:0 (Demand.of_list [ ((0, 1), 1.) ]) in
  Alcotest.check_raises "bandwidth"
    (Invalid_argument "Sunflow.schedule: bandwidth <= 0") (fun () ->
      ignore (Sunflow.schedule ~delta ~bandwidth:0. c));
  Alcotest.check_raises "delta"
    (Invalid_argument "Sunflow.schedule: negative delta") (fun () ->
      ignore (Sunflow.schedule ~delta:(-1.) ~bandwidth:b c));
  Alcotest.check_raises "now"
    (Invalid_argument "Sunflow.schedule: negative start time") (fun () ->
      ignore (Sunflow.schedule ~now:(-1.) ~delta ~bandwidth:b c))

let test_cct_wrapper () =
  let c = Coflow.make ~id:0 ~arrival:55. (Demand.of_list [ ((0, 1), Units.mb 10.) ]) in
  (* arrival is ignored: scheduling starts at 0 *)
  Util.check_close "default setting" 0.09 (Sunflow.cct c)

(* The schedule kernel's scratch arena lives on past the call (that is
   the point: zero steady-state allocation). It must not pin what the
   call produced — every arena slot that held a reservation or a wake
   entry is cleared to a dummy before returning, including the slot
   vacated by each heap pop. Mirrors the engine's no-GC-pinning test
   from the incremental engine's tests. *)
let test_arena_no_pinning () =
  let coflow id =
    let d = Demand.create () in
    Demand.set d 0 1 (Units.mb 20.);
    Demand.set d 1 2 (Units.mb 5.);
    Demand.set d 2 0 (Units.mb 12.);
    Coflow.make ~id ~arrival:0. d
  in
  let bandwidth = b in
  let n_weak = 8 in
  let weak_c : Coflow.t Weak.t = Weak.create 1 in
  let weak_r : Prt.reservation Weak.t = Weak.create n_weak in
  let () =
    let c = coflow 0 in
    Weak.set weak_c 0 (Some c);
    let res = Sunflow.schedule ~delta ~bandwidth c in
    List.iteri
      (fun i r -> if i < n_weak then Weak.set weak_r i (Some r))
      res.Sunflow.reservations
  in
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "Coflow collected" false (Weak.check weak_c 0);
  for i = 0 to n_weak - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "reservation %d collected" i)
      false (Weak.check weak_r i)
  done

let suite =
  [
    Alcotest.test_case "empty coflow" `Quick test_empty_coflow;
    Alcotest.test_case "single flow" `Quick test_single_flow;
    Alcotest.test_case "fig1-style dense optimal" `Quick test_fig1_style_dense;
    Alcotest.test_case "single-line optimal" `Quick test_single_line_optimal;
    prop_lemma1;
    prop_lemma2;
    prop_port_constraints_and_coverage;
    prop_minimal_switching;
    Alcotest.test_case "established circuit reuse" `Quick test_established_reuse;
    Alcotest.test_case "established only at start" `Quick
      test_established_only_at_now;
    Alcotest.test_case "respects existing reservations" `Quick
      test_respects_existing_reservations;
    Alcotest.test_case "partial reservation before blocker" `Quick
      test_partial_reservation_before_blocker;
    Alcotest.test_case "quantum approximation" `Quick test_quantum_approximation;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "cct wrapper" `Quick test_cct_wrapper;
    Alcotest.test_case "arena pins nothing after return" `Quick
      test_arena_no_pinning;
  ]
