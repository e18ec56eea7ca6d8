module Inter = Sunflow_core.Inter
module Service_order = Sunflow_core.Service_order
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units
module Prt = Sunflow_core.Prt
module Schedule = Sunflow_core.Schedule
module Sunflow = Sunflow_core.Sunflow
module Circuit_sim = Sunflow_sim.Circuit_sim

let b = Units.gbps 1.
let delta = Units.ms 10.

let mk id ?(arrival = 0.) flows = Coflow.make ~id ~arrival (Demand.of_list flows)

let big = mk 1 [ ((0, 5), Units.mb 100.) ]
let small = mk 2 ~arrival:1. [ ((0, 6), Units.mb 5.) ]

let test_priority_unblocked () =
  (* the prioritized Coflow must finish exactly as if it were alone *)
  let alone = (Sunflow.schedule ~delta ~bandwidth:b small).finish in
  let r =
    Inter.schedule ~policy:Inter.Shortest_first ~delta ~bandwidth:b
      [ big; small ]
  in
  (match Inter.finish_of r small.Coflow.id with
  | Some f -> Util.check_close "small unblocked" alone f
  | None -> Alcotest.fail "small missing");
  match Schedule.check_port_constraints (Prt.all_reservations r.Inter.prt) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_lower_priority_shortened () =
  (* Fig. 2: contention on In 0 - the lower-priority Coflow must yield
     the port and finish later than it would alone *)
  let c1 = mk 1 [ ((0, 5), Units.mb 10.) ] in
  let c2 = mk 2 [ ((0, 6), Units.mb 10.) ] in
  let r =
    Inter.schedule
      ~policy:(Inter.Priority_classes (fun c -> c.Coflow.id))
      ~delta ~bandwidth:b [ c2; c1 ]
  in
  let f1 = Option.get (Inter.finish_of r 1) in
  let f2 = Option.get (Inter.finish_of r 2) in
  Util.check_close "priority Coflow alone-speed" 0.09 f1;
  Alcotest.(check bool) "lower priority waits" true (f2 > 0.09 +. 0.08);
  match Schedule.check_port_constraints (Prt.all_reservations r.Inter.prt) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_established_shared () =
  (* a circuit left up can be reused without delta by the first Coflow
     whose reservation starts immediately *)
  let c = mk 7 [ ((3, 4), Units.mb 10.) ] in
  let r =
    Inter.schedule ~established:[ (3, 4) ] ~policy:Inter.Fifo ~delta
      ~bandwidth:b [ c ]
  in
  Util.check_close "no delta" 0.08 (Option.get (Inter.finish_of r 7))

let test_empty_coflow_in_plan () =
  let c = Coflow.make ~id:9 (Demand.create ()) in
  let r = Inter.schedule ~now:2. ~policy:Inter.Fifo ~delta ~bandwidth:b [ c ] in
  Util.check_close "finishes at now" 2. (Option.get (Inter.finish_of r 9))

let test_duplicate_ids_rejected () =
  (* regression: duplicate ids used to be accepted, and finish_of then
     silently returned the first match's finish time *)
  let a = mk 3 [ ((0, 5), Units.mb 10.) ] in
  let b' = mk 3 ~arrival:1. [ ((1, 6), Units.mb 20.) ] in
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Inter.schedule: duplicate Coflow ids") (fun () ->
      ignore (Inter.schedule ~policy:Inter.Fifo ~delta ~bandwidth:b [ a; b' ]));
  (* distinct ids still schedule fine *)
  let r =
    Inter.schedule ~policy:Inter.Fifo ~delta ~bandwidth:b
      [ a; { b' with Coflow.id = 4 } ]
  in
  Alcotest.(check bool) "both planned" true
    (Inter.finish_of r 3 <> None && Inter.finish_of r 4 <> None)

let prop_all_port_constraints =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"multi-Coflow plans always respect port constraints" ~count:200
       QCheck2.Gen.(list_size (int_range 1 5) (Util.Gen.coflow ~n_ports:5 ()))
       (fun coflows ->
         (* make ids unique *)
         let coflows = List.mapi (fun i c -> { c with Coflow.id = i }) coflows in
         let r =
           Inter.schedule ~policy:Inter.Shortest_first ~delta ~bandwidth:b
             coflows
         in
         match
           Schedule.check_port_constraints (Prt.all_reservations r.Inter.prt)
         with
         | Ok _ -> true
         | Error _ -> false))

let prop_highest_priority_alone_speed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"the highest-priority Coflow is never blocked" ~count:200
       QCheck2.Gen.(list_size (int_range 1 4) (Util.Gen.coflow ~n_ports:5 ()))
       (fun coflows ->
         let coflows = List.mapi (fun i c -> { c with Coflow.id = i }) coflows in
         let first =
           List.hd
             (Service_order.sort Inter.Shortest_first ~bandwidth:b coflows)
         in
         let alone = (Sunflow.schedule ~delta ~bandwidth:b first).finish in
         let r =
           Inter.schedule ~policy:Inter.Shortest_first ~delta ~bandwidth:b
             coflows
         in
         match Inter.finish_of r first.Coflow.id with
         | Some f -> Util.close ~eps:1e-9 alone f
         | None -> false))

(* the engine's knobs are checked once, where the record is built; a
   NaN base once slipped through a [<= 1.] test *)
let test_config_non_finite_base () =
  List.iter
    (fun base ->
      Alcotest.check_raises
        (Printf.sprintf "bucket_base = %g rejected" base)
        (Invalid_argument "Inter.config: bucket_base must be finite and > 1")
        (fun () -> ignore (Inter.config ~bucket_base:base () : Inter.config)))
    [ Float.nan; infinity ];
  Alcotest.(check (float 0.))
    "a finite base > 1 is kept" 1.5
    (Inter.config ~bucket_base:1.5 ()).Inter.bucket_base

let test_validation () =
  let trace = [ big; small ] in
  Alcotest.check_raises "Full mode rejects buckets"
    (Invalid_argument
       "Circuit_sim.replay: buckets need an anchored replan mode")
    (fun () ->
      ignore
        (Circuit_sim.replay ~replan:`Full ~config:(Inter.config ~buckets:4 ())
           ~delta ~bandwidth:b trace
          : Sunflow_sim.Sim_result.t));
  let invalid name f =
    match f () with
    | (_ : Inter.config) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  invalid "buckets = -1" (fun () -> Inter.config ~buckets:(-1) ());
  invalid "bucket_base = 1" (fun () -> Inter.config ~bucket_base:1. ());
  (* the labelled adapter still range-checks the shard labels it
     otherwise ignores *)
  List.iter
    (fun (name, run) ->
      match run () with
      | (_ : Sunflow_sim.Sim_result.t) -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ( "run ~shards:0",
        fun () -> Circuit_sim.run ~shards:0 ~delta ~bandwidth:b trace );
      ( "run ~shard_block:0",
        fun () -> Circuit_sim.run ~shard_block:0 ~delta ~bandwidth:b trace );
    ]

let suite =
  [
    Alcotest.test_case "priority unblocked" `Quick test_priority_unblocked;
    Alcotest.test_case "lower priority shortened" `Quick
      test_lower_priority_shortened;
    Alcotest.test_case "established shared" `Quick test_established_shared;
    Alcotest.test_case "empty coflow" `Quick test_empty_coflow_in_plan;
    Alcotest.test_case "duplicate ids rejected" `Quick
      test_duplicate_ids_rejected;
    prop_all_port_constraints;
    prop_highest_priority_alone_speed;
    Alcotest.test_case "config rejects a non-finite bucket base" `Quick
      test_config_non_finite_base;
    Alcotest.test_case "argument validation" `Quick test_validation;
  ]
