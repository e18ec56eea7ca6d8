module Deadline = Sunflow_core.Deadline
module Inter = Sunflow_core.Inter
module Service_order = Sunflow_core.Service_order
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units

let b = Units.gbps 1.
let delta = Units.ms 10.

let mk id ?(arrival = 0.) flows = Coflow.make ~id ~arrival (Demand.of_list flows)

(* 10 MB on one circuit: 90 ms alone *)
let c1 = mk 1 [ ((0, 5), Units.mb 10.) ]
let c2 = mk 2 [ ((0, 6), Units.mb 10.) ]
let c3 = mk 3 [ ((0, 7), Units.mb 10.) ]

let deadline_table table (c : Coflow.t) = List.assoc c.Coflow.id table

let test_edf_ordering () =
  let deadline_of = deadline_table [ (1, 3.); (2, 1.); (3, 2.) ] in
  let sorted = Service_order.sort (Deadline.edf ~deadline_of) ~bandwidth:b [ c1; c2; c3 ] in
  Alcotest.(check (list int)) "by deadline" [ 2; 3; 1 ]
    (List.map (fun c -> c.Coflow.id) sorted)

let test_admit_all_when_loose () =
  let deadline_of = deadline_table [ (1, 10.); (2, 10.); (3, 10.) ] in
  let a = Deadline.admit ~deadline_of ~delta ~bandwidth:b [ c1; c2; c3 ] in
  Alcotest.(check int) "all admitted" 3 (List.length a.Deadline.admitted);
  Alcotest.(check int) "none rejected" 0 (List.length a.Deadline.rejected);
  List.iter
    (fun (id, finish) ->
      if finish > deadline_of (mk id []) then
        Alcotest.failf "coflow %d misses its deadline" id)
    a.Deadline.admitted

let test_admission_rejects_overload () =
  (* all three share In 0; each needs 90 ms alone, so only the first
     two can fit a 200 ms deadline *)
  let deadline_of = deadline_table [ (1, 0.2); (2, 0.2); (3, 0.2) ] in
  let a = Deadline.admit ~deadline_of ~delta ~bandwidth:b [ c1; c2; c3 ] in
  Alcotest.(check int) "two admitted" 2 (List.length a.Deadline.admitted);
  (match a.Deadline.rejected with
  | [ (_, would_finish) ] ->
    Alcotest.(check bool) "rejection justified" true (would_finish > 0.2)
  | _ -> Alcotest.fail "exactly one rejection expected");
  (* admitted finishes hold *)
  List.iter
    (fun (_, finish) ->
      Alcotest.(check bool) "meets deadline" true (finish <= 0.2))
    a.Deadline.admitted

let test_rejection_leaves_no_trace () =
  (* a hopeless Coflow between two feasible ones must not consume
     port time *)
  let big = mk 9 [ ((0, 5), Units.gb 10.) ] in
  let deadline_of =
    deadline_table [ (1, 0.1); (9, 0.15); (2, 10.) ]
  in
  let a = Deadline.admit ~deadline_of ~delta ~bandwidth:b [ c1; big; c2 ] in
  Alcotest.(check (list int)) "big rejected" [ 9 ]
    (List.map fst a.Deadline.rejected);
  (* c2 gets the fabric right after c1, as if 'big' never existed *)
  Alcotest.(check bool) "c2 unharmed" true (List.assoc 2 a.Deadline.admitted <= 10.)

let prop_admitted_meet_deadlines =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"every admitted Coflow's plan meets its deadline" ~count:150
       QCheck2.Gen.(
         list_size (int_range 1 6)
           (pair (Util.Gen.coflow ~n_ports:5 ()) (float_range 0.05 2.)))
       (fun entries ->
         let coflows = List.mapi (fun i (c, _) -> { c with Coflow.id = i }) entries in
         let deadlines = List.mapi (fun i (_, d) -> (i, d)) entries in
         let deadline_of (c : Coflow.t) = List.assoc c.id deadlines in
         let a = Deadline.admit ~deadline_of ~delta ~bandwidth:b coflows in
         List.for_all
           (fun (id, finish) -> finish <= List.assoc id deadlines +. 1e-12)
           a.Deadline.admitted
         && List.length a.Deadline.admitted + List.length a.Deadline.rejected
            = List.length coflows))

(* --- schedule-once admit against the old copy-trial path --- *)

module Prt = Sunflow_core.Prt
module Sunflow = Sunflow_core.Sunflow
module Order = Sunflow_core.Order

(* a fresh table holding the same windows: the deep copy the
   copy-trial oracle schedules each candidate on *)
let copy prt =
  let t = Prt.create () in
  List.iter (Prt.reserve t) (Prt.all_reservations prt);
  t

(* The original implementation: schedule each candidate on a deep copy
   of the table, then schedule it AGAIN on the real table when it
   passes — two [Sunflow.schedule] calls per admitted Coflow. Kept here
   as the equivalence oracle for the schedule-once path, which removes
   a rejected plan's windows from the real table instead. *)
let admit_copy_path ~deadline_of ~delta ~bandwidth coflows =
  let ordered = Service_order.sort (Deadline.edf ~deadline_of) ~bandwidth coflows in
  let prt = Prt.create () in
  let admitted = ref [] and rejected = ref [] in
  List.iter
    (fun (c : Coflow.t) ->
      let trial =
        Sunflow.schedule ~prt:(copy prt) ~now:0. ~order:Order.Ordered_port
          ~delta ~bandwidth c
      in
      if trial.Sunflow.finish <= deadline_of c then begin
        let plan =
          Sunflow.schedule ~prt ~now:0. ~order:Order.Ordered_port ~delta
            ~bandwidth c
        in
        admitted := (c.Coflow.id, plan.Sunflow.finish) :: !admitted
      end
      else rejected := (c.Coflow.id, trial.Sunflow.finish) :: !rejected)
    ordered;
  let sorted l = List.sort (fun (a, _) (x, _) -> compare a x) l in
  (sorted !admitted, sorted !rejected, prt)

let prop_equals_copy_path =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"admit == old copy-trial path, bit for bit" ~count:150
       QCheck2.Gen.(
         list_size (int_range 1 6)
           (pair (Util.Gen.coflow ~n_ports:5 ()) (float_range 0.05 2.)))
       (fun entries ->
         let coflows = List.mapi (fun i (c, _) -> { c with Coflow.id = i }) entries in
         let deadlines = List.mapi (fun i (_, d) -> (i, d)) entries in
         let deadline_of (c : Coflow.t) = List.assoc c.id deadlines in
         let a = Deadline.admit ~deadline_of ~delta ~bandwidth:b coflows in
         let adm, rej, prt_old =
           admit_copy_path ~deadline_of ~delta ~bandwidth:b coflows
         in
         (* same admit/reject sets with exactly equal finish floats, and
            the same reservation table afterwards *)
         a.Deadline.admitted = adm && a.Deadline.rejected = rej
         && Prt.all_reservations a.Deadline.prt = Prt.all_reservations prt_old))

let test_rejection_prt_byte_identical () =
  (* a run with a hopeless Coflow in the middle leaves the very same
     windows as the run without it *)
  let big = mk 9 [ ((0, 5), Units.gb 10.) ] in
  let with_big =
    Deadline.admit
      ~deadline_of:(deadline_table [ (1, 0.1); (9, 0.15); (2, 10.) ])
      ~delta ~bandwidth:b [ c1; big; c2 ]
  in
  let without =
    Deadline.admit
      ~deadline_of:(deadline_table [ (1, 0.1); (2, 10.) ])
      ~delta ~bandwidth:b [ c1; c2 ]
  in
  Alcotest.(check (list int)) "big rejected" [ 9 ]
    (List.map fst with_big.Deadline.rejected);
  Alcotest.(check bool) "identical reservations" true
    (Prt.all_reservations with_big.Deadline.prt
    = Prt.all_reservations without.Deadline.prt)

(* Ids are not checked for uniqueness. A rejected Coflow that shares
   its id with an admitted one must take only its own plan's windows
   with it: retracting by owner id would also delete the admitted
   Coflow's windows and let the Coflow after it jump the queue. *)
let test_rejection_shared_id () =
  let dup = mk 1 [ ((0, 6), Units.gb 10.) ] in
  let deadline_of (c : Coflow.t) =
    if c.Coflow.id = 3 then 10.
    else if Demand.get c.Coflow.demand 0 6 > 0. then 0.3
    else 0.2
  in
  let batch = [ c1; dup; c3 ] in
  let a = Deadline.admit ~deadline_of ~delta ~bandwidth:b batch in
  Alcotest.(check (list int)) "the big twin rejected" [ 1 ]
    (List.map fst a.Deadline.rejected);
  Alcotest.(check (list int)) "c1 and c3 admitted" [ 1; 3 ]
    (List.map fst a.Deadline.admitted);
  Alcotest.(check bool) "c1's window survives on In 0" true
    (List.exists
       (fun w -> w.Prt.coflow = 1 && w.Prt.dst = 5)
       (Prt.port_reservations a.Deadline.prt (Prt.In 0)));
  let adm, rej, prt_old =
    admit_copy_path ~deadline_of ~delta ~bandwidth:b batch
  in
  Alcotest.(check bool) "same admissions as the copy-trial oracle" true
    (a.Deadline.admitted = adm && a.Deadline.rejected = rej);
  Alcotest.(check bool) "same table as the copy-trial oracle" true
    (Prt.all_reservations a.Deadline.prt = Prt.all_reservations prt_old)

let test_single_schedule_per_coflow () =
  (* the reservation counter must move exactly as much as scheduling
     each Coflow once on one shared table — the copy-trial path moved
     it roughly twice as far *)
  let deadline_of = deadline_table [ (1, 10.); (2, 10.); (3, 10.) ] in
  let reserves f =
    let s0 = Prt.stats () in
    f ();
    let s1 = Prt.stats () in
    s1.Prt.reservations - s0.Prt.reservations
  in
  let baseline =
    reserves (fun () ->
        let prt = Prt.create () in
        List.iter
          (fun c ->
            ignore
              (Sunflow.schedule ~prt ~now:0. ~order:Order.Ordered_port ~delta
                 ~bandwidth:b c))
          [ c1; c2; c3 ])
  in
  let admit_cost =
    reserves (fun () ->
        ignore (Deadline.admit ~deadline_of ~delta ~bandwidth:b [ c1; c2; c3 ]))
  in
  let copy_cost =
    reserves (fun () ->
        ignore (admit_copy_path ~deadline_of ~delta ~bandwidth:b [ c1; c2; c3 ]))
  in
  Alcotest.(check int) "one schedule per Coflow" baseline admit_cost;
  Alcotest.(check bool) "old path double-scheduled" true (copy_cost > admit_cost)

let suite =
  [
    Alcotest.test_case "edf ordering" `Quick test_edf_ordering;
    Alcotest.test_case "admit all when loose" `Quick test_admit_all_when_loose;
    Alcotest.test_case "admission rejects overload" `Quick
      test_admission_rejects_overload;
    Alcotest.test_case "rejection leaves no trace" `Quick
      test_rejection_leaves_no_trace;
    prop_admitted_meet_deadlines;
    prop_equals_copy_path;
    Alcotest.test_case "rejection leaves PRT byte-identical" `Quick
      test_rejection_prt_byte_identical;
    Alcotest.test_case "single schedule per admitted Coflow" `Quick
      test_single_schedule_per_coflow;
    Alcotest.test_case "rejection keeps a shared id's windows" `Quick
      test_rejection_shared_id;
  ]
