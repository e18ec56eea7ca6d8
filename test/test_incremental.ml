(* The incremental replanning engine (persistent PRT + suffix-only
   rescheduling) against its from-scratch rebuild oracle: bit-identical
   results over a policy x carry x delta grid of randomized arrival
   traces and a pod-local one, balanced setup/teardown accounting, and
   the physical switch oracle over the incremental path. *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module Units = Sunflow_core.Units
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result
module Diff_oracle = Sunflow_check.Diff_oracle
module Plan_check = Sunflow_check.Plan_check
module Violation = Sunflow_check.Violation
module Rng = Sunflow_stats.Rng
module Synthetic = Sunflow_trace.Synthetic
module Trace = Sunflow_trace.Trace
module Obs = Sunflow_obs

let bandwidth = Units.gbps 100.

let pp_violations vs =
  String.concat "; "
    (List.map (fun (v : Violation.t) -> v.Violation.message) vs)

let trace_of_seed ?(max_coflows = 8) seed =
  let rng = Rng.create seed in
  Diff_oracle.random_trace rng ~n_ports:6 ~max_coflows ~span:2. ~max_mb:50.

(* --- incremental == rebuild, bit for bit, across the grid --- *)

let policies =
  [
    ("fifo", Inter.Fifo);
    ("scf", Inter.Shortest_first);
    ("classes", Inter.Priority_classes (fun c -> c.Coflow.id mod 2));
    ( "custom",
      (* deliberately non-total comparator: the engine must append its
         own (arrival, id) tiebreak *)
      Inter.Custom
        (fun a b -> compare (a.Coflow.id mod 3) (b.Coflow.id mod 3)) );
  ]

(* a pod-local trace: almost every Coflow stays on its own pod's ports,
   and the rare cross-pod straggler couples two pods *)
let pod_trace () =
  let pod_size = 4 in
  let trace =
    (Synthetic.pods
       {
         Synthetic.default_pod_params with
         p_pods = 4;
         p_pod_size = pod_size;
         p_width_max = 2;
         p_coflows = 80;
         p_span = 2.;
       })
      .Trace.coflows
  in
  let crosses_pods c =
    let d = c.Coflow.demand in
    List.map (fun p -> p / pod_size) (Demand.senders d @ Demand.receivers d)
    |> List.sort_uniq compare |> List.length > 1
  in
  Alcotest.(check bool)
    "the pod trace has a cross-pod straggler" true
    (List.exists crosses_pods trace);
  trace

let m_table_events = Obs.Registry.counter "test.table_check_events"

(* Between events the engine's table holds exactly each live entry's
   stored plan — what lets the engine retract a Coflow through its
   plan. [engine_slice] over all time reads the table; [engine_view] at
   [neg_infinity] against the original demands reads the stored plans
   unfiltered. The trace runs through the serving loop, checked after
   every step and at the end; with [keep], admission rejects some
   Coflows, whose tentative plans are retracted again. *)
let table_is_plans ?keep ~policy ~config ~delta trace =
  let lp, eng =
    Circuit_sim.serving ~policy ~order:Sunflow_core.Order.Ordered_port ~config
      ~delta ~bandwidth
  in
  let demand_of = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace demand_of c.Coflow.id c.Coflow.demand) trace;
  let ok = ref true in
  let check () =
    let table = Inter.engine_slice eng ~t0:neg_infinity ~t1:infinity in
    let plans =
      (Inter.engine_view eng ~now:neg_infinity ~remaining:(Hashtbl.find demand_of))
        .Inter.per_coflow
      |> List.concat_map (fun (_, (r : Sunflow_core.Sunflow.result)) ->
             r.reservations)
      |> List.sort Sunflow_core.Prt.physical_order
    in
    if table <> plans then ok := false
  in
  let pending =
    ref
      (List.filter
         (fun c -> not (Demand.is_empty c.Coflow.demand))
         (List.sort Coflow.compare_arrival trace))
  in
  ignore
    (Circuit_sim.drive lp
       {
         Circuit_sim.stop = (fun () -> false);
         next_arrival =
           (fun () -> match !pending with c :: _ -> Some c | [] -> None);
         pull =
           (fun t ->
             let due, later =
               List.partition (fun c -> c.Coflow.arrival <= t) !pending
             in
             pending := later;
             due);
         keep;
         planned = (fun ~t:_ ~t_next:_ _ _ -> check ());
         finished = (fun _ _ -> ());
         event_counter = m_table_events;
         event_timer = None;
       }
      : Circuit_sim.outcome);
  check ();
  !ok

(* buckets = 4 puts every policy's bucketed repair in front of the
   oracle: Priority_classes clamping, and the one-class poisoning of
   Fifo and the non-total Custom comparator *)
let test_equiv_grid () =
  let traces =
    List.init 3 (fun i ->
        (string_of_int i, trace_of_seed (1000 + (17 * i))))
    @ [ ("pods", pod_trace ()) ]
  in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun buckets ->
          List.iter
            (fun carry ->
              List.iter
                (fun delta ->
                  List.iter
                    (fun (tname, trace) ->
                      let config =
                        Inter.config ~buckets ~carry_circuits:carry ()
                      in
                      let vs =
                        Plan_check.replay_equiv ~policy ~config ~delta
                          ~bandwidth trace
                      in
                      let label =
                        Printf.sprintf "%s buckets=%d carry=%b delta=%g trace=%s"
                          pname buckets carry delta tname
                      in
                      Alcotest.(check string) label "" (pp_violations vs);
                      Alcotest.(check bool)
                        (label ^ ": table = stored plans") true
                        (table_is_plans ~policy ~config ~delta trace);
                      Alcotest.(check bool)
                        (label ^ ": table = stored plans, with rejections")
                        true
                        (table_is_plans
                           ~keep:(fun c -> c.Coflow.id mod 3 <> 0)
                           ~policy ~config ~delta trace))
                    traces)
                [ 0.; Units.ms 10. ])
            [ true; false ])
        [ 0; 4 ])
    policies

(* the pod-local storm at buckets = 8: the incremental engine's whole
   Sim_result matches the rebuild oracle's, not just the plan checks *)
let test_pod_trace_identity () =
  let trace = pod_trace () in
  let run replan =
    Circuit_sim.replay ~replan ~config:(Inter.config ~buckets:8 ())
      ~delta:(Units.ms 10.) ~bandwidth trace
  in
  let ri = run `Incremental and rr = run `Rebuild in
  Alcotest.(check bool) "pods bit-identical" true (ri = rr);
  Alcotest.(check int)
    "all finish" (List.length trace)
    (List.length ri.Sim_result.finishes)

let test_result_fields_equal () =
  let trace = trace_of_seed ~max_coflows:12 42 in
  let run replan =
    Circuit_sim.replay ~replan ~delta:(Units.ms 15.) ~bandwidth trace
  in
  let ri = run `Incremental and rr = run `Rebuild in
  Alcotest.(check bool) "Sim_result bit-identical" true (ri = rr);
  (* and both complete every Coflow *)
  Alcotest.(check int)
    "all finish" (List.length trace)
    (List.length ri.Sim_result.finishes)

(* --- chained releases through on_complete stay equivalent --- *)

let test_equiv_with_releases () =
  let trace = trace_of_seed 7 in
  let n = List.length trace in
  let on_complete id t =
    if id < n then
      (* one dependent Coflow per original, arriving at the finish *)
      [ Coflow.make ~id:(id + 1000) ~arrival:t (List.nth trace 0).Coflow.demand ]
    else []
  in
  let run replan =
    Circuit_sim.replay ~replan ~on_complete ~delta:(Units.ms 10.) ~bandwidth
      trace
  in
  Alcotest.(check bool) "with releases" true (run `Incremental = run `Rebuild)

(* --- setup/teardown counters stay balanced under the engine --- *)

let test_setup_teardown_balance () =
  let m_setups = Obs.Registry.counter "sim.setups" in
  let m_teardowns = Obs.Registry.counter "sim.teardowns" in
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Control.set_enabled false)
    (fun () ->
      List.iter
        (fun replan ->
          let s0 = Obs.Registry.counter_value m_setups in
          let d0 = Obs.Registry.counter_value m_teardowns in
          let r =
            Circuit_sim.replay ~replan ~delta:(Units.ms 15.) ~bandwidth
              (trace_of_seed ~max_coflows:10 99)
          in
          let setups = Obs.Registry.counter_value m_setups - s0 in
          let teardowns = Obs.Registry.counter_value m_teardowns - d0 in
          (* the fabric ends dark: every establishment is torn down *)
          Alcotest.(check int) "teardowns balance setups" setups teardowns;
          Alcotest.(check int)
            "observed setups match the result" r.Sim_result.total_setups
            setups)
        [ `Incremental; `Rebuild ])

(* --- the physical switch accepts the incremental path's schedule --- *)

let test_physical_oracle_incremental () =
  for i = 0 to 4 do
    let trace = trace_of_seed (500 + (31 * i)) in
    let o =
      Diff_oracle.replay ~replan:`Incremental ~delta:(Units.ms 15.) ~bandwidth
        ~n_ports:6 trace
    in
    Alcotest.(check string)
      (Printf.sprintf "trace %d" i)
      ""
      (pp_violations o.Diff_oracle.violations);
    Alcotest.(check bool) "compared some" true (o.Diff_oracle.compared > 0)
  done

(* --- bucketed priority orders (PR 6) --- *)

(* The SCF-adversarial shape: every arrival is shorter than everything
   already admitted, so the exact order head-inserts each one and
   redoes the whole plan. *)
let storm_trace ?(n = 16) () =
  List.init n (fun i ->
      let d = Demand.create () in
      Demand.set d (i mod 6) ((i + 2) mod 6)
        (Units.mb (400. /. (1.5 ** float_of_int i)));
      Coflow.make ~id:i ~arrival:(0.01 *. float_of_int i) d)

let test_scf_storm_grid () =
  let trace = storm_trace () in
  List.iter
    (fun buckets ->
      List.iter
        (fun delta ->
          let vs =
            Plan_check.replay_equiv ~policy:Inter.Shortest_first
              ~config:(Inter.config ~buckets ())
              ~delta ~bandwidth trace
          in
          Alcotest.(check string)
            (Printf.sprintf "storm buckets=%d delta=%g" buckets delta)
            "" (pp_violations vs))
        [ 0.; Units.ms 10. ])
    [ 0; 4; 16 ]

let test_bucketed_result_identity () =
  let trace = trace_of_seed ~max_coflows:12 42 in
  let run replan =
    Circuit_sim.replay ~replan
      ~config:(Inter.config ~buckets:4 ())
      ~delta:(Units.ms 15.) ~bandwidth trace
  in
  let ri = run `Incremental and rr = run `Rebuild in
  Alcotest.(check bool) "bucketed Sim_result bit-identical" true (ri = rr);
  Alcotest.(check int)
    "all finish under buckets" (List.length trace)
    (List.length ri.Sim_result.finishes)

(* Under the exact order the storm reschedules the whole suffix at each
   arrival (1 + 2 + ... + n); under a bucketed order each arrival lands
   at the end of its class and everything after it splices. The engines
   are driven directly so the reschedule/splice counters are visible. *)
let test_dirty_suffix_smaller () =
  let n = 12 in
  let coflows =
    Array.init n (fun i ->
        let d = Demand.create () in
        (* disjoint port pairs: spliced windows can never conflict *)
        Demand.set d i (100 + i) (Units.mb (1600. /. (1.7 ** float_of_int i)));
        Coflow.make ~id:i ~arrival:(0.0002 *. float_of_int i) d)
  in
  let drive buckets =
    let eng =
      Inter.engine
        ~config:(Inter.config ~buckets ())
        ~policy:Inter.Shortest_first ~delta:0. ~bandwidth ()
    in
    Array.iter
      (fun c ->
        Inter.schedule_incremental eng ~now:c.Coflow.arrival ~arrivals:[ c ]
          ~finished:[]
          ~remaining:(fun id -> coflows.(id).Coflow.demand))
      coflows;
    (Inter.engine_rescheduled eng, Inter.engine_spliced eng)
  in
  let exact_r, exact_s = drive 0 in
  let bucket_r, bucket_s = drive 4 in
  Alcotest.(check int) "exact order redoes the whole suffix"
    (n * (n + 1) / 2)
    exact_r;
  Alcotest.(check int) "exact order never splices" 0 exact_s;
  Alcotest.(check int) "bucketed order redoes only the arrival" n bucket_r;
  Alcotest.(check bool) "bucketed order splices the rest" true (bucket_s > 0)

(* --- hardening: retired entries are not pinned by the engine --- *)

let test_no_gc_pinning () =
  let n = 10 in
  let eng =
    Inter.engine ~policy:Inter.Shortest_first ~delta:(Units.ms 10.) ~bandwidth
      ()
  in
  let weak = Weak.create n in
  let windows = ref (Weak.create 0) in
  (* admit and retire inside a closure so no local below keeps the
     Coflows or their windows reachable *)
  let () =
    let coflows =
      List.init n (fun i ->
          let d = Demand.create () in
          Demand.set d (i mod 4) ((i + 1) mod 4) (Units.mb 5.);
          let c = Coflow.make ~id:i ~arrival:0. d in
          Weak.set weak i (Some c);
          c)
    in
    let remaining id = (List.nth coflows id).Coflow.demand in
    Inter.schedule_incremental eng ~now:0. ~arrivals:coflows ~finished:[]
      ~remaining;
    (* nothing straddles [t0 = 0.], so no window is clipped into a
       fresh record: these are the reservation table's own *)
    let ws = Inter.engine_slice eng ~t0:0. ~t1:infinity in
    windows := Weak.create (List.length ws);
    List.iteri (fun i w -> Weak.set !windows i (Some w)) ws;
    Inter.schedule_incremental eng ~now:10. ~arrivals:[]
      ~finished:(List.init n Fun.id)
      ~remaining:(fun _ -> Demand.create ())
  in
  Alcotest.(check int) "engine drained" 0 (Inter.engine_size eng);
  Alcotest.(check bool) "windows tracked" true (Weak.length !windows >= n);
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "retired Coflow collected %d" i)
      false (Weak.check weak i)
  done;
  for i = 0 to Weak.length !windows - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "retired window collected %d" i)
      false
      (Weak.check !windows i)
  done;
  (* keep [eng] live past the major collections: the point is that
     a *live* engine does not pin retired entries or windows *)
  ignore (Sys.opaque_identity eng)

let test_min_finish_option () =
  let eng =
    Inter.engine ~policy:Inter.Fifo ~delta:(Units.ms 10.) ~bandwidth ()
  in
  Alcotest.(check bool) "idle engine has no next finish" true
    (Inter.engine_min_finish eng = None);
  let d = Demand.create () in
  Demand.set d 0 1 (Units.mb 10.);
  let c = Coflow.make ~id:0 ~arrival:0. d in
  Inter.schedule_incremental eng ~now:0. ~arrivals:[ c ] ~finished:[]
    ~remaining:(fun _ -> d);
  (match Inter.engine_min_finish eng with
  | Some f -> Alcotest.(check bool) "finish after start" true (f > 0.)
  | None -> Alcotest.fail "admitted Coflow has a stored finish");
  Inter.schedule_incremental eng ~now:10. ~arrivals:[] ~finished:[ 0 ]
    ~remaining:(fun _ -> Demand.create ());
  Alcotest.(check bool) "drained engine back to None" true
    (Inter.engine_min_finish eng = None)

(* --- Full re-keys shortest-first; the anchored engine does not --- *)

(* Coflow 0 (100 MB) has drained to ~39 MB when Coflow 1 (60 MB, same
   ports) arrives at 0.5 s. [`Full] re-ranks on remaining demand, so
   Coflow 0 keeps the circuit and finishes first; the anchored modes
   rank on the demand at admission, so Coflow 1 takes over the carried
   circuit and Coflow 0 resumes after it. A policy difference of whole
   transfer times, not float rounding. *)
let test_full_rekeys_shortest_first () =
  let coflow id arrival mb =
    let d = Demand.create () in
    Demand.set d 0 1 (Units.mb mb);
    Coflow.make ~id ~arrival d
  in
  let trace = [ coflow 0 0. 100.; coflow 1 0.5 60. ] in
  let finishes replan =
    (Circuit_sim.replay ~policy:Inter.Shortest_first ~replan
       ~delta:(Units.ms 10.) ~bandwidth:(Units.gbps 1.) trace)
      .Sim_result.finishes
  in
  let check what expected got =
    List.iter2
      (fun (id, t) (id', t') ->
        Alcotest.(check int) (what ^ " id") id id';
        Alcotest.(check (float 1e-9)) (Printf.sprintf "%s Coflow %d" what id) t t')
      expected got
  in
  check "full" [ (0, 0.81); (1, 1.30) ] (finishes `Full);
  check "incremental" [ (0, 1.30); (1, 0.98) ] (finishes `Incremental);
  check "rebuild" [ (0, 1.30); (1, 0.98) ] (finishes `Rebuild)

(* --- QCheck: equivalence on arbitrary seeds --- *)

let prop_equiv =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"incremental == rebuild (random seeds)"
       QCheck.(pair small_nat (bool))
       (fun (seed, carry) ->
         let trace = trace_of_seed (10_000 + seed) in
         Plan_check.replay_equiv
           ~config:(Inter.config ~carry_circuits:carry ())
           ~delta:(Units.ms 10.) ~bandwidth trace
         = []))

let prop_equiv_bucketed =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"incremental == rebuild (random buckets)"
       QCheck.(triple small_nat (int_bound 20) (int_bound 6))
       (fun (seed, buckets, base_step) ->
         let trace = trace_of_seed (20_000 + seed) in
         Plan_check.replay_equiv ~policy:Inter.Shortest_first
           ~config:
             (Inter.config ~buckets
                ~bucket_base:(2. +. float_of_int base_step)
                ())
           ~delta:(Units.ms 10.) ~bandwidth trace
         = []))

let suite =
  [
    Alcotest.test_case "equivalence grid" `Quick test_equiv_grid;
    Alcotest.test_case "pod trace incremental == rebuild" `Quick
      test_pod_trace_identity;
    Alcotest.test_case "SCF storm grid (buckets 0/4/16)" `Quick
      test_scf_storm_grid;
    Alcotest.test_case "bucketed Sim_result bit-identical" `Quick
      test_bucketed_result_identity;
    Alcotest.test_case "bucketed dirty suffix strictly smaller" `Quick
      test_dirty_suffix_smaller;
    Alcotest.test_case "retired entries not pinned" `Quick test_no_gc_pinning;
    Alcotest.test_case "engine_min_finish option" `Quick
      test_min_finish_option;
    Alcotest.test_case "Full re-keys shortest-first, anchored does not" `Quick
      test_full_rekeys_shortest_first;
    prop_equiv_bucketed;
    Alcotest.test_case "Sim_result fields bit-identical" `Quick
      test_result_fields_equal;
    Alcotest.test_case "equivalence with released Coflows" `Quick
      test_equiv_with_releases;
    Alcotest.test_case "setup/teardown balance" `Quick
      test_setup_teardown_balance;
    Alcotest.test_case "physical oracle, incremental path" `Quick
      test_physical_oracle_incremental;
    prop_equiv;
  ]
