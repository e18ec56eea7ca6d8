(* The streaming serving loop: bit-identity with the batch incremental
   replay, bounded-memory soak over 100k synthetic arrivals, GC
   collectability of retired Coflows, and deadline admission with
   typed rejections. *)

module Serve = Sunflow_serve.Serve
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result
module Sim_check = Sunflow_check.Sim_check
module Violation = Sunflow_check.Violation
module Synthetic = Sunflow_trace.Synthetic
module Trace = Sunflow_trace.Trace
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units
module Bounds = Sunflow_core.Bounds

let b = Units.gbps 1.
let delta = Units.ms 10.

let stream_of_list coflows =
  let rest = ref coflows in
  fun () ->
    match !rest with
    | [] -> None
    | c :: tl ->
      rest := tl;
      Some c

let by_id l = List.sort (fun (a, _) (x, _) -> compare a x) l

(* Run [f] with obs on; return its result and the [sim.setups] /
   [sim.teardowns] counts it added. The per-Coflow stores the batch
   replay feeds are cleared afterwards. *)
let with_obs_counts f =
  let module Obs = Sunflow_obs in
  let value name = Obs.Registry.counter_value (Obs.Registry.counter name) in
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.set_enabled false;
      Obs.Tracer.clear ();
      Obs.Timeline.clear ();
      Obs.Sampler.clear ();
      Obs.Attrib.clear ())
    (fun () ->
      let s0 = value "sim.setups" and d0 = value "sim.teardowns" in
      let r = f () in
      (r, value "sim.setups" - s0, value "sim.teardowns" - d0))

(* --- without deadlines, serve is the batch `Incremental replay fed
   lazily: same ccts, finishes, makespan, setups — bit for bit — and,
   on the shared slice executor, the same setup/teardown accounting --- *)

let test_matches_incremental_replay () =
  let trace =
    Synthetic.generate
      { Synthetic.default_params with seed = 11; n_coflows = 120; span = 400. }
  in
  List.iter
    (fun (buckets, shards) ->
      let config = Sunflow_core.Inter.config ~buckets ~shards () in
      let batch, batch_setups, batch_teardowns =
        with_obs_counts (fun () ->
            Circuit_sim.replay ~replan:`Incremental ~config ~delta ~bandwidth:b
              trace.Trace.coflows)
      in
      let ccts = ref [] and finishes = ref [] in
      let stats, serve_setups, serve_teardowns =
        with_obs_counts (fun () ->
            Serve.run ~config ~delta ~bandwidth:b
              ~on_finish:(fun ~id ~t ~cct ->
                ccts := (id, cct) :: !ccts;
                finishes := (id, t) :: !finishes)
              (stream_of_list trace.Trace.coflows))
      in
      let label fmt =
        Printf.ksprintf
          (fun s -> Printf.sprintf "buckets=%d shards=%d: %s" buckets shards s)
          fmt
      in
      Alcotest.(check bool)
        (label "ccts bit-identical") true
        (by_id !ccts = by_id batch.Sim_result.ccts);
      Alcotest.(check bool)
        (label "finishes bit-identical") true
        (by_id !finishes = by_id batch.Sim_result.finishes);
      Alcotest.(check bool)
        (label "makespan") true
        (stats.Serve.makespan = batch.Sim_result.makespan);
      Alcotest.(check int) (label "setups") batch.Sim_result.total_setups
        stats.Serve.setups;
      Alcotest.(check int) (label "all admitted") 120 stats.Serve.admitted;
      Alcotest.(check int) (label "all completed") 120 stats.Serve.completed;
      Alcotest.(check int) (label "sim.setups matches the batch") batch_setups
        serve_setups;
      Alcotest.(check int)
        (label "sim.teardowns matches the batch")
        batch_teardowns serve_teardowns;
      Alcotest.(check int) (label "sim.setups matches stats") stats.Serve.setups
        serve_setups;
      Alcotest.(check int)
        (label "teardowns balance setups")
        serve_setups serve_teardowns)
    [ (0, 1); (4, 1); (0, 4) ]

(* --- soak: 100k synthetic arrivals at the generator's default load.
   Live engine entries track the active set (orders of magnitude below
   the stream length) --- *)

let test_soak_bounded_memory () =
  let n = 100_000 in
  let trace =
    Synthetic.generate
      {
        Synthetic.default_params with
        seed = 7;
        n_coflows = n;
        (* keep the default offered load: 526 Coflows / 3600 s *)
        span = 3600. *. float_of_int n /. 526.;
      }
  in
  let stats = Serve.run ~delta ~bandwidth:b (stream_of_list trace.Trace.coflows) in
  Alcotest.(check int) "all arrivals pulled" n stats.Serve.arrivals;
  Alcotest.(check int) "accounting conserved" n
    (stats.Serve.admitted + stats.Serve.rejected);
  Alcotest.(check int) "all completed" stats.Serve.admitted
    stats.Serve.completed;
  (* the bound that makes serving mode bounded-memory: resident engine
     entries stay at active-set scale, not stream scale *)
  Alcotest.(check bool)
    (Printf.sprintf "live entries bounded (max %d)" stats.Serve.max_live)
    true
    (stats.Serve.max_live < n / 100)

(* --- a retired Coflow's demand matrix is collectable while the loop
   (and its engine) is still running: PR 6's Weak-pointer pattern at
   the serve layer --- *)

let test_retired_demand_collectable () =
  let n = 16 in
  let barrier_id = n in
  let weak = Weak.create n in
  let leaked = ref (-1) in
  let stream =
    let i = ref 0 in
    fun () ->
      if !i > barrier_id then None
      else begin
        let k = !i in
        incr i;
        if k = barrier_id then begin
          (* arrives long after the first [n] finished; admitting it
             forces the engine step that retires their entries *)
          let d = Demand.create () in
          Demand.set d 0 8 (Units.mb 1.);
          Some (Coflow.make ~id:barrier_id ~arrival:1000. d)
        end
        else begin
          let d = Demand.create () in
          Demand.set d (k mod 4) (4 + (k mod 4)) (Units.mb 2.);
          let c = Coflow.make ~id:k ~arrival:(0.001 *. float_of_int k) d in
          Weak.set weak k (Some c);
          Some c
        end
      end
  in
  let stats =
    Serve.run ~delta ~bandwidth:b
      ~on_finish:(fun ~id ~t:_ ~cct:_ ->
        if id = barrier_id then begin
          (* mid-run: the engine is live, the first [n] are retired and
             nothing else may pin them *)
          Gc.full_major ();
          Gc.full_major ();
          leaked := 0;
          for i = 0 to n - 1 do
            if Weak.check weak i then incr leaked
          done
        end)
      stream
  in
  Alcotest.(check int) "all completed" (n + 1) stats.Serve.completed;
  Alcotest.(check int) "retired Coflows collected mid-run" 0 !leaked

(* --- deadline admission: typed rejections, instant completions, and
   the admitted-plans-meet-deadlines guarantee --- *)

let test_reject_reasons () =
  let mk id arrival flows = Coflow.make ~id ~arrival (Demand.of_list flows) in
  let feasible = mk 0 0. [ ((0, 8), Units.mb 5.) ] in
  let born_dead = mk 1 0. [ ((1, 9), Units.mb 5.) ] in
  let hopeless = mk 2 0.001 [ ((2, 8), Units.gb 10.) ] in
  let empty = Coflow.make ~id:3 ~arrival:0.002 (Demand.create ()) in
  let deadlines = [ (0, 10.); (1, 0.); (2, 0.05); (3, 10.) ] in
  let deadline_of (c : Coflow.t) = List.assoc c.Coflow.id deadlines in
  let admitted = ref [] and rejected = ref [] in
  let stats =
    Serve.run ~deadline_of ~delta ~bandwidth:b
      ~on_admit:(fun c ~finish -> admitted := (c.Coflow.id, finish) :: !admitted)
      ~on_reject:(fun c r -> rejected := (c.Coflow.id, r) :: !rejected)
      (stream_of_list [ feasible; born_dead; hopeless; empty ])
  in
  Alcotest.(check (list int)) "admitted ids" [ 0; 3 ]
    (List.map fst (by_id !admitted));
  List.iter
    (fun (id, finish) ->
      Alcotest.(check bool)
        (Printf.sprintf "admitted %d meets deadline" id)
        true
        (finish <= List.assoc id deadlines))
    !admitted;
  (match List.sort compare !rejected with
  | [ (1, Serve.Expired { deadline }); (2, Serve.Deadline_miss miss) ] ->
    Alcotest.(check bool) "expired deadline carried" true (deadline = 0.);
    Alcotest.(check bool) "miss is justified" true
      (miss.finish > miss.deadline && miss.deadline = 0.05)
  | _ -> Alcotest.fail "expected one Expired and one Deadline_miss");
  Alcotest.(check int) "arrivals" 4 stats.Serve.arrivals;
  Alcotest.(check int) "admitted" 2 stats.Serve.admitted;
  Alcotest.(check int) "rejected" 2 stats.Serve.rejected;
  Alcotest.(check int) "completed" 2 stats.Serve.completed

(* --- the admitted subset of a deadline-mode run passes the full
   conservation check: every admitted byte is delivered, finishes and
   ccts consistent --- *)

let test_conservation_on_admitted_subset () =
  let trace =
    Synthetic.generate
      { Synthetic.default_params with seed = 23; n_coflows = 150; span = 500. }
  in
  let deadline_of (c : Coflow.t) =
    (* tight enough to force some rejections under contention *)
    c.Coflow.arrival +. (3. *. Bounds.circuit_lower ~bandwidth:b ~delta c.demand)
  in
  let kept = ref [] and ccts = ref [] and finishes = ref [] in
  let stats =
    Serve.run ~deadline_of ~delta ~bandwidth:b
      ~on_admit:(fun c ~finish:_ -> kept := c :: !kept)
      ~on_finish:(fun ~id ~t ~cct ->
        finishes := (id, t) :: !finishes;
        ccts := (id, cct) :: !ccts)
      (stream_of_list trace.Trace.coflows)
  in
  Alcotest.(check int) "accounting conserved" 150
    (stats.Serve.admitted + stats.Serve.rejected);
  Alcotest.(check bool) "some rejections happened" true (stats.Serve.rejected > 0);
  Alcotest.(check bool) "most admitted" true (stats.Serve.admitted > 100);
  let result =
    {
      Sim_result.ccts = by_id !ccts;
      finishes = by_id !finishes;
      makespan = stats.Serve.makespan;
      n_events = stats.Serve.events;
      total_setups = stats.Serve.setups;
    }
  in
  let vs = Sim_check.result ~bandwidth:b ~coflows:!kept result in
  Alcotest.(check string) "conservation clean" ""
    (String.concat "; " (List.map (fun (v : Violation.t) -> v.Violation.message) vs))

(* --- [stop] is polled once per event, before the event does any work:
   a [stop] that turns true on its k-th poll leaves exactly k - 1
   events processed, the arrival accounting consistent, and (the
   fabric going dark) every established circuit torn down --- *)

let test_stop_polled_once_per_event () =
  let trace =
    Synthetic.generate
      { Synthetic.default_params with seed = 5; n_coflows = 120; span = 400. }
  in
  let k = 40 in
  List.iter
    (fun (label, deadline_of) ->
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls >= k
      in
      let stats, setups, teardowns =
        with_obs_counts (fun () ->
            Serve.run ?deadline_of ~stop ~delta ~bandwidth:b
              (stream_of_list trace.Trace.coflows))
      in
      let check_int what = Alcotest.(check int) (label ^ ": " ^ what) in
      Alcotest.(check bool) (label ^ ": stopped") true stats.Serve.stopped;
      check_int "stop polled k times" k !polls;
      check_int "events = k - 1" (k - 1) stats.Serve.events;
      Alcotest.(check bool)
        (label ^ ": admitted + rejected <= arrivals")
        true
        (stats.Serve.admitted + stats.Serve.rejected <= stats.Serve.arrivals);
      Alcotest.(check bool)
        (label ^ ": stopped before the stream ran dry")
        true
        (stats.Serve.arrivals < 120);
      check_int "teardowns balance setups" setups teardowns)
    [
      ("no deadlines", None);
      ( "deadlines",
        Some
          (fun (c : Coflow.t) ->
            c.Coflow.arrival
            +. (3. *. Bounds.circuit_lower ~bandwidth:b ~delta c.demand)) );
    ]

let suite =
  [
    Alcotest.test_case "matches the batch incremental replay" `Quick
      test_matches_incremental_replay;
    Alcotest.test_case "stop is polled once per event" `Quick
      test_stop_polled_once_per_event;
    Alcotest.test_case "soak: 100k arrivals, bounded memory" `Slow
      test_soak_bounded_memory;
    Alcotest.test_case "retired demand is collectable" `Quick
      test_retired_demand_collectable;
    Alcotest.test_case "typed reject reasons" `Quick test_reject_reasons;
    Alcotest.test_case "conservation on the admitted subset" `Quick
      test_conservation_on_admitted_subset;
  ]
