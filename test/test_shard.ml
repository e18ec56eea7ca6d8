(* The sharded simulation core (per-shard PRTs, optimistic passes,
   conflict rollback) against the sequential engine: Sim_results
   bit-identical across shard counts on a policy x bucket grid and on
   randomized traces, conflict/rollback accounting on hand-built
   traces that force each path, and the argument validation. *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module Units = Sunflow_core.Units
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result
module Diff_oracle = Sunflow_check.Diff_oracle
module Plan_check = Sunflow_check.Plan_check
module Violation = Sunflow_check.Violation
module Synthetic = Sunflow_trace.Synthetic
module Trace = Sunflow_trace.Trace
module Rng = Sunflow_stats.Rng

let bandwidth = Units.gbps 100.
let delta = Units.ms 10.

let trace_of_seed ?(n_ports = 8) ?(max_coflows = 10) seed =
  let rng = Rng.create seed in
  Diff_oracle.random_trace rng ~n_ports ~max_coflows ~span:2. ~max_mb:50.

let run ?(policy = Inter.Shortest_first) ?(replan = `Incremental) ?buckets
    ?shard_block ?shard_stats ~shards trace =
  Circuit_sim.replay ~policy ~replan
    ~config:(Inter.config ?buckets ?shard_block ~shards ())
    ?shard_stats ~delta ~bandwidth trace

let fresh_stats () =
  ref { Inter.shard_steps = 0; shard_conflicts = 0; shard_rollbacks = 0 }

(* --- bit-identity across the configuration grid --- *)

let policies =
  [
    ("fifo", Inter.Fifo);
    ("scf", Inter.Shortest_first);
    ("classes", Inter.Priority_classes (fun c -> c.Coflow.id mod 2));
  ]

let test_identity_grid () =
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun buckets ->
          List.iter
            (fun seed ->
              let trace = trace_of_seed seed in
              let base = run ~policy ~buckets ~shards:1 trace in
              List.iter
                (fun shards ->
                  List.iter
                    (fun shard_block ->
                      let r =
                        run ~policy ~buckets ~shards ~shard_block trace
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "%s buckets=%d seed=%d shards=%d block=%d" pname
                           buckets seed shards shard_block)
                        true (r = base))
                    [ 1; 2 ])
                [ 2; 4; 8 ])
            [ 301; 302 ])
        [ 0; 4 ])
    policies

let test_rebuild_coerces_shards () =
  let trace = trace_of_seed 77 in
  Alcotest.(check bool)
    "rebuild ignores the shard count" true
    (run ~replan:`Rebuild ~shards:4 trace = run ~replan:`Rebuild ~shards:1 trace)

(* --- conflict detection: a cross-shard arrival takes the merged pass --- *)

let test_cross_arrival_counted () =
  (* one Coflow, src and dst in different stripes: its arrival must be
     resolved by the cross-shard pass, and nothing ever rolls back *)
  let d = Demand.create () in
  Demand.set d 0 1 (Units.mb 20.);
  let trace = [ Coflow.make ~id:0 ~arrival:0. d ] in
  let stats = fresh_stats () in
  let r = run ~shards:2 ~shard_stats:stats trace in
  Alcotest.(check bool) "conflict counted" true
    (!stats.Inter.shard_conflicts > 0);
  Alcotest.(check int) "no optimistic pass to roll back" 0
    !stats.Inter.shard_rollbacks;
  Alcotest.(check bool) "steps counted" true (!stats.Inter.shard_steps > 0);
  Alcotest.(check bool) "matches unsharded" true (r = run ~shards:1 trace)

let test_local_arrival_stays_local () =
  (* both endpoints in stripe 0 (even ports under block=1): no cross
     Coflow ever exists, so no conflicts and no rollbacks *)
  let d = Demand.create () in
  Demand.set d 0 2 (Units.mb 20.);
  let trace = [ Coflow.make ~id:0 ~arrival:0. d ] in
  let stats = fresh_stats () in
  let r = run ~shards:2 ~shard_stats:stats trace in
  Alcotest.(check int) "no conflicts" 0 !stats.Inter.shard_conflicts;
  Alcotest.(check int) "no rollbacks" 0 !stats.Inter.shard_rollbacks;
  Alcotest.(check bool) "matches unsharded" true (r = run ~shards:1 trace)

(* --- rollback-then-merge: an optimistic pass trips over a mirror --- *)

let test_rollback_then_merge () =
  (* Under SCF with a bucketed order, the big cross-shard Coflow (ports
     0 -> 1, stripes 0 and 1) is admitted first; the later shard-local
     arrival (0 -> 2, both stripe 0) is far shorter, so it inserts ahead
     and its optimistic shard-0 pass must clear port 0 — occupied by the
     cross Coflow's mirrored window. The guard aborts the pass, the
     engine rolls it back and re-resolves globally. The arrival lands
     after the cross Coflow's setup has been paid (delta = 10 ms, so its
     circuit is established from 10 ms until 18 ms): mid-setup it would
     be marked dirty as a straddler and resolved globally up front,
     never exercising the rollback. The cross Coflow must also be big
     enough to leave class 0 (keys within one delta all quantize to
     "short" and are FIFO among themselves): 4000 MB at 100 Gbps is a
     0.32 s key, three classes below the 1 MB arrival. *)
  let cross = Demand.create () in
  Demand.set cross 0 1 (Units.mb 4000.);
  let local = Demand.create () in
  Demand.set local 0 2 (Units.mb 1.);
  let trace =
    [ Coflow.make ~id:0 ~arrival:0. cross;
      Coflow.make ~id:1 ~arrival:0.012 local ]
  in
  let stats = fresh_stats () in
  let r =
    run ~buckets:8 ~shards:2 ~shard_stats:stats trace
  in
  Alcotest.(check bool) "rolled back at least once" true
    (!stats.Inter.shard_rollbacks > 0);
  Alcotest.(check bool) "and resolved as a conflict" true
    (!stats.Inter.shard_conflicts > 0);
  Alcotest.(check bool) "result still bit-identical" true
    (r = run ~buckets:8 ~shards:1 trace)

(* --- adversarial: every Coflow straddles two shards --- *)

let all_cross_trace () =
  List.init 8 (fun i ->
      let d = Demand.create () in
      Demand.set d (i mod 4) ((i + 1) mod 4)
        (Units.mb (5. +. float_of_int (7 * i mod 13)));
      Coflow.make ~id:i ~arrival:(0.002 *. float_of_int i) d)

let test_all_cross_adversarial () =
  let trace = all_cross_trace () in
  List.iter
    (fun buckets ->
      let stats = fresh_stats () in
      let r =
        run ~buckets ~shards:4 ~shard_stats:stats trace
      in
      Alcotest.(check bool)
        (Printf.sprintf "buckets=%d: every event conflicts" buckets)
        true
        (!stats.Inter.shard_conflicts > 0);
      Alcotest.(check bool)
        (Printf.sprintf "buckets=%d: bit-identical" buckets)
        true
        (r = run ~buckets ~shards:1 trace))
    [ 0; 4 ]

(* --- pod-local storm: the workload the sharding is built for --- *)

let test_pod_trace_identity () =
  let p =
    {
      Synthetic.default_pod_params with
      p_pods = 4;
      p_pod_size = 4;
      p_width_max = 2;
      p_coflows = 80;
      p_span = 2.;
    }
  in
  let trace = (Synthetic.pods p).Trace.coflows in
  let stats = fresh_stats () in
  let base = run ~buckets:8 ~shards:1 trace in
  let r =
    run ~buckets:8 ~shards:4 ~shard_block:4 ~shard_stats:stats trace
  in
  Alcotest.(check bool) "pods bit-identical" true (r = base);
  (* pod-aligned stripes keep most events shard-local *)
  Alcotest.(check bool) "conflicts stay rare" true
    (!stats.Inter.shard_conflicts * 2 < !stats.Inter.shard_steps)

(* --- observability under shards: event-for-event identity --- *)

module Obs = Sunflow_obs

(* Bit-identity of the Sim_result is necessary but not sufficient for
   the observability layer: the timeline, the attribution windows and
   the per-port sampler ledger are recorded inside the event loop, so
   a sharded run that merely converged to the same finishes could
   still record different events. Capture all three at shards = 1 and
   compare structurally at every shard count. *)
let test_timeline_identical_under_shards () =
  let trace = trace_of_seed 909 in
  let capture shards =
    Obs.Control.set_enabled true;
    Obs.Timeline.clear ();
    Obs.Attrib.clear ();
    Obs.Sampler.clear ();
    let r = run ~buckets:4 ~shards trace in
    let out =
      (r, Obs.Timeline.events (), Obs.Attrib.windows (),
       Obs.Sampler.port_totals ())
    in
    Obs.Control.set_enabled false;
    Obs.Timeline.clear ();
    Obs.Attrib.clear ();
    Obs.Sampler.clear ();
    out
  in
  let r1, evs1, w1, p1 = capture 1 in
  Alcotest.(check bool) "shards=1 recorded a non-empty timeline" true
    (evs1 <> []);
  Alcotest.(check bool) "shards=1 recorded windows" true (w1 <> []);
  List.iter
    (fun shards ->
      let r, evs, w, p = capture shards in
      let label what = Printf.sprintf "%s shards=%d" what shards in
      Alcotest.(check bool) (label "Sim_result") true (r = r1);
      Alcotest.(check bool) (label "timeline event-for-event") true
        (evs = evs1);
      Alcotest.(check bool) (label "attribution windows") true (w = w1);
      Alcotest.(check bool) (label "sampler port ledger") true (p = p1))
    [ 2; 4; 8 ]

(* --- sharded run under a multi-domain runner --- *)

module Pool = Sunflow_parallel.Pool

(* Same-instant arrivals in distinct stripes make the optimistic round
   dispatch several passes at once through the domain-pool runner.
   Forcing a 4-domain pool makes the runner genuinely parallel even on
   a 1-core machine, so a pass that reached outside its own shard's
   table and entries would at least be exposed to the memory model
   rather than hidden by a sequential fallback. Every decision must
   stay bit-identical to the unsharded run. *)
let test_parallel_runner_identity () =
  let trace =
    List.concat
      (List.init 3 (fun wave ->
           List.init 4 (fun pod ->
               let d = Demand.create () in
               Demand.set d (4 * pod)
                 ((4 * pod) + 1)
                 (Units.mb (10. +. float_of_int ((wave + pod) mod 5)));
               Coflow.make
                 ~id:((wave * 4) + pod)
                 ~arrival:(0.005 *. float_of_int wave)
                 d)))
  in
  let base = run ~buckets:4 ~shards:1 trace in
  Pool.set_jobs (Some 4);
  Fun.protect ~finally:(fun () -> Pool.set_jobs None) @@ fun () ->
  let sharded =
    run ~buckets:4 ~shards:4 ~shard_block:4 trace
  in
  Alcotest.(check bool) "parallel run bit-identical" true (sharded = base)

(* --- argument validation --- *)

let test_validation () =
  let trace = trace_of_seed 5 in
  Alcotest.check_raises "Full mode rejects shards"
    (Invalid_argument "Circuit_sim.replay: shards need an anchored replan mode")
    (fun () -> ignore (run ~replan:`Full ~shards:2 trace : Sim_result.t));
  Alcotest.check_raises "Full mode rejects buckets"
    (Invalid_argument
       "Circuit_sim.replay: buckets need an anchored replan mode")
    (fun () ->
      ignore (run ~replan:`Full ~buckets:4 ~shards:1 trace : Sim_result.t));
  let invalid name f =
    match f () with
    | (_ : Inter.config) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  invalid "shards = 0" (fun () -> Inter.config ~shards:0 ());
  invalid "shard_block = 0" (fun () ->
      Inter.config ~shards:2 ~shard_block:0 ());
  invalid "buckets = -1" (fun () -> Inter.config ~buckets:(-1) ());
  invalid "bucket_base = 1" (fun () -> Inter.config ~bucket_base:1. ())

(* --- QCheck: equivalence on arbitrary seeds and shard counts --- *)

let prop_equiv_sharded =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"sharded incremental == unsharded rebuild (random)"
       QCheck.(triple small_nat (int_bound 2) (int_bound 12))
       (fun (seed, shard_ix, buckets) ->
         let shards = [| 2; 4; 8 |].(shard_ix) in
         let trace = trace_of_seed (30_000 + seed) in
         Plan_check.replay_equiv ~policy:Inter.Shortest_first
           ~config:
             (Inter.config ~shards ~shard_block:(1 + (seed mod 2)) ~buckets ())
           ~delta ~bandwidth trace
         = []))

let suite =
  [
    Alcotest.test_case "identity grid (policy x buckets x shards)" `Quick
      test_identity_grid;
    Alcotest.test_case "rebuild coerces shards" `Quick
      test_rebuild_coerces_shards;
    Alcotest.test_case "cross-shard arrival counted" `Quick
      test_cross_arrival_counted;
    Alcotest.test_case "shard-local arrival stays local" `Quick
      test_local_arrival_stays_local;
    Alcotest.test_case "rollback then merge" `Quick test_rollback_then_merge;
    Alcotest.test_case "all-cross adversarial" `Quick
      test_all_cross_adversarial;
    Alcotest.test_case "pod trace identity + rare conflicts" `Quick
      test_pod_trace_identity;
    Alcotest.test_case "timeline event-for-event identical under shards"
      `Quick test_timeline_identical_under_shards;
    Alcotest.test_case
      "sharded run under a multi-domain runner is bit-identical to unsharded"
      `Quick test_parallel_runner_identity;
    Alcotest.test_case "argument validation" `Quick test_validation;
    prop_equiv_sharded;
  ]
