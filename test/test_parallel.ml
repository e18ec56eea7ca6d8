(* The parallel runner's contract is byte-identical results under any
   pool size: [Pool.map] with 1, 2 and N domains against [List.map] /
   [Array.map] on pure functions, on the full-trace intra-Coflow sweep
   and on the fig-8 idleness grid, plus order preservation under
   arbitrary chunking (QCheck) and exception propagation out of worker
   domains. *)

module Pool = Sunflow_parallel.Pool
module E = Sunflow_experiments
module Units = Sunflow_core.Units

let small_settings =
  {
    E.Common.default with
    trace_params =
      { Sunflow_trace.Synthetic.default_params with n_coflows = 50; span = 400. };
  }

(* Pin the shared pool's size for the duration of [f], then restore the
   environment-derived default (and clear the memo caches that would
   otherwise hand the next run the first run's results). *)
let with_jobs jobs f =
  Pool.set_jobs (Some jobs);
  E.Common.clear_caches ();
  Fun.protect ~finally:(fun () -> Pool.set_jobs None) f

let test_map_matches_array_map () =
  let f x = (x * 37) mod 101 in
  let input = Array.init 500 Fun.id in
  let expected = Array.map f input in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Alcotest.(check (array int))
            (Printf.sprintf "%d domains" domains)
            expected (Pool.map pool f input);
          (* empty and singleton inputs take the fallback paths *)
          Alcotest.(check (array int))
            "empty" [||]
            (Pool.map pool f [||]);
          Alcotest.(check (array int)) "singleton" [| f 9 |] (Pool.map pool f [| 9 |])))
    [ 1; 2; 5 ]

let test_intra_points_deterministic () =
  let projection () =
    List.map
      (fun (p : E.Common.intra_point) ->
        ( p.coflow.Sunflow_core.Coflow.id,
          p.n_subflows,
          (p.tcl, p.tpl, p.p_avg),
          (p.sunflow_cct, p.sunflow_setups),
          (p.solstice_cct, p.solstice_switchings) ))
      (E.Common.intra_points small_settings)
  in
  let sequential = with_jobs 1 projection in
  List.iter
    (fun jobs ->
      let parallel = with_jobs jobs projection in
      Alcotest.(check bool)
        (Printf.sprintf "intra_points identical at %d domains" jobs)
        true
        (parallel = sequential))
    [ 2; 4 ]

let test_fig8_sweep_deterministic () =
  let cells () =
    (E.Exp_fig8.run ~settings:small_settings ~bandwidths:[ Units.gbps 1. ] ())
      .E.Exp_fig8.cells
  in
  let sequential = with_jobs 1 cells in
  let parallel = with_jobs 2 cells in
  Alcotest.(check bool) "fig8 cells identical" true (parallel = sequential)

let prop_order_preserved =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"Pool.map_list = List.map for any input and chunk size" ~count:60
       QCheck2.Gen.(pair (list int) (int_range 1 9))
       (fun (xs, chunk) ->
         let pool = Pool.create ~domains:3 in
         Fun.protect
           ~finally:(fun () -> Pool.shutdown pool)
           (fun () ->
             let f x = (2 * x) + 1 in
             Pool.map_list ~chunk pool f xs = List.map f xs)))

let test_exception_propagates () =
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "worker exception re-raised in the caller"
        (Failure "boom") (fun () ->
          ignore
            (Pool.map ~chunk:1 pool
               (fun i -> if i = 37 then failwith "boom" else i)
               (Array.init 64 Fun.id)
              : int array));
      (* the failed call left the pool reusable *)
      Alcotest.(check (array int))
        "pool survives the exception"
        (Array.init 100 (fun i -> i + 1))
        (Pool.map pool (fun x -> x + 1) (Array.init 100 Fun.id)))

let test_chunk_must_be_positive () =
  let raises name f =
    Alcotest.check_raises name
      (Invalid_argument "Pool.map: chunk must be positive") f
  in
  let pool = Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      raises "chunk 0" (fun () ->
          ignore (Pool.map ~chunk:0 pool Fun.id [| 1; 2; 3 |] : int array));
      raises "chunk negative" (fun () ->
          ignore (Pool.map ~chunk:(-4) pool Fun.id [| 1 |] : int array));
      (* the degenerate paths that never read [chunk] must reject it
         too, or the bug hides until the input grows *)
      raises "chunk 0, empty input" (fun () ->
          ignore (Pool.map ~chunk:0 pool Fun.id [||] : int array)));
  let seq = Pool.create ~domains:1 in
  raises "chunk 0, sequential pool" (fun () ->
      ignore (Pool.map ~chunk:0 seq Fun.id [| 1; 2 |] : int array));
  Pool.shutdown seq

let test_sequential_fallback () =
  let pool = Pool.create ~domains:1 in
  Alcotest.(check int) "domains clamped to >= 1" 1 (Pool.domains pool);
  Alcotest.(check (list int))
    "single-domain pool maps in place" [ 2; 4; 6 ]
    (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "shutdown pool still maps (sequentially)" [ 2; 4 ]
    (Pool.map_list pool (fun x -> 2 * x) [ 1; 2 ])

(* A reservation table counts into the cells of the domain that created
   it, so two replays run as tasks on 2 domains (each building its own
   tables) count the same reservations and rollbacks as the two run one
   after the other. *)
let test_prt_counters_across_domains () =
  let module Prt = Sunflow_core.Prt in
  let traces =
    List.map
      (fun seed ->
        Sunflow_check.Diff_oracle.random_trace
          (Sunflow_stats.Rng.create seed)
          ~n_ports:6 ~max_coflows:30 ~span:2. ~max_mb:50.)
      [ 41; 42 ]
  in
  let replay trace =
    ignore
      (Sunflow_sim.Circuit_sim.replay ~replan:`Incremental
         ~config:(Sunflow_core.Inter.config ~buckets:4 ())
         ~delta:(Units.ms 10.) ~bandwidth:(Units.gbps 100.) trace
        : Sunflow_sim.Sim_result.t)
  in
  let counted f =
    let s0 = Prt.stats () in
    f ();
    let s1 = Prt.stats () in
    (s1.Prt.reservations - s0.Prt.reservations, s1.Prt.rollbacks - s0.Prt.rollbacks)
  in
  let sequential = counted (fun () -> List.iter replay traces) in
  let parallel =
    with_jobs 2 (fun () ->
        counted (fun () -> ignore (Pool.run_list ~chunk:1 replay traces : unit list)))
  in
  Alcotest.(check bool) "the replays roll windows back" true (snd sequential > 0);
  Alcotest.(check (pair int int))
    "parallel (reservations, rollbacks) = sequential" sequential parallel

let suite =
  [
    Alcotest.test_case "map oracle vs Array.map" `Quick
      test_map_matches_array_map;
    Alcotest.test_case "sequential fallback" `Quick test_sequential_fallback;
    Alcotest.test_case "chunk must be positive" `Quick
      test_chunk_must_be_positive;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "PRT counters across domains" `Quick
      test_prt_counters_across_domains;
    prop_order_preserved;
    Alcotest.test_case "intra_points determinism" `Slow
      test_intra_points_deterministic;
    Alcotest.test_case "fig8 sweep determinism" `Slow
      test_fig8_sweep_deterministic;
  ]
