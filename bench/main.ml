(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5), then microbenchmarks the schedulers'
   planning latency with Bechamel (§6 "Scheduler latency" / Table 3).

   Besides the human-readable report on stdout, the harness writes a
   machine-readable BENCH_prt.json (per-experiment wall time and PRT
   work counters, Bechamel ns/run estimates, and — when SUNFLOW_JOBS
   asks for more than one domain — sequential-vs-parallel wall times
   with output digests proving the runs agree) so successive PRs have
   a perf trajectory to gate against. SUNFLOW_BENCH_JSON overrides the
   output path.

   Run with SUNFLOW_BENCH_FAST=1 to shrink the trace for a quick smoke
   pass (used by the @bench-smoke alias); the default regenerates
   everything on the full 526-Coflow workload. *)

module E = Sunflow_experiments
module Units = Sunflow_core.Units
module Prt = Sunflow_core.Prt
module Sunflow = Sunflow_core.Sunflow
module Pool = Sunflow_parallel.Pool
module Obs = Sunflow_obs
module Circuit_sim = Sunflow_sim.Circuit_sim

let fast () =
  match Sys.getenv_opt "SUNFLOW_BENCH_FAST" with
  | Some ("1" | "true") -> true
  | _ -> false

let settings () =
  if fast () then
    let params =
      { Sunflow_trace.Synthetic.default_params with n_coflows = 120; span = 800. }
    in
    { E.Common.default with trace_params = params }
  else E.Common.default

(* --- machine-readable record ------------------------------------------ *)

type experiment_row = {
  name : string;
  wall_s : float;
  prt : Prt.stats;  (** counter deltas attributable to this experiment *)
}

type parallel_row = {
  p_name : string;
  wall_par_s : float;
  wall_seq_s : float;
  digest_par : string option;  (** None when the report text is timing-laden *)
  digest_seq : string option;
}

let experiment_rows : experiment_row list ref = ref []
let bechamel_rows : (string * float) list ref = ref []
let parallel_rows : parallel_row list ref = ref []

let stats_delta (a : Prt.stats) (b : Prt.stats) =
  {
    Prt.queries = b.Prt.queries - a.Prt.queries;
    scans = b.Prt.scans - a.Prt.scans;
    reservations = b.Prt.reservations - a.Prt.reservations;
    rollbacks = b.Prt.rollbacks - a.Prt.rollbacks;
  }

let timed ppf label f =
  let s0 = Prt.stats () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let prt = stats_delta s0 (Prt.stats ()) in
  experiment_rows := { name = label; wall_s; prt } :: !experiment_rows;
  Format.fprintf ppf "  [%s took %.1fs; prt: %a]@." label wall_s Prt.pp_stats
    prt

let experiment_reports ppf s =
  let reports =
    [
      ("table4", E.Exp_table4.report);
      ("fig3", E.Exp_fig3.report);
      ("fig4", E.Exp_fig4.report);
      ("fig5", E.Exp_fig5.report);
      ("fig6", E.Exp_fig6.report);
      ("fig7", E.Exp_fig7.report);
      ("fig8", E.Exp_fig8.report);
      ("fig9", E.Exp_fig9.report);
      ("fig10", E.Exp_fig10.report);
      ("table3", E.Exp_complexity.report);
      ("headline", E.Exp_headline.report);
      ("ordering", E.Exp_ordering.report);
      ("baseline-gap", E.Exp_baseline_gap.report);
      ("ablations", E.Exp_ablations.report);
      ("oracle", E.Exp_oracle.report);
      ("extensions", E.Exp_extensions.report);
    ]
  in
  List.iter
    (fun (label, report) ->
      timed ppf label (fun () -> report ?settings:(Some s) ppf))
    reports

(* --- Bechamel microbenchmarks: scheduler planning latency --- *)

let random_coflow rng width =
  let demand = Sunflow_core.Demand.create () in
  for i = 0 to width - 1 do
    for j = 0 to width - 1 do
      Sunflow_core.Demand.set demand i (width + j)
        (Units.mb (float_of_int (1 + Sunflow_stats.Rng.int rng 64)))
    done
  done;
  Sunflow_core.Coflow.make ~id:0 demand

let scheduler_tests s =
  let open Bechamel in
  let delta = s.E.Common.delta and bandwidth = s.E.Common.bandwidth in
  let rng = Sunflow_stats.Rng.create 77 in
  let coflow width = random_coflow rng width in
  let c8 = coflow 8 and c16 = coflow 16 in
  let stage name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"planning"
    [
      stage "sunflow/|C|=64" (fun () ->
          Sunflow_core.Sunflow.schedule ~delta ~bandwidth c8);
      stage "sunflow/|C|=256" (fun () ->
          Sunflow_core.Sunflow.schedule ~delta ~bandwidth c16);
      stage "solstice/|C|=64" (fun () ->
          Sunflow_baselines.Solstice.assignments ~bandwidth
            c8.Sunflow_core.Coflow.demand);
      stage "tms/|C|=64" (fun () ->
          Sunflow_baselines.Tms.assignments ~bandwidth
            c8.Sunflow_core.Coflow.demand);
      stage "edmonds/|C|=64" (fun () ->
          Sunflow_baselines.Edmonds.assignments ~bandwidth
            c8.Sunflow_core.Coflow.demand);
    ]

let run_bechamel ppf s =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] (scheduler_tests s) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  E.Common.section ppf "BECHAMEL: scheduler planning latency";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (ns_per_run :: _) ->
        bechamel_rows := (name, ns_per_run) :: !bechamel_rows;
        Format.fprintf ppf "  %-24s %10.1f us/run@." name (ns_per_run /. 1e3)
      | _ -> Format.fprintf ppf "  %-24s (no estimate)@." name)
    results

(* --- sequential-vs-parallel speedup -----------------------------------

   Rerun the pool-powered experiments twice from a cold cache — once at
   the configured parallelism, once pinned to one domain — and record
   wall times plus a digest of each run's full report text. Identical
   digests prove the parallel run's numbers (CCT distributions, setup
   counts) are bit-identical to the sequential ones; reports whose text
   embeds wall-clock measurements (ablations' planning times) get a
   null digest and contribute timing only. Skipped entirely at
   [domains = 1], where there is nothing to compare. *)

(* FNV-1a over the report text, folded to 32 bits; self-contained so
   the checker can re-derive nothing — it only compares for equality *)
let digest_string s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xFFFFFFFF)
    s;
  Printf.sprintf "%08x" !h

let capture_report report s =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  report ?settings:(Some s) ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let speedup_section ppf s domains =
  if domains > 1 then begin
    E.Common.section ppf "PARALLEL: sequential-vs-parallel speedup";
    Format.fprintf ppf "  %d domains; cold-cache reruns@." domains;
    let cold_run jobs report =
      E.Common.clear_caches ();
      Pool.set_jobs jobs;
      let t0 = Unix.gettimeofday () in
      let text = capture_report report s in
      (Unix.gettimeofday () -. t0, text)
    in
    List.iter
      (fun (p_name, deterministic_text, report) ->
        let wall_par_s, par_text = cold_run None report in
        let wall_seq_s, seq_text = cold_run (Some 1) report in
        Pool.set_jobs None;
        let digest_par, digest_seq =
          if deterministic_text then
            (Some (digest_string par_text), Some (digest_string seq_text))
          else (None, None)
        in
        parallel_rows := { p_name; wall_par_s; wall_seq_s; digest_par; digest_seq } :: !parallel_rows;
        Format.fprintf ppf "  %-14s par %6.1fs  seq %6.1fs  speedup %.2fx  %s@."
          p_name wall_par_s wall_seq_s
          (wall_seq_s /. wall_par_s)
          (match (digest_par, digest_seq) with
          | Some a, Some b when a = b -> "outputs identical"
          | Some _, Some _ -> "OUTPUTS DIFFER"
          | _ -> "(timing-laden report, digest skipped)");
        match (digest_par, digest_seq) with
        | Some a, Some b when a <> b ->
          Format.fprintf ppf
            "  FATAL: %s parallel output differs from sequential@." p_name;
          exit 1
        | _ -> ())
      [
        ("fig8", true, E.Exp_fig8.report);
        ("baseline-gap", true, E.Exp_baseline_gap.report);
        ("ablations", false, E.Exp_ablations.report);
      ]
  end

(* --- obs: disabled-path overhead and trace export ---------------------

   The observability layer promises that a disabled instrumentation
   site costs one atomic load and a branch. Measure that cost directly
   (a tight loop over a disabled probe), then bound the overhead the
   instrumentation adds to an uninstrumented-equivalent scheduler
   workload as a modeled ratio:

     sites hit when enabled x disabled ns/site / disabled workload wall

   which is what the checker gates at 2%. The model is deliberate:
   subtracting two wall-clock runs of the same workload measures noise
   on a busy CI box, while the modeled ratio is stable and honestly
   over-counts (every traced span also implies cheaper counter and
   histogram updates already included in the probe cost). The enabled
   rerun doubles as the trace-export fixture: its buffered events are
   written as Chrome trace JSON for the checker to schema-validate. *)

type obs_row = {
  disabled_ns_per_probe : float;
  wall_disabled_s : float;
  wall_enabled_s : float;
  enabled_events : int;
  disabled_overhead_ratio : float;
  trace_file : string;
}

let obs_row : obs_row option ref = ref None

let obs_section ppf s =
  E.Common.section ppf "OBS: instrumentation overhead and trace export";
  Obs.Control.set_enabled false;
  let probes = if fast () then 2_000_000 else 20_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to probes do
    Obs.Tracer.instant "bench.probe"
  done;
  let disabled_ns_per_probe =
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int probes
  in
  let delta = s.E.Common.delta and bandwidth = s.E.Common.bandwidth in
  let c16 = random_coflow (Sunflow_stats.Rng.create 77) 16 in
  let reps = if fast () then 30 else 120 in
  let workload () =
    for _ = 1 to reps do
      ignore (Sunflow_core.Sunflow.schedule ~delta ~bandwidth c16)
    done
  in
  let t0 = Unix.gettimeofday () in
  workload ();
  let wall_disabled_s = Unix.gettimeofday () -. t0 in
  Obs.Control.set_enabled true;
  Obs.Tracer.clear ();
  let t0 = Unix.gettimeofday () in
  workload ();
  let wall_enabled_s = Unix.gettimeofday () -. t0 in
  let enabled_events = Obs.Tracer.event_count () in
  let trace = Obs.Tracer.to_chrome_json () in
  Obs.Control.set_enabled false;
  Obs.Tracer.clear ();
  let trace_file =
    match Sys.getenv_opt "SUNFLOW_BENCH_TRACE_JSON" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_obs_trace.json"
  in
  Obs.Io.write_file trace_file trace;
  let disabled_overhead_ratio =
    float_of_int enabled_events *. disabled_ns_per_probe
    /. (wall_disabled_s *. 1e9)
  in
  obs_row :=
    Some
      {
        disabled_ns_per_probe;
        wall_disabled_s;
        wall_enabled_s;
        enabled_events;
        disabled_overhead_ratio;
        trace_file;
      };
  Format.fprintf ppf
    "  disabled probe: %.2f ns;  workload (|C|=256 x%d): disabled %.3fs, \
     enabled %.3fs (%d events)@."
    disabled_ns_per_probe reps wall_disabled_s wall_enabled_s enabled_events;
  Format.fprintf ppf
    "  modeled disabled-path overhead: %.5f%% (gate: 2%%);  wrote %s@."
    (100. *. disabled_overhead_ratio)
    trace_file

(* --- validation layer -------------------------------------------------

   Run the Sunflow_check validator over every intra plan of the
   settings trace and the differential switch oracle over randomized
   arrival traces, so @bench-smoke fails when a scheduler change
   breaks an invariant instead of merely slowing down. *)

type check_row = {
  k_plans : int;
  k_plan_violations : int;
  k_traces : int;
  k_compared : int;
  k_worst_err_s : float;
  k_oracle_violations : int;
  k_wall_s : float;
}

let check_row : check_row option ref = ref None

let check_section ppf s =
  let module Check = Sunflow_check in
  let module Coflow = Sunflow_core.Coflow in
  let module Demand = Sunflow_core.Demand in
  E.Common.section ppf "CHECK: plan validator + differential switch oracle";
  let delta = s.E.Common.delta and bandwidth = s.E.Common.bandwidth in
  let t0 = Unix.gettimeofday () in
  let coflows =
    List.filter
      (fun (c : Coflow.t) -> not (Demand.is_empty c.Coflow.demand))
      (E.Common.raw_trace s).Sunflow_trace.Trace.coflows
  in
  let vspec = Check.Plan_check.spec ~delta ~bandwidth () in
  let plan_violations =
    Pool.run_list
      (fun (c : Coflow.t) ->
        let c0 = { c with Coflow.arrival = 0. } in
        Check.Plan_check.intra vspec c0
          (Sunflow_core.Sunflow.schedule ~delta ~bandwidth c0))
      coflows
    |> List.concat
  in
  let traces = if fast () then 25 else 200 in
  let stats =
    Check.Diff_oracle.fuzz ~seed:11 ~traces ~n_ports:8 ~max_coflows:6
      ~span:1.5 ~max_mb:40. ~delta ~bandwidth ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun v -> Format.fprintf ppf "  PLAN %a@." Check.Violation.pp v)
    plan_violations;
  List.iter
    (fun v -> Format.fprintf ppf "  ORACLE %a@." Check.Violation.pp v)
    stats.Check.Diff_oracle.total_violations;
  check_row :=
    Some
      {
        k_plans = List.length coflows;
        k_plan_violations = List.length plan_violations;
        k_traces = stats.Check.Diff_oracle.traces;
        k_compared = stats.Check.Diff_oracle.total_compared;
        k_worst_err_s = stats.Check.Diff_oracle.worst_err_s;
        k_oracle_violations =
          List.length stats.Check.Diff_oracle.total_violations;
        k_wall_s = wall;
      };
  Format.fprintf ppf
    "  %d intra plans validated (%d violations);  oracle: %d traces, %d \
     finishes compared, worst gap %.3g s (%d violations)  [%.2fs]@."
    (List.length coflows)
    (List.length plan_violations)
    stats.Check.Diff_oracle.traces stats.Check.Diff_oracle.total_compared
    stats.Check.Diff_oracle.worst_err_s
    (List.length stats.Check.Diff_oracle.total_violations)
    wall

(* --- replay: full vs incremental replanning ---------------------------

   The PR-5 gate: replay the settings trace and a large synthetic
   workload (50,600 Coflows at the paper's arrival load; 4,000 in fast
   mode) through all three replanning engines and record wall time,
   event throughput, and an FNV digest of the canonical Sim_result
   rendering. The checker requires the rebuild and incremental digests
   to agree on every trace (bit-identity of the suffix-only engine
   against its from-scratch oracle at benchmark scale) and, on the
   >= 50k trace, the incremental engine to be at least twice as fast
   as full replanning. Full mode's digest is recorded but never
   compared: its drain-then-recompute semantics drift from the
   anchored modes in the last float bits by design.

   The settings trace replays under the paper-default Shortest-first
   policy; the large trace under Fifo, where an arrival's priority key
   is its arrival instant, every admission appends to the priority
   order, and the rescheduled suffix is exactly the new Coflow — the
   O(changed-Coflows) regime the engine targets.

   Since schema /6 the large trace also replays under Shortest-first
   itself — the adversarial case for any suffix scheme, where a small
   arrival head-inserts and the suffix it invalidates averages half
   the active set — with the bucketed priority order that bounds the
   damage. The checker gates >= 2.5x incremental-over-full there, the
   rebuild/incremental digest equality per bucket configuration, and
   the mean CCT drift the coarsened order costs against the exact
   shortest-first run. *)

type replay_row = {
  y_trace : string;
  y_policy : string;
  y_coflows : int;
  y_mode : string;
  y_buckets : int;  (** 0 = the exact priority order *)
  y_wall_s : float;
  y_events : int;
  y_digest : string;
}

let replay_rows : replay_row list ref = ref []

type drift_row = {
  d_buckets : int;
  d_coflows : int;
  d_mean_cct_exact_s : float;
  d_mean_cct_bucketed_s : float;
  d_rel_mean : float;  (** (bucketed - exact) / exact, mean CCT *)
  d_max_rel : float;  (** worst per-Coflow relative CCT inflation *)
}

let drift_row : drift_row option ref = ref None

(* The SCF-adversarial storm (PR-6 gate): the large trace's arrival
   mix at 10x density — a standing backlog, so full replanning prices
   the whole active set at every event — interleaved at the same rate
   with a stream of near-identical single-flow mice whose sizes
   decrease monotonically, so under the exact shortest-first order
   every stream arrival head-inserts ahead of the still-draining
   backlog. Memoised: the replay sections share it. *)
let storm_memo : Sunflow_core.Coflow.t list option ref = ref None

let storm_trace s =
  match !storm_memo with
  | Some t -> t
  | None ->
    let p = s.E.Common.trace_params in
    let base_n = if fast () then 800 else 10_000 in
    let mice_n = if fast () then 2_600 else 40_600 in
    (* the density factor compresses the arrival span against the
       fixed M2M service times — 0.1 sustains the standing backlog the
       gate needs. Fast mode keeps the span longer: at 800 base
       Coflows a 0.1 factor leaves the span shorter than the giants'
       drain times, the backlog never clears, and the smoke run stops
       being smoke-sized. *)
    let density = if fast () then 0.4 else 0.1 in
    let span =
      p.Sunflow_trace.Synthetic.span
      *. float_of_int base_n
      /. float_of_int p.Sunflow_trace.Synthetic.n_coflows
      *. density
    in
    let base =
      Sunflow_trace.Synthetic.generate
        {
          p with
          Sunflow_trace.Synthetic.n_coflows = base_n;
          span;
          m2m_reducer_mb = (fst p.Sunflow_trace.Synthetic.m2m_reducer_mb, 2.2);
        }
    in
    let rng = Sunflow_stats.Rng.create 4242 in
    let mice =
      List.init mice_n (fun i ->
          let src = Sunflow_stats.Rng.int rng p.Sunflow_trace.Synthetic.n_ports in
          let dst =
            let d =
              Sunflow_stats.Rng.int rng
                (p.Sunflow_trace.Synthetic.n_ports - 1)
            in
            if d >= src then d + 1 else d
          in
          let mb = 64. -. (60. *. float_of_int i /. float_of_int mice_n) in
          let d = Sunflow_core.Demand.create () in
          Sunflow_core.Demand.set d src dst (Sunflow_core.Units.mb mb);
          Sunflow_core.Coflow.make ~id:(base_n + i)
            ~arrival:(span *. float_of_int i /. float_of_int mice_n)
            d)
    in
    let t =
      List.sort Sunflow_core.Coflow.compare_arrival
        (base.Sunflow_trace.Trace.coflows @ mice)
    in
    storm_memo := Some t;
    t

let digest_result (r : Sunflow_sim.Sim_result.t) =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (id, f) -> Buffer.add_string buf (Printf.sprintf "%d:%.17g;" id f))
    r.Sunflow_sim.Sim_result.finishes;
  Buffer.add_string buf
    (Printf.sprintf "|%.17g|%d|%d" r.Sunflow_sim.Sim_result.makespan
       r.Sunflow_sim.Sim_result.n_events r.Sunflow_sim.Sim_result.total_setups);
  digest_string (Buffer.contents buf)

let replay_section ppf s =
  E.Common.section ppf "REPLAY: full vs incremental replanning";
  let delta = s.E.Common.delta and bandwidth = s.E.Common.bandwidth in
  let smoke = (E.Common.raw_trace s).Sunflow_trace.Trace.coflows in
  let large_n = if fast () then 4_000 else 50_600 in
  let large =
    let p = s.E.Common.trace_params in
    (* arrival rate held at the settings trace's load; the M2M reducer
       tail is tamed from the calibrated sigma 2.5 to 2.2 because the
       maximum of n lognormal draws grows as exp(sigma * sqrt(2 ln n)) —
       at 50k Coflows the calibrated tail yields terabyte-scale giants
       whose drain times exceed the arrival span, the queue never
       empties, and full replanning (O(active) schedules per event over
       an unboundedly growing active set) stops terminating in
       reasonable time. Sigma 2.2 keeps heavy giants and the backlog
       bursts behind them — the regime where replanning cost matters —
       while keeping service times small against the span. *)
    let scaled =
      {
        p with
        Sunflow_trace.Synthetic.n_coflows = large_n;
        span =
          p.Sunflow_trace.Synthetic.span
          *. float_of_int large_n
          /. float_of_int p.Sunflow_trace.Synthetic.n_coflows;
        m2m_reducer_mb = (fst p.Sunflow_trace.Synthetic.m2m_reducer_mb, 2.2);
      }
    in
    (Sunflow_trace.Synthetic.generate scaled).Sunflow_trace.Trace.coflows
  in
  let run_one ?bucket_base y_trace y_policy policy coflows y_mode replan
      y_buckets =
    let t0 = Unix.gettimeofday () in
    let r =
      Circuit_sim.replay ~policy ~replan
        ~config:(Sunflow_core.Inter.config ~buckets:y_buckets ?bucket_base ())
        ~delta ~bandwidth coflows
    in
    let y_wall_s = Unix.gettimeofday () -. t0 in
    replay_rows :=
      {
        y_trace;
        y_policy;
        y_coflows = List.length coflows;
        y_mode;
        y_buckets;
        y_wall_s;
        y_events = r.Sunflow_sim.Sim_result.n_events;
        y_digest = digest_result r;
      }
      :: !replay_rows;
    Format.fprintf ppf
      "  %-6s %-5s %-11s b=%-2d %6d Coflows  %8.2fs  %9.0f events/s@." y_trace
      y_policy y_mode y_buckets (List.length coflows) y_wall_s
      (float_of_int r.Sunflow_sim.Sim_result.n_events /. y_wall_s);
    (y_wall_s, r)
  in
  List.iter
    (fun (y_trace, y_policy, policy, coflows) ->
      let walls = Hashtbl.create 4 in
      List.iter
        (fun (y_mode, replan) ->
          let wall, _ = run_one y_trace y_policy policy coflows y_mode replan 0 in
          Hashtbl.replace walls y_mode wall)
        [ ("full", `Full); ("rebuild", `Rebuild); ("incremental", `Incremental) ];
      let wall m = Hashtbl.find walls m in
      Format.fprintf ppf "  %-6s incremental speedup over full: %.2fx@."
        y_trace
        (wall "full" /. wall "incremental"))
    [
      ("smoke", "scf", Sunflow_core.Inter.Shortest_first, smoke);
      ("large", "fifo", Sunflow_core.Inter.Fifo, large);
    ];
  (* The PR-6 gate: an SCF-adversarial composition — the large trace's
     arrival mix at 10x density (a standing backlog, so full
     replanning prices the whole active set at every event),
     interleaved at the same rate with a stream of near-identical
     small Coflows whose sizes decrease monotonically. Under the exact
     shortest-first order every stream arrival carries the smallest
     key yet and head-inserts ahead of the still-draining backlog, so
     the exact engines reschedule most of the active set per arrival.
     Under a bucketed order the stream shares a handful of classes and
     each arrival sorts at the {e end} of its class (FIFO within a
     class), so the backlog behind it splices. Full replanning is the
     baseline; rebuild-with-the-same-buckets is the bucketed engine's
     digest oracle; the exact-order incremental run prices the
     fidelity the buckets give up (CCT drift, gated by the checker).
     24 classes at base 2 span the key range finely enough that the
     bucketed run's drift stays within measurement noise. *)
  let scf = Sunflow_core.Inter.Shortest_first in
  let scf_buckets = 24 in
  let scf_bucket_base = 2. in
  let storm = storm_trace s in
  let wall_full, _ = run_one "storm" "scf" scf storm "full" `Full 0 in
  ignore
    (run_one ~bucket_base:scf_bucket_base "storm" "scf" scf storm "rebuild"
       `Rebuild scf_buckets);
  let wall_binc, r_bucketed =
    run_one ~bucket_base:scf_bucket_base "storm" "scf" scf storm "incremental"
      `Incremental scf_buckets
  in
  let _, r_exact =
    run_one "storm" "scf" scf storm "incremental" `Incremental 0
  in
  Format.fprintf ppf
    "  storm  scf   incremental(b=%d) speedup over full: %.2fx@." scf_buckets
    (wall_full /. wall_binc);
  let arrival = Hashtbl.create (List.length storm) in
  List.iter
    (fun (c : Sunflow_core.Coflow.t) ->
      Hashtbl.replace arrival c.Sunflow_core.Coflow.id
        c.Sunflow_core.Coflow.arrival)
    storm;
  let ccts (r : Sunflow_sim.Sim_result.t) =
    List.map
      (fun (id, f) -> (id, f -. Hashtbl.find arrival id))
      r.Sunflow_sim.Sim_result.finishes
  in
  let exact = ccts r_exact and bucketed = ccts r_bucketed in
  let mean l =
    List.fold_left (fun a (_, c) -> a +. c) 0. l /. float_of_int (List.length l)
  in
  let d_mean_cct_exact_s = mean exact
  and d_mean_cct_bucketed_s = mean bucketed in
  let exact_by_id = Hashtbl.create (List.length exact) in
  List.iter (fun (id, c) -> Hashtbl.replace exact_by_id id c) exact;
  let d_max_rel =
    List.fold_left
      (fun acc (id, cb) ->
        let ce = Hashtbl.find exact_by_id id in
        if ce > 0. then Float.max acc ((cb -. ce) /. ce) else acc)
      0. bucketed
  in
  let d_rel_mean =
    (d_mean_cct_bucketed_s -. d_mean_cct_exact_s) /. d_mean_cct_exact_s
  in
  drift_row :=
    Some
      {
        d_buckets = scf_buckets;
        d_coflows = List.length bucketed;
        d_mean_cct_exact_s;
        d_mean_cct_bucketed_s;
        d_rel_mean;
        d_max_rel;
      };
  Format.fprintf ppf
    "  storm  scf   CCT drift b=%d vs exact: mean %+.3f%% (%.3fs vs %.3fs), \
     worst per-Coflow %+.1f%%@."
    scf_buckets (100. *. d_rel_mean) d_mean_cct_bucketed_s d_mean_cct_exact_s
    (100. *. d_max_rel)

(* --- kernel: Sunflow.schedule steady state ----------------------------

   The zero-allocation claim, priced: schedule a 16-port two-ring
   shuffle against a persistent table, retract it, and repeat. After
   warm-up the kernel's scratch — the DLS arena, the wake heap, the
   made array — is at steady-state size, so the minor words per
   iteration are the *output* (the reservations list and the result
   record) plus whatever the kernel still allocates per call. The
   checker holds ns/schedule and minor-words/schedule under ceilings
   with headroom, so an accidental per-call allocation (a closure in
   the hot loop, a tuple in the probe) moves a gated number.

   ns/schedule is bimodal across whole runs: eight SUNFLOW_BENCH_FAST=1
   runs on a shared 2-vCPU host read 28.9, 33.5, 53.5 and 57.7 us on
   one commit and 36.4, 55.4, 31.8 and 52.4 us on its successor, with
   identical minor words (3755). The median of rounds removes jitter
   within a run, not a slowdown that lasts the whole run, so compare
   this row across commits only through alternating runs of the two
   builds; minor words/schedule is deterministic and compares
   directly. *)

type kernel_row = {
  k_ports : int;
  k_iters : int;
  k_ns_per_schedule : float;
  k_minor_words_per_schedule : float;
}

let kernel_row : kernel_row option ref = ref None

let kernel_section ppf _s =
  E.Common.section ppf "KERNEL: Sunflow.schedule steady state";
  let delta = Units.ms 10. and bandwidth = Units.gbps 1. in
  let n_ports = 16 in
  let c =
    let d = Sunflow_core.Demand.create () in
    for i = 0 to n_ports - 1 do
      Sunflow_core.Demand.set d i
        ((i + 1) mod n_ports)
        (Units.mb (4. +. float_of_int (i mod 5)));
      Sunflow_core.Demand.set d i
        ((i + 5) mod n_ports)
        (Units.mb (2. +. float_of_int (i mod 3)))
    done;
    Sunflow_core.Coflow.make ~id:0 ~arrival:0. d
  in
  let prt = Prt.create () in
  let one () =
    ignore (Sunflow.schedule ~prt ~delta ~bandwidth c : Sunflow.result);
    ignore (Prt.retract_coflow prt 0 : int)
  in
  for _ = 1 to 1_000 do
    one ()
  done;
  (* one timed loop is mostly host noise at this length: time [rounds]
     equal rounds and report the median round *)
  let rounds = 5 in
  let iters = if fast () then 5_000 else 50_000 in
  let per_round = iters / rounds in
  let ns = Array.make rounds 0. in
  Gc.full_major ();
  let mw0 = Gc.minor_words () in
  for r = 0 to rounds - 1 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_round do
      one ()
    done;
    ns.(r) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int per_round
  done;
  let mw = Gc.minor_words () -. mw0 in
  Array.sort Float.compare ns;
  let k_ns_per_schedule = ns.(rounds / 2) in
  let k_minor_words_per_schedule = mw /. float_of_int iters in
  Format.fprintf ppf
    "  %d-port shuffle: %.0f ns/schedule (median of %d rounds), %.0f minor \
     words/schedule (%d iters)@."
    n_ports k_ns_per_schedule rounds k_minor_words_per_schedule iters;
  kernel_row :=
    Some
      {
        k_ports = n_ports;
        k_iters = iters;
        k_ns_per_schedule;
        k_minor_words_per_schedule;
      }

(* --- report: CCT attribution across engine variants -------------------

   The PR-8 gate: replay the settings trace with attribution enabled
   under the anchored engine variants (incremental and its rebuild
   oracle) and build the [sunflow report] JSON from each. The report
   body — everything derived from the executed schedule — must digest
   identically across the variants, since the anchored modes are
   bit-identical by construction ([`Full] is excluded: its
   drain-then-recompute semantics drift in the last float bits by
   design, see [Circuit_sim]). Attribution conservation (wait + setup + transfer
   + blocked = CCT for every Coflow) must hold with zero violations.
   The first variant's full report is written to BENCH_report.json
   (SUNFLOW_BENCH_REPORT_JSON overrides) for the checker to
   schema-validate: CDF monotone, blame summing to total CCT,
   utilization in [0, 1]. *)

type report_row = {
  t_variant : string;
  t_replan : string;
  t_wall_s : float;
  t_body_digest : string;
  t_violations : int;
}

type report_summary = {
  rp_file : string;
  rp_coflows : int;
  rp_samples : int;
  rp_rows : report_row list;
}

let report_summary : report_summary option ref = ref None

let report_section ppf s =
  let module Check = Sunflow_check in
  E.Common.section ppf "REPORT: CCT attribution across engine variants";
  let delta = s.E.Common.delta and bandwidth = s.E.Common.bandwidth in
  let coflows = (E.Common.raw_trace s).Sunflow_trace.Trace.coflows in
  let report_file =
    match Sys.getenv_opt "SUNFLOW_BENCH_REPORT_JSON" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_report.json"
  in
  let was = Obs.Control.enabled () in
  let first_json = ref None in
  let n_samples = ref 0 in
  let rows =
    List.map
      (fun (t_variant, t_replan, replan) ->
        Obs.Control.set_enabled true;
        Obs.Attrib.clear ();
        Obs.Sampler.clear ();
        Obs.Timeline.clear ();
        let t0 = Unix.gettimeofday () in
        let r =
          Circuit_sim.replay ~policy:Sunflow_core.Inter.Shortest_first ~replan
            ~delta ~bandwidth coflows
        in
        let t_wall_s = Unix.gettimeofday () -. t0 in
        Obs.Control.set_enabled false;
        let run =
          [
            ("trace", "\"bench-settings\"");
            ("policy", "\"scf\"");
            ("replan", Printf.sprintf "\"%s\"" t_replan);
            ("bandwidth_gbps", Printf.sprintf "%.9g" (Units.to_gbps bandwidth));
            ("delta_s", Printf.sprintf "%.9g" delta);
            ("samples", string_of_int (List.length (Obs.Sampler.samples ())));
          ]
        in
        let rep, violations =
          Check.Attrib_report.build ~run ~coflows r
        in
        let t_body_digest = digest_string (Obs.Report.body_json rep) in
        if !first_json = None then begin
          first_json := Some (Obs.Report.to_json rep);
          n_samples := List.length (Obs.Sampler.samples ())
        end;
        List.iter
          (fun v -> Format.fprintf ppf "  ATTRIB %a@." Check.Violation.pp v)
          violations;
        Format.fprintf ppf
          "  %-15s wall %6.2fs  body digest %s  %d violations@." t_variant
          t_wall_s t_body_digest (List.length violations);
        {
          t_variant;
          t_replan;
          t_wall_s;
          t_body_digest;
          t_violations = List.length violations;
        })
      [
        ("incremental", "incremental", `Incremental);
        ("rebuild", "rebuild", `Rebuild);
      ]
  in
  Obs.Attrib.clear ();
  Obs.Sampler.clear ();
  Obs.Timeline.clear ();
  Obs.Tracer.clear ();
  Obs.Control.set_enabled was;
  (match !first_json with
  | Some json ->
    Obs.Io.write_file report_file json;
    Format.fprintf ppf "  wrote %s@." report_file
  | None -> ());
  report_summary :=
    Some
      {
        rp_file = report_file;
        rp_coflows = List.length coflows;
        rp_samples = !n_samples;
        rp_rows = rows;
      }

(* --- serve: the streaming scheduler at stream scale -------------------

   The PR-9 gate: drive a synthetic arrival stream — generated
   chunk-by-chunk, never materialised as one list — through
   [Sunflow_serve.Serve] and prove the bounded-memory claims at bench
   scale: 10^6 Coflows in full mode (10^5 under SUNFLOW_BENCH_FAST)
   with live engine entries bounded by the active set. Sustained
   events/s and the p99 per-event scheduling latency come from the
   loop's own bounded observability ([serve.event_s]). A second,
   smaller deadline-mode run exercises admission control and is
   validated end-to-end with [Sim_check] on the admitted subset. *)

type serve_summary = {
  v_coflows : int;
  v_arrivals : int;
  v_wall_s : float;
  v_events : int;
  v_events_per_s : float;
  v_p99_event_s : float;
  v_max_live : int;
  v_admitted : int;
  v_rejected : int;
  v_completed : int;
  v_checked_coflows : int;
  v_checked_admitted : int;
  v_checked_rejected : int;
  v_checked_violations : int;
}

let serve_summary : serve_summary option ref = ref None

(* an unbounded-looking arrival stream at the generator's default
   offered load: chunk [i] is a fresh synthetic trace with re-based
   ids, shifted to start where the previous chunk's Poisson process
   actually ended (the process overshoots its span), so arrivals stay
   non-decreasing and only one chunk is ever resident *)
let synthetic_stream ~seed ~chunk ~chunks =
  let span = 3600. *. float_of_int chunk /. 526. in
  let idx = ref 0 in
  let offset = ref 0. in
  let rest = ref [] in
  let rec next () =
    match !rest with
    | c :: tl ->
      rest := tl;
      Some c
    | [] ->
      if !idx >= chunks then None
      else begin
        let i = !idx in
        incr idx;
        let base = i * chunk in
        let p =
          {
            Sunflow_trace.Synthetic.default_params with
            seed = seed + i;
            n_coflows = chunk;
            span;
          }
        in
        let t0 = !offset in
        rest :=
          List.map
            (fun (c : Sunflow_core.Coflow.t) ->
              let shifted =
                Sunflow_core.Coflow.make ~id:(base + c.id)
                  ~arrival:(c.arrival +. t0) c.demand
              in
              offset := shifted.Sunflow_core.Coflow.arrival;
              shifted)
            (Sunflow_trace.Synthetic.generate p).Sunflow_trace.Trace.coflows;
        next ()
      end
  in
  next

let serve_section ppf _s =
  let module Serve = Sunflow_serve.Serve in
  let module Check = Sunflow_check in
  E.Common.section ppf "SERVE: streaming scheduler, bounded memory";
  let delta = Units.ms 10. and bandwidth = Units.gbps 1. in
  let chunk = 10_000 in
  let chunks = if fast () then 10 else 100 in
  let n = chunk * chunks in
  let was = Obs.Control.enabled () in
  Obs.Control.set_enabled true;
  Obs.Registry.reset ();
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let stats =
    Serve.run ~delta ~bandwidth (synthetic_stream ~seed:97 ~chunk ~chunks)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let p99 =
    Obs.Registry.quantile
      (Obs.Registry.histogram_value (Obs.Registry.histogram "serve.event_s"))
      0.99
  in
  Obs.Registry.reset ();
  Obs.Control.set_enabled was;
  let events_per_s = float_of_int stats.Serve.events /. wall in
  Format.fprintf ppf
    "  %d Coflows  wall %6.2fs  %.0f events/s  p99 event %.3g ms@." n wall
    events_per_s (p99 *. 1e3);
  Format.fprintf ppf "  max live %d (%.4f%% of stream)@." stats.Serve.max_live
    (100. *. float_of_int stats.Serve.max_live /. float_of_int n);
  (* the smaller checked run: deadline admission, then full
     conservation on the admitted subset *)
  let checked_n = if fast () then 150 else 526 in
  let trace =
    Sunflow_trace.Synthetic.generate
      {
        Sunflow_trace.Synthetic.default_params with
        seed = 53;
        n_coflows = checked_n;
      }
  in
  let deadline_of (c : Sunflow_core.Coflow.t) =
    c.Sunflow_core.Coflow.arrival
    +. 3.
       *. Sunflow_core.Bounds.circuit_lower ~bandwidth ~delta
            c.Sunflow_core.Coflow.demand
  in
  let kept = ref [] and ccts = ref [] and finishes = ref [] in
  let rest = ref trace.Sunflow_trace.Trace.coflows in
  let cstats =
    Serve.run ~deadline_of ~delta ~bandwidth
      ~on_admit:(fun c ~finish:_ -> kept := c :: !kept)
      ~on_finish:(fun ~id ~t ~cct ->
        finishes := (id, t) :: !finishes;
        ccts := (id, cct) :: !ccts)
      (fun () ->
        match !rest with
        | [] -> None
        | c :: tl ->
          rest := tl;
          Some c)
  in
  let by_id l = List.sort (fun (a, _) (x, _) -> compare a x) l in
  let result =
    {
      Sunflow_sim.Sim_result.ccts = by_id !ccts;
      finishes = by_id !finishes;
      makespan = cstats.Serve.makespan;
      n_events = cstats.Serve.events;
      total_setups = cstats.Serve.setups;
    }
  in
  let violations =
    Check.Sim_check.result ~bandwidth ~coflows:!kept result
  in
  List.iter
    (fun v -> Format.fprintf ppf "  SERVE %a@." Check.Violation.pp v)
    violations;
  Format.fprintf ppf
    "  checked run: %d Coflows, %d admitted / %d rejected, %d violations@."
    checked_n cstats.Serve.admitted cstats.Serve.rejected
    (List.length violations);
  serve_summary :=
    Some
      {
        v_coflows = n;
        v_arrivals = stats.Serve.arrivals;
        v_wall_s = wall;
        v_events = stats.Serve.events;
        v_events_per_s = events_per_s;
        v_p99_event_s = p99;
        v_max_live = stats.Serve.max_live;
        v_admitted = stats.Serve.admitted;
        v_rejected = stats.Serve.rejected;
        v_completed = stats.Serve.completed;
        v_checked_coflows = checked_n;
        v_checked_admitted = cstats.Serve.admitted;
        v_checked_rejected = cstats.Serve.rejected;
        v_checked_violations = List.length violations;
      }

(* --- JSON emission ----------------------------------------------------

   Hand-rolled (no JSON library in the dependency set); the shapes are
   flat enough that correctness-by-construction is easy to audit, and
   bench/check_bench_json.ml re-parses the output to keep it honest. *)

module Json = Obs.Json

let json_stats (s : Prt.stats) =
  Printf.sprintf
    "{\"queries\": %d, \"scans\": %d, \"reservations\": %d, \"rollbacks\": %d}"
    s.Prt.queries s.Prt.scans s.Prt.reservations s.Prt.rollbacks

let emit_json path s domains =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"sunflow-bench-prt/11\",\n";
  add "  \"fast\": %b,\n" (fast ());
  add "  \"domains\": %d,\n" domains;
  add
    "  \"settings\": {\"bandwidth_gbps\": %s, \"delta_s\": %s, \"n_coflows\": \
     %d, \"seed\": %d},\n"
    (Json.float (Units.to_gbps s.E.Common.bandwidth))
    (Json.float s.E.Common.delta)
    s.E.Common.trace_params.Sunflow_trace.Synthetic.n_coflows
    s.E.Common.trace_params.Sunflow_trace.Synthetic.seed;
  add "  \"experiments\": [\n";
  let rows = List.rev !experiment_rows in
  List.iteri
    (fun i row ->
      add "    {\"name\": \"%s\", \"wall_s\": %s, \"prt_stats\": %s}%s\n"
        (Json.escape row.name) (Json.float row.wall_s) (json_stats row.prt)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ],\n";
  add "  \"bechamel\": [\n";
  let brows =
    List.sort (fun (a, _) (b, _) -> compare a b) !bechamel_rows
  in
  List.iteri
    (fun i (name, ns) ->
      add "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n" (Json.escape name)
        (Json.float ns)
        (if i = List.length brows - 1 then "" else ","))
    brows;
  add "  ],\n";
  add "  \"parallel\": [\n";
  let prows = List.rev !parallel_rows in
  let json_digest = function
    | Some d -> Printf.sprintf "\"%s\"" (Json.escape d)
    | None -> "null"
  in
  List.iteri
    (fun i row ->
      add
        "    {\"name\": \"%s\", \"wall_par_s\": %s, \"wall_seq_s\": %s, \
         \"speedup\": %s, \"digest_par\": %s, \"digest_seq\": %s}%s\n"
        (Json.escape row.p_name)
        (Json.float row.wall_par_s)
        (Json.float row.wall_seq_s)
        (Json.float (row.wall_seq_s /. row.wall_par_s))
        (json_digest row.digest_par) (json_digest row.digest_seq)
        (if i = List.length prows - 1 then "" else ","))
    prows;
  add "  ],\n";
  (match !obs_row with
  | None -> add "  \"obs\": null,\n"
  | Some o ->
    add
      "  \"obs\": {\"disabled_ns_per_probe\": %s, \"wall_disabled_s\": %s, \
       \"wall_enabled_s\": %s, \"enabled_events\": %d, \
       \"disabled_overhead_ratio\": %s, \"trace_file\": \"%s\"},\n"
      (Json.float o.disabled_ns_per_probe)
      (Json.float o.wall_disabled_s)
      (Json.float o.wall_enabled_s)
      o.enabled_events
      (Json.float o.disabled_overhead_ratio)
      (Json.escape o.trace_file));
  (match !check_row with
  | None -> add "  \"check\": null,\n"
  | Some k ->
    add
      "  \"check\": {\"plans\": %d, \"plan_violations\": %d, \"traces\": %d, \
       \"compared\": %d, \"worst_err_s\": %s, \"oracle_violations\": %d, \
       \"wall_s\": %s},\n"
      k.k_plans k.k_plan_violations k.k_traces k.k_compared
      (Json.float k.k_worst_err_s)
      k.k_oracle_violations (Json.float k.k_wall_s));
  add "  \"replay\": [\n";
  let yrows = List.rev !replay_rows in
  List.iteri
    (fun i row ->
      add
        "    {\"trace\": \"%s\", \"policy\": \"%s\", \"n_coflows\": %d, \
         \"mode\": \"%s\", \"buckets\": %d, \"wall_s\": %s, \"events\": %d, \
         \"events_per_s\": %s, \"digest\": \"%s\"}%s\n"
        (Json.escape row.y_trace) (Json.escape row.y_policy) row.y_coflows
        (Json.escape row.y_mode) row.y_buckets
        (Json.float row.y_wall_s) row.y_events
        (Json.float (float_of_int row.y_events /. row.y_wall_s))
        (Json.escape row.y_digest)
        (if i = List.length yrows - 1 then "" else ","))
    yrows;
  add "  ],\n";
  (match !drift_row with
  | None -> add "  \"scf_drift\": null,\n"
  | Some d ->
    add
      "  \"scf_drift\": {\"buckets\": %d, \"coflows\": %d, \
       \"mean_cct_exact_s\": %s, \"mean_cct_bucketed_s\": %s, \"rel_mean\": \
       %s, \"max_rel\": %s},\n"
      d.d_buckets d.d_coflows
      (Json.float d.d_mean_cct_exact_s)
      (Json.float d.d_mean_cct_bucketed_s)
      (Json.float d.d_rel_mean) (Json.float d.d_max_rel));
  (match !kernel_row with
  | None -> add "  \"kernel\": null,\n"
  | Some k ->
    add
      "  \"kernel\": {\"ports\": %d, \"iters\": %d, \"ns_per_schedule\": %s, \
       \"minor_words_per_schedule\": %s},\n"
      k.k_ports k.k_iters
      (Json.float k.k_ns_per_schedule)
      (Json.float k.k_minor_words_per_schedule));
  (match !report_summary with
  | None -> add "  \"report\": null,\n"
  | Some rp ->
    add
      "  \"report\": {\"file\": \"%s\", \"coflows\": %d, \"samples\": %d, \
       \"rows\": [\n"
      (Json.escape rp.rp_file) rp.rp_coflows rp.rp_samples;
    List.iteri
      (fun i row ->
        add
          "    {\"variant\": \"%s\", \"replan\": \"%s\", \"wall_s\": %s, \
           \"body_digest\": \"%s\", \"violations\": %d}%s\n"
          (Json.escape row.t_variant)
          (Json.escape row.t_replan)
          (Json.float row.t_wall_s)
          (Json.escape row.t_body_digest)
          row.t_violations
          (if i = List.length rp.rp_rows - 1 then "" else ","))
      rp.rp_rows;
    add "  ]},\n");
  (match !serve_summary with
  | None -> add "  \"serve\": null,\n"
  | Some v ->
    add
      "  \"serve\": {\"coflows\": %d, \"arrivals\": %d, \"wall_s\": %s, \
       \"events\": %d, \"events_per_s\": %s, \"p99_event_s\": %s, \
       \"max_live\": %d, \"admitted\": %d, \
       \"rejected\": %d, \"completed\": %d, \"checked\": {\"coflows\": %d, \
       \"admitted\": %d, \"rejected\": %d, \"violations\": %d}},\n"
      v.v_coflows v.v_arrivals (Json.float v.v_wall_s) v.v_events
      (Json.float v.v_events_per_s)
      (Json.float v.v_p99_event_s)
      v.v_max_live v.v_admitted v.v_rejected v.v_completed
      v.v_checked_coflows v.v_checked_admitted v.v_checked_rejected
      v.v_checked_violations);
  add "  \"prt_stats\": %s\n" (json_stats (Prt.stats ()));
  add "}\n";
  Obs.Io.write_file path (Buffer.contents buf)

let () =
  let ppf = Format.std_formatter in
  let s = settings () in
  let domains = Pool.default_jobs () in
  Prt.reset_stats ();
  Format.fprintf ppf
    "Sunflow reproduction benchmark harness (CoNEXT 2016)@.settings: B=%g Gbps, delta=%a, %d Coflows, seed=%d, %d domains@."
    (Units.to_gbps s.E.Common.bandwidth)
    Units.pp_time s.E.Common.delta
    s.E.Common.trace_params.Sunflow_trace.Synthetic.n_coflows
    s.E.Common.trace_params.Sunflow_trace.Synthetic.seed
    domains;
  experiment_reports ppf s;
  run_bechamel ppf s;
  speedup_section ppf s domains;
  obs_section ppf s;
  check_section ppf s;
  replay_section ppf s;
  kernel_section ppf s;
  report_section ppf s;
  serve_section ppf s;
  let json_path =
    match Sys.getenv_opt "SUNFLOW_BENCH_JSON" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_prt.json"
  in
  emit_json json_path s domains;
  Format.fprintf ppf "@.wrote %s (total prt: %a)@.@.done.@." json_path
    Prt.pp_stats (Prt.stats ())
