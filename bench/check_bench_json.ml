(* Validator for BENCH_prt.json (the @bench-smoke gate): re-parses the
   file with [Sunflow_obs.Json] and checks the schema the
   perf-trajectory tooling relies on, so a malformed or truncated
   emission fails the alias instead of silently producing an unusable
   data point.

   Since schema /3 it also gates the observability layer: the modeled
   disabled-path overhead must stay at or under 2%, and the trace file
   the harness exported must pass [Sunflow_obs.Chrome_trace.validate]
   (i.e. actually load in Perfetto) with the recorded event count.

   Since schema /4 it additionally gates the validation layer: the
   harness must have run the [Sunflow_check] plan validator and the
   differential switch oracle on non-trivial inputs, with zero
   violations.

   Since schema /5 it gates the incremental replanning engine: every
   replayed trace must carry all three engine rows (full, rebuild,
   incremental) with the rebuild and incremental digests identical —
   the suffix-only engine is bit-equal to its from-scratch oracle at
   benchmark scale — and on the full harness's >= 50k-Coflow synthetic
   trace the incremental engine must beat full replanning by at least
   2x wall time.

   Since schema /6 the replay rows carry a bucket count and the gates
   sharpen: wherever a rebuild row exists for a (trace, policy,
   buckets) configuration its incremental digest must match, every
   (trace, policy) pair must carry at least one such verified pair,
   the >= 50k Fifo replay must hold the PR 5 regression floor of 3.5x
   incremental-over-full, the >= 50k Shortest-first replay must show
   the bucketed engine at least 2.5x faster than full replanning, and
   the recorded mean CCT drift of the bucketed order against the exact
   shortest-first run must stay within the 10% fidelity budget.

   Since schema /7 it gates the sharded simulation core: the pod-local
   storm must have replayed at shards = 1 and at several sharded
   widths with every digest identical (bit-identity across shard
   counts at benchmark scale), the cross-shard conflict rate must be
   recomputable from its inputs and stay at or under 15% on every
   sharded row, and — full harness only — the best sharded run must
   beat shards = 1 by at least 1.3x replan wall-clock and 1.15x
   end-to-end, single-domain.

   Since schema /8 it gates the CCT attribution engine: the report
   section must have replayed the settings trace under the anchored
   engine variants (incremental, rebuild, and a sharded run) with the
   report body digesting identically across all of them and zero
   attribution-conservation violations, and the exported report file
   itself must validate — schema sunflow-report/1, the aggregate
   blame components summing to the total CCT, every CDF's quantiles
   non-decreasing over non-decreasing fractions, per-port utilization
   and reconfiguring fractions in [0, 1], and every slowest-Coflow
   row conserving (wait + setup + transfer + blocked = CCT) with its
   blame vector summing to its blocked time.

   Since schema /10 it gates the footprint-epoch plan cache and the
   schedule kernel: the SCF storm must have replayed cache-off and
   cache-on (one cold populate run, then warm runs on the shared
   handle) with every row's Sim_result digest identical — the cache
   may change when the answer is computed, never the answer — the
   warm hit rate over 50%, and — full harness only — the warm replan
   wall at least 1.3x faster than cache-off; and the steady-state
   Sunflow.schedule microbench must hold its ns/schedule and
   minor-words/schedule under ceilings set with ~2x headroom over the
   measured baseline, so an accidental per-call allocation in the
   kernel's hot path moves a gated number.

   Since schema /11 the plan cache section and its gate are gone with
   the cache itself (it could not hit within one run); the kernel
   microbench and its ceilings stay.

   Still /11: the serve row's journal-length gate is gone with the PRT
   undo journal it watched (a file that still carries the field is
   accepted, the field is just not read); the pinning it guarded
   against is covered by a Weak-pointer test on the engine's retired
   reservation records. *)

type json = Sunflow_obs.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let parse s =
  match Sunflow_obs.Json.of_string s with Ok v -> v | Error m -> bad "%s" m

(* --- schema checks --- *)

let field obj key =
  match obj with
  | Obj members -> (
    match List.assoc_opt key members with
    | Some v -> v
    | None -> bad "missing key %S" key)
  | _ -> bad "expected an object holding %S" key

let as_arr what = function Arr l -> l | _ -> bad "%s: expected an array" what

let as_str what = function Str s -> s | _ -> bad "%s: expected a string" what

let as_num what = function
  | Num v -> v
  | _ -> bad "%s: expected a number" what

let check_counter what v =
  let x = as_num what v in
  if Float.of_int (Float.to_int x) <> x || x < 0. then
    bad "%s: expected a non-negative integer, got %g" what x

let check_prt_stats what v =
  List.iter
    (fun key -> check_counter (what ^ "." ^ key) (field v key))
    [ "queries"; "scans"; "reservations"; "rollbacks" ]

let as_str_opt what = function
  | Str s -> Some s
  | Null -> None
  | _ -> bad "%s: expected a string or null" what

let check_parallel root domains =
  let rows = as_arr "parallel" (field root "parallel") in
  if domains <= 1 && rows <> [] then
    bad "parallel: rows recorded despite domains = %d" domains;
  let names =
    List.map
      (fun row ->
        let name = as_str "parallel.name" (field row "name") in
        let wall_par = as_num (name ^ ".wall_par_s") (field row "wall_par_s") in
        let wall_seq = as_num (name ^ ".wall_seq_s") (field row "wall_seq_s") in
        let speedup = as_num (name ^ ".speedup") (field row "speedup") in
        if wall_par <= 0. || wall_seq <= 0. then
          bad "%s: non-positive wall time" name;
        if Float.abs (speedup -. (wall_seq /. wall_par)) > 1e-6 *. speedup then
          bad "%s: speedup does not match the recorded wall times" name;
        let dp = as_str_opt (name ^ ".digest_par") (field row "digest_par") in
        let ds = as_str_opt (name ^ ".digest_seq") (field row "digest_seq") in
        (match (dp, ds) with
        | Some a, Some b ->
          if a <> b then
            bad
              "%s: parallel output digest %S differs from sequential %S — the \
               parallel run is not bit-identical"
              name a b
        | None, None -> ()
        | _ -> bad "%s: digest_par/digest_seq must be both set or both null" name);
        (name, dp))
      rows
  in
  if domains > 1 then
    (* the determinism gate only means something if the deterministic
       reports actually took part *)
    List.iter
      (fun required ->
        match List.assoc_opt required names with
        | Some (Some _) -> ()
        | Some None -> bad "parallel.%s: expected a digest pair" required
        | None -> bad "parallel: missing the %S determinism row" required)
      [ "fig8"; "baseline-gap" ]

(* The obs section: overhead gate plus trace-file validation. The
   ratio is recomputed from its inputs so the emitter cannot game the
   gate; [json_dir] anchors the relative trace path next to the JSON
   file itself (where the dune rule puts both). *)
let check_obs root json_dir =
  match field root "obs" with
  | Null -> bad "obs: missing — the harness did not run the obs section"
  | obs ->
    let ns = as_num "obs.disabled_ns_per_probe" (field obs "disabled_ns_per_probe") in
    if ns <= 0. then bad "obs.disabled_ns_per_probe: non-positive (%g)" ns;
    if ns > 1000. then
      bad "obs.disabled_ns_per_probe: %g ns — a disabled probe should be branch-cheap" ns;
    let wall_disabled = as_num "obs.wall_disabled_s" (field obs "wall_disabled_s") in
    let wall_enabled = as_num "obs.wall_enabled_s" (field obs "wall_enabled_s") in
    if wall_disabled <= 0. || wall_enabled <= 0. then
      bad "obs: non-positive workload wall time";
    let events =
      let x = as_num "obs.enabled_events" (field obs "enabled_events") in
      if Float.of_int (Float.to_int x) <> x || x <= 0. then
        bad "obs.enabled_events: expected a positive integer, got %g" x;
      Float.to_int x
    in
    let ratio =
      as_num "obs.disabled_overhead_ratio" (field obs "disabled_overhead_ratio")
    in
    let recomputed = float_of_int events *. ns /. (wall_disabled *. 1e9) in
    if Float.abs (ratio -. recomputed) > 1e-6 *. Float.max ratio recomputed then
      bad "obs.disabled_overhead_ratio: %g does not match its inputs (%g)"
        ratio recomputed;
    if ratio > 0.02 then
      bad
        "obs.disabled_overhead_ratio: %.4f%% exceeds the 2%% disabled-path \
         budget"
        (100. *. ratio);
    let trace_file = as_str "obs.trace_file" (field obs "trace_file") in
    let trace_path =
      if Filename.is_relative trace_file then
        Filename.concat json_dir trace_file
      else trace_file
    in
    let trace =
      match
        let ic = open_in_bin trace_path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | content -> content
      | exception Sys_error msg -> bad "obs.trace_file: unreadable: %s" msg
    in
    (match Sunflow_obs.Chrome_trace.validate trace with
    | Error msg -> bad "obs.trace_file %s: invalid Chrome trace: %s" trace_path msg
    | Ok n ->
      if n <> events then
        bad "obs.trace_file %s: %d events in the file, %d recorded in the JSON"
          trace_path n events)

(* The validation section (schema /4): the harness ran the plan
   validator and the differential switch oracle, both on non-trivial
   inputs, and neither reported a violation. *)
let check_check root =
  match field root "check" with
  | Null -> bad "check: missing — the harness did not run the validation layer"
  | ck ->
    let nat what =
      let x = as_num what (field ck what) in
      if Float.of_int (Float.to_int x) <> x || x < 0. then
        bad "check.%s: expected a non-negative integer, got %g" what x;
      Float.to_int x
    in
    if nat "plans" = 0 then bad "check.plans: no plans were validated";
    if nat "traces" = 0 then bad "check.traces: the oracle replayed nothing";
    if nat "compared" = 0 then bad "check.compared: no finish was compared";
    let pv = nat "plan_violations" and ov = nat "oracle_violations" in
    if pv > 0 then bad "check.plan_violations: %d plan invariants broken" pv;
    if ov > 0 then
      bad "check.oracle_violations: %d simulator/switch divergences" ov;
    let worst = as_num "check.worst_err_s" (field ck "worst_err_s") in
    if not (Float.is_finite worst) || worst < 0. then
      bad "check.worst_err_s: expected a finite non-negative gap, got %g" worst

(* The replay section (schema /6): full vs rebuild vs incremental
   replanning on each trace, now per bucket configuration. Rebuild is
   the incremental engine's differential oracle, so wherever both run
   the same (trace, policy, buckets) cell their digests must match
   exactly; full mode's digest is informational (its semantics drift
   from the anchored modes in the last float bits by design). A
   non-fast emission must carry the >= 50k-Coflow trace twice: under
   Fifo, holding the PR 5 floor of 3.5x incremental-over-full, and
   under Shortest-first, where the bucketed engine must beat full
   replanning by at least 2.5x. *)

type replay_cell = {
  r_trace : string;
  r_policy : string;
  r_mode : string;
  r_buckets : int;
  r_n : int;
  r_wall : float;
  r_digest : string;
}

let check_replay root fast =
  let rows = as_arr "replay" (field root "replay") in
  if rows = [] then bad "replay: empty";
  let parsed =
    List.map
      (fun row ->
        let r_trace = as_str "replay.trace" (field row "trace") in
        let r_policy = as_str (r_trace ^ ".policy") (field row "policy") in
        if r_policy = "" then bad "replay.%s.policy: empty" r_trace;
        let r_mode = as_str (r_trace ^ ".mode") (field row "mode") in
        let r_buckets =
          let x = as_num (r_trace ^ ".buckets") (field row "buckets") in
          if Float.of_int (Float.to_int x) <> x || x < 0. then
            bad "replay.%s.buckets: expected a non-negative integer, got %g"
              r_trace x;
          Float.to_int x
        in
        let what =
          Printf.sprintf "replay.%s.%s.%s/b=%d" r_trace r_policy r_mode
            r_buckets
        in
        if r_mode = "full" && r_buckets <> 0 then
          bad "%s: full replanning has no bucketed order" what;
        let r_n =
          let x = as_num (what ^ ".n_coflows") (field row "n_coflows") in
          if Float.of_int (Float.to_int x) <> x || x <= 0. then
            bad "%s.n_coflows: expected a positive integer, got %g" what x;
          Float.to_int x
        in
        let r_wall = as_num (what ^ ".wall_s") (field row "wall_s") in
        if r_wall <= 0. then bad "%s: non-positive wall time" what;
        let events =
          let x = as_num (what ^ ".events") (field row "events") in
          if Float.of_int (Float.to_int x) <> x || x <= 0. then
            bad "%s.events: expected a positive integer, got %g" what x;
          Float.to_int x
        in
        let eps = as_num (what ^ ".events_per_s") (field row "events_per_s") in
        let recomputed = float_of_int events /. r_wall in
        if Float.abs (eps -. recomputed) > 1e-6 *. Float.max eps recomputed
        then
          bad "%s.events_per_s: %g does not match its inputs (%g)" what eps
            recomputed;
        let r_digest = as_str (what ^ ".digest") (field row "digest") in
        if r_digest = "" then bad "%s.digest: empty" what;
        { r_trace; r_policy; r_mode; r_buckets; r_n; r_wall; r_digest })
      rows
  in
  let pairs =
    List.sort_uniq compare
      (List.map (fun r -> (r.r_trace, r.r_policy)) parsed)
  in
  let cells trace policy mode =
    List.filter
      (fun r -> r.r_trace = trace && r.r_policy = policy && r.r_mode = mode)
      parsed
  in
  let cell trace policy mode buckets =
    List.find_opt (fun r -> r.r_buckets = buckets) (cells trace policy mode)
  in
  List.iter
    (fun (trace, policy) ->
      if cells trace policy "full" = [] then
        bad "replay.%s.%s: missing the full-replanning baseline row" trace
          policy;
      let rebuilds = cells trace policy "rebuild" in
      if rebuilds = [] then
        bad "replay.%s.%s: missing a rebuild oracle row" trace policy;
      List.iter
        (fun rb ->
          match cell trace policy "incremental" rb.r_buckets with
          | None ->
            bad
              "replay.%s.%s: rebuild ran at buckets=%d but the incremental \
               engine did not"
              trace policy rb.r_buckets
          | Some inc ->
            if inc.r_digest <> rb.r_digest then
              bad
                "replay.%s.%s/b=%d: incremental digest %S differs from its \
                 rebuild oracle %S — the rollback/splice machinery corrupted \
                 the replay"
                trace policy rb.r_buckets inc.r_digest rb.r_digest)
        rebuilds)
    pairs;
  if not fast then begin
    let big policy =
      List.filter
        (fun r -> r.r_mode = "full" && r.r_policy = policy && r.r_n >= 50_000)
        parsed
    in
    let gate policy pick_buckets floor =
      let fulls = big policy in
      if fulls = [] then
        bad
          "replay: a full (non-fast) run must include a >= 50k-Coflow %s \
           trace"
          policy;
      List.iter
        (fun full ->
          let incs =
            List.filter pick_buckets
              (cells full.r_trace full.r_policy "incremental")
          in
          if incs = [] then
            bad "replay.%s.%s: no incremental row to gate against" full.r_trace
              policy;
          List.iter
            (fun inc ->
              let speedup = full.r_wall /. inc.r_wall in
              if speedup < floor then
                bad
                  "replay.%s.%s/b=%d: incremental speedup %.2fx over full \
                   replanning is below the %.1fx gate"
                  full.r_trace policy inc.r_buckets speedup floor)
            incs)
        fulls
    in
    (* Fifo: the PR 5 regression floor, exact order *)
    gate "fifo" (fun r -> r.r_buckets = 0) 3.5;
    (* Shortest-first: the adversarial case the buckets exist for *)
    gate "scf" (fun r -> r.r_buckets > 0) 2.5
  end

(* The SCF drift record (schema /6): what the bucketed order costs in
   schedule fidelity against the exact shortest-first run, on the same
   trace the speedup gate measures. The mean CCT inflation is gated;
   the per-Coflow worst case is recorded but not gated (a single
   Coflow demoted to the back of its class can legitimately wait out
   the whole bucket). *)
let check_scf_drift root =
  match field root "scf_drift" with
  | Null -> bad "scf_drift: missing — the harness did not run the SCF replay"
  | d ->
    let buckets =
      let x = as_num "scf_drift.buckets" (field d "buckets") in
      if Float.of_int (Float.to_int x) <> x || x <= 0. then
        bad "scf_drift.buckets: expected a positive integer, got %g" x;
      Float.to_int x
    in
    ignore buckets;
    let coflows =
      let x = as_num "scf_drift.coflows" (field d "coflows") in
      if Float.of_int (Float.to_int x) <> x || x <= 0. then
        bad "scf_drift.coflows: expected a positive integer, got %g" x;
      Float.to_int x
    in
    ignore coflows;
    let exact = as_num "scf_drift.mean_cct_exact_s" (field d "mean_cct_exact_s") in
    let bucketed =
      as_num "scf_drift.mean_cct_bucketed_s" (field d "mean_cct_bucketed_s")
    in
    if exact <= 0. || bucketed <= 0. then
      bad "scf_drift: non-positive mean CCT (exact %g, bucketed %g)" exact
        bucketed;
    let rel_mean = as_num "scf_drift.rel_mean" (field d "rel_mean") in
    let recomputed = (bucketed -. exact) /. exact in
    if Float.abs (rel_mean -. recomputed) > 1e-6 *. Float.max 1. (Float.abs rel_mean)
    then
      bad "scf_drift.rel_mean: %g does not match its inputs (%g)" rel_mean
        recomputed;
    let max_rel = as_num "scf_drift.max_rel" (field d "max_rel") in
    if not (Float.is_finite max_rel) then bad "scf_drift.max_rel: not finite";
    if max_rel < rel_mean -. 1e-9 then
      bad "scf_drift.max_rel: %g below the mean %g" max_rel rel_mean;
    if rel_mean > 0.10 then
      bad
        "scf_drift.rel_mean: bucketed order inflates mean CCT by %.2f%%, \
         over the 10%% fidelity budget"
        (100. *. rel_mean)

(* The sharded engine (schema /7): bit-identity across shard counts,
   a bounded cross-shard conflict rate, and the single-domain speedup
   floors. The replan-wall floor (1.3x) sits on the time the sharding
   actually attacks — the per-event scheduling work — while the
   end-to-end floor (1.15x) keeps the win visible through the
   fixed simulation-loop costs every shard count shares. Both compare
   shards = 1 against the best sharded row, and both are skipped in
   fast mode (the smoke trace is too small to time meaningfully). *)
let check_shards root fast =
  match field root "shards" with
  | Null -> bad "shards: missing — the harness did not run the shard section"
  | sh ->
    List.iter
      (fun key ->
        check_counter ("shards." ^ key) (field sh key))
      [ "pods"; "pod_size"; "coflows"; "reps" ];
    let rows =
      List.map
        (fun row ->
          let shards =
            let x = as_num "shards.rows.shards" (field row "shards") in
            if Float.of_int (Float.to_int x) <> x || x < 1. then
              bad "shards.rows.shards: expected a positive integer, got %g" x;
            Float.to_int x
          in
          let what fmt = Printf.sprintf "shards.rows[%d].%s" shards fmt in
          let wall = as_num (what "wall_s") (field row "wall_s") in
          let plan = as_num (what "plan_s") (field row "plan_s") in
          if wall <= 0. || plan <= 0. then
            bad "%s: non-positive wall time" (what "wall_s/plan_s");
          if plan > wall then
            bad "%s: replan wall %g exceeds the end-to-end wall %g"
              (what "plan_s") plan wall;
          List.iter
            (fun key -> check_counter (what key) (field row key))
            [ "events"; "steps"; "conflicts"; "rollbacks" ];
          let steps = as_num (what "steps") (field row "steps") in
          let conflicts = as_num (what "conflicts") (field row "conflicts") in
          let rate = as_num (what "conflict_rate") (field row "conflict_rate") in
          let recomputed = if steps = 0. then 0. else conflicts /. steps in
          if Float.abs (rate -. recomputed) > 1e-9 then
            bad "%s: %g does not match conflicts/steps (%g)"
              (what "conflict_rate") rate recomputed;
          (shards, wall, plan, rate, as_str (what "digest") (field row "digest")))
        (as_arr "shards.rows" (field sh "rows"))
    in
    let base =
      match List.filter (fun (s, _, _, _, _) -> s = 1) rows with
      | [ b ] -> b
      | [] -> bad "shards.rows: no shards = 1 baseline row"
      | _ -> bad "shards.rows: duplicate shards = 1 rows"
    in
    let sharded = List.filter (fun (s, _, _, _, _) -> s > 1) rows in
    if sharded = [] then bad "shards.rows: no sharded rows";
    let _, base_wall, base_plan, _, base_digest = base in
    List.iter
      (fun (s, _, _, rate, digest) ->
        if digest <> base_digest then
          bad
            "shards.rows[%d]: digest %S differs from the shards = 1 baseline \
             %S — the sharded engine is not bit-identical"
            s digest base_digest;
        if rate > 0.15 then
          bad
            "shards.rows[%d]: cross-shard conflict rate %.3f is over the \
             0.15 ceiling — the trace is not shard-local-heavy"
            s rate)
      sharded;
    if not fast then begin
      let best f =
        List.fold_left (fun a r -> Float.min a (f r)) infinity sharded
      in
      let plan_speedup = base_plan /. best (fun (_, _, p, _, _) -> p) in
      if plan_speedup < 1.3 then
        bad
          "shards: best sharded replan speedup %.2fx is below the 1.3x gate"
          plan_speedup;
      let wall_speedup = base_wall /. best (fun (_, w, _, _, _) -> w) in
      if wall_speedup < 1.15 then
        bad
          "shards: best sharded end-to-end speedup %.2fx is below the 1.15x \
           gate"
          wall_speedup
    end

(* The kernel microbench (schema /10): steady-state Sunflow.schedule
   against a persistent table. Ceilings sit ~2x over the measured
   baseline — loose enough for machine noise, tight enough that a
   per-call allocation slipping into the probe loop or the DLS sweep
   (which multiplies minor words by the flow count) trips them. *)
let check_kernel root =
  match field root "kernel" with
  | Null -> bad "kernel: missing — the harness did not run the microbench"
  | k ->
    check_counter "kernel.ports" (field k "ports");
    check_counter "kernel.iters" (field k "iters");
    if as_num "kernel.iters" (field k "iters") <= 0. then
      bad "kernel.iters: the microbench ran no iterations";
    let ns = as_num "kernel.ns_per_schedule" (field k "ns_per_schedule") in
    if ns <= 0. then bad "kernel.ns_per_schedule: non-positive (%g)" ns;
    if ns > 100_000. then
      bad "kernel.ns_per_schedule: %.0f ns is over the 100000 ns ceiling" ns;
    let mw =
      as_num "kernel.minor_words_per_schedule"
        (field k "minor_words_per_schedule")
    in
    if mw < 0. then bad "kernel.minor_words_per_schedule: negative (%g)" mw;
    if mw > 14_000. then
      bad
        "kernel.minor_words_per_schedule: %.0f words is over the 14000-word \
         ceiling — the kernel is allocating per call beyond its output"
        mw

(* The report section (schema /8): body digests byte-identical across
   the anchored engine variants, zero conservation violations, and the
   exported sunflow-report file well-formed with its internal
   invariants holding. Tolerances are loose relative to the per-Coflow
   checker's (the aggregates sum float error over every Coflow). *)
let check_report root json_dir =
  match field root "report" with
  | Null -> bad "report: missing — the harness did not run the report section"
  | rp ->
    let file = as_str "report.file" (field rp "file") in
    check_counter "report.coflows" (field rp "coflows");
    if as_num "report.coflows" (field rp "coflows") <= 0. then
      bad "report.coflows: the report covered no Coflows";
    check_counter "report.samples" (field rp "samples");
    if as_num "report.samples" (field rp "samples") <= 0. then
      bad "report.samples: the telemetry sampler recorded nothing";
    let rows =
      List.map
        (fun row ->
          let variant = as_str "report.rows.variant" (field row "variant") in
          let what key = Printf.sprintf "report.rows[%s].%s" variant key in
          let replan = as_str (what "replan") (field row "replan") in
          if not (List.mem replan [ "incremental"; "rebuild" ]) then
            bad
              "%s: %S — only the anchored modes are byte-stable (full drifts \
               by design)"
              (what "replan") replan;
          let shards =
            let x = as_num (what "shards") (field row "shards") in
            if Float.of_int (Float.to_int x) <> x || x < 1. then
              bad "%s: expected a positive integer, got %g" (what "shards") x;
            Float.to_int x
          in
          let wall = as_num (what "wall_s") (field row "wall_s") in
          if wall <= 0. then bad "%s: non-positive wall time" (what "wall_s");
          let digest = as_str (what "body_digest") (field row "body_digest") in
          if digest = "" then bad "%s: empty" (what "body_digest");
          let violations =
            let x = as_num (what "violations") (field row "violations") in
            if Float.of_int (Float.to_int x) <> x || x < 0. then
              bad "%s: expected a non-negative integer, got %g"
                (what "violations") x;
            Float.to_int x
          in
          if violations > 0 then
            bad "%s: %d attribution-conservation violations"
              (what "violations") violations;
          (variant, replan, shards, digest))
        (as_arr "report.rows" (field rp "rows"))
    in
    List.iter
      (fun required ->
        if not (List.exists (fun (_, r, _, _) -> r = required) rows) then
          bad "report.rows: missing the %S variant" required)
      [ "incremental"; "rebuild" ];
    if not (List.exists (fun (_, _, s, _) -> s > 1) rows) then
      bad "report.rows: no sharded variant";
    (match rows with
    | (v0, _, _, d0) :: rest ->
      List.iter
        (fun (v, _, _, d) ->
          if d <> d0 then
            bad
              "report.rows[%s]: body digest %S differs from %s's %S — the \
               report body is not byte-stable across the anchored engine \
               variants"
              v d v0 d0)
        rest
    | [] -> bad "report.rows: empty");
    (* the exported report file itself *)
    let path =
      if Filename.is_relative file then Filename.concat json_dir file
      else file
    in
    let content =
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | content -> content
      | exception Sys_error msg -> bad "report.file: unreadable: %s" msg
    in
    let rep =
      match parse content with
      | v -> v
      | exception Bad msg -> bad "report.file %s: unparseable: %s" path msg
    in
    let schema = as_str "report.schema" (field rep "schema") in
    if schema <> "sunflow-report/1" then
      bad "report.file %s: unknown schema %S" path schema;
    ignore (field rep "run");
    let body = field rep "body" in
    let n_coflows =
      let x = as_num "body.coflows" (field body "coflows") in
      if Float.of_int (Float.to_int x) <> x || x < 0. then
        bad "body.coflows: expected a non-negative integer, got %g" x;
      Float.to_int x
    in
    let makespan = as_num "body.makespan_s" (field body "makespan_s") in
    if makespan <= 0. then bad "body.makespan_s: non-positive (%g)" makespan;
    (* aggregate blame conserves: the per-Coflow slack (1e-6 each)
       summed over every Coflow *)
    let agg_tol = (1e-6 *. float_of_int (max 1 n_coflows)) +. 1e-9 in
    let blame = field body "blame" in
    let bf key = as_num ("body.blame." ^ key) (field blame key) in
    let wait = bf "wait_s" and setup = bf "setup_s" in
    let transfer = bf "transfer_s" and blocked = bf "blocked_s" in
    let total = bf "total_cct_s" in
    List.iter
      (fun (key, v) ->
        if v < -.agg_tol then bad "body.blame.%s: negative (%g)" key v)
      [
        ("wait_s", wait);
        ("setup_s", setup);
        ("transfer_s", transfer);
        ("blocked_s", blocked);
        ("total_cct_s", total);
      ];
    let residual = wait +. setup +. transfer +. blocked -. total in
    if Float.abs residual > agg_tol +. (1e-9 *. Float.abs total) then
      bad
        "body.blame: components sum to %g but total_cct_s is %g (residual %g \
         over the %g slack) — attribution does not conserve"
        (wait +. setup +. transfer +. blocked)
        total residual agg_tol;
    (* every CDF non-decreasing over non-decreasing fractions *)
    List.iter
      (fun bin ->
        let width = as_str "body.cct_cdf.width" (field bin "width") in
        let what = Printf.sprintf "body.cct_cdf[%s]" width in
        if as_num (what ^ ".count") (field bin "count") <= 0. then
          bad "%s.count: empty bin emitted" what;
        let qs =
          List.map
            (fun pt ->
              ( as_num (what ^ ".q") (field pt "q"),
                as_num (what ^ ".cct_s") (field pt "cct_s") ))
            (as_arr (what ^ ".quantiles") (field bin "quantiles"))
        in
        if qs = [] then bad "%s.quantiles: empty" what;
        ignore
          (List.fold_left
             (fun prev (q, cct) ->
               (match prev with
               | Some (pq, pc) ->
                 if q < pq then bad "%s: fractions not sorted" what;
                 if cct < pc -. 1e-12 then
                   bad "%s: quantiles decrease (%g at q=%g after %g at q=%g)"
                     what cct q pc pq
               | None -> ());
               if cct < 0. then bad "%s: negative CCT quantile %g" what cct;
               Some (q, cct))
             None qs))
      (as_arr "body.cct_cdf" (field body "cct_cdf"));
    (* per-port duty-cycle fractions in [0, 1] *)
    List.iter
      (fun pr ->
        let port = as_str "body.ports.port" (field pr "port") in
        let what key = Printf.sprintf "body.ports[%s].%s" port key in
        let util = as_num (what "utilization") (field pr "utilization") in
        let reconf = as_num (what "reconfiguring") (field pr "reconfiguring") in
        List.iter
          (fun (key, v) ->
            if v < 0. || v > 1. +. 1e-9 then
              bad "%s: %g outside [0, 1]" (what key) v)
          [ ("utilization", util); ("reconfiguring", reconf) ];
        if util +. reconf > 1. +. 1e-6 then
          bad
            "body.ports[%s]: busy + reconfiguring duty cycle %g exceeds 1 — \
             the port's reservations overlap"
            port (util +. reconf))
      (as_arr "body.ports" (field body "ports"));
    (* slowest rows conserve individually, blame sums to blocked *)
    List.iter
      (fun row ->
        let id =
          let x = as_num "body.slowest.coflow" (field row "coflow") in
          Float.to_int x
        in
        let what key = Printf.sprintf "body.slowest[%d].%s" id key in
        let f key = as_num (what key) (field row key) in
        let cct = f "cct_s" in
        let sum = f "wait_s" +. f "setup_s" +. f "transfer_s" +. f "blocked_s" in
        if Float.abs (sum -. cct) > 1e-6 +. (1e-9 *. Float.abs cct) then
          bad "%s: components sum to %g, cct_s is %g" (what "cct_s") sum cct;
        let blame_sum =
          List.fold_left
            (fun acc b -> acc +. as_num (what "blame.seconds") (field b "seconds"))
            0.
            (as_arr (what "blame") (field row "blame"))
        in
        if Float.abs (blame_sum -. f "blocked_s") > 1e-6 then
          bad "%s: blame vector sums to %g, blocked_s is %g" (what "blame")
            blame_sum (f "blocked_s"))
      (as_arr "body.slowest" (field body "slowest"))

let check_serve root fast =
  match field root "serve" with
  | Null -> bad "serve: missing — the harness did not run the serve section"
  | v ->
    let num key = as_num ("serve." ^ key) (field v key) in
    let int key =
      let x = num key in
      if Float.of_int (Float.to_int x) <> x || x < 0. then
        bad "serve.%s: expected a non-negative integer, got %g" key x;
      Float.to_int x
    in
    let coflows = int "coflows" in
    let floor = if fast then 100_000 else 1_000_000 in
    if coflows < floor then
      bad "serve.coflows: %d is below the %d stream-scale floor" coflows floor;
    let arrivals = int "arrivals" in
    if arrivals <> coflows then
      bad "serve.arrivals: %d but the stream carried %d Coflows" arrivals
        coflows;
    let admitted = int "admitted" and rejected = int "rejected" in
    if admitted + rejected <> arrivals then
      bad
        "serve: admitted %d + rejected %d does not conserve the %d arrivals"
        admitted rejected arrivals;
    if int "completed" <> admitted then
      bad "serve.completed: %d admitted Coflows, %d completed" admitted
        (int "completed");
    (* the bounded-memory gates *)
    let max_live = int "max_live" in
    if max_live >= coflows / 100 then
      bad
        "serve.max_live: %d resident engine entries on a %d-Coflow stream — \
         the active-set ceiling (%d) is blown, the loop is not \
         bounded-memory"
        max_live coflows (coflows / 100);
    if num "wall_s" <= 0. then bad "serve.wall_s: non-positive";
    if num "events_per_s" <= 0. then bad "serve.events_per_s: non-positive";
    if num "p99_event_s" < 0. then bad "serve.p99_event_s: negative";
    ignore (int "events");
    (* the checked deadline-mode run *)
    let ck = field v "checked" in
    let cint key =
      let x = as_num ("serve.checked." ^ key) (field ck key) in
      Float.to_int x
    in
    if cint "admitted" + cint "rejected" <> cint "coflows" then
      bad
        "serve.checked: admitted %d + rejected %d does not conserve the %d \
         arrivals"
        (cint "admitted") (cint "rejected") (cint "coflows");
    if cint "violations" <> 0 then
      bad
        "serve.checked.violations: %d — the admitted subset does not pass \
         the conservation check"
        (cint "violations")

let check root json_dir =
  let schema = as_str "schema" (field root "schema") in
  if schema <> "sunflow-bench-prt/11" then bad "unknown schema %S" schema;
  let fast =
    match field root "fast" with
    | Bool b -> b
    | _ -> bad "fast: expected a boolean"
  in
  let domains =
    let x = as_num "domains" (field root "domains") in
    if Float.of_int (Float.to_int x) <> x || x < 1. then
      bad "domains: expected a positive integer, got %g" x;
    Float.to_int x
  in
  check_parallel root domains;
  let settings = field root "settings" in
  ignore (as_num "settings.delta_s" (field settings "delta_s"));
  ignore (as_num "settings.n_coflows" (field settings "n_coflows"));
  let experiments = as_arr "experiments" (field root "experiments") in
  if experiments = [] then bad "experiments: empty";
  List.iter
    (fun row ->
      let name = as_str "experiment.name" (field row "name") in
      let wall = as_num (name ^ ".wall_s") (field row "wall_s") in
      if wall < 0. then bad "%s: negative wall time" name;
      check_prt_stats (name ^ ".prt_stats") (field row "prt_stats"))
    experiments;
  let bechamel = as_arr "bechamel" (field root "bechamel") in
  if bechamel = [] then bad "bechamel: empty";
  let names =
    List.map
      (fun row ->
        let name = as_str "bechamel.name" (field row "name") in
        let ns = as_num (name ^ ".ns_per_run") (field row "ns_per_run") in
        if ns <= 0. then bad "%s: non-positive ns/run" name;
        name)
      bechamel
  in
  let gate = "planning/sunflow/|C|=256" in
  if not (List.mem gate names) then
    bad "bechamel rows lack the %S regression gate" gate;
  check_obs root json_dir;
  check_check root;
  check_replay root fast;
  check_scf_drift root;
  check_shards root fast;
  check_kernel root;
  check_report root json_dir;
  check_serve root fast;
  check_prt_stats "prt_stats" (field root "prt_stats");
  let totals = field root "prt_stats" in
  if as_num "prt_stats.queries" (field totals "queries") <= 0. then
    bad "prt_stats.queries: expected the harness to exercise the PRT"

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_prt.json"
  in
  let content =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match check (parse content) (Filename.dirname path) with
  | () -> Printf.printf "%s: ok\n" path
  | exception Bad msg ->
    Printf.eprintf "%s: INVALID: %s\n" path msg;
    exit 1
