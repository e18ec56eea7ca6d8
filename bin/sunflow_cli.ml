(* The sunflow command-line tool.

   Subcommands:
     gen-trace    synthesise a Facebook-like Coflow trace file
     classify     Table-4 category statistics of a trace
     bounds       per-Coflow lower bounds of a trace
     intra        schedule each Coflow alone: Sunflow vs the baselines
     inter / sim  replay a trace through a chosen fabric/scheduler
     experiments  regenerate the paper's tables and figures
     check        validate plans + run the differential switch oracle
                  (the fuzz leg also proves attribution conservation)
     report       replay a trace with CCT attribution on and render a
                  machine-validatable JSON report (blame breakdown,
                  CCT CDFs by width, per-port utilization)
     gantt        render one Coflow's Sunflow schedule as a Gantt chart
     serve        consume an unbounded arrival stream through the
                  incremental engine, with optional deadline admission

   intra, inter/sim and experiments also take --validate, which runs
   the Sunflow_check plan validator on every plan produced (and the
   conservation checker on every simulator result) and exits non-zero
   on any violation.

   intra, inter/sim, experiments and check take --trace-out FILE
   (Chrome trace-event JSON of the run's scheduler spans, for
   Perfetto / chrome://tracing) and --metrics-out FILE (the metrics
   registry as JSON); inter/sim additionally takes --timeline-out
   FILE (the per-Coflow simulated-time timeline as CSV, or JSON when
   FILE ends in .json); report takes --samples-out FILE (per-slice
   telemetry samples as JSON Lines). *)

open Cmdliner
module Units = Sunflow_core.Units
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Bounds = Sunflow_core.Bounds
module Inter = Sunflow_core.Inter
module Trace = Sunflow_trace.Trace
module Synthetic = Sunflow_trace.Synthetic
module Workload = Sunflow_trace.Workload
module D = Sunflow_stats.Descriptive
module Obs = Sunflow_obs
module Check = Sunflow_check
module Serve = Sunflow_serve.Serve

(* --- shared options --- *)

let bandwidth_arg =
  let doc = "Link rate in Gbps." in
  Arg.(value & opt float 1. & info [ "b"; "bandwidth" ] ~docv:"GBPS" ~doc)

let delta_arg =
  let doc = "Circuit reconfiguration delay in milliseconds." in
  Arg.(value & opt float 10. & info [ "d"; "delta" ] ~docv:"MS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the per-Coflow scheduling sweeps (default: \
     $(b,SUNFLOW_JOBS), else the machine's recommended domain count). 1 runs \
     sequentially."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let set_jobs jobs = Sunflow_parallel.Pool.set_jobs jobs

let trace_file_arg =
  let doc = "Trace file in the coflow-benchmark format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let load_trace path = Trace.load path
let to_bandwidth gbps = Units.gbps gbps
let to_delta ms = Units.ms ms

let validate_arg =
  let doc =
    "Run the $(b,Sunflow_check) plan validator on every plan produced and \
     the conservation checker on every simulator result; exit 1 on any \
     violation."
  in
  Arg.(value & flag & info [ "validate" ] ~doc)

(* Print a validation section; [true] when anything is broken. The
   caller decides when to [exit 1] — after the obs exports are
   written, so --validate composes with --trace-out. *)
let report_violations ~what vs =
  Format.printf "%s: %a@." what Check.Violation.pp_report vs;
  vs <> []

(* --- observability exports --- *)

let trace_out_arg =
  let doc =
    "Record scheduler spans and write them as Chrome trace-event JSON to \
     $(docv) (open in Perfetto or chrome://tracing)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc = "Write the metrics registry (counters, gauges, histograms) as JSON to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let timeline_out_arg =
  let doc =
    "Write the per-Coflow timeline (arrival, circuit setups with their \
     reconfiguration delay, flow finishes, CCT) to $(docv): JSON when $(docv) \
     ends in .json, CSV otherwise."
  in
  Arg.(
    value & opt (some string) None & info [ "timeline-out" ] ~docv:"FILE" ~doc)

(* Flush-on-interrupt: a SIGINT mid-run used to kill the process with
   every buffered export (--trace-out / --metrics-out / --timeline-out
   / --samples-out) silently dropped. Commands that buffer telemetry
   park their export writer here; the handler drains it, then dies
   with the conventional 128 + SIGINT. *)
let sigint_flush : (unit -> unit) ref = ref (fun () -> ())

let install_sigint_flush () =
  try
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           !sigint_flush ();
           exit 130))
  with Invalid_argument _ | Sys_error _ ->
    (* platform without SIGINT handling — nothing to install *)
    ()

(* Enable the obs layer around [f] when any export was requested, and
   write the requested files afterwards. Without flags, [f] runs with
   observability fully disabled (the default single-branch path). *)
let with_obs ?timeline_out ~trace_out ~metrics_out f =
  let timeline_out = Option.join timeline_out in
  let wanted =
    trace_out <> None || metrics_out <> None || timeline_out <> None
  in
  let write_exports () =
    Obs.Control.set_enabled false;
    Option.iter
      (fun path ->
        Obs.Io.write_file path (Obs.Tracer.to_chrome_json ());
        Format.printf "wrote %d trace events to %s (load in Perfetto)@."
          (Obs.Tracer.event_count ()) path;
        let d = Obs.Tracer.dropped () in
        if d > 0 then
          Format.eprintf
            "warning: %d span events were dropped (per-domain buffer cap) — \
             the trace written to %s is truncated@."
            d path)
      trace_out;
    Option.iter
      (fun path ->
        Obs.Io.write_file path (Obs.Registry.to_json (Obs.Registry.snapshot ()));
        Format.printf "wrote metrics to %s@." path)
      metrics_out;
    Option.iter
      (fun path ->
        let contents =
          if Filename.check_suffix path ".json" then Obs.Timeline.to_json ()
          else Obs.Timeline.to_csv ()
        in
        Obs.Io.write_file path contents;
        Format.printf "wrote per-Coflow timeline to %s@." path)
      timeline_out
  in
  if wanted then begin
    Obs.Control.set_enabled true;
    Obs.Tracer.clear ();
    Obs.Timeline.clear ();
    sigint_flush := write_exports;
    install_sigint_flush ()
  end;
  let result = f () in
  if wanted then begin
    sigint_flush := (fun () -> ());
    write_exports ()
  end;
  result

(* --- gen-trace --- *)

let gen_trace out seed n_coflows n_ports span perturb pods pod_size cross_frac
    =
  let trace =
    if pods > 0 then
      Synthetic.pods
        {
          Synthetic.default_pod_params with
          p_seed = seed;
          p_pods = pods;
          p_pod_size = pod_size;
          p_coflows = n_coflows;
          p_span = span;
          p_cross_frac = cross_frac;
          p_width_max =
            min Synthetic.default_pod_params.p_width_max
              (max 1 (pod_size / 2));
        }
    else
      Synthetic.generate
        { Synthetic.default_params with seed; n_coflows; n_ports; span }
  in
  let trace =
    if perturb then Workload.perturb ~seed:(seed + 1) trace else trace
  in
  Trace.save out trace;
  Format.printf "wrote %d Coflows (%a) to %s@." (Trace.n_coflows trace)
    Units.pp_bytes (Trace.total_bytes trace) out

let gen_trace_cmd =
  let out =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output trace file.")
  in
  let seed =
    Arg.(value & opt int Synthetic.default_params.seed & info [ "seed" ] ~doc:"RNG seed.")
  in
  let n =
    Arg.(
      value
      & opt int Synthetic.default_params.n_coflows
      & info [ "coflows" ] ~doc:"Number of Coflows.")
  in
  let ports =
    Arg.(
      value
      & opt int Synthetic.default_params.n_ports
      & info [ "ports" ] ~doc:"Fabric port count.")
  in
  let span =
    Arg.(
      value
      & opt float Synthetic.default_params.span
      & info [ "span" ] ~doc:"Arrival window in seconds.")
  in
  let perturb =
    Arg.(value & flag & info [ "perturb" ] ~doc:"Apply the +-5% size perturbation.")
  in
  let pods =
    Arg.(
      value & opt int 0
      & info [ "pods" ] ~docv:"P"
          ~doc:
            "Generate a pod-local storm instead of the Facebook-like mix: \
             $(docv) pods of $(b,--pod-size) consecutive ports, almost every \
             Coflow an intra-pod shuffle, a $(b,--cross-frac) fraction \
             cross-pod. $(b,0) (the default) keeps the Facebook-like \
             generator, for which $(b,--ports) sizes the fabric.")
  in
  let pod_size =
    Arg.(
      value
      & opt int Synthetic.default_pod_params.p_pod_size
      & info [ "pod-size" ] ~docv:"W"
          ~doc:"Ports per pod (with $(b,--pods)).")
  in
  let cross_frac =
    Arg.(
      value
      & opt float Synthetic.default_pod_params.p_cross_frac
      & info [ "cross-frac" ] ~docv:"F"
          ~doc:"Fraction of cross-pod Coflows (with $(b,--pods)).")
  in
  Cmd.v
    (Cmd.info "gen-trace" ~doc:"Synthesise a Facebook-like Coflow trace file.")
    Term.(
      const gen_trace $ out $ seed $ n $ ports $ span $ perturb $ pods
      $ pod_size $ cross_frac)

(* --- classify --- *)

let classify path =
  let trace = load_trace path in
  Format.printf "%-6s %8s %9s %12s %8s@." "cat" "coflows" "coflow%" "bytes"
    "bytes%";
  List.iter
    (fun (s : Workload.class_stat) ->
      Format.printf "%-6s %8d %8.1f%% %12s %7.3f%%@."
        (Coflow.Category.to_string s.category)
        s.count s.coflow_pct
        (Format.asprintf "%a" Units.pp_bytes s.bytes)
        s.bytes_pct)
    (Workload.classify trace)

let classify_cmd =
  Cmd.v
    (Cmd.info "classify" ~doc:"Category statistics of a trace (paper Table 4).")
    Term.(const classify $ trace_file_arg)

(* --- bounds --- *)

let bounds path gbps ms =
  let bandwidth = to_bandwidth gbps and delta = to_delta ms in
  let trace = load_trace path in
  Format.printf "%5s %5s %10s %10s %8s@." "id" "|C|" "TpL" "TcL" "alpha";
  List.iter
    (fun (c : Coflow.t) ->
      if not (Demand.is_empty c.demand) then
        Format.printf "%5d %5d %9.3fs %9.3fs %8.3f@." c.id
          (Coflow.n_subflows c)
          (Bounds.packet_lower ~bandwidth c.demand)
          (Bounds.circuit_lower ~bandwidth ~delta c.demand)
          (Bounds.alpha ~bandwidth ~delta c.demand))
    trace.Trace.coflows;
  Format.printf "idleness at %g Gbps: %.1f%%@." gbps
    (100. *. Workload.idleness ~bandwidth trace)

let bounds_cmd =
  Cmd.v
    (Cmd.info "bounds" ~doc:"Per-Coflow lower bounds (paper §2.4).")
    Term.(const bounds $ trace_file_arg $ bandwidth_arg $ delta_arg)

(* --- intra --- *)

let intra path gbps ms jobs validate trace_out metrics_out =
  set_jobs jobs;
  let failed =
    with_obs ~trace_out ~metrics_out @@ fun () ->
  let bandwidth = to_bandwidth gbps and delta = to_delta ms in
  let trace = load_trace path in
  let coflows =
    List.filter
      (fun (c : Coflow.t) -> not (Demand.is_empty c.demand))
      trace.Trace.coflows
  in
  let pmap f = Sunflow_parallel.Pool.run_list f coflows in
  let summary name ratios =
    Format.printf "%-9s CCT/TcL avg=%.2f p95=%.2f max=%.2f@." name
      (D.mean ratios) (D.percentile 95. ratios)
      (snd (D.min_max ratios))
  in
  let vspec = Check.Plan_check.spec ~delta ~bandwidth () in
  let sunflow_data =
    pmap (fun (c : Coflow.t) ->
        let tcl = Bounds.circuit_lower ~bandwidth ~delta c.demand in
        let c0 = { c with Coflow.arrival = 0. } in
        let r = Sunflow_core.Sunflow.schedule ~delta ~bandwidth c0 in
        let violations =
          if validate then Check.Plan_check.intra vspec c0 r else []
        in
        (r.finish /. tcl, violations))
  in
  summary "sunflow" (List.map fst sunflow_data);
  let vfail =
    validate
    && report_violations
         ~what:
           (Printf.sprintf "validate: %d intra plans"
              (List.length sunflow_data))
         (List.concat_map snd sunflow_data)
  in
  List.iter
    (fun (name, run) ->
      let ratios =
        pmap (fun (c : Coflow.t) ->
            let tcl = Bounds.circuit_lower ~bandwidth ~delta c.demand in
            let (o : Sunflow_baselines.Executor.outcome) =
              run ~delta ~bandwidth { c with Coflow.arrival = 0. }
            in
            o.cct /. tcl)
      in
      summary name ratios)
    [
      ("solstice", fun ~delta ~bandwidth c ->
        Sunflow_baselines.Solstice.schedule ~delta ~bandwidth c);
      ("tms", fun ~delta ~bandwidth c ->
        Sunflow_baselines.Tms.schedule ~delta ~bandwidth c);
      ("edmonds", fun ~delta ~bandwidth c ->
        Sunflow_baselines.Edmonds.schedule ~delta ~bandwidth c);
    ];
  vfail
  in
  if failed then exit 1

let intra_cmd =
  Cmd.v
    (Cmd.info "intra"
       ~doc:"Intra-Coflow comparison: every Coflow scheduled alone.")
    Term.(
      const intra $ trace_file_arg $ bandwidth_arg $ delta_arg $ jobs_arg
      $ validate_arg $ trace_out_arg $ metrics_out_arg)

(* --- inter --- *)

let inter path gbps ms scheduler (replan, config) validate csv_out trace_out
    metrics_out timeline_out =
  let bandwidth = to_bandwidth gbps and delta = to_delta ms in
  let trace = load_trace path in
  if trace.Trace.coflows = [] then begin
    Format.eprintf
      "trace %s contains no Coflows — nothing to replay (average CCT would \
       be undefined)@."
      path;
    exit 1
  end;
  let failed =
    with_obs ~timeline_out ~trace_out ~metrics_out @@ fun () ->
  let plan_violations = ref [] and n_plans = ref 0 in
  let on_slice ~t ~t_next:_ ~established ~coflows (plan : _) =
    incr n_plans;
    let sp = Check.Plan_check.spec ~now:t ~established ~delta ~bandwidth () in
    plan_violations :=
      List.rev_append (Check.Plan_check.inter sp ~coflows plan)
        !plan_violations
  in
  let shard_stats =
    ref { Inter.shard_steps = 0; shard_conflicts = 0; shard_rollbacks = 0 }
  in
  let result =
    match scheduler with
    | `Sunflow ->
      Sunflow_sim.Circuit_sim.replay
        ?on_slice:(if validate then Some on_slice else None)
        ~replan ~config ~shard_stats ~delta ~bandwidth trace.Trace.coflows
    | `Varys ->
      Sunflow_sim.Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate
        ~bandwidth trace.Trace.coflows
    | `Aalo ->
      Sunflow_sim.Packet_sim.run
        ~sent_thresholds:
          (Sunflow_sim.Packet_sim.aalo_thresholds
             Sunflow_packet.Aalo.default_params)
        ~scheduler:Sunflow_packet.Aalo.allocate ~bandwidth trace.Trace.coflows
    | `Fair ->
      Sunflow_sim.Packet_sim.run ~scheduler:Sunflow_packet.Fair.allocate
        ~bandwidth trace.Trace.coflows
  in
  Format.printf "%a@." Sunflow_sim.Sim_result.pp result;
  (if config.Inter.shards > 1 then
     let s = !shard_stats in
     Format.printf
       "shards: %d (stripe %d), %d steps, %d conflicts (rate %.3f), %d \
        rollbacks@."
       config.shards config.shard_block s.Inter.shard_steps s.shard_conflicts
       (if s.shard_steps = 0 then 0.
        else float_of_int s.shard_conflicts /. float_of_int s.shard_steps)
       s.shard_rollbacks);
  let vfail =
    validate
    &&
    (* the conservation checker applies to every scheduler; the plan
       validator only to the circuit fabric, whose slices we hooked *)
    let conservation =
      Check.Sim_check.result ~bandwidth ~coflows:trace.Trace.coflows result
    in
    report_violations
      ~what:
        (Printf.sprintf "validate: %d slice plans, conservation" !n_plans)
      (List.rev !plan_violations @ conservation)
  in
  (match csv_out with
  | None -> ()
  | Some path ->
    Obs.Io.write_file path (Sunflow_sim.Sim_result.to_csv result);
    Format.printf "per-Coflow CCTs written to %s@." path);
  vfail
  in
  if failed then exit 1

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-Coflow CCTs as CSV.")

let scheduler_arg =
  let values =
    [ ("sunflow", `Sunflow); ("varys", `Varys); ("aalo", `Aalo); ("fair", `Fair) ]
  in
  Arg.(
    value
    & opt (enum values) `Sunflow
    & info [ "s"; "scheduler" ] ~docv:"SCHED"
        ~doc:"Scheduler: $(b,sunflow) (circuit switch), $(b,varys), $(b,aalo) or $(b,fair) (packet switch).")

let replan_arg =
  let values =
    [ ("full", `Full); ("rebuild", `Rebuild); ("incremental", `Incremental) ]
  in
  Arg.(
    value
    & opt (enum values) `Full
    & info [ "replan" ] ~docv:"MODE"
        ~doc:
          "Replanning engine for the circuit fabric (ignored by the packet \
           schedulers): $(b,full) re-plans every active Coflow at each \
           event, $(b,incremental) reschedules only the priority-order \
           suffix an event invalidates (repairing one persistent \
           reservation table in place), $(b,rebuild) makes the \
           incremental decisions from a fresh table each event — the \
           differential oracle for $(b,incremental).")

(* A knob's flag: parsed by [base], then judged alone by [Inter.config],
   so a value it rejects is a usage error naming the flag. *)
let knob base judge default name ~docv ~doc =
  let parse s =
    Result.bind (Arg.conv_parser base s) (fun v ->
        match judge v with
        | (_ : Inter.config) -> Ok v
        | exception Invalid_argument msg -> Error (`Msg msg))
  in
  Arg.(
    value
    & opt (conv (parse, conv_printer base)) default
    & info [ name ] ~docv ~doc)

let engine_config =
  let d = Inter.default_config in
  let buckets =
    knob Arg.int (fun buckets -> Inter.config ~buckets ()) d.buckets
      "replan-buckets" ~docv:"N"
      ~doc:
        "Coarsen the anchored replan modes' priority order into at most \
         $(docv) exponentially-spaced classes (0 = exact order). Arrivals \
         then invalidate only their own class boundary instead of every \
         Coflow with a marginally larger key; retained plans in later \
         classes are spliced back verbatim when their ports are free. \
         Requires $(b,--replan) $(b,rebuild) or $(b,incremental)."
  in
  let bucket_base =
    knob Arg.float
      (fun bucket_base -> Inter.config ~bucket_base ())
      d.bucket_base "replan-bucket-base" ~docv:"BASE"
      ~doc:
        "Growth factor between successive priority classes under \
         $(b,--replan-buckets) (finite, > 1)."
  in
  let shards =
    knob Arg.int (fun shards -> Inter.config ~shards ()) d.shards "shards"
      ~docv:"S"
      ~doc:
        "Partition the ports into $(docv) shards, each with its own \
         reservation table, and reschedule an event's dirty shards \
         independently (optimistically in parallel when the worker pool \
         has more than one domain). Cross-shard Coflows trigger a \
         deterministic rollback-and-merge pass, so the schedule is \
         bit-identical to $(b,--shards) $(b,1) for every shard count. \
         Requires $(b,--replan) $(b,rebuild) or $(b,incremental)."
  in
  let shard_block =
    knob Arg.int
      (fun shard_block -> Inter.config ~shard_block ())
      d.shard_block "shard-block" ~docv:"W"
      ~doc:
        "Stripe width of the shard map: port $(b,p) lands in shard \
         $(b,p / W mod S). Align with the trace's pod size so pod-local \
         Coflows stay shard-local."
  in
  let make buckets bucket_base shards shard_block =
    Inter.config ~buckets ~bucket_base ~shards ~shard_block ()
  in
  Term.(const make $ buckets $ bucket_base $ shards $ shard_block)

(* [--replan] with the engine knobs; bucketing and sharding need a
   persistent engine to act on *)
let replan_config =
  let check replan (config : Inter.config) =
    let anchored flag =
      `Error (true, flag ^ " requires --replan rebuild or incremental")
    in
    if replan = `Full && config.buckets <> 0 then anchored "--replan-buckets"
    else if replan = `Full && config.shards <> 1 then anchored "--shards"
    else `Ok (replan, config)
  in
  Term.(ret (const check $ replan_arg $ engine_config))

let inter_term =
  Term.(
    const inter $ trace_file_arg $ bandwidth_arg $ delta_arg $ scheduler_arg
    $ replan_config $ validate_arg $ csv_arg $ trace_out_arg $ metrics_out_arg
    $ timeline_out_arg)

let inter_cmd =
  Cmd.v
    (Cmd.info "inter" ~doc:"Replay a trace with arrivals through a fabric.")
    inter_term

(* [sim] is [inter] under the name the observability tooling
   documents; both spellings stay valid. *)
let sim_cmd =
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Replay a trace with arrivals through a fabric (alias of inter).")
    inter_term

(* --- gantt --- *)

let gantt path coflow_id gbps ms =
  let bandwidth = to_bandwidth gbps and delta = to_delta ms in
  let trace = load_trace path in
  match
    List.find_opt
      (fun (c : Coflow.t) -> c.id = coflow_id)
      trace.Trace.coflows
  with
  | None ->
    Format.eprintf "no Coflow %d in %s@." coflow_id path;
    exit 2
  | Some c ->
    let c = { c with Coflow.arrival = 0. } in
    let r = Sunflow_core.Sunflow.schedule ~delta ~bandwidth c in
    Format.printf "%a@.@.%a@.@." Coflow.pp c
      (Sunflow_core.Schedule.pp_gantt ~width:72 ~bandwidth)
      r.reservations;
    Format.printf "CCT %a | TcL %a | TpL %a | %d setups@."
      Units.pp_time r.finish Units.pp_time
      (Bounds.circuit_lower ~bandwidth ~delta c.demand)
      Units.pp_time
      (Bounds.packet_lower ~bandwidth c.demand)
      r.setups

let gantt_cmd =
  let id =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"ID" ~doc:"Coflow id within the trace.")
  in
  Cmd.v
    (Cmd.info "gantt"
       ~doc:"Render one Coflow's Sunflow schedule as a Gantt chart.")
    Term.(const gantt $ trace_file_arg $ id $ bandwidth_arg $ delta_arg)

(* --- experiments --- *)

let experiments names jobs validate trace_out metrics_out =
  set_jobs jobs;
  let failed =
    with_obs ~trace_out ~metrics_out @@ fun () ->
  let module E = Sunflow_experiments in
  let vfail =
    validate
    &&
    (* Prove the schedules behind the tables before printing them:
       every intra plan of the raw trace through the validator, and
       the inter replay of the paper-replica trace through both the
       simulator and the physical switch. *)
    let s = E.Common.default in
    let delta = s.E.Common.delta and bandwidth = s.E.Common.bandwidth in
    let raw = E.Common.raw_trace s in
    let vspec = Check.Plan_check.spec ~delta ~bandwidth () in
    let intra_vs =
      Sunflow_parallel.Pool.run_list
        (fun (c : Coflow.t) ->
          let c0 = { c with Coflow.arrival = 0. } in
          Check.Plan_check.intra vspec c0
            (Sunflow_core.Sunflow.schedule ~delta ~bandwidth c0))
        (List.filter
           (fun (c : Coflow.t) -> not (Demand.is_empty c.demand))
           raw.Trace.coflows)
    in
    let intra_fail =
      report_violations
        ~what:
          (Printf.sprintf "validate: %d intra plans" (List.length intra_vs))
        (List.concat intra_vs)
    in
    let original = E.Common.original_trace s in
    let o =
      Check.Diff_oracle.replay ~delta ~bandwidth
        ~n_ports:original.Trace.n_ports original.Trace.coflows
    in
    let oracle_fail =
      report_violations
        ~what:
          (Printf.sprintf
             "validate: inter replay vs physical switch (%d Coflows \
              compared, worst gap %.3g s)"
             o.Check.Diff_oracle.compared o.Check.Diff_oracle.max_err_s)
        o.Check.Diff_oracle.violations
    in
    intra_fail || oracle_fail
  in
  let all =
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
  let selected =
    match names with
    | [] -> all
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all with
          | Some r -> (n, r)
          | None ->
            Format.eprintf "unknown experiment %S; known: %s@." n
              (String.concat ", " (List.map fst all));
            exit 2)
        names
  in
  List.iter
    (fun (_, report) -> report ?settings:None Format.std_formatter)
    selected;
  vfail
  in
  if failed then exit 1

let experiments_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:"Experiments to run (default: all). E.g. fig3 fig8 headline.")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures on the synthetic trace.")
    Term.(
      const experiments $ names $ jobs_arg $ validate_arg $ trace_out_arg
      $ metrics_out_arg)

(* --- check --- *)

let check path fuzz seed gbps ms jobs trace_out metrics_out =
  set_jobs jobs;
  let bandwidth = to_bandwidth gbps and delta = to_delta ms in
  let any_failed =
    with_obs ~trace_out ~metrics_out @@ fun () ->
  let failed = ref false in
  let verdict what vs = if report_violations ~what vs then failed := true in
  (match path with
  | Some path ->
    let trace = load_trace path in
    let coflows =
      List.filter
        (fun (c : Coflow.t) -> not (Demand.is_empty c.demand))
        trace.Trace.coflows
    in
    let vspec = Check.Plan_check.spec ~delta ~bandwidth () in
    let intra_vs =
      Sunflow_parallel.Pool.run_list
        (fun (c : Coflow.t) ->
          let c0 = { c with Coflow.arrival = 0. } in
          Check.Plan_check.intra vspec c0
            (Sunflow_core.Sunflow.schedule ~delta ~bandwidth c0))
        coflows
    in
    verdict
      (Printf.sprintf "%d intra plans" (List.length intra_vs))
      (List.concat intra_vs);
    let o =
      Check.Diff_oracle.replay ~delta ~bandwidth ~n_ports:trace.Trace.n_ports
        trace.Trace.coflows
    in
    verdict
      (Printf.sprintf
         "inter replay vs physical switch (%d Coflows compared, worst gap \
          %.3g s)"
         o.Check.Diff_oracle.compared o.Check.Diff_oracle.max_err_s)
      o.Check.Diff_oracle.violations
  | None -> ());
  let fuzz = match (path, fuzz) with None, 0 -> 200 | _ -> fuzz in
  if fuzz > 0 then begin
    (* check_attrib: every fuzzed replay also proves the CCT
       attribution conservation invariant (Sim_check.attribution) *)
    let s =
      Check.Diff_oracle.fuzz ~check_attrib:true ~seed ~traces:fuzz ~n_ports:8
        ~max_coflows:6 ~span:1.5 ~max_mb:40. ~delta ~bandwidth ()
    in
    verdict
      (Printf.sprintf
         "%d randomized traces (%d finishes compared, worst gap %.3g s)"
         s.Check.Diff_oracle.traces s.Check.Diff_oracle.total_compared
         s.Check.Diff_oracle.worst_err_s)
      s.Check.Diff_oracle.total_violations
  end;
  !failed
  in
  if any_failed then begin
    Format.printf "FAIL@.";
    exit 1
  end
  else Format.printf "PASS@."

let check_cmd =
  let trace =
    let doc =
      "Trace file to validate (intra plans + differential inter replay). \
       Without a trace, the fuzzer runs alone."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let fuzz =
    let doc =
      "Also replay $(docv) randomized traces with arrivals through both the \
       analytical simulator and the physical switch model (default 200 when \
       no trace file is given)."
    in
    Arg.(value & opt int 0 & info [ "fuzz" ] ~docv:"N" ~doc)
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Fuzzer RNG seed.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate Sunflow plans and cross-check the simulator against the \
          physical switch model.")
    Term.(
      const check $ trace $ fuzz $ seed $ bandwidth_arg $ delta_arg $ jobs_arg
      $ trace_out_arg $ metrics_out_arg)

(* --- report --- *)

let json_string s = "\"" ^ Obs.Json.escape s ^ "\""

let report path gbps ms (replan, (config : Inter.config)) jobs out samples_out
    top_k =
  set_jobs jobs;
  let bandwidth = to_bandwidth gbps and delta = to_delta ms in
  let trace = load_trace path in
  if trace.Trace.coflows = [] then begin
    Format.eprintf "trace %s contains no Coflows — nothing to report on@." path;
    exit 1
  end;
  (* Attribution needs the recording state on regardless of export
     flags; run over a cleared state so the report sees this replay
     alone. *)
  let was = Obs.Control.enabled () in
  Obs.Control.set_enabled true;
  Obs.Tracer.clear ();
  Obs.Timeline.clear ();
  Obs.Attrib.clear ();
  Obs.Sampler.clear ();
  let shard_stats =
    ref { Inter.shard_steps = 0; shard_conflicts = 0; shard_rollbacks = 0 }
  in
  (* an interrupt mid-replay still drains the per-slice sample ledger *)
  Option.iter
    (fun path ->
      sigint_flush := (fun () -> Obs.Io.write_file path (Obs.Sampler.to_jsonl ()));
      install_sigint_flush ())
    samples_out;
  let result =
    Sunflow_sim.Circuit_sim.replay ~replan ~config ~shard_stats ~delta
      ~bandwidth trace.Trace.coflows
  in
  sigint_flush := (fun () -> ());
  Obs.Control.set_enabled was;
  let s = !shard_stats in
  let n_samples = List.length (Obs.Sampler.samples ()) in
  let run =
    [
      ("trace", json_string path);
      ("policy", json_string "scf");
      ( "replan",
        json_string
          (match replan with
          | `Full -> "full"
          | `Rebuild -> "rebuild"
          | `Incremental -> "incremental") );
      ("buckets", string_of_int config.buckets);
      ("bucket_base", Printf.sprintf "%.9g" config.bucket_base);
      ("shards", string_of_int config.shards);
      ("shard_block", string_of_int config.shard_block);
      ("bandwidth_gbps", Printf.sprintf "%.9g" gbps);
      ("delta_ms", Printf.sprintf "%.9g" ms);
      ("shard_steps", string_of_int s.Inter.shard_steps);
      ("shard_conflicts", string_of_int s.shard_conflicts);
      ("shard_rollbacks", string_of_int s.shard_rollbacks);
      ("samples", string_of_int n_samples);
    ]
  in
  let rep, violations =
    Check.Attrib_report.build ~top_k ~run ~coflows:trace.Trace.coflows result
  in
  let json = Obs.Report.to_json rep in
  (match out with
  | None ->
    print_string json;
    print_newline ()
  | Some path ->
    Obs.Io.write_file path json;
    Format.printf "wrote report to %s@." path);
  (match samples_out with
  | None -> ()
  | Some path ->
    Obs.Io.write_file path (Obs.Sampler.to_jsonl ());
    Format.printf "wrote %d per-slice samples to %s@." n_samples path);
  (* stderr, so stdout stays a single parseable JSON document *)
  if violations <> [] then begin
    Format.eprintf "attribution conservation: %a@." Check.Violation.pp_report
      violations;
    exit 1
  end

let report_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the report JSON to $(docv) instead of stdout.")
  in
  let samples_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "samples-out" ] ~docv:"FILE"
          ~doc:
            "Write the per-slice telemetry samples (active Coflows, circuit \
             transmit/reconfigure seconds, busy ports, dirty-suffix size, \
             shard conflicts) as JSON Lines to $(docv).")
  in
  let top_k =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"Slowest-Coflow rows to include in the report.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Replay a trace with CCT attribution enabled and render a \
          machine-validatable JSON report: CCT CDFs binned by Coflow width, \
          aggregate blame breakdown (admission wait, reconfiguration, \
          transfer, blocked-on-contention), per-port utilization, and the \
          slowest Coflows with their blame vectors.")
    Term.(
      const report $ trace_file_arg $ bandwidth_arg $ delta_arg $ replan_config
      $ jobs_arg $ out $ samples_out $ top_k)

(* --- serve --- *)

let serve path gbps ms config jobs deadline_mult validate trace_out
    metrics_out =
  set_jobs jobs;
  let bandwidth = to_bandwidth gbps and delta = to_delta ms in
  let stats, broken =
    with_obs ~trace_out ~metrics_out @@ fun () ->
    let ic = if path = "-" then stdin else open_in path in
    Fun.protect ~finally:(fun () -> if path <> "-" then close_in_noerr ic)
    @@ fun () ->
    let next = Trace.reader ic in
    let deadline_of =
      if deadline_mult <= 0. then None
      else
        Some
          (fun (c : Coflow.t) ->
            c.arrival
            +. deadline_mult
               *. Bounds.circuit_lower ~bandwidth ~delta c.demand)
    in
    (* graceful interrupt: the loop polls the flag, finishes its
       current event and falls through to the summary and the export
       writes below — overriding the kill-with-a-flush handler
       [with_obs] installs for the batch commands *)
    let interrupted = ref false in
    (try
       Sys.set_signal Sys.sigint
         (Sys.Signal_handle (fun _ -> interrupted := true))
     with Invalid_argument _ | Sys_error _ -> ());
    (* --validate buffers every admitted Coflow and its finish —
       O(stream) memory, for bounded test runs only *)
    let kept = ref [] and ccts = ref [] and finishes = ref [] in
    let on_admit, on_finish =
      if validate then
        ( (fun (c : Coflow.t) ~finish:_ -> kept := c :: !kept),
          fun ~id ~t ~cct ->
            ccts := (id, cct) :: !ccts;
            finishes := (id, t) :: !finishes )
      else ((fun _ ~finish:_ -> ()), fun ~id:_ ~t:_ ~cct:_ -> ())
    in
    let w0 = Obs.Control.now_ns () in
    let stats =
      Serve.run ~config ?deadline_of
        ~stop:(fun () -> !interrupted)
        ~on_admit ~on_finish ~delta ~bandwidth next
    in
    let wall_s =
      Int64.to_float (Int64.sub (Obs.Control.now_ns ()) w0) /. 1e9
    in
    Format.printf "%a@." Serve.pp_stats stats;
    if wall_s > 0. then
      Format.printf "throughput:  %.0f events/s (%.3f s wall)@."
        (float_of_int stats.Serve.events /. wall_s)
        wall_s;
    if Obs.Control.enabled () then begin
      let h = Obs.Registry.histogram_value (Obs.Registry.histogram "serve.event_s") in
      if h.Obs.Registry.h_count > 0 then
        Format.printf "p99 event:   %.6f s@." (Obs.Registry.quantile h 0.99)
    end;
    let broken =
      validate
      && (not stats.Serve.stopped)
      &&
      let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
      let result =
        {
          Sunflow_sim.Sim_result.ccts = sort !ccts;
          finishes = sort !finishes;
          makespan = stats.Serve.makespan;
          n_events = stats.Serve.events;
          total_setups = stats.Serve.setups;
        }
      in
      report_violations ~what:"serve conservation (admitted subset)"
        (Check.Sim_check.result ~bandwidth ~coflows:!kept result)
    in
    (stats, broken)
  in
  if broken then exit 1;
  if stats.Serve.stopped then exit 130

let serve_cmd =
  let stream_arg =
    let doc =
      "Arrival stream in the coflow-benchmark format ($(b,-) reads stdin). \
       Arrival times must be non-decreasing."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STREAM" ~doc)
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.
      & info [ "deadline" ] ~docv:"MULT"
          ~doc:
            "Deadline admission control: each Coflow's absolute deadline is \
             its arrival plus $(docv) times its standalone circuit lower \
             bound (so $(docv) close to 1 is tight, larger is looser). A \
             Coflow is admitted only if its tentative plan on the current \
             reservation table meets the deadline; otherwise the plan is \
             rolled back and the Coflow rejected. 0 disables admission — \
             every Coflow is served shortest-first.")
  in
  let validate_serve_arg =
    let doc =
      "Buffer every admitted Coflow's result and run the conservation \
       checker on the admitted subset at EOF (unbounded memory — for \
       bounded test streams); exit 1 on any violation."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running serving mode: consume an unbounded arrival stream \
          through the incremental engine at bounded resident memory, with \
          optional deadline admission control. Reports a summary (and any \
          requested obs exports) on EOF or SIGINT; exits 130 when \
          interrupted.")
    Term.(
      const serve $ stream_arg $ bandwidth_arg $ delta_arg $ engine_config
      $ jobs_arg
      $ deadline_arg $ validate_serve_arg $ trace_out_arg $ metrics_out_arg)

let () =
  let info =
    Cmd.info "sunflow" ~version:"1.0.0"
      ~doc:"Sunflow: efficient optical circuit scheduling for Coflows (CoNEXT 2016)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_trace_cmd;
            classify_cmd;
            bounds_cmd;
            intra_cmd;
            inter_cmd;
            sim_cmd;
            gantt_cmd;
            experiments_cmd;
            check_cmd;
            report_cmd;
            serve_cmd;
          ]))
