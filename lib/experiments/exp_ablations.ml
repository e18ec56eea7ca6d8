module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units
module Inter = Sunflow_core.Inter
module Sunflow = Sunflow_core.Sunflow
module Trace = Sunflow_trace.Trace
module R = Sunflow_sim.Sim_result
module D = Sunflow_stats.Descriptive

type row = { label : string; avg_cct : float; note : string }

type result = {
  reuse : row list;
  policy : row list;
  quantum : row list;
  hybrid : row list;
}

let short_avg_cct ~bandwidth ~delta coflows (r : R.t) =
  let shorts =
    List.filter
      (fun (c : Coflow.t) ->
        (not (Demand.is_empty c.demand))
        && not (Coflow.is_long ~bandwidth ~delta c))
      coflows
  in
  D.mean (List.map (fun (c : Coflow.t) -> R.cct_of r c.id) shorts)

let run ?(settings = Common.default) () =
  let trace = Common.original_trace settings in
  let coflows = trace.Trace.coflows in
  let bandwidth = settings.Common.bandwidth and delta = settings.Common.delta in
  (* --- established-circuit reuse --- *)
  let with_reuse = Common.run_sunflow ~delta ~bandwidth coflows in
  let without_reuse =
    Sunflow_sim.Circuit_sim.replay
      ~config:(Inter.config ~carry_circuits:false ())
      ~delta ~bandwidth coflows
  in
  let reuse =
    [
      {
        label = "carry live circuits (default)";
        avg_cct = R.average_cct with_reuse;
        note = Format.asprintf "%d setups" with_reuse.R.total_setups;
      };
      {
        label = "tear down on every event";
        avg_cct = R.average_cct without_reuse;
        note = Format.asprintf "%d setups" without_reuse.R.total_setups;
      };
    ]
  in
  (* --- policy --- *)
  let fifo =
    Sunflow_sim.Circuit_sim.replay ~policy:Inter.Fifo ~delta ~bandwidth coflows
  in
  let fair = Common.run_packet ~scheduler:`Fair ~bandwidth coflows in
  let policy =
    [
      {
        label = "sunflow, shortest-coflow-first";
        avg_cct = R.average_cct with_reuse;
        note = "";
      };
      { label = "sunflow, fifo"; avg_cct = R.average_cct fifo; note = "" };
      {
        label = "packet, per-flow fair (tcp-like)";
        avg_cct = R.average_cct fair;
        note = "";
      };
    ]
  in
  (* --- quantum approximation (intra) --- *)
  let nonempty =
    List.filter (fun (c : Coflow.t) -> not (Demand.is_empty c.demand)) coflows
  in
  let intra_avg_and_time quantum =
    (* Sys.time is process CPU time, summed over the pool's domains —
       it stays comparable across quanta (same parallelism for each) *)
    let t0 = Sys.time () in
    let ccts =
      Sunflow_parallel.Pool.run_list
        (fun (c : Coflow.t) ->
          (Sunflow.schedule ~quantum ~delta ~bandwidth
             { c with Coflow.arrival = 0. })
            .finish)
        nonempty
    in
    (D.mean ccts, Sys.time () -. t0)
  in
  let base_avg, base_time = intra_avg_and_time 0. in
  let quantum =
    {
      label = "exact (quantum = 0)";
      avg_cct = base_avg;
      note = Format.asprintf "planning %.2fs" base_time;
    }
    :: List.map
         (fun q ->
           let avg, time = intra_avg_and_time q in
           {
             label = Format.asprintf "quantum = %a" Units.pp_time q;
             avg_cct = avg;
             note =
               Format.asprintf "planning %.2fs, CCT x%.3f" time (avg /. base_avg);
           })
         [ Units.ms 10.; Units.ms 100.; 1. ]
  in
  (* --- hybrid fabric --- *)
  (* REACToR's design point: a fast optical fabric paired with a
     ten-times-slower packet network that absorbs the mice whose
     circuit CCT would be delta-dominated *)
  let circuit_bandwidth = 10. *. bandwidth in
  let packet_bandwidth = bandwidth in
  let classify =
    Sunflow_sim.Hybrid_sim.best_bound ~delta ~circuit_bandwidth
      ~packet_bandwidth
  in
  let offloaded = List.length (List.filter (fun c -> classify c = `Packet) coflows) in
  let hybrid_result =
    Sunflow_sim.Hybrid_sim.run ~delta ~circuit_bandwidth ~packet_bandwidth
      ~classify coflows
  in
  let pure_fast =
    Sunflow_sim.Circuit_sim.replay ~delta ~bandwidth:circuit_bandwidth coflows
  in
  let varys_fast =
    Common.run_packet ~scheduler:`Varys ~bandwidth:circuit_bandwidth coflows
  in
  let short_note r =
    Format.asprintf "short-coflow avg %.3fs"
      (short_avg_cct ~bandwidth:circuit_bandwidth ~delta coflows r)
  in
  let hybrid =
    [
      {
        label = "pure circuit (sunflow @ 10x rate)";
        avg_cct = R.average_cct pure_fast;
        note = short_note pure_fast;
      };
      {
        label =
          Format.asprintf "hybrid (%d mice on 1x packet net)" offloaded;
        avg_cct = R.average_cct hybrid_result;
        note = short_note hybrid_result;
      };
      {
        label = "pure packet (varys @ 10x rate)";
        avg_cct = R.average_cct varys_fast;
        note = short_note varys_fast;
      };
    ]
  in
  { reuse; policy; quantum; hybrid }

let print_rows ppf title rows =
  Format.fprintf ppf "  %s@." title;
  List.iter
    (fun r ->
      Format.fprintf ppf "    %-38s avg CCT %8.3fs  %s@." r.label r.avg_cct
        r.note)
    rows

let print ppf r =
  print_rows ppf "established-circuit reuse:" r.reuse;
  print_rows ppf "inter-Coflow policy:" r.policy;
  print_rows ppf "quantised reservations (intra):" r.quantum;
  print_rows ppf "hybrid fabric:" r.hybrid

let report ?settings ppf =
  Common.section ppf "ABLATIONS: design choices beyond the paper";
  print ppf (run ?settings ())
