(* Trace replay: a data-parallel cluster's hour of Coflows serviced by
   three fabrics - Sunflow on an optical circuit switch, and Varys and
   Aalo on a packet switch - the comparison behind the paper's Figs. 8
   and 9.

   A small synthetic Facebook-like trace is generated (use
   Sunflow_trace.Trace.load to replay the real coflow-benchmark file
   instead), perturbed by +-5 % as in the evaluation, and replayed
   through both simulators.

   Run with: dune exec examples/shuffle_replay.exe *)

open Sunflow_core
module Trace = Sunflow_trace.Trace
module Synthetic = Sunflow_trace.Synthetic
module Workload = Sunflow_trace.Workload
module R = Sunflow_sim.Sim_result

let () =
  let bandwidth = Units.gbps 1. in
  let delta = Units.ms 10. in

  let trace =
    Synthetic.generate
      { Synthetic.default_params with n_coflows = 60; span = 420.; seed = 3 }
    |> Workload.perturb ~seed:7
  in
  Format.printf "trace: %d Coflows, %a, idleness %.0f%%@.@."
    (Trace.n_coflows trace) Units.pp_bytes (Trace.total_bytes trace)
    (100. *. Workload.idleness ~bandwidth trace);

  let sunflow =
    Sunflow_sim.Circuit_sim.replay ~delta ~bandwidth trace.coflows
  in
  let varys =
    Sunflow_sim.Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate
      ~bandwidth trace.coflows
  in
  let aalo =
    Sunflow_sim.Packet_sim.run
      ~sent_thresholds:
        (Sunflow_sim.Packet_sim.aalo_thresholds Sunflow_packet.Aalo.default_params)
      ~scheduler:Sunflow_packet.Aalo.allocate ~bandwidth trace.coflows
  in

  Format.printf "%4s %-4s %8s | %9s %9s %9s@." "id" "kind" "bytes" "sunflow"
    "varys" "aalo";
  List.iter
    (fun (c : Coflow.t) ->
      Format.printf "%4d %-4s %8s | %8.3fs %8.3fs %8.3fs@." c.id
        (Coflow.Category.to_string (Coflow.category c))
        (Format.asprintf "%a" Units.pp_bytes (Coflow.total_bytes c))
        (R.cct_of sunflow c.id) (R.cct_of varys c.id) (R.cct_of aalo c.id))
    trace.coflows;

  let avg r = R.average_cct r in
  Format.printf "@.average CCT: sunflow %.3fs | varys %.3fs | aalo %.3fs@."
    (avg sunflow) (avg varys) (avg aalo);
  Format.printf "sunflow / varys = %.2f, sunflow / aalo = %.2f@."
    (avg sunflow /. avg varys)
    (avg sunflow /. avg aalo);
  Format.printf "circuit switch paid %d circuit setups over %d events@."
    sunflow.R.total_setups sunflow.R.n_events
