module Coflow = Sunflow_core.Coflow
module Bounds = Sunflow_core.Bounds
module Obs = Sunflow_obs

let m_circuit_coflows = Obs.Registry.counter "hybrid.circuit_coflows"
let m_packet_coflows = Obs.Registry.counter "hybrid.packet_coflows"

let best_bound ~delta ~circuit_bandwidth ~packet_bandwidth (c : Coflow.t) =
  if Sunflow_core.Demand.is_empty c.demand then `Packet
  else begin
    let on_packet = Bounds.packet_lower ~bandwidth:packet_bandwidth c.demand in
    let on_circuit =
      Bounds.circuit_lower ~bandwidth:circuit_bandwidth ~delta c.demand
    in
    if on_packet <= on_circuit then `Packet else `Circuit
  end

let run ?policy ?(packet_scheduler = Sunflow_packet.Fair.allocate) ~delta
    ~circuit_bandwidth ~packet_bandwidth ~classify coflows =
  if circuit_bandwidth <= 0. || packet_bandwidth <= 0. then
    invalid_arg "Hybrid_sim.run: non-positive bandwidth";
  let obs = Obs.Control.enabled () in
  let circuit, packet =
    if not obs then List.partition (fun c -> classify c = `Circuit) coflows
    else
      Obs.Tracer.with_span ~cat:"sim" "hybrid.classify" (fun () ->
          List.partition (fun c -> classify c = `Circuit) coflows)
  in
  if obs then begin
    Obs.Registry.add m_circuit_coflows (List.length circuit);
    Obs.Registry.add m_packet_coflows (List.length packet)
  end;
  let circuit_result =
    if not obs then
      Circuit_sim.replay ?policy ~delta ~bandwidth:circuit_bandwidth circuit
    else
      Obs.Tracer.with_span ~cat:"sim" "hybrid.circuit_fabric" (fun () ->
          Circuit_sim.replay ?policy ~delta ~bandwidth:circuit_bandwidth
            circuit)
  in
  let packet_result =
    if not obs then
      Packet_sim.run ~scheduler:packet_scheduler ~bandwidth:packet_bandwidth
        packet
    else
      Obs.Tracer.with_span ~cat:"sim" "hybrid.packet_fabric" (fun () ->
          Packet_sim.run ~scheduler:packet_scheduler
            ~bandwidth:packet_bandwidth packet)
  in
  let merge sel =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (sel circuit_result @ sel packet_result)
  in
  {
    Sim_result.ccts = merge (fun (r : Sim_result.t) -> r.ccts);
    finishes = merge (fun (r : Sim_result.t) -> r.finishes);
    makespan = Float.max circuit_result.makespan packet_result.makespan;
    n_events = circuit_result.n_events + packet_result.n_events;
    total_setups = circuit_result.total_setups;
  }
