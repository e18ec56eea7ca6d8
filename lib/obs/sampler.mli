(** Simulated-time telemetry sampler: one snapshot per scheduling
    slice, driven from [Circuit_sim.replay] (not the serving loop) when
    {!Control.enabled}.

    Two views of the same run accumulate side by side:

    - a {e time series} of per-slice samples — active Coflows, circuit
      seconds spent transmitting vs reconfiguring, busy ports, the
      incremental engine's dirty-suffix size and splice count for the
      event — exported as JSON Lines
      ({!to_jsonl}, one object per slice);
    - a {e per-port ledger} of cumulative transmit/reconfigure
      seconds ({!port_busy}/{!port_totals}), the source for per-port
      busy/reconfiguring/idle duty cycles in [Obs.Report]. Because
      only executed, slice-clipped segments are recorded and the port
      constraint keeps a port's segments disjoint, a port's total
      never exceeds the makespan — utilization lands in [0, 1] by
      construction.

    Same cost discipline as {!Timeline}: mutex-serialised cold-path
    recording at simulator-event granularity, zero when disabled. *)

type sample = {
  m_t : float;  (** slice start (simulated seconds) *)
  m_t_next : float;  (** slice end *)
  m_active : int;  (** admitted, unfinished Coflows *)
  m_circuits : int;  (** circuit segments executing in the slice *)
  m_transmit_s : float;  (** circuit-seconds transmitting, summed *)
  m_setup_s : float;  (** circuit-seconds reconfiguring, summed *)
  m_busy_ports : int;  (** distinct ports (in + out) occupied *)
  m_rescheduled : int;
      (** engine suffix entries re-run for this event (dirty-suffix
          size); 0 under [`Full] replanning *)
  m_spliced : int;  (** windows re-admitted verbatim for this event *)
}

val record : sample -> unit
(** No-op when {!Control.enabled} is false (gate at the call site). *)

val samples : unit -> sample list
(** Recorded samples in recording order (= simulated-time order: the
    event loop records once per slice, monotonically). *)

val port_busy : src:int -> dst:int -> setup_s:float -> tx_s:float -> unit
(** Accumulate one executed segment's seconds onto input port [src]
    and output port [dst]. No-op when disabled. *)

val port_totals : unit -> (string * float * float) list
(** Cumulative [(port, transmit_s, setup_s)] rows, ports named
    ["in.N"]/["out.N"], inputs first then outputs, each sorted by
    port number. *)

val clear : unit -> unit

val to_jsonl : unit -> string
(** One JSON object per line per sample, keys as the field names
    without the [m_] prefix, floats as [%.9g]. *)
