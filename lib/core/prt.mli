(** Port Reservation Table (paper §4.1.1).

    The PRT records, for every input and output port, the time windows
    during which the port is taken by a circuit. Each reservation spans
    [[start, stop)] on both endpoints of its circuit; the first [setup]
    seconds of the window model the reconfiguration delay (during which
    no data moves) and the remainder transmits at full link rate.

    Input ports and output ports are separate namespaces: circuit
    [(3, 3)] reserves input port 3 and output port 3 independently.

    Reservations never overlap on a port — [reserve] enforces the
    paper's port constraint (§2.1): an input (output) port carries at
    most one circuit at a time.

    Internally the port slots are two dense arrays, one per namespace,
    indexed by port number: a query reads its port's slot without
    hashing or allocating a key. Each slot keeps its windows in a
    dynamic array sorted by start time, with the start times unboxed in
    a parallel float array, so every point query is a binary search
    over flat floats, O(log n) per port. There is no table-wide index:
    a blocked circuit's next chance is walked on its own two ports
    ({!chance}), and the stabbing and slice queries search every
    non-empty input slot. See DESIGN.md, "PRT data structure &
    complexity".

    Memory: the slot arrays reach the highest port id ever reserved, so
    a table costs O(highest port id) words per namespace on top of its
    windows, whatever the number of ports in use. *)

type port = In of int | Out of int

type reservation = {
  coflow : int;  (** owning Coflow id *)
  src : int;  (** input port *)
  dst : int;  (** output port *)
  start : float;
  setup : float;  (** leading reconfiguration time, [0 <= setup <= length] *)
  length : float;  (** total window length; transmission = length - setup *)
}

val stop : reservation -> float
(** [start +. length]. *)

val transmission : reservation -> float
(** Seconds of actual data transfer, [length -. setup]. *)

type t

type stats = {
  queries : int;
      (** public lookups answered: one per {!chance} call, whatever
          its steps, one per {!step}, {!fits_exact}, {!remove},
          {!covering_at} and {!reservations_in} *)
  scans : int;
      (** port-slot probes: binary-search steps plus the windows a
          neighbourhood walk reads ({!reserve}'s overlap check,
          {!fits_exact}, {!chance}, {!remove}'s equal-start run, and
          the collecting walks of {!covering_at} and
          {!reservations_in}, which probe every non-empty input
          slot). Nothing beside the slots is kept in step, so
          [reserve] and [remove] probe only their two ports. *)
  reservations : int;  (** successful {!reserve} calls *)
  rollbacks : int;
      (** windows removed again after having been reserved: reserves
          undone after an Out-port conflict, plus every successful
          {!remove}, whoever calls it ({!retract_coflow}, the engine's
          eviction, [Deadline.admit] dropping a rejected plan). It
          is not tied to [reservations]: undone reserves were never
          counted there, and windows still held when a run ends are
          never removed. *)
}
(** Cumulative work counters over every table in the process, for the
    bench harness ([BENCH_prt.json]). Queries count public lookups;
    scans count the elements each lookup actually probed, so
    [scans /. queries] tracks the per-query cost (logarithmic in the
    reservation count for the array-backed table).

    The counters are domain-safe: each domain accumulates into its own
    cells (plain stores, no hot-path synchronisation) and {!stats}
    merges all of them. They live on the [Sunflow_obs.Registry] under
    the names [prt.queries], [prt.scans], [prt.reservations] and
    [prt.rollbacks] — a metrics export therefore reports totals
    bit-identical to {!stats} — and they are always on, regardless of
    [Sunflow_obs.Control]. *)

val stats : unit -> stats
(** Snapshot of the process-wide counters: the sum over every domain
    that ever touched a table. Exact once the contributing domains
    have been joined; a snapshot taken while they still run may lag
    their newest increments. *)

val reset_stats : unit -> unit

val pp_stats : Format.formatter -> stats -> unit

val create : unit -> t

val chance :
  t -> src:int -> dst:int -> gap:float -> float array -> unit
(** [chance t ~src ~dst ~gap cell]: the circuit's next chance to
    reserve, at or after the instant [cell.(0)]. Writes to [cell.(0)]
    the first instant [y] at which no window on [In src] or [Out dst]
    contains [y] (a window [[start, stop)] contains [start] but not
    [stop]) and the earliest start strictly after [y] on either port —
    Algorithm 1's "next-reserv-time" [tm], written to [cell.(1)], or
    [infinity] — lies more than [gap] after [y]. With [gap = 0.] that
    is the first free instant, the port test of Algorithm 1 lines
    15-16. Every [y] past the input is a window stop on one of the two
    ports: a busy port moves the search to its covering window's stop,
    and a start within [gap] to the stop of the window opening at
    [tm]. [cell] needs two elements; passing the instant through it
    keeps the call free of float boxing. Counts one query, whatever
    the number of steps. *)

type step =
  | Free  (** both ports free at [cell.(0)]; [tm] is in [cell.(1)] *)
  | In_busy  (** a window on [In src] contains the instant *)
  | Out_busy  (** a window on [Out dst] does; [In src] is free *)
  | Near  (** both free, but [tm] lies within [gap] *)

val step : t -> src:int -> dst:int -> gap:float -> float array -> step
(** One step of {!chance}'s walk from the instant [cell.(0)], and why
    it moved. [Free] leaves [cell.(0)] and writes [tm] to [cell.(1)];
    any other answer moves [cell.(0)] to a window's stop and writes
    that window's start to [cell.(1)]: the covering window of the
    busy port (the input port is asked first), or the window opening
    at [tm]. {!chance} is exactly this step repeated until [Free].
    Counts one query; allocates nothing. *)

val fits_exact : t -> reservation -> bool
(** Whether the window intersects no existing window on either of its
    ports with positive measure. Stricter than {!reserve}'s admission,
    which tolerates sub-nanosecond rounding-dust overlaps: the
    incremental engine's splice path re-admits stored windows against
    freshly computed neighbours and must preserve exact per-port
    disjointness, not merely dust-disjointness. *)

val reserve : t -> reservation -> unit
(** Record a reservation on both of its ports. Raises
    [Invalid_argument] if it would overlap an existing window on either
    port, if [length <= 0.], if [setup] is outside [[0, length]], or if
    a port id is negative or at least [Sys.max_array_length]. *)

val splice_exact : t -> reservation list -> bool
(** Re-admit a stored plan verbatim: if {e every} window passes
    {!fits_exact} against the current table, {!reserve} them all (in
    order) and return [true]; otherwise reserve nothing and return
    [false]. The all-windows-checked-before-any-reserved order is part
    of the contract: sibling windows of one plan may overlap each
    other by sub-[time_tolerance] rounding dust, which [reserve]
    tolerates but [fits_exact] rejects, so interleaving the check with
    the reserves would spuriously fail such plans. This is the splice
    primitive behind the incremental engines' verbatim re-admission. *)

val remove : t -> reservation -> bool
(** Remove the window field-for-field equal to the argument (not
    necessarily the same physical record) from both of its ports and
    the ownership index. Returns [false]
    (leaving the table untouched) when no such window exists. Sub-dust
    twins — identical windows within {e time_tolerance} — are
    interchangeable; one of them goes. *)

val retract_coflow : t -> int -> int
(** Remove every window owned by the Coflow id; returns how many were
    removed. O(own windows × log n). Ownership is by id alone: when
    two Coflows share an id, this removes the windows of both — remove a
    known plan window by window with {!remove} instead. *)

val port_reservations : t -> port -> reservation list
(** Reservations on one port, sorted by start time. *)

val all_reservations : t -> reservation list
(** Every reservation once (keyed on input ports), sorted by
    [(start, src, dst)]; windows equal on that key keep their order
    in the port slot (the sort is stable). *)

val physical_order : reservation -> reservation -> int
(** Total order on the full window identity
    [(start, src, dst, coflow, setup, length)], field by field: the
    sign of polymorphic [compare] on that tuple, without building one.
    {!reservations_in} sorts its answer with it. *)

val compare_circuits : int * int -> int * int -> int
(** The order of polymorphic [compare] on [(src, dst)] circuits,
    field by field. {!established_at} sorts its answer with it. *)

val established_at : t -> float -> (int * int) list
(** Circuits actively transmitting at an instant: reservations with
    [start + setup <= t < stop]. Used when rescheduling to carry live
    circuits over without paying a new delta. *)

val covering_at : t -> float -> reservation list
(** Every reservation whose window contains the instant
    ([start <= t < stop]), in unspecified order. Every non-empty
    input slot is binary-searched, then walked leftward over its
    windows that reach past the instant, crossing windows no longer
    than the tolerance and the rounding-dust run: O(ports in use ·
    log n + answer).
    [established_at]'s answer is exactly the [(src, dst)] set of these
    windows filtered to [start + setup <= t]. *)

val reservations_in : t -> float -> float -> reservation list
(** [reservations_in t t0 t1]: every reservation overlapping the slice
    [[t0, t1)] — [stop > t0] and [start < t1] — sorted by the full
    window identity [(start, src, dst, coflow, setup, length)] so the
    order is identical across differently-built tables holding the same
    windows ({!physical_order}). Per non-empty input slot, one binary
    search for [t0], {!covering_at}'s leftward walk and a forward walk
    while [start < t1]: O(ports in use · log n + answer), plus the
    sort of the answer. *)
