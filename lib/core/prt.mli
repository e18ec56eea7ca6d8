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
    a parallel float array and a stop-sorted view of the same windows,
    so every point query is a binary search over flat floats, O(log n)
    per port. There is no table-wide release index: releases are asked
    per port ({!next_release_pair}). See DESIGN.md, "PRT data structure
    & complexity".

    Memory: the slot arrays reach the highest port id ever reserved, so
    a table costs O(highest port id) words per namespace on top of its
    windows, whatever the number of ports in use. The sharded engine
    keeps one table per shard, each indexed by global port id. *)

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
      (** public lookups answered: per-port probes (two for a
          {!probe_pair} whose In port is free), next-release queries,
          {!fits_exact}, {!remove} and the interval-index queries *)
  scans : int;
      (** binary-search probes over the port slots and the interval
          index, plus neighbourhood walks. There is no release index,
          so [reserve] and [remove] pay no search for one. *)
  reservations : int;  (** successful {!reserve} calls *)
  rollbacks : int;
      (** windows removed again after having been reserved: reserves
          undone after an Out-port conflict, plus every successful
          {!remove}, whoever calls it ({!rollback}, {!retract_coflow},
          the engine's eviction). On the perfbench storm replay this
          equals the reservation count (64.7k). *)
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

val copy : t -> t
(** Deep copy: reservations recorded in either table afterwards never
    appear in the other. The undo log and ownership index are copied
    too, so a checkpoint taken before the copy can be rolled back in
    either table — but checkpoints are positions in one table's log,
    so a checkpoint taken in one table after the copy is meaningless
    in the other. *)

val is_empty : t -> bool

val free_at : t -> port -> float -> bool
(** No reservation window contains the instant (Algorithm 1 line 15).
    A window [[start, stop)] contains [start] but not [stop]. *)

val next_start_after : t -> port -> float -> float
(** Earliest reservation start strictly greater than the instant — the
    "next-reserv-time" [tm] of Algorithm 1 line 16 — or [infinity]. *)

val probe : t -> port -> float -> bool * float
(** [(free_at t p i, next_start_after t p i)] in a single lookup — the
    fused form the scheduler hot path uses. *)

val probe_pair : t -> src:int -> dst:int -> float -> float
(** Fused probe across a circuit's two endpoints: when both [In src]
    and [Out dst] are free at the instant, the earlier
    {!next_start_after} over both ports; otherwise [neg_infinity]
    (unambiguous — real next-starts are non-negative or [infinity]).
    The scheduler's inner loop uses this instead of two {!probe}
    calls; work-counter accounting is identical to the unfused pair
    (the Out port is only probed when the In port was free). *)

val next_release_pair : t -> src:int -> dst:int -> float -> float
(** Earliest reservation stop strictly greater than the instant on
    [In src] or [Out dst], or [infinity] — the release of Algorithm 1
    line 10, restricted to a blocked circuit's own two ports, which
    keeps the scheduler's retry path local under inter-Coflow load. *)

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
    necessarily the same physical record) from both of its ports, the
    interval index and the ownership index. Returns [false]
    (leaving the table untouched) when no such window exists. Sub-dust
    twins — identical windows within {e time_tolerance} — are
    interchangeable; one of them goes. *)

val retract_coflow : t -> int -> int
(** Remove every window owned by the Coflow id; returns how many were
    removed. O(own windows × log n). Entries the Coflow wrote to the
    undo log stay there and are skipped by a later {!rollback} —
    retiring a finished Coflow never invalidates outstanding
    checkpoints. *)

type checkpoint
(** A position in the table's undo log. Valid for this table (or a
    {!copy} taken later) until a {!rollback} to an earlier position
    discards it. *)

val checkpoint : t -> checkpoint
(** Mark the current undo-log position. O(1). *)

val journal_length : t -> int
(** Current undo-log length: {!reserve}s recorded since the last
    {!forget_history} (or creation) and not yet undone by {!rollback}.
    The serving loop's memory-boundedness monitor — a table whose
    journal grows without bound pins every recorded window against the
    GC. O(1). *)

val rollback : t -> checkpoint -> unit
(** Undo every {!reserve} recorded after the checkpoint, newest first,
    skipping windows already gone via {!retract_coflow}, and truncate
    the log back to the mark. Raises [Invalid_argument] on a checkpoint
    from beyond the current log end (i.e. one already discarded by an
    earlier rollback). O(undone × log n). *)

val forget_history : t -> unit
(** Drop the undo log entirely, invalidating every outstanding
    checkpoint (a later {!rollback} with one raises). For callers that
    repair the table in place and will never roll back past this
    point: the log otherwise grows with every reserve for the life of
    the table and keeps retired Coflows' windows reachable. O(1). *)

val port_reservations : t -> port -> reservation list
(** Reservations on one port, sorted by start time. *)

val all_reservations : t -> reservation list
(** Every reservation once (keyed on input ports), sorted by
    [(start, src, dst)]. *)

val established_at : t -> float -> (int * int) list
(** Circuits actively transmitting at an instant: reservations with
    [start + setup <= t < stop]. Used when rescheduling to carry live
    circuits over without paying a new delta. *)

val covering_at : t -> float -> reservation list
(** Every reservation whose window contains the instant
    ([start <= t < stop]), in unspecified order. Per-port predecessor
    search, so O(ports × log n) rather than O(reservations).
    [established_at]'s answer is exactly the [(src, dst)] set of these
    windows filtered to [start + setup <= t]. *)

val reservations_in : t -> float -> float -> reservation list
(** [reservations_in t t0 t1]: every reservation overlapping the slice
    [[t0, t1)] — [stop > t0] and [start < t1] — sorted by the full
    window identity [(start, src, dst, coflow, setup, length)] so the
    order is identical across differently-built tables holding the same
    windows. O(ports × log n + answer). *)

val ports_in_use : t -> port list
(** Ports holding at least one reservation, sorted. *)

val pp : Format.formatter -> t -> unit
(** Render all reservations, one per line. *)
