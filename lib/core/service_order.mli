(** The service order: how a priority policy ranks Coflows (paper
    §4.2, "Flexible Management Policies").

    The inter-Coflow framework asks the operator for one thing only, a
    priority ordering, and this module alone turns a {!policy} into
    one: {!sort} orders a list for a from-scratch plan
    ([Inter.schedule]), {!t} keeps the incremental engine's admitted
    Coflows in order. Both are total: every policy, [Custom] included,
    breaks its ties by (arrival, id). *)

type policy =
  | Fifo  (** arrival order — no Coflow jumps the queue *)
  | Shortest_first
      (** ascending packet-switched lower bound [T_L^p], the
          evaluation's policy, on the demand the Coflow is ranked
          with: [Inter.schedule] ranks the remaining demand at every
          event, as Varys' SEBF does; the incremental engine ranks the
          {e original} demand once, at admission — a different policy
          (DESIGN.md, "Incremental replanning"). *)
  | Priority_classes of (Coflow.t -> int)
      (** explicit classes, lower class served first (privileged vs
          regular users, stage ordering, ...) *)
  | Custom of (Coflow.t -> Coflow.t -> int)  (** arbitrary comparator *)

val sort : policy -> bandwidth:float -> Coflow.t list -> Coflow.t list
(** The policy's order: total, ties by (arrival, id). Derived keys are
    computed once per Coflow, not per comparison. *)

type 'a rank = private {
  coflow : Coflow.t;
  key : float;
      (** [Shortest_first]'s packet lower bound, [Priority_classes]'s
          class, [0.] otherwise *)
  bucket : int;  (** the key's class under bucketing; [0] when off *)
  data : 'a;  (** the caller's state for this Coflow *)
}
(** A Coflow's place in an order, fixed when {!rank} builds it, and
    the caller's state beside it, so comparing reads no other record. *)

type 'a t  (** ranks in a sorted vector *)

val create :
  buckets:int ->
  bucket_base:float ->
  delta:float ->
  bandwidth:float ->
  dummy:'a ->
  policy ->
  'a t
(** An empty order. With [buckets > 0], [Shortest_first] and
    [Priority_classes] compare a class first, FIFO within it, so an
    arrival sorts at the end of its class. [Shortest_first]'s class 0
    holds keys within one [delta] (1 ms when [delta = 0.]), and each
    further class keys another factor of [bucket_base] longer, up to
    class [buckets - 1]; [Priority_classes] clamp into [[0, buckets)];
    [Fifo] and [Custom] keep one class. [dummy] is the state of the
    filler of unused slots, so none pins a removed rank. *)

val rank : 'a t -> Coflow.t -> 'a -> 'a rank

val compare : 'a t -> 'a rank -> 'a rank -> int
(** The total comparator, chosen once, by {!create}. *)

val insert : 'a t -> 'a rank -> unit

val remove : 'a t -> 'a rank -> unit
(** Raises [Invalid_argument], whatever the [-noassert] setting, when
    the rank is not where it compares — a [Custom] comparator
    whose answers changed since the insertion. *)

val position : 'a t -> 'a rank -> int
(** The index of the first rank sorting at or after this one. *)

val get : 'a t -> int -> 'a rank
val length : 'a t -> int

val pull_in :
  'a t ->
  arrivals:'a rank list ->
  first:'a rank option ->
  ('a rank -> unit) ->
  unit
(** The invalidation rule: calls [f] on each rank an event's dirty
    ones pull in. Under the exact order ([buckets = 0]) that is every
    rank from [first], the least dirty one, on: a retained plan
    after a changed one would re-round. Under bucketing it is each
    arrival's class-mates after it; later classes stay clean.
    O(arrivals · log n + pulled in). *)
