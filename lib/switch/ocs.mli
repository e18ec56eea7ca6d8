(** An executable model of the optical circuit switch of paper §2.1 —
    the not-all-stop model as a state machine.

    The switch has [n] input and [n] output ports. A circuit connects
    one input to one output; establishing or moving a circuit takes the
    reconfiguration delay [delta], during which the two ports involved
    carry no light, while every untouched circuit keeps transmitting.
    An input (output) port is on at most one circuit at a time — the
    machine rejects requests that would violate the port constraint
    instead of trusting its caller.

    Time is explicit: the caller advances the clock with {!advance} and
    pending reconfigurations complete when their deadline passes. The
    analytical schedulers in [Sunflow_core] never touch this module;
    the {!Controller} uses it to {e physically verify} their plans. *)

type t

val create : n_ports:int -> delta:float -> t
(** A switch with all ports idle at time [0.]. Raises
    [Invalid_argument] on non-positive [n_ports] or negative
    [delta]. *)

val n_ports : t -> int
val delta : t -> float

val now : t -> float
(** Current clock. *)

val advance : t -> float -> unit
(** Move the clock forward (monotonic; raises [Invalid_argument] on a
    backwards move). Reconfigurations whose deadline has passed
    complete. *)


val connect : t -> src:int -> dst:int -> (float, string) result
(** Begin establishing circuit [(src, dst)]. Both ports must be idle
    (tear down existing circuits first — that is what makes the model
    not-all-stop: only the ports named here go dark). Returns the time
    the circuit will carry light ([now + delta]; immediately when
    [delta = 0]). *)

val disconnect : t -> src:int -> dst:int -> (unit, string) result
(** Tear circuit [(src, dst)] down (whether configuring or connected);
    both ports become idle immediately. Fails if that circuit is not
    present. *)

val circuit_up : t -> src:int -> dst:int -> bool
(** True when [(src, dst)] is connected and past its setup. *)

val established : t -> (int * int) list
(** All circuits currently carrying light, sorted. *)

val switch_count : t -> int
(** Total {!connect} operations accepted so far — physical switching
    events. *)

val assert_consistent : t -> unit
(** Internal-invariant check used by tests: input and output port
    states mirror each other exactly. Raises [Invalid_argument] on
    corruption. *)
