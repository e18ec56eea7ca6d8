(** TMS (Traffic Matrix Scheduling, the Mordia scheduler — Porter et
    al. SIGCOMM 2013), the Birkhoff–von-Neumann baseline of paper
    §3.1.1.

    TMS's pipeline, and the source of the inefficiency the Sunflow
    paper points at: the demand matrix is (1) padded with a small
    constant so it is strictly positive, (2) Sinkhorn-scaled into a
    doubly stochastic {e bandwidth-share} matrix — a step that "may
    heavily modify the original demand matrix" — and (3) BvN-decomposed
    into permutation assignments whose durations are {e proportional to
    the decomposition weights}, not to the actual remaining demand.
    Slices shorter than the reconfiguration delay cannot pay for
    themselves and are dropped (Mordia's minimum-slot rule), so
    under-served entries are picked up by subsequent scheduling rounds,
    each paying a fresh set of reconfigurations.

    An idealised variant ([~ideal:true]) skips the padding/scaling and
    decomposes the stuffed demand exactly (durations = BvN weights on
    the integer lattice); it shows how much of TMS's gap comes from the
    proportional-share pre-processing. *)

val quantization_steps : int
(** Lattice resolution of the exact endgame and of the ideal variant. *)

val assignments :
  ?ideal:bool ->
  ?delta:float ->
  bandwidth:float ->
  Sunflow_core.Demand.t ->
  Assignment.t list
(** Assignment sequence covering the demand; durations in
    processing-time seconds. [ideal] defaults to [false] (the faithful
    Mordia pipeline); [delta] (default 10 ms) feeds the minimum-slot
    rule of that pipeline. *)

val schedule :
  ?ideal:bool ->
  delta:float ->
  bandwidth:float ->
  Sunflow_core.Coflow.t ->
  Executor.outcome
(** Schedule and execute on the not-all-stop switch. The Mordia
    variant's minimum-slot rule uses this [delta]. *)
