(** Varys (Chowdhury, Zhong & Stoica, SIGCOMM 2014): the clairvoyant
    packet-switched Coflow scheduler the paper compares against at the
    inter-Coflow level.

    Two ingredients:
    - {b SEBF} (smallest effective bottleneck first): Coflows are
      served in ascending order of their remaining bottleneck time
      [Gamma];
    - {b MADD} (minimum-allocation-for-desired-duration): each Coflow's
      flows get exactly the rates that let every flow finish together
      at the Coflow's bottleneck time, so no port is over-served.

    Residual bandwidth is backfilled work-conservingly in priority
    order. Like the real system, rates change only when the simulator
    reschedules (Coflow arrivals and completions); a subflow finishing
    early strands its bandwidth until the next event — the inefficiency
    the paper points out when discussing Fig. 9. *)

val allocate : Snapshot.scheduler
(** SEBF + MADD + backfill. *)
