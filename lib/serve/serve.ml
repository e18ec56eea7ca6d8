module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module Order = Sunflow_core.Order
module Deadline = Sunflow_core.Deadline
module Service_order = Sunflow_core.Service_order
module Circuit_sim = Sunflow_sim.Circuit_sim
module Obs = Sunflow_obs

type reject_reason =
  | Expired of { deadline : float }
  | Deadline_miss of { deadline : float; finish : float }

type stats = {
  arrivals : int;
  admitted : int;
  rejected : int;
  completed : int;
  events : int;
  setups : int;
  max_live : int;
  makespan : float;
  stopped : bool;
}

(* Bounded-memory observability: counters, one gauge and one histogram
   here, plus the shared loop's sim.setups / sim.teardowns /
   sim.delta_s / sim.plan_s — all O(1) state. The per-Coflow stores
   (Timeline, Sampler, Attrib) grow with the stream and are
   deliberately not fed. *)
let m_events = Obs.Registry.counter "serve.events"
let m_arrivals = Obs.Registry.counter "serve.arrivals"
let m_admitted = Obs.Registry.counter "serve.admitted"
let m_rejected = Obs.Registry.counter "serve.rejected"
let m_completed = Obs.Registry.counter "serve.completed"
let g_live = Obs.Registry.gauge "serve.live"
let h_event = Obs.Registry.histogram "serve.event_s"

(* FIFO across arrival instants, EDF within one. A later arrival
   always sorts after every already-admitted Coflow — same-instant
   batches are admitted in [Deadline.edf] order, and equal-deadline
   ties fall to the service order's (arrival, id) tiebreak, as in
   the batch's sort — so admission never invalidates an
   admitted plan's priority position. That is what turns admission
   into an O(one schedule) engine step and preserves the Varys-style
   guarantee: an admitted Coflow keeps (modulo straddler re-anchoring
   at later events) the plan it was admitted with. *)
let admission_policy ~deadline_of =
  Inter.Custom
    (fun (a : Coflow.t) (b : Coflow.t) ->
      match compare a.arrival b.arrival with
      | 0 -> compare (deadline_of a) (deadline_of b)
      | c -> c)

let no_stop () = false
let no_admit (_ : Coflow.t) ~finish:(_ : float) = ()
let no_reject (_ : Coflow.t) (_ : reject_reason) = ()
let no_finish ~id:(_ : int) ~t:(_ : float) ~cct:(_ : float) = ()

let run ?(policy = Inter.Shortest_first) ?(order = Order.Ordered_port)
    ?(config = Inter.default_config) ?deadline_of ?(stop = no_stop)
    ?(on_admit = no_admit) ?(on_reject = no_reject) ?(on_finish = no_finish)
    ~delta ~bandwidth next =
  let obs = Obs.Control.enabled () in
  let policy =
    match deadline_of with
    | None -> policy
    | Some deadline_of -> admission_policy ~deadline_of
  in
  let lp, eng = Circuit_sim.serving ~policy ~order ~config ~delta ~bandwidth in
  let arrivals = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let completed = ref 0 in
  let max_live = ref 0 in
  let makespan = ref 0. in
  (* one-Coflow stream lookahead *)
  let buf = ref None in
  let peek () =
    match !buf with
    | Some _ as s -> s
    | None -> (
      match next () with
      | Some _ as s ->
        buf := s;
        s
      | None -> None)
  in
  let last_arrival = ref neg_infinity in
  let sample_engine () =
    let sz = Inter.engine_size eng in
    if sz > !max_live then max_live := sz;
    if obs then Obs.Registry.gauge_set g_live (float_of_int sz)
  in
  let finish_of (c : Coflow.t) =
    match Inter.engine_finish eng c.id with
    | Some f -> f
    | None -> invalid_arg "Serve.run: admitted Coflow has no plan"
  in
  let admit (c : Coflow.t) ~finish =
    incr admitted;
    if obs then Obs.Registry.incr m_admitted;
    on_admit c ~finish
  in
  (* instant admission, skipping the engine: empty-demand Coflows and
     (with deadlines) arrivals that cannot possibly be served *)
  let complete_instantly (c : Coflow.t) =
    incr completed;
    if obs then Obs.Registry.incr m_completed;
    admit c ~finish:c.arrival;
    on_finish ~id:c.id ~t:c.arrival ~cct:0.
  in
  let reject (c : Coflow.t) reason =
    incr rejected;
    if obs then Obs.Registry.incr m_rejected;
    on_reject c reason
  in
  (* pull every stream Coflow arriving at or before [t] and hand over
     those that need the fabric — with deadlines, in EDF order for the
     loop's admission control. The loop pulls only at instants where
     the pulled Coflows arrive exactly, so admission schedules each at
     [now = t]. *)
  let pull t =
    let rec go batch =
      match peek () with
      | Some c when c.Coflow.arrival <= t ->
        buf := None;
        if c.Coflow.arrival < !last_arrival then
          invalid_arg "Serve.run: arrivals must be non-decreasing";
        last_arrival := c.Coflow.arrival;
        incr arrivals;
        if obs then Obs.Registry.incr m_arrivals;
        (* without deadlines every Coflow is servable *)
        let deadline =
          match deadline_of with Some f -> f c | None -> infinity
        in
        if Demand.is_empty c.demand && deadline >= c.arrival then begin
          complete_instantly c;
          go batch
        end
        else if deadline <= c.arrival then begin
          reject c (Expired { deadline });
          go batch
        end
        else go (c :: batch)
      | _ -> List.rev batch
    in
    let batch = go [] in
    match deadline_of with
    | None -> batch
    | Some deadline_of ->
      Service_order.sort (Deadline.edf ~deadline_of) ~bandwidth batch
  in
  (* deadline admission: keep the plan just scheduled if it meets the
     deadline *)
  let keep deadline_of (c : Coflow.t) =
    sample_engine ();
    let deadline = deadline_of c and finish = finish_of c in
    if finish <= deadline then admit c ~finish
    else reject c (Deadline_miss { deadline; finish });
    finish <= deadline
  in
  (* without admission control every scheduled arrival is admitted,
     with the finish its fresh plan carries *)
  let planned ~t:_ ~t_next:_ scheduled _ =
    List.iter (fun c -> admit c ~finish:(finish_of c)) (List.rev scheduled);
    sample_engine ()
  in
  let finished t (c : Coflow.t) =
    incr completed;
    if obs then Obs.Registry.incr m_completed;
    makespan := Float.max !makespan t;
    on_finish ~id:c.id ~t ~cct:(t -. c.arrival)
  in
  let o =
    Circuit_sim.drive lp
      {
        stop;
        next_arrival = peek;
        pull;
        keep = Option.map keep deadline_of;
        planned;
        finished;
        event_counter = m_events;
        event_timer = Some h_event;
      }
  in
  {
    arrivals = !arrivals;
    admitted = !admitted;
    rejected = !rejected;
    completed = !completed;
    events = o.events;
    setups = o.setups;
    max_live = !max_live;
    makespan = !makespan;
    stopped = o.stopped;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>arrivals:    %d@,\
     admitted:    %d@,\
     rejected:    %d@,\
     completed:   %d@,\
     events:      %d@,\
     setups:      %d@,\
     max live:    %d@,\
     makespan:    %g s"
    s.arrivals s.admitted s.rejected s.completed s.events s.setups s.max_live
    s.makespan;
  if s.stopped then Format.fprintf ppf "@,(interrupted)";
  Format.fprintf ppf "@]"
