module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module Order = Sunflow_core.Order
module Deadline = Sunflow_core.Deadline
module Slice = Sunflow_sim.Slice
module Obs = Sunflow_obs

type reject_reason =
  | Expired of { deadline : float }
  | Deadline_miss of { deadline : float; finish : float }

let pp_reject_reason ppf = function
  | Expired { deadline } ->
    Format.fprintf ppf "expired (deadline %g s at or before arrival)" deadline
  | Deadline_miss { deadline; finish } ->
    Format.fprintf ppf "deadline miss (needs %g s, deadline %g s)" finish
      deadline

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

type active = Slice.active = { orig : Coflow.t; remaining : Demand.t }

(* Bounded-memory observability: counters, one gauge and one histogram
   here, plus the slice executor's sim.setups / sim.teardowns /
   sim.delta_s — all O(1) state. The per-Coflow stores (Timeline,
   Sampler, Attrib) grow with the stream and are deliberately not fed. *)
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
   ties fall through to the engine's appended (arrival, id) tiebreak,
   matching the batch sort's — so admission never invalidates an
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
    ?config ?deadline_of ?(stop = no_stop) ?(on_admit = no_admit)
    ?(on_reject = no_reject) ?(on_finish = no_finish) ~delta ~bandwidth next =
  let obs = Obs.Control.enabled () in
  let policy =
    match deadline_of with
    | None -> policy
    | Some deadline_of -> admission_policy ~deadline_of
  in
  let eng =
    Inter.engine ~order ~runner:(Sunflow_sim.Circuit_sim.shard_runner ())
      ?config ~policy ~delta ~bandwidth ()
  in
  let active_tbl : (int, active) Hashtbl.t = Hashtbl.create 64 in
  let actives : active list ref = ref [] in
  let newly : Coflow.t list ref = ref [] in
  let retired : int list ref = ref [] in
  let arrivals = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let completed = ref 0 and n_events = ref 0 in
  let ex = Slice.create ~timeline:false ~bandwidth in
  let max_live = ref 0 in
  let makespan = ref 0. in
  let stopped = ref false in
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
  let remaining_of id =
    match Hashtbl.find_opt active_tbl id with
    | Some a -> a.remaining
    | None -> invalid_arg "Serve.run: unknown Coflow in engine"
  in
  let sample_engine () =
    let sz = Inter.engine_size eng in
    if sz > !max_live then max_live := sz;
    if obs then Obs.Registry.gauge_set g_live (float_of_int sz)
  in
  let flush_retired t =
    if !retired <> [] then begin
      Inter.schedule_incremental eng ~now:t ~arrivals:[] ~finished:!retired
        ~remaining:remaining_of;
      retired := []
    end
  in
  (* instant admission, skipping the engine: empty-demand Coflows and
     (with deadlines) arrivals that cannot possibly be served *)
  let complete_instantly (c : Coflow.t) =
    incr admitted;
    incr completed;
    if obs then begin
      Obs.Registry.incr m_admitted;
      Obs.Registry.incr m_completed
    end;
    on_admit c ~finish:c.arrival;
    on_finish ~id:c.id ~t:c.arrival ~cct:0.
  in
  let reject (c : Coflow.t) reason =
    incr rejected;
    if obs then Obs.Registry.incr m_rejected;
    on_reject c reason
  in
  (* deadline admission at [now = c.arrival]: schedule once on the real
     table, keep the plan if it meets the deadline, retire it (a pure
     retraction step — no second schedule) otherwise *)
  let admit_with_deadline deadline_of t (c : Coflow.t) =
    let deadline = deadline_of c in
    let a = { orig = c; remaining = Demand.copy c.demand } in
    Hashtbl.replace active_tbl c.id a;
    Inter.schedule_incremental eng ~now:t ~arrivals:[ c ] ~finished:[]
      ~remaining:remaining_of;
    sample_engine ();
    let finish =
      match Inter.engine_finish eng c.id with
      | Some f -> f
      | None -> invalid_arg "Serve.run: admitted Coflow has no plan"
    in
    if finish <= deadline then begin
      incr admitted;
      if obs then Obs.Registry.incr m_admitted;
      actives := a :: !actives;
      on_admit c ~finish
    end
    else begin
      Inter.schedule_incremental eng ~now:t ~arrivals:[] ~finished:[ c.id ]
        ~remaining:remaining_of;
      Hashtbl.remove active_tbl c.id;
      reject c (Deadline_miss { deadline; finish })
    end
  in
  (* pull every stream Coflow arriving at or before [t]. Both call
     sites guarantee the pulled Coflows arrive exactly at [t], so
     deadline admission runs its engine steps at [now = t]. *)
  let admit t =
    let rec pull batch =
      match peek () with
      | Some c when c.Coflow.arrival <= t ->
        buf := None;
        if c.Coflow.arrival < !last_arrival then
          invalid_arg "Serve.run: arrivals must be non-decreasing";
        last_arrival := c.Coflow.arrival;
        incr arrivals;
        if obs then Obs.Registry.incr m_arrivals;
        (match deadline_of with
        | None ->
          if Demand.is_empty c.demand then complete_instantly c
          else begin
            let a = { orig = c; remaining = Demand.copy c.demand } in
            Hashtbl.replace active_tbl c.id a;
            actives := a :: !actives;
            newly := c :: !newly
          end;
          pull batch
        | Some deadline_of ->
          let deadline = deadline_of c in
          if Demand.is_empty c.demand then begin
            if deadline >= c.arrival then complete_instantly c
            else reject c (Expired { deadline });
            pull batch
          end
          else if deadline <= c.arrival then begin
            reject c (Expired { deadline });
            pull batch
          end
          else pull (c :: batch))
      | _ -> List.rev batch
    in
    let batch = pull [] in
    match deadline_of with
    | None -> ()
    | Some deadline_of ->
      if batch <> [] then begin
        flush_retired t;
        List.iter
          (admit_with_deadline deadline_of t)
          (Inter.sort (Deadline.edf ~deadline_of) ~bandwidth batch)
      end
  in
  let rec loop t =
    if stop () then stopped := true
    else begin
      incr n_events;
      if obs then Obs.Registry.incr m_events;
      match (!actives, peek ()) with
      | [], None -> ()
      | [], Some c ->
        (* an idle gap: the engine is empty, nothing carries across *)
        admit c.Coflow.arrival;
        loop c.Coflow.arrival
      | acts, next_arrival ->
        let w0 = if obs then Obs.Control.now_ns () else 0L in
        (match deadline_of with
        | None ->
          Inter.schedule_incremental eng ~now:t ~arrivals:!newly
            ~finished:!retired ~remaining:remaining_of;
          (* no admission control: every scheduled arrival is admitted,
             with the finish its fresh plan carries *)
          List.iter
            (fun (c : Coflow.t) ->
              incr admitted;
              if obs then Obs.Registry.incr m_admitted;
              match Inter.engine_finish eng c.id with
              | Some finish -> on_admit c ~finish
              | None -> invalid_arg "Serve.run: admitted Coflow has no plan")
            (List.rev !newly);
          newly := [];
          retired := []
        | Some _ ->
          (* arrivals were admitted one by one inside [admit]; only a
             slice that finished Coflows without an arrival batch still
             has a step to take *)
          flush_retired t);
        sample_engine ();
        let t_next =
          match (next_arrival, Inter.engine_min_finish eng) with
          | Some c, Some t_done -> Float.min c.Coflow.arrival t_done
          | None, Some t_done -> t_done
          | Some c, None -> c.Coflow.arrival
          | None, None ->
            invalid_arg "Serve.run: active Coflows but an idle engine"
        in
        let finished, still =
          Slice.execute ex ~t ~t_next active_tbl
            (Inter.engine_slice eng ~t0:t ~t1:t_next)
            acts
        in
        List.iter
          (fun (a : active) ->
            let id = a.orig.Coflow.id in
            incr completed;
            if obs then Obs.Registry.incr m_completed;
            makespan := Float.max !makespan t_next;
            Hashtbl.remove active_tbl id;
            retired := id :: !retired;
            on_finish ~id ~t:t_next ~cct:(t_next -. a.orig.Coflow.arrival))
          finished;
        actives := still;
        admit t_next;
        if obs then
          Obs.Registry.observe h_event
            (Int64.to_float (Int64.sub (Obs.Control.now_ns ()) w0) /. 1e9);
        if !actives <> [] || peek () <> None then loop t_next
    end
  in
  (match peek () with
  | None -> ()
  | Some c ->
    admit c.Coflow.arrival;
    loop c.Coflow.arrival);
  Slice.close ex;
  {
    arrivals = !arrivals;
    admitted = !admitted;
    rejected = !rejected;
    completed = !completed;
    events = !n_events;
    setups = Slice.setups ex;
    max_live = !max_live;
    makespan = !makespan;
    stopped = !stopped;
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
