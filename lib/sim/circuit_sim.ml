module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Id_table = Sunflow_core.Id_table
module Inter = Sunflow_core.Inter
module Order = Sunflow_core.Order
module Prt = Sunflow_core.Prt
module Schedule = Sunflow_core.Schedule
module Sunflow = Sunflow_core.Sunflow

type active = Slice.active

(* Gated observability: wall-time spans around each scheduling event
   and each replan, the event counter, and the per-Coflow
   simulated-time timeline (arrival, completion; setups and subflow
   finishes are recorded by the slice executor, which also feeds the
   setup/teardown/δ metrics). All behind Sunflow_obs.Control. *)
module Obs = Sunflow_obs

let m_events = Obs.Registry.counter "sim.events"
let h_plan = Obs.Registry.histogram "sim.plan_s"

let check_unique_ids coflows =
  let ids = List.map (fun c -> c.Coflow.id) coflows in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Circuit_sim.replay: duplicate Coflow ids"

let no_release _ _ = []

(* Executed-slice telemetry (only called when obs is on): record every
   reservation's executed segment — clipped to [t, t_next) — into the
   attribution window store and the per-port ledger, plus one sampler
   snapshot for the slice. [`Full] passes every window of its plan and
   the anchored modes only the slice-overlapping ones; windows outside
   the slice record nothing, so the series is bit-identical wherever
   the executed schedules are. *)
let sample_slice ~t ~t_next ~n_active ~rescheduled ~spliced reservations =
  let circuits = ref 0 and tx_total = ref 0. and su_total = ref 0. in
  let busy : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Prt.reservation) ->
      let seg0 = Float.max r.start t in
      let seg1 = Float.min (Prt.stop r) t_next in
      if seg1 > seg0 then begin
        incr circuits;
        let tx_s = Schedule.transmission_overlap r ~t0:t ~t1:t_next in
        let su_s = Schedule.setup_overlap r ~t0:t ~t1:t_next in
        tx_total := !tx_total +. tx_s;
        su_total := !su_total +. su_s;
        Hashtbl.replace busy (0, r.src) ();
        Hashtbl.replace busy (1, r.dst) ();
        Obs.Attrib.record_window ~coflow:r.coflow ~src:r.src ~dst:r.dst
          ~t0:seg0
          ~tx:(r.start +. r.setup)
          ~t1:seg1;
        Obs.Sampler.port_busy ~src:r.src ~dst:r.dst ~setup_s:su_s ~tx_s
      end)
    reservations;
  Obs.Sampler.record
    {
      Obs.Sampler.m_t = t;
      m_t_next = t_next;
      m_active = n_active;
      m_circuits = !circuits;
      m_transmit_s = !tx_total;
      m_setup_s = !su_total;
      m_busy_ports = Hashtbl.length busy;
      m_rescheduled = rescheduled;
      m_spliced = spliced;
    }

type replan = [ `Full | `Rebuild | `Incremental ]

(* What a replan mode contributes to the event loop: how the plan
   advances at an event (given the event's arrivals, the Coflows
   finished since the last one, and the actives), the earliest
   planned finish ([infinity] if none), the windows the slice
   executes, and the carried-in circuits and plan the [on_slice] hook
   sees. [idle] is told that an idle gap passed. [work] returns the
   engine's (rescheduled, spliced) since its last call, for the
   sampler; [engine] is the anchored modes'
   persistent engine. *)
type planner = {
  advance :
    t:float -> arrivals:Coflow.t list -> finished:int list -> active list -> unit;
  next_finish : active list -> float;
  slice : t:float -> t_next:float -> Prt.reservation list;
  view : t:float -> (int * int) list * Inter.result;
  idle : unit -> unit;
  work : unit -> int * int;
  engine : Inter.engine option;
}

let scheduled a = Coflow.with_demand a.Slice.orig a.Slice.remaining

(* [`Full]: a fresh [Inter.schedule] over every active Coflow's
   remaining demand at every event, carrying in the circuits the
   previous plan has established at that instant (none after an idle
   gap). The slice executes every window of the plan. *)
let full_planner ~policy ~order ~carry_circuits ~delta ~bandwidth =
  let plan = ref None and established = ref [] in
  let current () = Option.get !plan in
  {
    advance =
      (fun ~t ~arrivals:_ ~finished:_ acts ->
        (established :=
           match !plan with
           | Some p when carry_circuits -> Prt.established_at p.Inter.prt t
           | _ -> []);
        plan :=
          Some
            (Inter.schedule ~now:t ~order ~established:!established ~policy
               ~delta ~bandwidth (List.map scheduled acts)));
    next_finish =
      (fun acts ->
        List.fold_left
          (fun acc a ->
            match Inter.finish_of (current ()) a.Slice.orig.Coflow.id with
            | Some f -> Float.min acc f
            | None ->
              invalid_arg "Circuit_sim.replay: Coflow missing from plan")
          infinity acts);
    slice = (fun ~t:_ ~t_next:_ -> Prt.all_reservations (current ()).Inter.prt);
    view = (fun ~t:_ -> (!established, current ()));
    idle = (fun () -> plan := None);
    work = (fun () -> (0, 0));
    engine = None;
  }

(* The anchored modes: one persistent [Inter.engine] instead of a
   fresh [Inter.schedule] per event. Plans stay anchored at each
   Coflow's last (re)scheduling instant; each slice executes the
   engine's stored windows clipped to [t, t_next)
   ([Inter.engine_slice]). [rebuild] runs the same engine decisions
   while reconstructing the table from scratch every event — the
   bit-exact oracle for the incremental repair. The hook sees the
   persistent plan materialised as a from-scratch result. *)
let anchored_planner ~rebuild ~policy ~order ~config ~delta ~bandwidth
    ~remaining_of =
  let eng = Inter.engine ~order ~rebuild ~config ~policy ~delta ~bandwidth () in
  let prev = ref (0, 0) in
  {
    advance =
      (fun ~t ~arrivals ~finished _ ->
        Inter.schedule_incremental eng ~now:t ~arrivals ~finished
          ~remaining:remaining_of);
    next_finish =
      (fun _ -> Option.value (Inter.engine_min_finish eng) ~default:infinity);
    slice = (fun ~t ~t_next -> Inter.engine_slice eng ~t0:t ~t1:t_next);
    view =
      (fun ~t ->
        ( Inter.engine_established eng,
          Inter.engine_view eng ~now:t ~remaining:remaining_of ));
    idle = ignore;
    work =
      (fun () ->
        let r0, s0 = !prev in
        let r1 = Inter.engine_rescheduled eng in
        let s1 = Inter.engine_spliced eng in
        prev := (r1, s1);
        (r1 - r0, s1 - s0));
    engine = Some eng;
  }

(* The loop's state: the planner, the slice executor, the active set
   by id and in admission order (newest first; this order reaches the
   policy's ties), those entered since the last slice, and the
   arrivals and finishes the next step hands the planner. *)
type loop = {
  p : planner;
  ex : Slice.t;
  obs : bool;
  by_id : active Id_table.t;
  mutable actives : active list;
  mutable entered : active list;
  mutable newly : Coflow.t list;
  mutable retired : int list;
}

(* [timeline]: the executor records per-Coflow setups and flow
   finishes, a store that grows with the run *)
let create ~timeline ~replan ~policy ~order ~config ~delta ~bandwidth =
  let by_id = Id_table.create 64 in
  let remaining_of id =
    match Id_table.find_opt by_id id with
    | Some a -> a.Slice.remaining
    | None -> invalid_arg "Circuit_sim: unknown Coflow in engine"
  in
  let p =
    match replan with
    | `Full ->
      full_planner ~policy ~order ~carry_circuits:config.Inter.carry_circuits
        ~delta ~bandwidth
    | (`Rebuild | `Incremental) as mode ->
      anchored_planner ~rebuild:(mode = `Rebuild) ~policy ~order ~config ~delta
        ~bandwidth ~remaining_of
  in
  {
    p;
    ex = Slice.create ~timeline ~bandwidth;
    obs = Obs.Control.enabled ();
    by_id;
    actives = [];
    entered = [];
    newly = [];
    retired = [];
  }

let serving ~policy ~order ~config ~delta ~bandwidth =
  let lp =
    create ~timeline:false ~replan:`Incremental ~policy ~order ~config ~delta
      ~bandwidth
  in
  (lp, Option.get lp.p.engine)

let enter lp (c : Coflow.t) =
  let a = Slice.active c in
  Id_table.replace lp.by_id c.id a;
  lp.actives <- a :: lp.actives;
  lp.entered <- a :: lp.entered;
  lp.newly <- c :: lp.newly

(* hand the planner the pending arrivals and finishes at [t] *)
let advance lp ~t =
  let go () =
    lp.p.advance ~t ~arrivals:lp.newly ~finished:lp.retired lp.actives
  in
  (if not lp.obs then go ()
   else begin
     Obs.Tracer.begin_span ~cat:"sim" "sim.replan";
     let w0 = Obs.Control.now_ns () in
     go ();
     Obs.Registry.observe h_plan
       (Int64.to_float (Int64.sub (Obs.Control.now_ns ()) w0) /. 1e9);
     Obs.Tracer.end_span ~cat:"sim" "sim.replan"
   end);
  lp.newly <- [];
  lp.retired <- []

let step lp ~t = if lp.newly <> [] || lp.retired <> [] then advance lp ~t

type driver = {
  stop : unit -> bool;
  next_arrival : unit -> Coflow.t option;
  pull : float -> Coflow.t list;
  keep : (Coflow.t -> bool) option;
  planned :
    t:float -> t_next:float -> Coflow.t list -> Prt.reservation list -> unit;
  finished : float -> Coflow.t -> unit;
  event_counter : Obs.Registry.counter;
  event_timer : Obs.Registry.histogram option;
}

type outcome = { events : int; setups : int; stopped : bool }

(* Enter what [d.pull] hands over. With [d.keep], admission control at
   pull time: once the last slice's finishes are retired, each arrival
   is scheduled alone on the real table, and a plan [keep] rejects is
   retracted again — a pure removal step, no second schedule. *)
let pull lp d t =
  let arrivals = d.pull t in
  match d.keep with
  | None -> List.iter (enter lp) arrivals
  | Some keep ->
    if arrivals <> [] then step lp ~t;
    List.iter
      (fun (c : Coflow.t) ->
        enter lp c;
        advance lp ~t;
        if not (keep c) then begin
          lp.actives <- List.tl lp.actives;
          lp.entered <- List.tl lp.entered;
          lp.retired <- [ c.id ];
          advance lp ~t;
          Id_table.remove lp.by_id c.id
        end)
      arrivals

let drive lp d =
  let timed = lp.obs && Option.is_some d.event_timer in
  let events = ref 0 and stopped = ref false in
  let rec loop t =
    if d.stop () then stopped := true
    else begin
      incr events;
      if lp.obs then Obs.Registry.incr d.event_counter;
      match (lp.actives, d.next_arrival ()) with
      | [], None -> ()
      | [], Some c ->
        pull lp d c.Coflow.arrival;
        (* an idle gap: no circuit survives it *)
        lp.p.idle ();
        loop c.Coflow.arrival
      | acts, next_arrival ->
        let w0 = if timed then Obs.Control.now_ns () else 0L in
        let arrivals = lp.newly in
        (* admission control already stepped the arrivals in *)
        if Option.is_some d.keep then step lp ~t else advance lp ~t;
        let t_done = lp.p.next_finish acts in
        let t_next =
          match next_arrival with
          | Some c -> Float.min c.Coflow.arrival t_done
          | None -> t_done
        in
        (* active Coflows always have a planned finish; waking at a
           fabricated instant would stall the loop *)
        if t_next = infinity then
          invalid_arg "Circuit_sim: active Coflows but an idle engine";
        let reservations = lp.p.slice ~t ~t_next in
        d.planned ~t ~t_next arrivals reservations;
        let finished, still =
          Slice.execute lp.ex ~t ~t_next lp.by_id ~entered:lp.entered
            reservations acts
        in
        lp.entered <- [];
        List.iter
          (fun (a : active) ->
            Id_table.remove lp.by_id a.Slice.orig.Coflow.id;
            lp.retired <- a.orig.Coflow.id :: lp.retired;
            d.finished t_next a.orig)
          finished;
        lp.actives <- still;
        pull lp d t_next;
        (match d.event_timer with
        | Some h when timed ->
          Obs.Registry.observe h
            (Int64.to_float (Int64.sub (Obs.Control.now_ns ()) w0) /. 1e9)
        | _ -> ());
        if lp.actives <> [] || d.next_arrival () <> None then loop t_next
    end
  in
  (match d.next_arrival () with
  | None -> ()
  | Some c ->
    pull lp d c.Coflow.arrival;
    loop c.Coflow.arrival);
  Slice.close lp.ex;
  { events = !events; setups = Slice.setups lp.ex; stopped = !stopped }

let replay ?(policy = Inter.Shortest_first) ?(order = Order.Ordered_port)
    ?(replan = `Full) ?(config = Inter.default_config)
    ?(on_complete = no_release) ?on_slice ~delta ~bandwidth coflows =
  if bandwidth <= 0. then invalid_arg "Circuit_sim.replay: bandwidth <= 0";
  if delta < 0. then invalid_arg "Circuit_sim.replay: negative delta";
  if replan = `Full && config.Inter.buckets <> 0 then
    invalid_arg "Circuit_sim.replay: buckets need an anchored replan mode";
  check_unique_ids coflows;
  let lp =
    create ~timeline:true ~replan ~policy ~order ~config ~delta ~bandwidth
  in
  let obs = lp.obs in
  let arrivals = Event_queue.create () in
  List.iter
    (fun c -> Event_queue.push arrivals ~time:c.Coflow.arrival c)
    (List.sort Coflow.compare_arrival coflows);
  let ccts = ref [] and finishes = ref [] in
  let makespan = ref 0. in
  let pull t =
    List.filter_map
      (fun (_, (c : Coflow.t)) ->
        if obs then
          Obs.Timeline.record
            (Obs.Timeline.Arrival { coflow = c.id; t = c.arrival });
        if Demand.is_empty c.demand then begin
          ccts := (c.id, 0.) :: !ccts;
          finishes := (c.id, c.arrival) :: !finishes;
          if obs then
            Obs.Timeline.record
              (Obs.Timeline.Finish { coflow = c.id; t = c.arrival; cct = 0. });
          None
        end
        else Some c)
      (Event_queue.drain_until arrivals t)
  in
  let planned ~t ~t_next _ reservations =
    (match on_slice with
    | Some f ->
      let established, plan = lp.p.view ~t in
      f ~t ~t_next ~established ~coflows:(List.map scheduled lp.actives) plan
    | None -> ());
    if obs then begin
      let rescheduled, spliced = lp.p.work () in
      sample_slice ~t ~t_next ~n_active:(List.length lp.actives) ~rescheduled
        ~spliced reservations
    end
  in
  let finished t_next (c : Coflow.t) =
    let cct = t_next -. c.arrival in
    ccts := (c.id, cct) :: !ccts;
    finishes := (c.id, t_next) :: !finishes;
    makespan := Float.max !makespan t_next;
    if obs then
      Obs.Timeline.record (Obs.Timeline.Finish { coflow = c.id; t = t_next; cct });
    List.iter
      (fun (c : Coflow.t) ->
        if c.arrival < t_next then
          invalid_arg "Circuit_sim.replay: released Coflow arrives in the past";
        Event_queue.push arrivals ~time:c.arrival c)
      (on_complete c.id t_next)
  in
  let o =
    drive lp
      {
        stop = (fun () -> false);
        next_arrival =
          (fun () -> Option.map snd (Event_queue.peek arrivals));
        pull;
        keep = None;
        planned;
        finished;
        event_counter = m_events;
        event_timer = None;
      }
  in
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    Sim_result.ccts = sorted !ccts;
    finishes = sorted !finishes;
    makespan = !makespan;
    n_events = o.events;
    total_setups = o.setups;
  }

(* the shard labels are checked and otherwise ignored: the engine has one
   table, and the frozen benchmark harness still passes them *)
let run ?policy ?order ?carry_circuits ?replan ?buckets ?bucket_base
    ?(shards = 1) ?(shard_block = 1) ?shard_stats:_ ?on_complete ?on_slice
    ~delta ~bandwidth coflows =
  if shards < 1 then invalid_arg "Circuit_sim.run: shards must be >= 1";
  if shard_block < 1 then
    invalid_arg "Circuit_sim.run: shard_block must be >= 1";
  replay ?policy ?order ?replan
    ~config:(Inter.config ?carry_circuits ?buckets ?bucket_base ())
    ?on_complete ?on_slice ~delta ~bandwidth coflows

let intra_cct ?(order = Order.Ordered_port) ~delta ~bandwidth coflow =
  Sunflow.schedule ~order ~delta ~bandwidth
    { coflow with Coflow.arrival = 0. }
