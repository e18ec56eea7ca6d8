module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Snapshot = Sunflow_packet.Snapshot
module Rate_alloc = Sunflow_packet.Rate_alloc

exception Stuck of float

type active = {
  orig : Coflow.t;
  remaining : Demand.t;
  mutable sent : float;
}

let check_unique_ids coflows =
  let ids = List.map (fun c -> c.Coflow.id) coflows in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Packet_sim.run: duplicate Coflow ids"

let aalo_thresholds (p : Sunflow_packet.Aalo.params) =
  List.init (p.n_queues - 1) (fun k ->
      p.first_threshold *. (p.multiplier ** float_of_int k))

let no_release _ _ = []

let run ?(sent_thresholds = []) ?(on_complete = no_release) ~scheduler
    ~bandwidth coflows =
  let sent_thresholds = List.sort_uniq compare sent_thresholds in
  if bandwidth <= 0. then invalid_arg "Packet_sim.run: bandwidth <= 0";
  check_unique_ids coflows;
  let arrivals = Event_queue.create () in
  List.iter
    (fun c -> Event_queue.push arrivals ~time:c.Coflow.arrival c)
    (List.sort Coflow.compare_arrival coflows);
  let active : active list ref = ref [] in
  let ccts = ref [] and finishes = ref [] in
  let n_events = ref 0 in
  let makespan = ref 0. in
  let record_finish (a : active) t =
    ccts := (a.orig.Coflow.id, t -. a.orig.Coflow.arrival) :: !ccts;
    finishes := (a.orig.Coflow.id, t) :: !finishes;
    makespan := Float.max !makespan t
  in
  let admit t =
    List.iter
      (fun (_, (c : Coflow.t)) ->
        if Demand.is_empty c.demand then begin
          (* empty Coflows complete the moment they arrive *)
          ccts := (c.id, 0.) :: !ccts;
          finishes := (c.id, c.arrival) :: !finishes
        end
        else
          active :=
            { orig = c; remaining = Demand.copy c.demand; sent = 0. } :: !active)
      (Event_queue.drain_until arrivals t)
  in
  let rec loop t =
    incr n_events;
    match (!active, Event_queue.peek arrivals) with
    | [], None -> ()
    | [], Some (ta, _) ->
      admit ta;
      loop ta
    | actives, next_arrival ->
      let snapshots =
        List.map
          (fun a ->
            { Snapshot.coflow = Coflow.with_demand a.orig a.remaining;
              sent = a.sent })
          actives
      in
      let rates = scheduler ~bandwidth snapshots in
      (* earliest Coflow completion under the current constant rates *)
      let completion (a : active) =
        List.fold_left
          (fun acc ((src, dst), bytes) ->
            let r =
              Rate_alloc.rate rates
                { Rate_alloc.coflow = a.orig.Coflow.id; src; dst }
            in
            if r <= 0. then infinity else Float.max acc (t +. (bytes /. r)))
          t
          (Demand.entries a.remaining)
      in
      let t_done =
        List.fold_left (fun acc a -> Float.min acc (completion a)) infinity
          actives
      in
      (* next instant some Coflow's cumulative sent bytes cross a
         priority threshold (Aalo queue boundaries) *)
      let threshold_crossing (a : active) =
        (* half-byte tolerance so a crossing that lands an ulp short of
           the threshold is not rescheduled forever (Zeno loop) *)
        match List.find_opt (fun th -> th > a.sent +. 0.5) sent_thresholds with
        | None -> infinity
        | Some th ->
          let total_rate =
            List.fold_left
              (fun acc ((src, dst), _) ->
                acc
                +. Rate_alloc.rate rates
                     { Rate_alloc.coflow = a.orig.Coflow.id; src; dst })
              0.
              (Demand.entries a.remaining)
          in
          if total_rate <= 0. then infinity
          else t +. ((th -. a.sent) /. total_rate)
      in
      let t_cross =
        if sent_thresholds = [] then infinity
        else
          List.fold_left
            (fun acc a -> Float.min acc (threshold_crossing a))
            infinity actives
      in
      let t_done = Float.min t_done t_cross in
      let t_next =
        match next_arrival with
        | Some (ta, _) -> Float.min ta t_done
        | None -> t_done
      in
      if t_next = infinity then raise (Stuck t);
      let dt = t_next -. t in
      List.iter
        (fun (a : active) ->
          List.iter
            (fun ((src, dst), bytes) ->
              let r =
                Rate_alloc.rate rates
                  { Rate_alloc.coflow = a.orig.Coflow.id; src; dst }
              in
              let moved = Float.min bytes (r *. dt) in
              if moved > 0. then begin
                Demand.drain a.remaining src dst moved;
                a.sent <- a.sent +. moved
              end)
            (Demand.entries a.remaining);
          Slice.snap_demand ~bandwidth a.remaining)
        actives;
      let finished, still =
        List.partition (fun a -> Demand.is_empty a.remaining) actives
      in
      List.iter
        (fun a ->
          record_finish a t_next;
          List.iter
            (fun (c : Coflow.t) ->
              if c.arrival < t_next then
                invalid_arg "Packet_sim.run: released Coflow arrives in the past";
              Event_queue.push arrivals ~time:c.arrival c)
            (on_complete a.orig.Coflow.id t_next))
        finished;
      active := still;
      admit t_next;
      if !active <> [] || not (Event_queue.is_empty arrivals) then loop t_next
  in
  (match Event_queue.peek arrivals with
  | None -> ()
  | Some (t0, _) ->
    admit t0;
    loop t0);
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    Sim_result.ccts = sorted !ccts;
    finishes = sorted !finishes;
    makespan = !makespan;
    n_events = !n_events;
    total_setups = 0;
  }
