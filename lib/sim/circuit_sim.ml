module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module Order = Sunflow_core.Order
module Prt = Sunflow_core.Prt
module Schedule = Sunflow_core.Schedule
module Sunflow = Sunflow_core.Sunflow

type active = { orig : Coflow.t; remaining : Demand.t }

(* Gated observability: wall-time spans around each scheduling event
   and each replan, counters/gauges for the event loop's work (δ
   seconds paid, setups and teardowns executed), and the per-Coflow
   simulated-time timeline (arrival, setups with their δ, subflow
   finishes, completion). All behind Sunflow_obs.Control. *)
module Obs = Sunflow_obs

let m_events = Obs.Registry.counter "sim.events"
let m_setups = Obs.Registry.counter "sim.setups"
let m_teardowns = Obs.Registry.counter "sim.teardowns"
let g_delta = Obs.Registry.gauge "sim.delta_s"
let h_plan = Obs.Registry.histogram "sim.plan_s"

let byte_eps bandwidth = Float.max 1e-3 (bandwidth *. 1e-6)

let snap_demand ~bandwidth d =
  let eps = byte_eps bandwidth in
  List.iter
    (fun ((i, j), v) -> if v <= eps then Demand.set d i j 0.)
    (Demand.entries d)

let check_unique_ids coflows =
  let ids = List.map (fun c -> c.Coflow.id) coflows in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Circuit_sim.run: duplicate Coflow ids"

let no_release _ _ = []

(* Executed-slice telemetry (only called when obs is on): record every
   reservation's executed segment — clipped to [t, t_next) — into the
   attribution window store and the per-port ledger, plus one sampler
   snapshot for the slice. Both replay paths feed it the same
   slice-overlapping windows, so the recorded series is bit-identical
   wherever the executed schedules are. *)
let sample_slice ~t ~t_next ~n_active ~rescheduled ~spliced ~conflicts
    ~rollbacks reservations =
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
      m_conflicts = conflicts;
      m_rollbacks = rollbacks;
    }

type replan = [ `Full | `Rebuild | `Incremental ]

let run_full ~policy ~order ~carry_circuits ~on_complete ~on_slice ~delta
    ~bandwidth coflows =
  let arrivals = Event_queue.create () in
  List.iter
    (fun c -> Event_queue.push arrivals ~time:c.Coflow.arrival c)
    (List.sort Coflow.compare_arrival coflows);
  let obs = Obs.Control.enabled () in
  let active : active list ref = ref [] in
  let ccts = ref [] and finishes = ref [] in
  let n_events = ref 0 and setups = ref 0 in
  let makespan = ref 0. in
  (* Circuits physically established (their window paid a setup) and
     not yet torn down. A teardown is counted only when one of these
     actually closes — when its window stops inside a slice, or when a
     rescheduling instant drops it from the next plan — so the
     [sim.setups] / [sim.teardowns] counters balance; carried-over
     windows (zero setup at the replan instant) keep their circuit
     alive without touching either counter. *)
  let live : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* per-slice scratch tables, reused across the whole replay (cleared,
     not reallocated — the replay hot path runs once per event) *)
  let reused = Hashtbl.create 8 in
  let by_id = Hashtbl.create 16 in
  let admit t =
    List.iter
      (fun (_, (c : Coflow.t)) ->
        if obs then
          Obs.Timeline.record
            (Obs.Timeline.Arrival { coflow = c.id; t = c.arrival });
        if Demand.is_empty c.demand then begin
          ccts := (c.id, 0.) :: !ccts;
          finishes := (c.id, c.arrival) :: !finishes;
          if obs then
            Obs.Timeline.record
              (Obs.Timeline.Finish { coflow = c.id; t = c.arrival; cct = 0. })
        end
        else active := { orig = c; remaining = Demand.copy c.demand } :: !active)
      (Event_queue.drain_until arrivals t)
  in
  let rec loop t ~established =
    incr n_events;
    if obs then Obs.Registry.incr m_events;
    match (!active, Event_queue.peek arrivals) with
    | [], None -> ()
    | [], Some (ta, _) ->
      admit ta;
      (* an idle gap: no circuit survives it *)
      loop ta ~established:[]
    | actives, next_arrival ->
      let scheduled =
        List.map (fun a -> Coflow.with_demand a.orig a.remaining) actives
      in
      let replan () =
        Inter.schedule ~now:t ~order ~established ~policy ~delta ~bandwidth
          scheduled
      in
      let plan =
        if not obs then replan ()
        else begin
          Obs.Tracer.begin_span ~cat:"sim" "sim.replan";
          let w0 = Obs.Control.now_ns () in
          let plan = replan () in
          Obs.Registry.observe h_plan
            (Int64.to_float (Int64.sub (Obs.Control.now_ns ()) w0) /. 1e9);
          Obs.Tracer.end_span ~cat:"sim" "sim.replan";
          plan
        end
      in
      let planned_finish (a : active) =
        match Inter.finish_of plan a.orig.Coflow.id with
        | Some f -> f
        | None -> invalid_arg "Circuit_sim.run: Coflow missing from plan"
      in
      let t_done =
        List.fold_left
          (fun acc a -> Float.min acc (planned_finish a))
          infinity actives
      in
      let t_next =
        match next_arrival with
        | Some (ta, _) -> Float.min ta t_done
        | None -> t_done
      in
      (match on_slice with
      | Some f -> f ~t ~t_next ~established ~coflows:scheduled plan
      | None -> ());
      (* execute the plan over [t, t_next) *)
      let reservations = Prt.all_reservations plan.Inter.prt in
      if obs then
        sample_slice ~t ~t_next ~n_active:(List.length actives) ~rescheduled:0
          ~spliced:0 ~conflicts:0 ~rollbacks:0 reservations;
      (* circuits the new plan carries over without a fresh setup *)
      Hashtbl.clear reused;
      List.iter
        (fun (r : Prt.reservation) ->
          if r.setup = 0. && r.start = t then
            Hashtbl.replace reused (r.src, r.dst) ())
        reservations;
      (* a live circuit the plan does not reuse was torn down at the
         rescheduling instant *)
      let stale =
        Hashtbl.fold
          (fun circuit () acc ->
            if Hashtbl.mem reused circuit then acc else circuit :: acc)
          live []
      in
      List.iter
        (fun circuit ->
          Hashtbl.remove live circuit;
          if obs then Obs.Registry.incr m_teardowns)
        stale;
      List.iter
        (fun (r : Prt.reservation) ->
          if r.setup > 0. && r.start >= t && r.start < t_next then begin
            incr setups;
            Hashtbl.replace live (r.src, r.dst) ();
            if obs then begin
              Obs.Registry.incr m_setups;
              Obs.Registry.gauge_add g_delta r.setup;
              Obs.Timeline.record
                (Obs.Timeline.Setup
                   {
                     coflow = r.coflow;
                     src = r.src;
                     dst = r.dst;
                     t = r.start;
                     delta = r.setup;
                   })
            end
          end;
          if
            Prt.stop r > t
            && Prt.stop r <= t_next
            && Hashtbl.mem live (r.src, r.dst)
          then begin
            (* an established window closes inside this execution slice:
               its ports are released (a teardown under not-all-stop) *)
            Hashtbl.remove live (r.src, r.dst);
            if obs then Obs.Registry.incr m_teardowns
          end)
        reservations;
      Hashtbl.clear by_id;
      List.iter (fun a -> Hashtbl.replace by_id a.orig.Coflow.id a) actives;
      List.iter
        (fun (r : Prt.reservation) ->
          let seconds = Schedule.transmission_overlap r ~t0:t ~t1:t_next in
          if seconds > 0. then
            match Hashtbl.find_opt by_id r.coflow with
            | Some a ->
              Demand.drain a.remaining r.src r.dst (seconds *. bandwidth);
              if
                obs
                && Demand.get a.remaining r.src r.dst <= byte_eps bandwidth
              then
                Obs.Timeline.record
                  (Obs.Timeline.Flow_finish
                     {
                       coflow = r.coflow;
                       src = r.src;
                       dst = r.dst;
                       t = Float.min (Prt.stop r) t_next;
                     })
            | None -> invalid_arg "Circuit_sim.run: reservation for unknown Coflow")
        reservations;
      List.iter (fun a -> snap_demand ~bandwidth a.remaining) actives;
      let finished, still =
        List.partition (fun a -> Demand.is_empty a.remaining) actives
      in
      List.iter
        (fun (a : active) ->
          ccts := (a.orig.Coflow.id, t_next -. a.orig.Coflow.arrival) :: !ccts;
          finishes := (a.orig.Coflow.id, t_next) :: !finishes;
          makespan := Float.max !makespan t_next;
          if obs then
            Obs.Timeline.record
              (Obs.Timeline.Finish
                 {
                   coflow = a.orig.Coflow.id;
                   t = t_next;
                   cct = t_next -. a.orig.Coflow.arrival;
                 });
          List.iter
            (fun (c : Coflow.t) ->
              if c.arrival < t_next then
                invalid_arg "Circuit_sim.run: released Coflow arrives in the past";
              Event_queue.push arrivals ~time:c.arrival c)
            (on_complete a.orig.Coflow.id t_next))
        finished;
      active := still;
      admit t_next;
      if !active <> [] || not (Event_queue.is_empty arrivals) then begin
        let established =
          if carry_circuits then Prt.established_at plan.Inter.prt t_next
          else []
        in
        loop t_next ~established
      end
  in
  (match Event_queue.peek arrivals with
  | None -> ()
  | Some (t0, _) ->
    admit t0;
    loop t0 ~established:[]);
  (* the fabric goes dark when the replay ends: whatever is still
     established at the last finish is torn down *)
  if obs then Obs.Registry.add m_teardowns (Hashtbl.length live);
  Hashtbl.reset live;
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    Sim_result.ccts = sorted !ccts;
    finishes = sorted !finishes;
    makespan = !makespan;
    n_events = !n_events;
    total_setups = !setups;
  }

(* shard passes run on the domain pool when it actually has domains;
   a 1-domain pool would only add submission overhead to a loop that
   is already sequential. An unsharded engine has one pass per event
   and never consults the runner. *)
let shard_runner () =
  if Sunflow_parallel.Pool.default_jobs () > 1 then
    { Inter.run_passes = (fun fs -> Sunflow_parallel.Pool.run (fun f -> f ()) fs) }
  else Inter.sequential_runner

(* The incremental replay: one persistent [Inter.engine] instead of a
   fresh [Inter.schedule] per event. Plans stay anchored at each
   Coflow's last (re)scheduling instant; each slice executes the
   engine's stored windows clipped to [t, t_next). [rebuild] runs the
   same engine decisions while reconstructing the table from scratch
   every event — the bit-exact oracle for the incremental repair. *)
let run_anchored ~rebuild ~policy ~order ~carry_circuits ~buckets ~bucket_base
    ~shards ~shard_block ~shard_stats ~on_complete ~on_slice ~delta ~bandwidth
    coflows =
  let arrivals = Event_queue.create () in
  List.iter
    (fun c -> Event_queue.push arrivals ~time:c.Coflow.arrival c)
    (List.sort Coflow.compare_arrival coflows);
  let obs = Obs.Control.enabled () in
  let eng =
    Inter.engine ~order ~carry_circuits ~rebuild ~buckets ~bucket_base ~shards
      ~shard_block ~runner:(shard_runner ()) ~policy ~delta ~bandwidth ()
  in
  let active_tbl : (int, active) Hashtbl.t = Hashtbl.create 64 in
  let actives : active list ref = ref [] in
  let newly : Coflow.t list ref = ref [] in
  let retired : int list ref = ref [] in
  let ccts = ref [] and finishes = ref [] in
  let n_events = ref 0 and setups = ref 0 in
  let makespan = ref 0. in
  let live : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* per-slice scratch, reused across events (cleared, not reallocated) *)
  let reused = Hashtbl.create 8 in
  (* cumulative engine counters, differenced per event for the sampler *)
  let prev_resched = ref 0 and prev_spliced = ref 0 in
  let prev_conflicts = ref 0 and prev_rollbacks = ref 0 in
  let admit t =
    List.iter
      (fun (_, (c : Coflow.t)) ->
        if obs then
          Obs.Timeline.record
            (Obs.Timeline.Arrival { coflow = c.id; t = c.arrival });
        if Demand.is_empty c.demand then begin
          ccts := (c.id, 0.) :: !ccts;
          finishes := (c.id, c.arrival) :: !finishes;
          if obs then
            Obs.Timeline.record
              (Obs.Timeline.Finish { coflow = c.id; t = c.arrival; cct = 0. })
        end
        else begin
          let a = { orig = c; remaining = Demand.copy c.demand } in
          Hashtbl.replace active_tbl c.id a;
          actives := a :: !actives;
          newly := c :: !newly
        end)
      (Event_queue.drain_until arrivals t)
  in
  let remaining_of id =
    match Hashtbl.find_opt active_tbl id with
    | Some a -> a.remaining
    | None -> invalid_arg "Circuit_sim.run: unknown Coflow in engine"
  in
  let rec loop t =
    incr n_events;
    if obs then Obs.Registry.incr m_events;
    match (!actives, Event_queue.peek arrivals) with
    | [], None -> ()
    | [], Some (ta, _) ->
      admit ta;
      (* an idle gap: no circuit survives it (the engine is empty, so
         there is nothing to carry) *)
      loop ta
    | acts, next_arrival ->
      let step () =
        Inter.schedule_incremental eng ~now:t ~arrivals:!newly
          ~finished:!retired ~remaining:remaining_of
      in
      (if not obs then step ()
       else begin
         Obs.Tracer.begin_span ~cat:"sim" "sim.replan";
         let w0 = Obs.Control.now_ns () in
         step ();
         Obs.Registry.observe h_plan
           (Int64.to_float (Int64.sub (Obs.Control.now_ns ()) w0) /. 1e9);
         Obs.Tracer.end_span ~cat:"sim" "sim.replan"
       end);
      newly := [];
      retired := [];
      let t_next =
        match (next_arrival, Inter.engine_min_finish eng) with
        | Some (ta, _), Some t_done -> Float.min ta t_done
        | None, Some t_done -> t_done
        | Some (ta, _), None -> ta
        | None, None ->
          (* this branch has active Coflows, so the engine must hold at
             least one admitted plan; waking at a fabricated instant
             (the old [infinity] sentinel) would stall the replay *)
          invalid_arg "Circuit_sim.run: active Coflows but an idle engine"
      in
      let established = Inter.engine_established eng in
      (match on_slice with
      | Some f ->
        let scheduled =
          List.map (fun a -> Coflow.with_demand a.orig a.remaining) acts
        in
        f ~t ~t_next ~established ~coflows:scheduled
          (Inter.engine_view eng ~now:t ~remaining:remaining_of)
      | None -> ());
      (* execute the persistent plan over [t, t_next): same executor as
         the full path, fed the slice-overlapping windows only *)
      let reservations = Inter.engine_slice eng ~t0:t ~t1:t_next in
      if obs then begin
        let res = Inter.engine_rescheduled eng in
        let spl = Inter.engine_spliced eng in
        let ss = Inter.engine_shard_stats eng in
        sample_slice ~t ~t_next ~n_active:(List.length acts)
          ~rescheduled:(res - !prev_resched)
          ~spliced:(spl - !prev_spliced)
          ~conflicts:(ss.Inter.shard_conflicts - !prev_conflicts)
          ~rollbacks:(ss.Inter.shard_rollbacks - !prev_rollbacks)
          reservations;
        prev_resched := res;
        prev_spliced := spl;
        prev_conflicts := ss.Inter.shard_conflicts;
        prev_rollbacks := ss.Inter.shard_rollbacks
      end;
      Hashtbl.clear reused;
      List.iter
        (fun (r : Prt.reservation) ->
          if r.setup = 0. && r.start = t then
            Hashtbl.replace reused (r.src, r.dst) ())
        reservations;
      let stale =
        Hashtbl.fold
          (fun circuit () acc ->
            if Hashtbl.mem reused circuit then acc else circuit :: acc)
          live []
      in
      List.iter
        (fun circuit ->
          Hashtbl.remove live circuit;
          if obs then Obs.Registry.incr m_teardowns)
        stale;
      List.iter
        (fun (r : Prt.reservation) ->
          if r.setup > 0. && r.start >= t && r.start < t_next then begin
            incr setups;
            Hashtbl.replace live (r.src, r.dst) ();
            if obs then begin
              Obs.Registry.incr m_setups;
              Obs.Registry.gauge_add g_delta r.setup;
              Obs.Timeline.record
                (Obs.Timeline.Setup
                   {
                     coflow = r.coflow;
                     src = r.src;
                     dst = r.dst;
                     t = r.start;
                     delta = r.setup;
                   })
            end
          end;
          if
            Prt.stop r > t
            && Prt.stop r <= t_next
            && Hashtbl.mem live (r.src, r.dst)
          then begin
            Hashtbl.remove live (r.src, r.dst);
            if obs then Obs.Registry.incr m_teardowns
          end)
        reservations;
      List.iter
        (fun (r : Prt.reservation) ->
          let seconds = Schedule.transmission_overlap r ~t0:t ~t1:t_next in
          if seconds > 0. then
            match Hashtbl.find_opt active_tbl r.coflow with
            | Some a ->
              Demand.drain a.remaining r.src r.dst (seconds *. bandwidth);
              if
                obs
                && Demand.get a.remaining r.src r.dst <= byte_eps bandwidth
              then
                Obs.Timeline.record
                  (Obs.Timeline.Flow_finish
                     {
                       coflow = r.coflow;
                       src = r.src;
                       dst = r.dst;
                       t = Float.min (Prt.stop r) t_next;
                     })
            | None ->
              invalid_arg "Circuit_sim.run: reservation for unknown Coflow")
        reservations;
      List.iter (fun a -> snap_demand ~bandwidth a.remaining) acts;
      let finished, still =
        List.partition (fun a -> Demand.is_empty a.remaining) acts
      in
      List.iter
        (fun (a : active) ->
          let id = a.orig.Coflow.id in
          ccts := (id, t_next -. a.orig.Coflow.arrival) :: !ccts;
          finishes := (id, t_next) :: !finishes;
          makespan := Float.max !makespan t_next;
          if obs then
            Obs.Timeline.record
              (Obs.Timeline.Finish
                 { coflow = id; t = t_next; cct = t_next -. a.orig.Coflow.arrival });
          Hashtbl.remove active_tbl id;
          retired := id :: !retired;
          List.iter
            (fun (c : Coflow.t) ->
              if c.arrival < t_next then
                invalid_arg "Circuit_sim.run: released Coflow arrives in the past";
              Event_queue.push arrivals ~time:c.arrival c)
            (on_complete id t_next))
        finished;
      actives := still;
      admit t_next;
      if !actives <> [] || not (Event_queue.is_empty arrivals) then loop t_next
  in
  (match Event_queue.peek arrivals with
  | None -> ()
  | Some (t0, _) ->
    admit t0;
    loop t0);
  (match shard_stats with
  | Some r -> r := Inter.engine_shard_stats eng
  | None -> ());
  if obs then Obs.Registry.add m_teardowns (Hashtbl.length live);
  Hashtbl.reset live;
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    Sim_result.ccts = sorted !ccts;
    finishes = sorted !finishes;
    makespan = !makespan;
    n_events = !n_events;
    total_setups = !setups;
  }

let run ?(policy = Inter.Shortest_first) ?(order = Order.Ordered_port)
    ?(carry_circuits = true) ?(replan = `Full) ?(buckets = 0)
    ?(bucket_base = 4.) ?(shards = 1) ?(shard_block = 1) ?shard_stats
    ?(on_complete = no_release) ?on_slice ~delta ~bandwidth coflows =
  if bandwidth <= 0. then invalid_arg "Circuit_sim.run: bandwidth <= 0";
  if delta < 0. then invalid_arg "Circuit_sim.run: negative delta";
  check_unique_ids coflows;
  match replan with
  | `Full ->
    if buckets <> 0 then
      invalid_arg "Circuit_sim.run: buckets need an anchored replan mode";
    if shards <> 1 then
      invalid_arg "Circuit_sim.run: shards need an anchored replan mode";
    run_full ~policy ~order ~carry_circuits ~on_complete ~on_slice ~delta
      ~bandwidth coflows
  | (`Rebuild | `Incremental) as mode ->
    run_anchored ~rebuild:(mode = `Rebuild) ~policy ~order ~carry_circuits
      ~buckets ~bucket_base ~shards ~shard_block ~shard_stats ~on_complete ~on_slice ~delta ~bandwidth coflows

let intra_cct ?(order = Order.Ordered_port) ~delta ~bandwidth coflow =
  Sunflow.schedule ~order ~delta ~bandwidth
    { coflow with Coflow.arrival = 0. }
