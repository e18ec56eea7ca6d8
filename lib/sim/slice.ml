module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Id_table = Sunflow_core.Id_table
module Prt = Sunflow_core.Prt
module Schedule = Sunflow_core.Schedule
module Obs = Sunflow_obs

type active = {
  orig : Coflow.t;
  remaining : Demand.t;
  mutable drained : int;  (* the last slice that drained it *)
}

let active c = { orig = c; remaining = Demand.copy c.Coflow.demand; drained = 0 }

let m_setups = Obs.Registry.counter "sim.setups"
let m_teardowns = Obs.Registry.counter "sim.teardowns"
let g_delta = Obs.Registry.gauge "sim.delta_s"

(* Bytes below one microsecond of transmission are rounding dust, not
   demand: time arithmetic at hour scale carries ~1e-12 s of error,
   which at high link rates is a fraction of a byte per step. Flows are
   megabytes, so the tolerance is harmless. *)
let byte_eps bandwidth = Float.max 1e-3 (bandwidth *. 1e-6)

let snap_demand ~bandwidth d = Demand.snap d ~eps:(byte_eps bandwidth)

type t = {
  bandwidth : float;
  obs : bool;
  timeline : bool;
  mutable setups : int;
  mutable slices : int;  (* stamps [drained] *)
  (* Circuits physically established (their window paid a setup) and
     not yet torn down. A teardown is counted only when one of these
     actually closes — when its window stops inside a slice, or when a
     rescheduling instant drops it from the next plan — so the
     [sim.setups] / [sim.teardowns] counters balance; carried-over
     windows (zero setup at the replan instant) keep their circuit
     alive without touching either counter. Only the teardown counter
     reads it, so it is kept only while obs is on. *)
  live : (int * int, unit) Hashtbl.t;
  (* per-slice scratch, reused across events (cleared, not reallocated) *)
  reused : (int * int, unit) Hashtbl.t;
}

let create ~timeline ~bandwidth =
  let obs = Obs.Control.enabled () in
  {
    bandwidth;
    obs;
    timeline = obs && timeline;
    setups = 0;
    slices = 0;
    live = Hashtbl.create 16;
    reused = Hashtbl.create 8;
  }

let setups ex = ex.setups

(* teardowns at the rescheduling instant [t]: a live circuit the new
   plan does not carry over (zero setup starting at [t]) was torn down *)
let tear_down_stale ex ~t reservations =
  Hashtbl.clear ex.reused;
  List.iter
    (fun (r : Prt.reservation) ->
      if r.setup = 0. && r.start = t then
        Hashtbl.replace ex.reused (r.src, r.dst) ())
    reservations;
  Hashtbl.filter_map_inplace
    (fun circuit () ->
      if Hashtbl.mem ex.reused circuit then Some ()
      else begin
        Obs.Registry.incr m_teardowns;
        None
      end)
    ex.live

(* Only a Coflow that drained in this slice, or entered since the last
   one, can have emptied: every other active was snapped at its last
   drain or entry and found non-empty, and has not changed since. So
   only those are snapped and tested, and [acts] is partitioned only
   when one of them emptied. *)
let execute ex ~t ~t_next by_id ~entered reservations acts =
  ex.slices <- ex.slices + 1;
  let stamp = ex.slices and drained = ref [] in
  let touch a =
    if a.drained <> stamp then begin
      a.drained <- stamp;
      drained := a :: !drained
    end
  in
  List.iter touch entered;
  if ex.obs then tear_down_stale ex ~t reservations;
  List.iter
    (fun (r : Prt.reservation) ->
      if r.setup > 0. && r.start >= t && r.start < t_next then begin
        ex.setups <- ex.setups + 1;
        if ex.obs then begin
          Hashtbl.replace ex.live (r.src, r.dst) ();
          Obs.Registry.incr m_setups;
          Obs.Registry.gauge_add g_delta r.setup;
          if ex.timeline then
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
        ex.obs
        && Prt.stop r > t
        && Prt.stop r <= t_next
        && Hashtbl.mem ex.live (r.src, r.dst)
      then begin
        (* an established window closes inside this execution slice:
           its ports are released (a teardown under not-all-stop) *)
        Hashtbl.remove ex.live (r.src, r.dst);
        Obs.Registry.incr m_teardowns
      end)
    reservations;
  let bandwidth = ex.bandwidth in
  List.iter
    (fun (r : Prt.reservation) ->
      let seconds = Schedule.transmission_overlap r ~t0:t ~t1:t_next in
      if seconds > 0. then
        match Id_table.find by_id r.coflow with
        | a ->
          touch a;
          Demand.drain a.remaining r.src r.dst (seconds *. bandwidth);
          if
            ex.timeline
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
        | exception Not_found ->
          invalid_arg "Slice.execute: reservation for unknown Coflow")
    reservations;
  let emptied =
    List.fold_left
      (fun emptied a ->
        snap_demand ~bandwidth a.remaining;
        Demand.is_empty a.remaining || emptied)
      false !drained
  in
  if emptied then List.partition (fun a -> Demand.is_empty a.remaining) acts
  else ([], acts)

(* the fabric goes dark when the loop ends: whatever is still
   established is torn down *)
let close ex =
  if ex.obs then Obs.Registry.add m_teardowns (Hashtbl.length ex.live);
  Hashtbl.reset ex.live
