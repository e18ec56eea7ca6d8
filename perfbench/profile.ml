(* Folds the program's own trace output into per-domain, per-span
   totals and self times. The tracer keeps at most 2^20 events per
   domain, so the harness calls [drain] from its callbacks — points where
   no program span is open — whenever the buffer passes [high_water];
   the fold state (open-span stacks included) survives across drains.
   A drain also folds and clears the simulated-time stores observability
   turns on (Sampler, Timeline, Attrib), which otherwise grow with the
   replay. *)

module Obs = Sunflow_obs

type stat = { mutable total : float; mutable self : float; mutable count : int }
type frame = { name : string; start : int64; mutable child : float }

type t = {
  stats : (int * string, stat) Hashtbl.t;  (** keyed by (domain, span) *)
  stacks : (int, frame list) Hashtbl.t;
  top : (int, float) Hashtbl.t;  (** outermost-span seconds per domain *)
  mutable unmatched : int;  (** end events that closed no open span *)
  mutable dropped : int;
  mutable rescheduled : int;  (** Sampler: engine suffix entries re-run *)
  mutable spliced : int;  (** Sampler: windows re-admitted verbatim *)
}

let high_water = 1 lsl 18

let create () =
  {
    stats = Hashtbl.create 16;
    stacks = Hashtbl.create 4;
    top = Hashtbl.create 4;
    unmatched = 0;
    dropped = 0;
    rescheduled = 0;
    spliced = 0;
  }

let seconds a b = Int64.to_float (Int64.sub b a) /. 1e9

let stat t key =
  match Hashtbl.find_opt t.stats key with
  | Some s -> s
  | None ->
    let s = { total = 0.; self = 0.; count = 0 } in
    Hashtbl.replace t.stats key s;
    s

let fold_event t (e : Obs.Tracer.event) =
  let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks e.tid) in
  match e.ph with
  | Obs.Tracer.Instant -> ()
  | Obs.Tracer.Begin ->
    Hashtbl.replace t.stacks e.tid
      ({ name = e.name; start = e.ts; child = 0. } :: stack)
  | Obs.Tracer.End -> (
    match stack with
    | f :: rest when f.name = e.name ->
      let dur = seconds f.start e.ts in
      let s = stat t (e.tid, e.name) in
      s.total <- s.total +. dur;
      s.self <- s.self +. dur -. f.child;
      s.count <- s.count + 1;
      (match rest with
      | parent :: _ -> parent.child <- parent.child +. dur
      | [] ->
        Hashtbl.replace t.top e.tid
          (Option.value ~default:0. (Hashtbl.find_opt t.top e.tid) +. dur));
      Hashtbl.replace t.stacks e.tid rest
    | _ -> t.unmatched <- t.unmatched + 1)

let drain t =
  List.iter (fold_event t) (Obs.Tracer.events ());
  t.dropped <- t.dropped + Obs.Tracer.dropped ();
  Obs.Tracer.clear ();
  List.iter
    (fun (s : Obs.Sampler.sample) ->
      t.rescheduled <- t.rescheduled + s.Obs.Sampler.m_rescheduled;
      t.spliced <- t.spliced + s.Obs.Sampler.m_spliced)
    (Obs.Sampler.samples ());
  Obs.Sampler.clear ();
  Obs.Timeline.clear ();
  Obs.Attrib.clear ()

let drain_if_full t = if Obs.Tracer.event_count () > high_water then drain t

let find t tid name = Hashtbl.find_opt t.stats (tid, name)
let total t tid name = match find t tid name with Some s -> s.total | None -> 0.
let self t tid name = match find t tid name with Some s -> s.self | None -> 0.
let top_level t tid = Option.value ~default:0. (Hashtbl.find_opt t.top tid)

(* a span's total over every domain *)
let total_all t name =
  Hashtbl.fold
    (fun (_, n) s acc -> if n = name then acc +. s.total else acc)
    t.stats 0.

let open_spans t = Hashtbl.fold (fun _ st acc -> acc + List.length st) t.stacks 0
