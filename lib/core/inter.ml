type policy = Service_order.policy =
  | Fifo
  | Shortest_first
  | Priority_classes of (Coflow.t -> int)
  | Custom of (Coflow.t -> Coflow.t -> int)

type result = {
  prt : Prt.t;
  per_coflow : (int * Sunflow.result) list;
  by_id : Sunflow.result Id_table.t;
}

let make_result prt per_coflow =
  let by_id = Id_table.create (List.length per_coflow) in
  List.iter (fun (id, r) -> Id_table.replace by_id id r) per_coflow;
  { prt; per_coflow; by_id }

(* The circuits carried into a replan, as a membership test. A
   [(src, dst)] pair packs into one int key (ports are non-negative and
   below 2^31), so a lookup hashes no tuple. *)
let circuit_key (s, d) = (s lsl 31) lor d

let circuit_set circuits =
  let set = Id_table.create (List.length circuits) in
  List.iter (fun c -> Id_table.replace set (circuit_key c) ()) circuits;
  fun c -> Id_table.mem set (circuit_key c)

module Obs = Sunflow_obs

let m_rounds = Obs.Registry.counter "inter.rounds"
(* Coflows per round: all of them for a [schedule] call, the dirty ones
   (arrivals, straddlers, stale finishes and those the order pulls in)
   for an incremental step — the rebuild oracle included *)
let h_batch = Obs.Registry.histogram "inter.coflows_per_round"

let schedule ?(now = 0.) ?(order = Order.Ordered_port) ?(established = [])
    ~policy ~delta ~bandwidth coflows =
  (* [finish_of] keys the result on Coflow ids, so duplicates would
     silently shadow one another — reject them like Circuit_sim.replay *)
  let ids = List.map (fun c -> c.Coflow.id) coflows in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Inter.schedule: duplicate Coflow ids";
  let obs = Obs.Control.enabled () in
  if obs then begin
    Obs.Registry.incr m_rounds;
    Obs.Registry.observe h_batch (float_of_int (List.length coflows));
    Obs.Tracer.begin_span ~cat:"core" "inter.schedule"
  end;
  let prt = Prt.create () in
  let is_established = circuit_set established in
  let ordered =
    if obs then
      Obs.Tracer.with_span ~cat:"core" "inter.sort" (fun () ->
          Service_order.sort policy ~bandwidth coflows)
    else Service_order.sort policy ~bandwidth coflows
  in
  let per_coflow =
    List.map
      (fun c ->
        let r =
          Sunflow.schedule ~prt ~now ~order ~established:is_established
            ~delta ~bandwidth c
        in
        (c.Coflow.id, r))
      ordered
  in
  if obs then Obs.Tracer.end_span ~cat:"core" "inter.schedule";
  make_result prt per_coflow

let finish_of result id =
  Id_table.find_opt result.by_id id
  |> Option.map (fun (r : Sunflow.result) -> r.finish)

(* --- incremental replanning engine ------------------------------------

   A persistent plan across replay events (semantics in inter.mli).
   [Service_order] ranks each Coflow once, at admission, keeps the
   entries in that order and says which entries an event's dirty ones
   pull in. One table serves the whole fabric, and an event runs one
   lazy repair pass ([run_pass]) over the order from its first dirty
   entry. *)

type state = {
  mutable e_plan : Sunflow.result;
  mutable e_mark : int;  (* dirty in the step with this stamp *)
  mutable e_evicted : Prt.reservation list;
      (* its windows the running repair pass evicted; [] between passes *)
}

(* an admitted Coflow: its service-order rank, carrying its state *)
type entry = state Service_order.rank

let fresh ~finish =
  let e_plan = { Sunflow.reservations = []; finish; setups = 0 } in
  { e_plan; e_mark = 0; e_evicted = [] }

type config = { carry_circuits : bool; buckets : int; bucket_base : float }

let default_config = { carry_circuits = true; buckets = 0; bucket_base = 4. }

let config ?carry_circuits ?buckets ?bucket_base () =
  let d = default_config in
  let c =
    {
      carry_circuits = Option.value carry_circuits ~default:d.carry_circuits;
      buckets = Option.value buckets ~default:d.buckets;
      bucket_base = Option.value bucket_base ~default:d.bucket_base;
    }
  in
  if c.buckets < 0 then invalid_arg "Inter.config: negative bucket count";
  if not (Float.is_finite c.bucket_base && c.bucket_base > 1.) then
    invalid_arg "Inter.config: bucket_base must be finite and > 1";
  c

type engine = {
  g_order : Order.t;
  g_delta : float;
  g_bandwidth : float;
  g_rebuild : bool;
  g_config : config;
  g_cmp : entry -> entry -> int;
  g_all : state Service_order.t;  (* active Coflows in service order *)
  mutable g_prt : Prt.t;  (* the reservation table *)
  mutable g_established : (int * int) list;
  g_index : entry Id_table.t;
  (* the step that last cleared each In / Out port *)
  mutable g_in_cleared : int array;
  mutable g_out_cleared : int array;
  mutable g_rescheduled : int;  (* suffix entries re-run through Sunflow *)
  mutable g_spliced : int;  (* suffix entries whose stored plan was kept *)
  mutable g_min : float;  (* cached min stored finish over [g_all] *)
  mutable g_min_stale : bool;
  mutable g_stamp : int;  (* steps taken; stamps the step's dirty marks *)
}

let engine ?(order = Order.Ordered_port) ?(rebuild = false)
    ?(config = default_config) ~policy ~delta ~bandwidth () =
  let all =
    Service_order.create ~buckets:config.buckets
      ~bucket_base:config.bucket_base ~delta ~bandwidth
      ~dummy:(fresh ~finish:neg_infinity) policy
  in
  {
    g_order = order;
    g_delta = delta;
    g_bandwidth = bandwidth;
    g_rebuild = rebuild;
    g_config = config;
    g_cmp = Service_order.compare all;
    g_all = all;
    g_prt = Prt.create ();
    g_established = [];
    g_index = Id_table.create 64;
    g_in_cleared = [||];
    g_out_cleared = [||];
    g_rescheduled = 0;
    g_spliced = 0;
    g_min = infinity;
    g_min_stale = true;
    g_stamp = 0;
  }

let refresh_min g =
  if g.g_min_stale then begin
    let m = ref infinity in
    for k = 0 to Service_order.length g.g_all - 1 do
      m := Float.min !m (Service_order.get g.g_all k).data.e_plan.Sunflow.finish
    done;
    g.g_min <- !m;
    g.g_min_stale <- false
  end

let engine_size g = Service_order.length g.g_all
let engine_established g = g.g_established

let engine_finish g id =
  Id_table.find_opt g.g_index id
  |> Option.map (fun (e : entry) -> e.data.e_plan.Sunflow.finish)

let engine_min_finish g =
  if Service_order.length g.g_all = 0 then None
  else begin
    refresh_min g;
    Some g.g_min
  end

let engine_rescheduled g = g.g_rescheduled
let engine_spliced g = g.g_spliced

type shard_stats = {
  shard_steps : int;
  shard_conflicts : int;
  shard_rollbacks : int;
}

let m_steps = Obs.Registry.counter "inter.incremental_steps"
let m_straddlers = Obs.Registry.counter "inter.dirty_straddlers"
let m_cascades = Obs.Registry.counter "inter.repair_cascades"

(* --- one event: the dirty set ---------------------------------------- *)

(* an event's dirty set — the entries whose [e_mark] is [stamp] — and
   its least entry (an entry, not a position — positions shift under
   admission) *)
type marks = {
  stamp : int;
  mutable n_dirty : int;
  mutable min_dirty : entry option;
}

let is_dirty m (e : entry) = e.data.e_mark = m.stamp

let mark g m e =
  if not (is_dirty m e) then begin
    e.data.e_mark <- m.stamp;
    m.n_dirty <- m.n_dirty + 1;
    match m.min_dirty with
    | Some l when g.g_cmp l e <= 0 -> ()
    | _ -> m.min_dirty <- Some e
  end

(* The engine's semantics: retire [finished], admit [arrivals] and
   decide which plans the event invalidates. Shared by the incremental
   step and the rebuild oracle; only the repair that follows differs. *)
let mark_event g ~obs ~now ~arrivals ~finished ~remaining =
  (* 1. retire finished Coflows. Every window of a finished Coflow
     stops at or before its recorded finish <= now, and every table
     query made on behalf of the remaining Coflows is a strict-greater
     successor search at an instant >= now, so the removal is invisible
     to them: no rescheduling. Between events the table holds exactly
     each live entry's stored plan, so the plan names what to retract. *)
  List.iter
    (fun id ->
      match Id_table.find_opt g.g_index id with
      | None -> invalid_arg "Inter.schedule_incremental: unknown finished id"
      | Some e ->
        Service_order.remove g.g_all e;
        g.g_min_stale <- true;
        Id_table.remove g.g_index id;
        ignore (Prt.retract g.g_prt e.data.e_plan.Sunflow.reservations : int))
    finished;
  (* 2. admit arrivals at their priority positions *)
  let m = { stamp = g.g_stamp; n_dirty = 0; min_dirty = None } in
  let all = g.g_all in
  let arrived =
    List.map
      (fun c ->
        if Id_table.mem g.g_index c.Coflow.id then
          invalid_arg "Inter.schedule_incremental: duplicate Coflow id";
        let e = Service_order.rank all c (fresh ~finish:now) in
        Service_order.insert all e;
        g.g_min_stale <- true;
        Id_table.replace g.g_index c.Coflow.id e;
        mark g m e;
        e)
      arrivals
  in
  (* 3. further dirty sources. Without carry-over every event restarts
     every circuit (all-stop), so everything is dirty. *)
  if not g.g_config.carry_circuits then
    for i = 0 to Service_order.length all - 1 do
      mark g m (Service_order.get all i)
    done;
  (* circuits physically up at [now], read before any repair (a
     rescheduled Coflow's transmitting circuit is still up, and its
     replacement plan may carry it delta-free). Retired Coflows' plans
     are retracted above, so every window met has a live owner. *)
  let covering = Prt.covering_at g.g_prt now in
  g.g_established <-
    (if g.g_config.carry_circuits then
       covering
       |> List.filter_map (fun r ->
              if r.Prt.start +. r.Prt.setup <= now then
                Some (r.Prt.src, r.Prt.dst)
              else None)
       |> List.sort_uniq Prt.compare_circuits
     else []);
  (* a window whose reconfiguration straddles [now] is neither an
     established circuit nor a fresh one; [schedule] restarts such
     setups from scratch at every replan, and the executed timeline
     cannot express a half-paid delta — so its owner is rescheduled *)
  List.iter
    (fun r ->
      if r.Prt.start +. r.Prt.setup > now then begin
        let e = Id_table.find g.g_index r.Prt.coflow in
        if obs && not (is_dirty m e) then Obs.Registry.incr m_straddlers;
        mark g m e
      end)
    covering;
  (* defensive: a stored finish at or before [now] with demand left
     would stall the event loop; re-anchor such plans. Nothing can
     hold one while the cached minimum finish is past [now]. *)
  refresh_min g;
  if g.g_min <= now then
    for k = 0 to Service_order.length all - 1 do
      let e = Service_order.get all k in
      if
        e.data.e_plan.Sunflow.finish <= now
        && (not (is_dirty m e))
        && not (Demand.is_empty (remaining e.coflow.Coflow.id))
      then mark g m e
    done;
  (* an arrival's retained class-mates after it (every later entry
     under the exact order) must be re-derived; later classes are left
     to splice-or-reschedule *)
  Service_order.pull_in all ~arrivals:arrived ~first:m.min_dirty (mark g m);
  m

let replan g ~prt ~now ~remaining ~is_established (e : entry) =
  let c = Coflow.with_demand e.coflow (remaining e.coflow.Coflow.id) in
  e.data.e_plan <-
    Sunflow.schedule ~prt ~now ~order:g.g_order ~established:is_established
      ~delta:g.g_delta ~bandwidth:g.g_bandwidth c

(* --- the rebuild oracle ----------------------------------------------- *)

(* identical decisions recomputed from scratch: a fresh table holding
   the clean prefix's stored windows, then the suffix in priority order
   — dirty entries rescheduled, a clean entry spliced back verbatim
   when every window still fits with zero overlap and rescheduled
   otherwise. The whole plan is re-derived, not patched around the
   surviving windows: a merged plan would break non-preemption and
   double-count setups. The fit test must be exact ([Prt.splice_exact]),
   not [reserve]'s dust-tolerant one: an upstream neighbour can land
   within rounding dust of a stored boundary, and re-admitting that
   would break strict per-port disjointness. No eviction: this is what
   [run_pass] is checked against. *)
let rebuild_repair g ~obs ~now ~remaining m =
  let prt = Prt.create () in
  g.g_prt <- prt;
  let all = g.g_all in
  let n = Service_order.length all in
  let first =
    match m.min_dirty with
    | None -> n
    | Some d -> Service_order.position all d
  in
  for i = 0 to first - 1 do
    let e = Service_order.get all i in
    List.iter (Prt.reserve prt) e.data.e_plan.Sunflow.reservations
  done;
  let is_established = circuit_set g.g_established in
  let reschedule e =
    replan g ~prt ~now ~remaining ~is_established e;
    g.g_rescheduled <- g.g_rescheduled + 1
  in
  for i = first to n - 1 do
    let e = Service_order.get all i in
    if is_dirty m e then reschedule e
    else if Prt.splice_exact prt e.data.e_plan.Sunflow.reservations then
      g.g_spliced <- g.g_spliced + 1
    else begin
      if obs then Obs.Registry.incr m_cascades;
      reschedule e
    end
  done;
  g.g_min_stale <- true

(* --- the incremental repair ------------------------------------------- *)

(* [a] grown (doubling, zero-filled) to cover index [i] *)
let cover a i =
  let n = Array.length a in
  if i < n then a
  else begin
    let a' = Array.make (max (2 * n) (i + 1)) 0 in
    Array.blit a 0 a' 0 n;
    a'
  end

(* One lazy-repair pass over the service order from its first dirty
   entry [d], against the one table.

   No rollback: a dirty entry, at its turn, clears every later-priority
   window from the ports its planner can touch (the senders/receivers
   of its remaining demand), recording the evicted windows per owner,
   then reschedules. An evicted clean entry re-admits its evicted
   windows verbatim at its own turn when they all still fit exactly,
   and re-plans otherwise; a clean entry nobody touched keeps its plan
   at zero cost. This matches the rebuild oracle bit for bit:
   [Sunflow.schedule] reads and writes only the ports of the Coflow's
   own demand, so each rescheduled entry sees, on every port it
   queries, the rebuild table's content at the same turn. Windows never
   evicted sit on ports no new window lands on and were disjoint, so
   they pass the oracle's fit test; evicted windows are tested against
   identical content on their ports. So the plans coincide.

   The pass starts by finding the service order's trailing run of
   dirty entries: nothing clean sorts after its first entry. The run's
   windows are retracted before the pass starts, and its entries then
   evict nothing — every later window is the run's own. That is the
   same table content on every port an earlier entry reschedules on
   (its eviction would have removed them), and windows that were
   disjoint from a clean entry's in the previous table cannot fail its
   fit test. Under the exact order the run is the whole suffix from
   the first dirty entry: retract it, reschedule it in order. *)
let run_pass g ~obs ~now ~remaining m d =
  let prt = g.g_prt and v = g.g_all in
  let is_established = circuit_set g.g_established in
  let reschedule e =
    replan g ~prt ~now ~remaining ~is_established e;
    g.g_rescheduled <- g.g_rescheduled + 1
  in
  let n = Service_order.length v in
  let first = Service_order.position v d in
  let tail_pos =
    let i = ref n in
    while !i > first && is_dirty m (Service_order.get v (!i - 1)) do
      decr i
    done;
    !i
  in
  for i = tail_pos to n - 1 do
    let e = Service_order.get v i in
    ignore (Prt.retract prt e.data.e_plan.Sunflow.reservations : int)
  done;
  if first < tail_pos then begin
    let stamp = g.g_stamp in
    (* [r], met on a port [e] clears, is evicted when its owner sorts
       after [e], and joins the owner's list. The owner sorts before
       the trailing run, so the pass reaches it later and empties the
       list again. *)
    let evicts e r =
      let o = Id_table.find g.g_index r.Prt.coflow in
      g.g_cmp e o < 0
      && begin
           o.data.e_evicted <- r :: o.data.e_evicted;
           true
         end
    in
    (* [e] clears each of [ports] unless this step already did;
       [cleared] is the namespace's stamp array, returned grown *)
    let clear e cleared port ports =
      List.fold_left
        (fun cleared p ->
          let cleared = cover cleared p in
          if cleared.(p) <> stamp then begin
            cleared.(p) <- stamp;
            Prt.evict prt (port p) (evicts e)
          end;
          cleared)
        cleared ports
    in
    (* a window of [e] on a port this pass already cleared is in
       [e_evicted] (the clearing entry sorted before [e]), so only the
       rest is still in the table to retract *)
    let cleared_now a p = p < Array.length a && a.(p) = stamp in
    let repair (e : entry) =
      e.data.e_evicted <- [];
      List.iter
        (fun r ->
          if
            not
              (cleared_now g.g_in_cleared r.Prt.src
              || cleared_now g.g_out_cleared r.Prt.dst)
          then ignore (Prt.remove prt r : bool))
        e.data.e_plan.Sunflow.reservations;
      let d = remaining e.coflow.Coflow.id in
      g.g_in_cleared <-
        clear e g.g_in_cleared (fun p -> Prt.In p) (Demand.senders d);
      g.g_out_cleared <-
        clear e g.g_out_cleared (fun p -> Prt.Out p) (Demand.receivers d);
      reschedule e
    in
    for i = first to tail_pos - 1 do
      let e = Service_order.get v i in
      if is_dirty m e then repair e
      else
        match e.data.e_evicted with
        | [] -> g.g_spliced <- g.g_spliced + 1
        | ws when Prt.splice_exact prt ws ->
          e.data.e_evicted <- [];
          g.g_spliced <- g.g_spliced + 1
        | _ ->
          if obs then Obs.Registry.incr m_cascades;
          repair e
    done
  end;
  for i = tail_pos to n - 1 do
    reschedule (Service_order.get v i)
  done;
  g.g_min_stale <- true

let schedule_incremental g ~now ~arrivals ~finished ~remaining =
  let obs = Obs.Control.enabled () in
  if obs then begin
    Obs.Registry.incr m_rounds;
    Obs.Registry.incr m_steps;
    Obs.Tracer.begin_span ~cat:"core" "inter.step"
  end;
  g.g_stamp <- g.g_stamp + 1;
  let m = mark_event g ~obs ~now ~arrivals ~finished ~remaining in
  if g.g_rebuild then rebuild_repair g ~obs ~now ~remaining m
  else Option.iter (run_pass g ~obs ~now ~remaining m) m.min_dirty;
  if obs then begin
    Obs.Registry.observe h_batch (float_of_int m.n_dirty);
    Obs.Tracer.end_span ~cat:"core" "inter.step"
  end

(* windows overlapping [t0, t1), straddlers clipped to start at [t0].
   After a [schedule_incremental] at [t0] no straddler is mid-setup
   (its owner would have been rescheduled), so clipped setups are 0 —
   the [Float.max] is defensive. *)
let clip_from t0 r =
  if r.Prt.start < t0 then
    {
      r with
      Prt.start = t0;
      setup = Float.max 0. (r.Prt.start +. r.Prt.setup -. t0);
      length = Prt.stop r -. t0;
    }
  else r

let engine_slice g ~t0 ~t1 =
  List.map (clip_from t0) (Prt.reservations_in g.g_prt t0 t1)

(* the persistent plan as the [result] a from-scratch replan at [now]
   would describe (see inter.mli); built only when a validation hook
   asks *)
let engine_view g ~now ~remaining =
  let per_coflow =
    let acc = ref [] in
    for i = Service_order.length g.g_all - 1 downto 0 do
      let e = Service_order.get g.g_all i in
      let id = e.coflow.Coflow.id in
      let rem = remaining id in
      let kept =
        List.filter_map
          (fun r ->
            if Prt.stop r <= now then None
            else if Demand.get rem r.Prt.src r.Prt.dst <= 0. then None
            else Some (clip_from now r))
          e.data.e_plan.Sunflow.reservations
      in
      let finish =
        List.fold_left (fun acc r -> Float.max acc (Prt.stop r)) now kept
      in
      let setups =
        List.fold_left (fun n r -> if r.Prt.setup > 0. then n + 1 else n) 0 kept
      in
      acc := (id, { Sunflow.reservations = kept; finish; setups }) :: !acc
    done;
    !acc
  in
  let prt = Prt.create () in
  List.iter
    (fun (_, (r : Sunflow.result)) -> List.iter (Prt.reserve prt) r.reservations)
    per_coflow;
  make_result prt per_coflow
