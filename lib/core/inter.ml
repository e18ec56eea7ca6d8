type policy =
  | Fifo
  | Shortest_first
  | Priority_classes of (Coflow.t -> int)
  | Custom of (Coflow.t -> Coflow.t -> int)

let sort policy ~bandwidth coflows =
  match policy with
  | Fifo -> List.stable_sort Coflow.compare_arrival coflows
  | Shortest_first ->
    (* decorate-sort-undecorate: the packet lower bound walks the whole
       demand matrix, so compute it once per Coflow rather than twice
       per comparison *)
    coflows
    |> List.map (fun c -> (Bounds.packet_lower ~bandwidth c.Coflow.demand, c))
    |> List.stable_sort (fun ((ta : float), a) (tb, b) ->
           match compare ta tb with 0 -> Coflow.compare_arrival a b | c -> c)
    |> List.map snd
  | Priority_classes class_of ->
    coflows
    |> List.map (fun c -> (class_of c, c))
    |> List.stable_sort (fun ((ka : int), a) (kb, b) ->
           match compare ka kb with 0 -> Coflow.compare_arrival a b | c -> c)
    |> List.map snd
  | Custom cmp -> List.stable_sort cmp coflows

let policy_name = function
  | Fifo -> "fifo"
  | Shortest_first -> "shortest-coflow-first"
  | Priority_classes _ -> "priority-classes"
  | Custom _ -> "custom"

type result = {
  prt : Prt.t;
  per_coflow : (int * Sunflow.result) list;
  by_id : (int, Sunflow.result) Hashtbl.t;
}

let make_result prt per_coflow =
  let by_id = Hashtbl.create (max 16 (List.length per_coflow)) in
  List.iter (fun (id, r) -> Hashtbl.replace by_id id r) per_coflow;
  { prt; per_coflow; by_id }

module Obs = Sunflow_obs

let m_rounds = Obs.Registry.counter "inter.rounds"
(* Coflows per round: all of them for a [schedule] call, the dirty ones
   (arrivals, straddlers, stale finishes, poisoned bucket-mates and,
   under the exact order, the whole suffix from the first of those)
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
  let established_set = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace established_set c ()) established;
  let is_established c = Hashtbl.mem established_set c in
  let ordered =
    if obs then
      Obs.Tracer.with_span ~cat:"core" "inter.sort" (fun () ->
          sort policy ~bandwidth coflows)
    else sort policy ~bandwidth coflows
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
  Hashtbl.find_opt result.by_id id
  |> Option.map (fun (r : Sunflow.result) -> r.finish)

(* --- incremental replanning engine ------------------------------------

   Keeps a persistent plan across replay events instead of re-running
   every active Coflow through [Sunflow.schedule] at each one.
   Soundness rests on non-preemption: a Coflow's reservations depend
   only on the table contents written by Coflows sorting before it, so
   an arrival invalidates exactly the suffix of the priority order at
   or after its insertion point, and a finish invalidates nothing (its
   windows all stop at or before the finish instant, and every table
   query the suffix makes is a strict-greater successor search at or
   after it — removal is invisible).

   Priority keys are fixed at admission (the Coflow's original demand),
   whereas [schedule] re-keys [Shortest_first] on remaining demand at
   every event. That is a different policy, not a rounding difference:
   a Coflow that has drained below a later arrival's size keeps its
   lead under [schedule] and yields to the arrival here. The engine's
   plans are also anchored at each Coflow's last (re)scheduling instant
   rather than recomputed from the current remaining demand, which
   rounds window boundaries differently. The engine's oracle is
   therefore its own [rebuild] mode — same decisions recomputed from a
   fresh table every event — not [schedule].

   One table serves the whole fabric, and an event runs one lazy
   repair pass ([run_pass]) over the service order from its first
   dirty entry. *)

type entry = {
  e_coflow : Coflow.t;  (* original record: fixed priority-key inputs *)
  e_key : float;  (* cached priority key (policy-dependent) *)
  e_bucket : int;  (* quantized priority class; 0 when buckets are off *)
  mutable e_plan : Sunflow.result;
  mutable e_mark : int;  (* dirty in the step with this stamp *)
}

(* the service order: a sorted vector of entries *)
type evec = { mutable v_arr : entry array; mutable v_n : int }

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
  g_policy : policy;
  g_order : Order.t;
  g_delta : float;
  g_bandwidth : float;
  g_rebuild : bool;
  g_config : config;
  g_cmp : entry -> entry -> int;
  g_all : evec;  (* active Coflows in service order *)
  mutable g_prt : Prt.t;  (* the reservation table *)
  mutable g_established : (int * int) list;
  g_index : (int, entry) Hashtbl.t;
  mutable g_rescheduled : int;  (* suffix entries re-run through Sunflow *)
  mutable g_spliced : int;  (* suffix entries whose stored plan was kept *)
  mutable g_min : float;  (* cached min stored finish over [g_all] *)
  mutable g_min_stale : bool;
  mutable g_stamp : int;  (* steps taken; stamps the step's dirty marks *)
}

let entry_key policy ~bandwidth c =
  match policy with
  | Fifo | Custom _ -> 0.
  | Shortest_first -> Bounds.packet_lower ~bandwidth c.Coflow.demand
  | Priority_classes class_of -> float_of_int (class_of c)

(* quantize a priority key into one of [buckets] classes. For
   [Shortest_first] the classes are exponentially spaced in units of
   the reconfiguration delay: coflows that finish within one delta are
   all "short" (class 0) and a coflow [base] times longer moves one
   class down — the D-CLAS-style coarsening that keeps an arrival from
   outranking everything with a marginally larger key. For
   [Priority_classes] the operator's class is clamped into range.
   [Fifo]/[Custom] have no numeric key to quantize: one class. *)
let bucket_of ~policy ~buckets ~bucket_base ~delta key =
  if buckets <= 0 then 0
  else
    match policy with
    | Fifo | Custom _ -> 0
    | Priority_classes _ ->
      let k = int_of_float key in
      if k < 0 then 0 else if k >= buckets then buckets - 1 else k
    | Shortest_first ->
      let unit = if delta > 0. then delta else 1e-3 in
      if key <= unit then 0
      else
        let b =
          1 + int_of_float (Float.log (key /. unit) /. Float.log bucket_base)
        in
        if b >= buckets then buckets - 1 else b

(* total order: every policy comparator falls back to (arrival, id), so
   distinct Coflows never compare equal and binary search finds exact
   positions. [Custom] comparators get the same tiebreak appended.
   With buckets on, key-ordered policies compare the quantized class
   first and are FIFO within it — a new arrival then sorts at the END
   of its class (its arrival is the latest), so it cannot dirty
   retained same-class plans. *)
let entry_cmp ~buckets policy =
  match policy with
  | Fifo -> fun a b -> Coflow.compare_arrival a.e_coflow b.e_coflow
  | (Shortest_first | Priority_classes _) when buckets > 0 ->
    fun a b ->
      (match compare a.e_bucket b.e_bucket with
      | 0 -> Coflow.compare_arrival a.e_coflow b.e_coflow
      | c -> c)
  | Shortest_first | Priority_classes _ ->
    fun a b ->
      (match compare a.e_key b.e_key with
      | 0 -> Coflow.compare_arrival a.e_coflow b.e_coflow
      | c -> c)
  | Custom cmp ->
    fun a b ->
      (match cmp a.e_coflow b.e_coflow with
      | 0 -> Coflow.compare_arrival a.e_coflow b.e_coflow
      | c -> c)

let engine ?(order = Order.Ordered_port) ?(rebuild = false)
    ?(config = default_config) ~policy ~delta ~bandwidth () =
  {
    g_policy = policy;
    g_order = order;
    g_delta = delta;
    g_bandwidth = bandwidth;
    g_rebuild = rebuild;
    g_config = config;
    g_cmp = entry_cmp ~buckets:config.buckets policy;
    g_all = { v_arr = [||]; v_n = 0 };
    g_prt = Prt.create ();
    g_established = [];
    g_index = Hashtbl.create 64;
    g_rescheduled = 0;
    g_spliced = 0;
    g_min = infinity;
    g_min_stale = true;
    g_stamp = 0;
  }

(* filler for unused vector slots, so spare capacity and vacated
   positions never pin a retired Coflow (and its demand matrix) against
   the GC. Lazy because building it needs a Coflow. *)
let dummy_entry =
  lazy
    {
      e_coflow = Coflow.make ~id:min_int ~arrival:0. (Demand.create ());
      e_key = neg_infinity;
      e_bucket = 0;
      e_plan = { Sunflow.reservations = []; finish = neg_infinity; setups = 0 };
      e_mark = 0;
    }

(* first index whose entry sorts at or after [e] *)
let evec_lower cmp v e =
  let lo = ref 0 and hi = ref v.v_n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp v.v_arr.(mid) e < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let evec_insert cmp v e =
  let k = evec_lower cmp v e in
  let cap = Array.length v.v_arr in
  if v.v_n = cap then begin
    let arr = Array.make (max 8 (2 * cap)) (Lazy.force dummy_entry) in
    Array.blit v.v_arr 0 arr 0 v.v_n;
    v.v_arr <- arr
  end;
  Array.blit v.v_arr k v.v_arr (k + 1) (v.v_n - k);
  v.v_arr.(k) <- e;
  v.v_n <- v.v_n + 1

let evec_remove cmp v e =
  let k = evec_lower cmp v e in
  (* unconditional (must survive [-noassert]): an inconsistent [Custom]
     comparator — one whose answers changed since this entry was
     inserted — sends the binary search to the wrong position, and a
     blind blit from there would silently corrupt the service order *)
  if not (k < v.v_n && v.v_arr.(k) == e) then
    invalid_arg
      "Inter.remove_entry: entry not found at its ordered position \
       (inconsistent comparator?)";
  Array.blit v.v_arr (k + 1) v.v_arr k (v.v_n - k - 1);
  v.v_n <- v.v_n - 1;
  (* clear the vacated slot — same GC-pinning concern as growth *)
  v.v_arr.(v.v_n) <- Lazy.force dummy_entry

let refresh_min g =
  if g.g_min_stale then begin
    let v = g.g_all in
    let m = ref infinity in
    for k = 0 to v.v_n - 1 do
      m := Float.min !m v.v_arr.(k).e_plan.Sunflow.finish
    done;
    g.g_min <- !m;
    g.g_min_stale <- false
  end

let engine_size g = g.g_all.v_n
let engine_established g = g.g_established

let engine_finish g id =
  match Hashtbl.find_opt g.g_index id with
  | Some e -> Some e.e_plan.Sunflow.finish
  | None -> None

let engine_min_finish g =
  if g.g_all.v_n = 0 then None
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

let is_dirty m e = e.e_mark = m.stamp

let mark g m e =
  if not (is_dirty m e) then begin
    e.e_mark <- m.stamp;
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
     to them: no rescheduling. *)
  List.iter
    (fun id ->
      match Hashtbl.find_opt g.g_index id with
      | None -> invalid_arg "Inter.schedule_incremental: unknown finished id"
      | Some e ->
        evec_remove g.g_cmp g.g_all e;
        g.g_min_stale <- true;
        Hashtbl.remove g.g_index id;
        ignore (Prt.retract_coflow g.g_prt id : int))
    finished;
  (* 2. admit arrivals at their priority positions *)
  let m = { stamp = g.g_stamp; n_dirty = 0; min_dirty = None } in
  List.iter
    (fun c ->
      if Hashtbl.mem g.g_index c.Coflow.id then
        invalid_arg "Inter.schedule_incremental: duplicate Coflow id";
      let key = entry_key g.g_policy ~bandwidth:g.g_bandwidth c in
      let e =
        {
          e_coflow = c;
          e_key = key;
          e_bucket =
            bucket_of ~policy:g.g_policy ~buckets:g.g_config.buckets
              ~bucket_base:g.g_config.bucket_base ~delta:g.g_delta key;
          e_plan = { Sunflow.reservations = []; finish = now; setups = 0 };
          e_mark = 0;
        }
      in
      evec_insert g.g_cmp g.g_all e;
      g.g_min_stale <- true;
      Hashtbl.replace g.g_index c.Coflow.id e;
      mark g m e)
    arrivals;
  (* 3. further dirty sources. Without carry-over every event restarts
     every circuit (all-stop), so everything is dirty. *)
  let all = g.g_all in
  if not g.g_config.carry_circuits then
    for i = 0 to all.v_n - 1 do
      mark g m all.v_arr.(i)
    done;
  (* circuits physically up at [now], read before any repair (a
     rescheduled Coflow's transmitting circuit is still up, and its
     replacement plan may carry it delta-free). Windows of retired
     Coflows are filtered out: the rebuild oracle's table is the stale
     one of the previous event. *)
  let covering =
    List.filter
      (fun r -> Hashtbl.mem g.g_index r.Prt.coflow)
      (Prt.covering_at g.g_prt now)
  in
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
        let e = Hashtbl.find g.g_index r.Prt.coflow in
        if obs && not (is_dirty m e) then Obs.Registry.incr m_straddlers;
        mark g m e
      end)
    covering;
  (* defensive: a stored finish at or before [now] with demand left
     would stall the event loop; re-anchor such plans. Nothing can
     hold one while the cached minimum finish is past [now]. *)
  refresh_min g;
  if g.g_min <= now then
    for k = 0 to all.v_n - 1 do
      let e = all.v_arr.(k) in
      if
        e.e_plan.Sunflow.finish <= now
        && (not (is_dirty m e))
        && not (Demand.is_empty (remaining e.e_coflow.Coflow.id))
      then mark g m e
    done;
  (* an arrival poisons the rest of its own bucket: within a bucket the
     order is FIFO, so a retained entry sorting after a new arrival in
     the same class means an equal-arrival tiebreak (or a [Custom]
     policy, where every Coflow shares class 0) — in either case the
     within-class order shifted under the retained plan, so it must be
     re-derived rather than spliced. Entries in strictly later buckets
     are left clean and handled by splice-or-reschedule. Buckets are
     contiguous runs of the service order, so "some retained entry
     sorts after an arrival in its class" is "some arrival's immediate
     successor shares its class" — checked in O(arrivals log n) before
     the scan. *)
  if
    g.g_config.buckets > 0
    && List.exists
         (fun c ->
           let e = Hashtbl.find g.g_index c.Coflow.id in
           let k = evec_lower g.g_cmp all e in
           k + 1 < all.v_n && all.v_arr.(k + 1).e_bucket = e.e_bucket)
         arrivals
  then begin
    let arrived = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.replace arrived c.Coflow.id ()) arrivals;
    let poisoned = Array.make g.g_config.buckets false in
    for i = 0 to all.v_n - 1 do
      let e = all.v_arr.(i) in
      if poisoned.(e.e_bucket) then mark g m e
      else if Hashtbl.mem arrived e.e_coflow.Coflow.id then
        poisoned.(e.e_bucket) <- true
    done
  end;
  (* exact order: the whole suffix from the first dirty entry is
     re-derived (anchored plans re-round at the ulp scale if re-derived
     at a different [now], so clean suffix entries cannot be kept
     without diverging from the oracle) *)
  (if g.g_config.buckets = 0 then
     match m.min_dirty with
     | None -> ()
     | Some d ->
       for i = evec_lower g.g_cmp all d to all.v_n - 1 do
         mark g m all.v_arr.(i)
       done);
  m

let established_pred g =
  let est_set = Hashtbl.create 16 in
  List.iter (fun cc -> Hashtbl.replace est_set cc ()) g.g_established;
  fun cc -> Hashtbl.mem est_set cc

let replan g ~prt ~now ~remaining ~is_established e =
  let c = Coflow.with_demand e.e_coflow (remaining e.e_coflow.Coflow.id) in
  e.e_plan <-
    Sunflow.schedule ~prt ~now ~order:g.g_order ~established:is_established
      ~delta:g.g_delta ~bandwidth:g.g_bandwidth c

(* --- the rebuild oracle ----------------------------------------------- *)

(* identical decisions recomputed from scratch: a fresh table holding
   the clean prefix's stored windows, then the suffix in priority order
   — dirty entries rescheduled (under the exact order that is all of
   them), a clean entry spliced back verbatim when every window still
   fits with zero overlap and rescheduled otherwise. The whole plan is
   re-derived rather than patched around the surviving windows: a
   merged plan would break non-preemption (a kept split-window whose
   blocking neighbour moved ends with demand left and nothing occupying
   its port) and double-count circuit setups. The fit test must be
   exact, not [reserve]'s dust-tolerant one: a rescheduled upstream
   neighbour can land within rounding dust of a stored boundary, and
   re-admitting that would break the validator's strict per-port
   disjointness — [Prt.splice_exact] is exactly that
   check-all-then-reserve-all primitive. No eviction: this is what
   [run_pass] is checked against. *)
let rebuild_repair g ~obs ~now ~remaining m =
  let prt = Prt.create () in
  g.g_prt <- prt;
  let all = g.g_all in
  let first =
    match m.min_dirty with
    | None -> all.v_n
    | Some d -> evec_lower g.g_cmp all d
  in
  for i = 0 to first - 1 do
    List.iter (Prt.reserve prt) all.v_arr.(i).e_plan.Sunflow.reservations
  done;
  let is_established = established_pred g in
  let reschedule e =
    replan g ~prt ~now ~remaining ~is_established e;
    g.g_rescheduled <- g.g_rescheduled + 1
  in
  for i = first to all.v_n - 1 do
    let e = all.v_arr.(i) in
    if is_dirty m e then reschedule e
    else if Prt.splice_exact prt e.e_plan.Sunflow.reservations then
      g.g_spliced <- g.g_spliced + 1
    else begin
      if obs then Obs.Registry.incr m_cascades;
      reschedule e
    end
  done;
  g.g_min_stale <- true

(* --- the incremental repair ------------------------------------------- *)

(* One lazy-repair pass over the service order from its first dirty
   entry [d], in priority order, against the one table.

   No rollback: a dirty entry, at its turn in priority order, clears
   every later-priority window from the ports its planner can touch
   (the senders/receivers of its remaining demand), recording the
   evicted windows per owner, then reschedules. An evicted ("touched")
   clean entry re-admits its evicted windows verbatim at its own turn
   when they all still fit exactly, and partially re-plans otherwise;
   a clean entry nobody touched keeps its plan at zero cost. This
   matches the rebuild oracle's decisions bit-for-bit:
   [Sunflow.schedule] reads and writes only the ports of the Coflow's
   own demand ([Prt.chance] takes explicit ports),
   so each rescheduled entry sees, on every port it queries, exactly
   the prefix plus already-processed suffix — the rebuild table's
   content at the same turn. Windows never evicted sit on ports no new
   window lands on, and the old windows were mutually disjoint, so
   they'd pass the oracle's fit test unconditionally; evicted windows
   are tested against table content identical on their ports. The
   fit-failure sets therefore coincide, and so do the plans.

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
  let is_established = established_pred g in
  let reschedule e =
    replan g ~prt ~now ~remaining ~is_established e;
    g.g_rescheduled <- g.g_rescheduled + 1
  in
  let first = evec_lower g.g_cmp v d in
  let tail_pos =
    let i = ref v.v_n in
    while !i > first && is_dirty m v.v_arr.(!i - 1) do
      decr i
    done;
    !i
  in
  for i = tail_pos to v.v_n - 1 do
    ignore (Prt.retract_coflow prt v.v_arr.(i).e_coflow.Coflow.id : int)
  done;
  if first < tail_pos then begin
    let touched : (int, Prt.reservation list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let ports_cleared : (Prt.port, unit) Hashtbl.t = Hashtbl.create 16 in
    let clear_port e p =
      if not (Hashtbl.mem ports_cleared p) then begin
        Hashtbl.replace ports_cleared p ();
        List.iter
          (fun r ->
            match Hashtbl.find_opt g.g_index r.Prt.coflow with
            | Some o when g.g_cmp e o < 0 ->
              (* [remove] is false when the window was already evicted
                 through its other port — record once *)
              if Prt.remove prt r then begin
                let l =
                  match Hashtbl.find_opt touched r.Prt.coflow with
                  | Some l -> l
                  | None ->
                    let l = ref [] in
                    Hashtbl.replace touched r.Prt.coflow l;
                    l
                in
                l := r :: !l
              end
            | _ -> ())
          (Prt.port_reservations prt p)
      end
    in
    let repair e =
      let id = e.e_coflow.Coflow.id in
      Hashtbl.remove touched id;
      ignore (Prt.retract_coflow prt id : int);
      let d = remaining id in
      List.iter (fun p -> clear_port e (Prt.In p)) (Demand.senders d);
      List.iter (fun p -> clear_port e (Prt.Out p)) (Demand.receivers d);
      reschedule e
    in
    for i = first to tail_pos - 1 do
      let e = v.v_arr.(i) in
      if is_dirty m e then repair e
      else
        match Hashtbl.find_opt touched e.e_coflow.Coflow.id with
        | None -> g.g_spliced <- g.g_spliced + 1
        | Some l ->
          if Prt.splice_exact prt !l then begin
            Hashtbl.remove touched e.e_coflow.Coflow.id;
            g.g_spliced <- g.g_spliced + 1
          end
          else begin
            if obs then Obs.Registry.incr m_cascades;
            repair e
          end
    done
  end;
  for i = tail_pos to v.v_n - 1 do
    reschedule v.v_arr.(i)
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

(* materialise the persistent plan as a [result] equivalent to what a
   from-scratch replan at [now] would describe, for the validation
   hooks: stored windows still ahead of [now], straddlers clipped,
   windows of flows with no remaining demand dropped, each Coflow's
   finish/setups recomputed over the kept windows. Only built when a
   caller actually asks (the on_slice hook). *)
let engine_view g ~now ~remaining =
  let per_coflow =
    let acc = ref [] in
    for i = g.g_all.v_n - 1 downto 0 do
      let e = g.g_all.v_arr.(i) in
      let id = e.e_coflow.Coflow.id in
      let rem = remaining id in
      let kept =
        List.filter_map
          (fun r ->
            if Prt.stop r <= now then None
            else if Demand.get rem r.Prt.src r.Prt.dst <= 0. then None
            else Some (clip_from now r))
          e.e_plan.Sunflow.reservations
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
