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

   One step serves every incremental engine. Ports are striped over S
   shards (S = 1 unless [shards] asks for more); each shard owns a
   [Prt] holding every window with an endpoint in the shard (a
   cross-shard Coflow's window is mirrored into both endpoint shards,
   so every shard table is complete for its own ports). A Coflow whose
   whole footprint maps to one shard lives in that shard's entry
   vector; per event, each shard with dirty entries runs the lazy
   repair pass ([run_pass]) over its own vector against its own table
   — [Sunflow.schedule] reads and writes only the ports of the
   Coflow's own demand, and those ports all belong to the shard, so
   the pass sees exactly the state one global walk would show it,
   regardless of how passes interleave. The passes are independent
   (disjoint ports, disjoint entries) and run through [g_runner] —
   sequentially by default, on a domain pool when one is plugged in.
   At S = 1 there is one table, the shard's vector is the service
   order itself, and the step is one pass from the first dirty entry.

   Cross-shard Coflows break the independence, so they are handled
   pessimistically-correct: a pass that would evict a cross-shard
   owner's window aborts ([Cross_conflict]), every pass of the event is
   rolled back (stored plans restored; the shard tables are rebuilt
   from the plans), and the event is re-resolved by one global pass
   over the closure of affected shards — Time-Warp's optimistic
   execution with a deterministic arbiter. A dirty cross-shard entry
   skips the optimistic round entirely. Either way the decisions made
   are those of a single pass over one table, bit for bit. *)

type entry = {
  e_coflow : Coflow.t;  (* original record: fixed priority-key inputs *)
  e_key : float;  (* cached priority key (policy-dependent) *)
  e_bucket : int;  (* quantized priority class; 0 when buckets are off *)
  e_shards : int array;
      (* sorted distinct shards of the original demand footprint *)
  mutable e_plan : Sunflow.result;
  mutable e_mark : int;  (* dirty in the step with this stamp *)
}

(* a sorted vector of entries: the service order, and one per shard
   plus one for cross-shard Coflows, so a shard pass walks only its own
   entries *)
type evec = { mutable v_arr : entry array; mutable v_n : int }

type pass_runner = { run_passes : 'a. (unit -> 'a) array -> 'a array }

let sequential_runner = { run_passes = (fun fs -> Array.map (fun f -> f ()) fs) }

type config = {
  carry_circuits : bool;
  buckets : int;
  bucket_base : float;
  shards : int;
  shard_block : int;
}

let default_config =
  {
    carry_circuits = true;
    buckets = 0;
    bucket_base = 4.;
    shards = 1;
    shard_block = 1;
  }

let config ?carry_circuits ?buckets ?bucket_base ?shards ?shard_block () =
  let d = default_config in
  let c =
    {
      carry_circuits = Option.value carry_circuits ~default:d.carry_circuits;
      buckets = Option.value buckets ~default:d.buckets;
      bucket_base = Option.value bucket_base ~default:d.bucket_base;
      shards = Option.value shards ~default:d.shards;
      shard_block = Option.value shard_block ~default:d.shard_block;
    }
  in
  if c.buckets < 0 then invalid_arg "Inter.config: negative bucket count";
  if not (Float.is_finite c.bucket_base && c.bucket_base > 1.) then
    invalid_arg "Inter.config: bucket_base must be finite and > 1";
  if c.shards < 1 then invalid_arg "Inter.config: shards must be >= 1";
  if c.shard_block < 1 then
    invalid_arg "Inter.config: shard_block must be >= 1";
  c

type engine = {
  g_policy : policy;
  g_order : Order.t;
  g_delta : float;
  g_bandwidth : float;
  g_rebuild : bool;
  g_config : config;  (* shards coerced to 1 for the rebuild oracle *)
  g_cmp : entry -> entry -> int;
  g_all : evec;  (* active Coflows in service order *)
  mutable g_established : (int * int) list;
  g_index : (int, entry) Hashtbl.t;
  mutable g_rescheduled : int;  (* suffix entries re-run through Sunflow *)
  mutable g_spliced : int;  (* suffix entries whose stored plan was kept *)
  g_runner : pass_runner;  (* executes independent shard passes *)
  g_prts : Prt.t array;  (* one reservation table per shard *)
  g_local : evec array;
      (* per-shard single-shard entries; at S = 1 the one slot is [g_all] *)
  g_cross : evec;  (* entries whose footprint spans shards *)
  g_smin : float array;  (* cached min finish per vec; slot [shards] = cross *)
  g_smin_stale : bool array;
  mutable g_ssteps : int;  (* scheduling events taken with S > 1 *)
  mutable g_sconflicts : int;  (* events resolved by the cross-shard pass *)
  mutable g_srollbacks : int;  (* optimistic shard passes rolled back *)
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

let evec_make () = { v_arr = [||]; v_n = 0 }

let engine ?(order = Order.Ordered_port) ?(rebuild = false)
    ?(runner = sequential_runner) ?(config = default_config) ~policy ~delta
    ~bandwidth () =
  (* rebuild is the inherently global from-scratch oracle: coerce it to
     one shard so [replay_equiv] always compares a sharded incremental
     run against one table's decision procedure *)
  let config = if rebuild then { config with shards = 1 } else config in
  let shards = config.shards in
  let all = evec_make () in
  {
    g_policy = policy;
    g_order = order;
    g_delta = delta;
    g_bandwidth = bandwidth;
    g_rebuild = rebuild;
    g_config = config;
    g_cmp = entry_cmp ~buckets:config.buckets policy;
    g_all = all;
    g_established = [];
    g_index = Hashtbl.create 64;
    g_rescheduled = 0;
    g_spliced = 0;
    g_runner = runner;
    g_prts = Array.init shards (fun _ -> Prt.create ());
    g_local =
      (if shards = 1 then [| all |]
       else Array.init shards (fun _ -> evec_make ()));
    g_cross = evec_make ();
    g_smin = Array.make (shards + 1) infinity;
    g_smin_stale = Array.make (shards + 1) true;
    g_ssteps = 0;
    g_sconflicts = 0;
    g_srollbacks = 0;
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
      e_shards = [||];
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

(* contiguous [shard_block]-wide port stripes, round-robin over shards —
   pod-aligned when [shard_block] matches the pod size *)
let shard_of g p = p / g.g_config.shard_block mod g.g_config.shards

let shard0 = [| 0 |]

(* distinct shards of a Coflow's original demand footprint, sorted.
   Fixed at admission like the priority key: remaining demand only ever
   shrinks, so every window the Coflow will ever reserve stays inside
   this set. An empty demand pins the (instantly complete) Coflow to
   shard 0, and so does a one-shard engine. *)
let coflow_shards g c =
  if g.g_config.shards = 1 then shard0
  else
    let d = c.Coflow.demand in
    let ss =
      List.rev_append
        (List.map (shard_of g) (Demand.senders d))
        (List.map (shard_of g) (Demand.receivers d))
      |> List.sort_uniq compare
    in
    match ss with [] -> shard0 | l -> Array.of_list l

(* vec slot [shards] is the cross vector *)
let vec g i = if i = g.g_config.shards then g.g_cross else g.g_local.(i)

let entry_slot g e =
  if Array.length e.e_shards > 1 then g.g_config.shards else e.e_shards.(0)

(* insert into / remove from the service order and the entry's shard
   vector — one vector when S = 1, where the two are the same *)
let add_entry g e =
  evec_insert g.g_cmp g.g_all e;
  let i = entry_slot g e in
  if vec g i != g.g_all then evec_insert g.g_cmp (vec g i) e;
  g.g_smin_stale.(i) <- true

let drop_entry g e =
  evec_remove g.g_cmp g.g_all e;
  let i = entry_slot g e in
  if vec g i != g.g_all then evec_remove g.g_cmp (vec g i) e;
  g.g_smin_stale.(i) <- true

let refresh_smin g i =
  if g.g_smin_stale.(i) then begin
    let v = vec g i in
    let m = ref infinity in
    for k = 0 to v.v_n - 1 do
      m := Float.min !m v.v_arr.(k).e_plan.Sunflow.finish
    done;
    g.g_smin.(i) <- !m;
    g.g_smin_stale.(i) <- false
  end

let engine_size g = g.g_all.v_n
let engine_established g = g.g_established

let engine_finish g id =
  match Hashtbl.find_opt g.g_index id with
  | Some e -> Some e.e_plan.Sunflow.finish
  | None -> None

(* fold the cached per-vec minima instead of walking every entry;
   [Float.min] is exact, so the value does not depend on S *)
let engine_min_finish g =
  if g.g_all.v_n = 0 then None
  else begin
    let m = ref infinity in
    for i = 0 to g.g_config.shards do
      refresh_smin g i;
      m := Float.min !m g.g_smin.(i)
    done;
    Some !m
  end

let engine_rescheduled g = g.g_rescheduled
let engine_spliced g = g.g_spliced

type shard_stats = {
  shard_steps : int;
  shard_conflicts : int;
  shard_rollbacks : int;
}

let engine_shard_stats g =
  {
    shard_steps = g.g_ssteps;
    shard_conflicts = g.g_sconflicts;
    shard_rollbacks = g.g_srollbacks;
  }

let m_steps = Obs.Registry.counter "inter.incremental_steps"
let m_straddlers = Obs.Registry.counter "inter.dirty_straddlers"
let m_cascades = Obs.Registry.counter "inter.repair_cascades"
let m_sh_conflicts = Obs.Registry.counter "sim.shard.conflicts"
let m_sh_rollbacks = Obs.Registry.counter "sim.shard.rollbacks"
let m_sh_dirty = Obs.Registry.counter "inter.shard.dirty_shards"
let h_sh_rollback = Obs.Registry.histogram "sim.shard.rollback_s"

(* --- one event: the dirty set ---------------------------------------- *)

(* an event's dirty set — the entries whose [e_mark] is [stamp] — with
   the per-shard view the passes need: each shard's least dirty entry
   (entries, not positions — positions shift under admission) *)
type marks = {
  stamp : int;
  mutable n_dirty : int;
  first : entry option array;  (* per shard; [None] = shard clean *)
  mutable cross_dirty : bool;  (* some dirty entry spans shards *)
  mutable min_dirty : entry option;  (* least dirty entry overall *)
}

let is_dirty m e = e.e_mark = m.stamp

let mark g m e =
  if not (is_dirty m e) then begin
    e.e_mark <- m.stamp;
    m.n_dirty <- m.n_dirty + 1;
    let least = function Some l -> g.g_cmp l e > 0 | None -> true in
    let new_min = least m.min_dirty in
    if new_min then m.min_dirty <- Some e;
    if Array.length e.e_shards > 1 then m.cross_dirty <- true
    else begin
      (* the overall least is its shard's least, and a shard whose
         least is the overall one (always, at S = 1) keeps it *)
      let s = e.e_shards.(0) in
      if new_min then m.first.(s) <- m.min_dirty
      else if m.first.(s) != m.min_dirty && least m.first.(s) then
        m.first.(s) <- Some e
    end
  end

(* The engine's semantics: retire [finished], admit [arrivals] and
   decide which plans the event invalidates. Shared by the incremental
   step and the rebuild oracle; only the repair that follows differs. *)
let mark_event g ~obs ~now ~arrivals ~finished ~remaining =
  (* 1. retire finished Coflows. Every window of a finished Coflow
     stops at or before its recorded finish <= now, and every table
     query made on behalf of the remaining Coflows is a strict-greater
     successor search at an instant >= now, so the removal is invisible
     to them: no rescheduling. [e_shards] covers every window's
     endpoints, so retracting on those tables removes the windows and
     their mirrors. *)
  List.iter
    (fun id ->
      match Hashtbl.find_opt g.g_index id with
      | None -> invalid_arg "Inter.schedule_incremental: unknown finished id"
      | Some e ->
        drop_entry g e;
        Hashtbl.remove g.g_index id;
        Array.iter
          (fun s -> ignore (Prt.retract_coflow g.g_prts.(s) id : int))
          e.e_shards)
    finished;
  (* 2. admit arrivals at their priority positions *)
  let m =
    {
      stamp = g.g_stamp;
      n_dirty = 0;
      first = Array.make g.g_config.shards None;
      cross_dirty = false;
      min_dirty = None;
    }
  in
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
          e_shards = coflow_shards g c;
          e_plan = { Sunflow.reservations = []; finish = now; setups = 0 };
          e_mark = 0;
        }
      in
      add_entry g e;
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
     one of the previous event. Mirrors surface twice; [sort_uniq]
     collapses them, and double-marking a straddler is idempotent. *)
  let covering =
    Array.fold_left
      (fun acc prt ->
        List.fold_left
          (fun acc r ->
            if Hashtbl.mem g.g_index r.Prt.coflow then r :: acc else acc)
          acc (Prt.covering_at prt now))
      [] g.g_prts
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
     would stall the event loop; re-anchor such plans. A vec whose
     cached minimum finish is past [now] cannot hold one. *)
  for i = 0 to g.g_config.shards do
    refresh_smin g i;
    if g.g_smin.(i) <= now then begin
      let v = vec g i in
      for k = 0 to v.v_n - 1 do
        let e = v.v_arr.(k) in
        if
          e.e_plan.Sunflow.finish <= now
          && (not (is_dirty m e))
          && not (Demand.is_empty (remaining e.e_coflow.Coflow.id))
        then mark g m e
      done
    end
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
   check-all-then-reserve-all primitive. No eviction, no shard pass:
   this is what [run_pass] is checked against. *)
let rebuild_repair g ~obs ~now ~remaining m =
  let prt = Prt.create () in
  g.g_prts.(0) <- prt;
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
  g.g_smin_stale.(0) <- true

(* --- the incremental repair ------------------------------------------- *)

exception Cross_conflict

type pass_out =
  | Pass_ok of (entry * Sunflow.result) list * int * int * int
      (* replaced plans (for rollback), rescheduled, spliced, cascades *)
  | Pass_conflict of (entry * Sunflow.result) list

(* One lazy-repair pass over the entries of [v] from position [first]
   that satisfy [keep], in priority order, against [prt]. [guard] is
   consulted before any eviction (shard passes raise [Cross_conflict]
   on a cross-shard owner, which aborts the pass), and every replaced
   plan is recorded for rollback.

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

   [tail] is the first entry of the service order's trailing run of
   dirty entries: nothing clean sorts after it. The run's windows are
   retracted before the pass starts, and its entries then evict
   nothing — every later window is the run's own (a cross-shard
   Coflow in the run is dirty, which sends the event straight to the
   cross-shard pass, whose table holds the whole run). That is the
   same table content on every port an earlier entry reschedules on
   (its eviction would have removed them), and windows that were
   disjoint from a clean entry's in the previous table cannot fail its
   fit test. Under the exact order the run is the whole suffix from
   the first dirty entry: retract it, reschedule it in order. *)
let run_pass g ~prt ~now ~remaining ~is_established ~m ~tail ~guard ~keep v
    first =
  let old_plans = ref [] in
  let resched = ref 0 and spliced = ref 0 and cascades = ref 0 in
  let reschedule e =
    old_plans := (e, e.e_plan) :: !old_plans;
    replan g ~prt ~now ~remaining ~is_established e;
    incr resched
  in
  let tail_pos =
    match tail with
    | Some t -> max first (evec_lower g.g_cmp v t)
    | None -> v.v_n
  in
  for i = tail_pos to v.v_n - 1 do
    let e = v.v_arr.(i) in
    if keep e then ignore (Prt.retract_coflow prt e.e_coflow.Coflow.id : int)
  done;
  try
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
                guard o;
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
        if keep e then
          if is_dirty m e then repair e
          else
            match Hashtbl.find_opt touched e.e_coflow.Coflow.id with
            | None -> incr spliced
            | Some l ->
              if Prt.splice_exact prt !l then begin
                Hashtbl.remove touched e.e_coflow.Coflow.id;
                incr spliced
              end
              else begin
                incr cascades;
                repair e
              end
      done
    end;
    for i = tail_pos to v.v_n - 1 do
      let e = v.v_arr.(i) in
      if keep e then reschedule e
    done;
    Pass_ok (!old_plans, !resched, !spliced, !cascades)
  with Cross_conflict -> Pass_conflict !old_plans

(* deterministic cross-shard resolution: compute the closure of shards
   reachable from the dirty set through cross-shard footprints, merge
   the closure's stored plans into one table, run one repair pass over
   the closure's entries in global priority order, then rebuild the
   affected shard tables from the resulting plans (mirroring cross
   windows into both endpoint shards). Every dirty entry is inside the
   closure; entries wholly outside it share no port with anything the
   repair may move — a pass over one global table would have spliced
   them untouched — so skipping them changes nothing. *)
let resolve_cross g ~obs ~now ~remaining ~is_established ~tail m =
  g.g_sconflicts <- g.g_sconflicts + 1;
  if obs then Obs.Registry.incr m_sh_conflicts;
  let t0 = if obs then Obs.Control.now_ns () else 0L in
  let c = Array.map Option.is_some m.first in
  let cross = g.g_cross in
  (* seed: shards of dirty cross entries *)
  for i = 0 to cross.v_n - 1 do
    let e = cross.v_arr.(i) in
    if is_dirty m e then Array.iter (fun s -> c.(s) <- true) e.e_shards
  done;
  (* fixpoint: any cross entry touching the closure pulls all its
     shards in — its windows sit on ports the repair may reuse *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to cross.v_n - 1 do
      let e = cross.v_arr.(i) in
      if
        Array.exists (fun s -> c.(s)) e.e_shards
        && not (Array.for_all (fun s -> c.(s)) e.e_shards)
      then begin
        Array.iter (fun s -> c.(s) <- true) e.e_shards;
        changed := true
      end
    done
  done;
  let in_c e = Array.for_all (fun s -> c.(s)) e.e_shards in
  (* merged mirror-free table of every in-closure stored plan — the
     single table's content restricted to the closure's ports *)
  let all = g.g_all in
  let merged = Prt.create () in
  for i = 0 to all.v_n - 1 do
    let e = all.v_arr.(i) in
    if in_c e then
      List.iter (Prt.reserve merged) e.e_plan.Sunflow.reservations
  done;
  (match m.min_dirty with
  | None -> ()
  | Some d -> (
    match
      run_pass g ~prt:merged ~now ~remaining ~is_established ~m ~tail ~guard:ignore ~keep:in_c all (evec_lower g.g_cmp all d)
    with
    | Pass_ok (_, resched, spliced, cascades) ->
      g.g_rescheduled <- g.g_rescheduled + resched;
      g.g_spliced <- g.g_spliced + spliced;
      if obs && cascades > 0 then Obs.Registry.add m_cascades cascades
    | Pass_conflict _ -> assert false));
  (* rebuild the affected shard tables from the now-current plans *)
  for s = 0 to g.g_config.shards - 1 do
    if c.(s) then g.g_prts.(s) <- Prt.create ()
  done;
  for i = 0 to all.v_n - 1 do
    let e = all.v_arr.(i) in
    if in_c e then
      List.iter
        (fun r ->
          let ss = shard_of g r.Prt.src and sd = shard_of g r.Prt.dst in
          Prt.reserve g.g_prts.(ss) r;
          if sd <> ss then Prt.reserve g.g_prts.(sd) r)
        e.e_plan.Sunflow.reservations
  done;
  for s = 0 to g.g_config.shards - 1 do
    if c.(s) then g.g_smin_stale.(s) <- true
  done;
  g.g_smin_stale.(g.g_config.shards) <- true;
  if obs then
    Obs.Registry.observe h_sh_rollback
      (Int64.to_float (Int64.sub (Obs.Control.now_ns ()) t0) /. 1e9)

(* optimistic per-shard passes, falling back to the deterministic
   cross-shard pass on any conflict. At S = 1 this is one pass over the
   service order from its first dirty entry; nothing can conflict. *)
let repair g ~obs ~now ~remaining m =
  let is_established = established_pred g in
  (* first entry of the service order's trailing run of dirty entries
     (see [run_pass]); the whole suffix under the exact order *)
  let tail =
    let all = g.g_all in
    let i = ref all.v_n in
    while !i > 0 && is_dirty m all.v_arr.(!i - 1) do
      decr i
    done;
    if !i < all.v_n then Some all.v_arr.(!i) else None
  in
  if obs && g.g_config.shards > 1 then begin
    let nd = ref (if m.cross_dirty then 1 else 0) in
    Array.iter (fun f -> if Option.is_some f then incr nd) m.first;
    Obs.Registry.add m_sh_dirty !nd
  end;
  if m.cross_dirty then
    (* a dirty cross-shard Coflow makes the conflict certain — skip the
       optimistic round (nothing to roll back) *)
    resolve_cross g ~obs ~now ~remaining ~is_established ~tail m
  else begin
    (* one optimistic pass per dirty shard, over its own entries from
       its first dirty one. A pass reads shared engine state only
       (g_index, the service order, the dirty set, the established set
       — all frozen for the event) and mutates only its shard's table
       and entries' plans, so passes are safe to run on separate
       domains. *)
    let guard o = if Array.length o.e_shards > 1 then raise Cross_conflict in
    let keep _ = true in
    let thunks = ref [] in
    for s = g.g_config.shards - 1 downto 0 do
      match m.first.(s) with
      | Some d ->
        let v = g.g_local.(s) in
        thunks :=
          (fun () ->
            run_pass g ~prt:g.g_prts.(s) ~now ~remaining ~is_established
              ~m ~tail ~guard ~keep v (evec_lower g.g_cmp v d))
          :: !thunks
      | None -> ()
    done;
    let outs =
      match !thunks with
      | [ f ] -> [| f () |]
      | fs -> g.g_runner.run_passes (Array.of_list fs)
    in
    if Array.exists (function Pass_conflict _ -> true | _ -> false) outs
    then begin
      (* roll back every pass: restore the replaced plans (the shard
         tables are rebuilt from plans during resolution, so the
         plan-level undo subsumes any table-level one) *)
      Array.iter
        (function
          | Pass_ok (old, _, _, _) | Pass_conflict old ->
            List.iter (fun (e, p) -> e.e_plan <- p) old)
        outs;
      g.g_srollbacks <- g.g_srollbacks + Array.length outs;
      if obs then Obs.Registry.add m_sh_rollbacks (Array.length outs);
      resolve_cross g ~obs ~now ~remaining ~is_established ~tail m
    end
    else begin
      Array.iter
        (function
          | Pass_ok (_, r, sp, ca) ->
            g.g_rescheduled <- g.g_rescheduled + r;
            g.g_spliced <- g.g_spliced + sp;
            if obs && ca > 0 then Obs.Registry.add m_cascades ca
          | Pass_conflict _ -> ())
        outs;
      Array.iteri
        (fun s f -> if Option.is_some f then g.g_smin_stale.(s) <- true)
        m.first
    end
  end

let schedule_incremental g ~now ~arrivals ~finished ~remaining =
  let obs = Obs.Control.enabled () in
  if obs then begin
    Obs.Registry.incr m_rounds;
    Obs.Registry.incr m_steps;
    Obs.Tracer.begin_span ~cat:"core" "inter.step"
  end;
  if g.g_config.shards > 1 then g.g_ssteps <- g.g_ssteps + 1;
  g.g_stamp <- g.g_stamp + 1;
  let m = mark_event g ~obs ~now ~arrivals ~finished ~remaining in
  if g.g_rebuild then rebuild_repair g ~obs ~now ~remaining m
  else if m.n_dirty > 0 then repair g ~obs ~now ~remaining m;
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
  match g.g_prts with
  | [| prt |] -> List.map (clip_from t0) (Prt.reservations_in prt t0 t1)
  | prts ->
    (* union over shard tables, in the order one table would emit the
       slice; a cross-shard window appears in both endpoint shards and
       [sort_uniq] keeps one copy *)
    Array.to_list prts
    |> List.concat_map (fun prt -> Prt.reservations_in prt t0 t1)
    |> List.sort_uniq Prt.physical_order
    |> List.map (clip_from t0)

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
