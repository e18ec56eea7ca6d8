(* Repository benchmark harness.

     main.exe --workload storm|pods|stream --seed N --seconds S --trace 0|1
     main.exe --self-check

   Builds the workload from the seed ([Workloads]), serializes it with
   [Trace.to_string] and hands the program only that text, then times
   the program's public entry points from outside: [Trace.parse] (or
   [Trace.reader] pulls), [Circuit_sim.run] and [Serve.run]. Every
   replay's output is checked ([Sim_check.result]) or, after the first,
   compared by digest with the first. A run measures for [--seconds] and
   prints, as the last line of stdout, one JSON object: the end-to-end
   metrics with [--trace 0], the per-layer split with [--trace 1].

   The traced run alternates untraced and traced replays. A traced
   replay turns [Obs.Control] on, records the harness's own spans (parse
   or reader pulls, the entry-point call, its callbacks) on the
   monotonic clock and folds in the spans and counters the program
   emits ([Profile]). On the calling domain the layer self times plus
   [other_s] (harness time: callbacks, trace drains, glue) must equal the
   traced wall; worker-domain time is reported as [pool.busy_s] only.

   [--self-check] runs one tiny seed per workload, traced and untraced,
   and exits non-zero if a metric is missing or non-finite, an output
   fails its check, the tracer dropped events, or the traced layers do
   not sum to the traced wall within [sum_tolerance]. *)

module Obs = Sunflow_obs
module Coflow = Sunflow_core.Coflow
module Inter = Sunflow_core.Inter
module Prt = Sunflow_core.Prt
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result
module Serve = Sunflow_serve.Serve
module Trace = Sunflow_trace.Trace
module Bounds = Sunflow_core.Bounds
module Pool = Sunflow_parallel.Pool
module Sim_check = Sunflow_check.Sim_check
module Violation = Sunflow_check.Violation
module W = Workloads

let now = Obs.Control.now_ns
let seconds = Profile.seconds

(* relative slack allowed between the traced wall and the layer sum *)
let sum_tolerance = 1e-6

(* [pods]' shard passes run on one domain (the sequential runner): on a
   shared two-vCPU host a two-domain pool spread every [pods] timing by
   more than 30 % from run to run, beyond any usable bound *)
let pool_domains = 1

(* [Trace.parse] repetitions before the first replay; one more precedes
   every untraced replay, so set-up is sampled across the whole run *)
let setup_reps = 5

(* --- small helpers ------------------------------------------------------ *)

(* growable unboxed float buffer: recording a sample never allocates *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort Float.compare b;
    b
end

(* nearest-rank quantile of a sorted array; nan when empty *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* Every timing a run reports is its best over the run's repetitions
   (least time, highest rate, lowest per-repetition quantile): on a
   shared machine neighbouring load slows every process in phases
   lasting seconds, and over a few dozen repetitions the best one tracks
   the code while the median tracks the neighbours. *)
let best f l = List.fold_left (fun acc x -> Float.min acc (f x)) infinity l

(* FNV-1a over the canonical Sim_result, as bench/main.ml digests it *)
let digest (r : Sim_result.t) =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (id, f) -> Buffer.add_string buf (Printf.sprintf "%d:%.17g;" id f))
    r.Sim_result.finishes;
  Buffer.add_string buf
    (Printf.sprintf "|%.17g|%d|%d" r.Sim_result.makespan r.Sim_result.n_events
       r.Sim_result.total_setups);
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xFFFFFFFF)
    (Buffer.contents buf);
  Printf.sprintf "%08x" !h

let by_id l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* --- one replay ----------------------------------------------------------- *)

(* What the harness records while the program runs. Untraced, a tick
   stamps the per-event latency samples and now and then the major heap
   size; traced, it only drains the tracer and times itself. *)
type probe = {
  prof : Profile.t option;
  lat : Samples.t;
  mutable last : int64;
  mutable ticks : int;
  mutable heap_peak : int;  (** words *)
  mutable cb : float;  (** harness callback seconds inside the call *)
  mutable pull_in : float;  (** reader-pull seconds inside the call *)
}

let probe prof =
  { prof; lat = Samples.create (); last = 0L; ticks = 0; heap_peak = 0; cb = 0.; pull_in = 0. }

let sample_heap p =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > p.heap_peak then p.heap_peak <- h

let tick p =
  match p.prof with
  | None ->
    let t = now () in
    Samples.add p.lat (seconds p.last t);
    p.last <- t;
    p.ticks <- p.ticks + 1;
    if p.ticks land 63 = 0 then sample_heap p
  | Some prof ->
    let t0 = now () in
    Profile.drain_if_full prof;
    p.cb <- p.cb +. seconds t0 (now ())

let timed_cb p f =
  match p.prof with
  | None -> f ()
  | Some _ ->
    let t0 = now () in
    f ();
    p.cb <- p.cb +. seconds t0 (now ())

(* what one entry-point call cost *)
type cost = {
  call_s : float;  (** wall time *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  prt : Prt.stats;
}

type outcome = {
  cost : cost;
  outside_parse_s : float;  (** ingest before the call *)
  result : Sim_result.t;  (** for [stream]: the admitted subset *)
  admitted : int;
  rejected : int;
  max_live : int;
  shard : Inter.shard_stats;
}

let prt_delta (a : Prt.stats) (b : Prt.stats) =
  {
    Prt.queries = b.Prt.queries - a.Prt.queries;
    scans = b.Prt.scans - a.Prt.scans;
    reservations = b.Prt.reservations - a.Prt.reservations;
    rollbacks = b.Prt.rollbacks - a.Prt.rollbacks;
  }

let no_shard = { Inter.shard_steps = 0; shard_conflicts = 0; shard_rollbacks = 0 }

(* brackets the entry-point call with the runtime and PRT counters *)
let around p f =
  let prt0 = Prt.stats () and gc0 = Gc.quick_stat () in
  let r0 = now () in
  p.last <- r0;
  let x = f () in
  let r1 = now () in
  let gc1 = Gc.quick_stat () in
  sample_heap p;
  ( x,
    {
      call_s = seconds r0 r1;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      prt = prt_delta prt0 (Prt.stats ());
    } )

(* storm / pods: one Circuit_sim.run over the parsed Coflows. A tick
   fires at every new completion instant. *)
let run_batch (w : W.t) coflows p =
  let last_t = ref neg_infinity in
  let on_complete _ t =
    if t <> !last_t then begin
      last_t := t;
      tick p
    end;
    []
  in
  let shard_stats = ref no_shard in
  let result, cost =
    around p (fun () ->
        match w.W.kind with
        | W.Pods ->
          Circuit_sim.run ~policy:Inter.Shortest_first ~replan:`Incremental
            ~buckets:24 ~bucket_base:2. ~shards:W.pod_shards ~shard_block:W.pod_size
            ~shard_stats
            ~on_complete ~delta:W.delta ~bandwidth:W.bandwidth coflows
        | _ ->
          Circuit_sim.run ~policy:Inter.Shortest_first ~replan:`Incremental
            ~buckets:24 ~bucket_base:2. ~on_complete ~delta:W.delta
            ~bandwidth:W.bandwidth coflows)
  in
  {
    cost;
    outside_parse_s = 0.;
    result;
    admitted = w.W.n_coflows;
    rejected = 0;
    max_live = 0;
    shard = !shard_stats;
  }

(* stream: Serve.run pulling Coflow by Coflow through Trace.reader over
   the trace file, deadline admission. A tick fires at every poll of
   [stop], which Serve.run makes once per event. *)
let run_stream path ~deadline_of p =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let t0 = now () in
      let reader = Trace.reader ic in
      let outside_parse_s = seconds t0 (now ()) in
      let next =
        match p.prof with
        | None -> reader
        | Some _ ->
          fun () ->
            let t0 = now () in
            let c = reader () in
            p.pull_in <- p.pull_in +. seconds t0 (now ());
            c
      in
      let finishes = ref [] and ccts = ref [] in
      let stop () =
        tick p;
        false
      in
      let on_finish ~id ~t ~cct =
        timed_cb p (fun () ->
            finishes := (id, t) :: !finishes;
            ccts := (id, cct) :: !ccts)
      in
      let st, cost =
        around p (fun () ->
            Serve.run ~deadline_of ~stop ~on_finish ~delta:W.delta
              ~bandwidth:W.bandwidth next)
      in
      {
        cost;
        outside_parse_s;
        result =
          {
            Sim_result.ccts = by_id !ccts;
            finishes = by_id !finishes;
            makespan = st.Serve.makespan;
            n_events = st.Serve.events;
            total_setups = st.Serve.setups;
          };
        admitted = st.Serve.admitted;
        rejected = st.Serve.rejected;
        max_live = st.Serve.max_live;
        shard = no_shard;
      })

(* --- output check --------------------------------------------------------- *)

(* Coflows that fail the check: Sim_check over the (admitted) result,
   plus, for [stream], the stream accounting. *)
let check (w : W.t) coflows (o : outcome) =
  let result = o.result in
  let checked =
    match w.W.kind with
    | W.Stream ->
      let ids = Hashtbl.create 1024 in
      List.iter (fun (id, _) -> Hashtbl.replace ids id ()) result.Sim_result.finishes;
      List.filter (fun (c : Coflow.t) -> Hashtbl.mem ids c.Coflow.id) coflows
    | _ -> coflows
  in
  let violations = Sim_check.result ~bandwidth:W.bandwidth ~coflows:checked result in
  List.iteri
    (fun i v -> if i < 5 then Format.eprintf "%s: %a@." w.W.name Violation.pp v)
    violations;
  let ids = Hashtbl.create 16 in
  let anonymous = ref 0 in
  List.iter
    (fun (v : Violation.t) ->
      match v.Violation.coflow with
      | Some id -> Hashtbl.replace ids id ()
      | None -> incr anonymous)
    violations;
  let accounting =
    match w.W.kind with
    | W.Stream ->
      (* every arrival admitted or rejected, every admitted one finished *)
      abs (o.admitted + o.rejected - w.W.n_coflows)
      + abs (o.admitted - List.length result.Sim_result.finishes)
    | _ -> 0
  in
  min w.W.n_coflows (Hashtbl.length ids + !anonymous + accounting)

(* --- metrics ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))

(* schedule quality in simulated time, normalised so that it is
   comparable across seeds: per-Coflow slowdown is the CCT over the
   Coflow's circuit lower bound, and setups are counted per subflow *)
let quality (r : Sim_result.t) bounds =
  let slowdowns =
    sorted_floats
      (List.filter_map
         (fun (id, cct) ->
           let _, lb = Hashtbl.find bounds id in
           if lb > 0. then Some (cct /. lb) else None)
         r.Sim_result.ccts)
  in
  let subflows =
    List.fold_left
      (fun acc (id, _) -> acc + Coflow.n_subflows (fst (Hashtbl.find bounds id)))
      0 r.Sim_result.ccts
  in
  (slowdowns, float_of_int r.Sim_result.total_setups /. float_of_int (max 1 subflows))

(* the lowest [q]-quantile of per-event latency over [reps] *)
let best_quantile reps q = best (fun (_, lat) -> quantile lat q) reps

(* [reps]: every untraced replay with its sorted per-event latencies *)
let end_to_end (w : W.t) ~setup_s ~base ~bounds ~reps ~heap_peak =
  let slowdowns, setups_per_flow = quality base.result bounds in
  let events_per_s =
    -.best (fun (o, _) -> -.float_of_int o.result.Sim_result.n_events /. o.cost.call_s) reps
  in
  [
    m "setup_s" "s" setup_s;
    m "events_per_s" "1/s" events_per_s;
    m "event_p50_us" "us" (best_quantile reps 0.5 *. 1e6);
    m "event_p90_us" "us" (best_quantile reps 0.9 *. 1e6);
    m "peak_heap_mb" "MB"
      (heap_peak *. float_of_int (Sys.word_size / 8) /. 1048576.);
    m "mean_slowdown" "ratio" (mean slowdowns);
    m "setups_per_flow" "ratio" setups_per_flow;
    m "admit_frac" "frac" (float_of_int base.admitted /. float_of_int w.W.n_coflows);
  ]

(* the calling-domain layers a traced replay's wall time splits into *)
let program_spans =
  [
    "sim.replan";
    "inter.step";
    "inter.schedule";
    "inter.sort";
    "pool.chunk";
    "sunflow.schedule";
    "sunflow.candidates";
    "sunflow.reserve";
  ]

type traced = {
  t_out : outcome;
  t_probe : probe;
  t_prof : Profile.t;
  t_wall : float;  (** traced wall: ingest + call + harness glue *)
  t_parse : float;  (** all ingest: parse, or header + reader pulls *)
  t_counters : Obs.Registry.snapshot;
}

let per_layer (w : W.t) ~(tr : traced) ~base ~bounds ~reps ~failed_frac =
  let tid = (Domain.self () :> int) in
  let prof = tr.t_prof and o = tr.t_out and p = tr.t_probe in
  let counter name =
    float_of_int
      (Option.value ~default:0 (List.assoc_opt name tr.t_counters.Obs.Registry.counters))
  in
  let gauge name = Option.value ~default:0. (List.assoc_opt name tr.t_counters.Obs.Registry.gauges) in
  let hist name = List.assoc_opt name tr.t_counters.Obs.Registry.histograms in
  let hist_q name q =
    match hist name with
    | Some h when h.Obs.Registry.h_count > 0 -> Obs.Registry.quantile h q
    | _ -> 0.
  in
  let hist_sum name = match hist name with Some h -> h.Obs.Registry.h_sum | None -> 0. in
  let hist_mean name =
    match hist name with
    | Some h when h.Obs.Registry.h_count > 0 ->
      h.Obs.Registry.h_sum /. float_of_int h.Obs.Registry.h_count
    | _ -> 0.
  in
  let self = Profile.self prof tid and total = Profile.total prof tid in
  let stream = w.W.kind = W.Stream in
  (* the call's time outside every program span and harness callback:
     Circuit_sim's event loop and slice execution, or Serve's loop *)
  let in_call =
    o.cost.call_s -. Profile.top_level prof tid -. p.cb -. p.pull_in
  in
  let other = tr.t_wall -. o.cost.call_s -. o.outside_parse_s +. p.cb in
  let layer_sum =
    tr.t_parse +. in_call +. other
    +. List.fold_left (fun acc n -> acc +. self n) 0. program_spans
  in
  let residual_frac = Float.abs (layer_sum -. tr.t_wall) /. tr.t_wall in
  let events = float_of_int o.result.Sim_result.n_events in
  let med f = median (List.map (fun (o, _) -> f o) reps) in
  let schedules = counter "sunflow.schedules" in
  let steps = counter "inter.incremental_steps" in
  let rescheduled = float_of_int prof.Profile.rescheduled
  and spliced = float_of_int prof.Profile.spliced in
  let prt f = med (fun o -> float_of_int (f o.cost.prt)) in
  let queries = prt (fun s -> s.Prt.queries) in
  let scans = prt (fun s -> s.Prt.scans) in
  let untraced_call = best (fun (o, _) -> o.cost.call_s) reps in
  let samples = List.fold_left (fun acc (_, lat) -> acc + Array.length lat) 0 reps in
  let over_delta =
    List.fold_left
      (fun acc (_, lat) ->
        Array.fold_left (fun acc x -> if x > W.delta then acc + 1 else acc) acc lat)
      0 reps
  in
  let records = float_of_int w.W.n_coflows in
  let ccts = sorted_floats (List.map snd base.result.Sim_result.ccts) in
  ( [
      m "trace.parse_s" "s" tr.t_parse;
      m "trace.records" "count" records;
      m "trace.ns_per_record" "ns" (tr.t_parse *. 1e9 /. records);
      m "sim.events" "count" (counter "sim.events");
      m "sim.replan_s" "s" (total "sim.replan");
      m "sim.replan_self_s" "s" (self "sim.replan");
      m "sim.replan_p99_us" "us" (hist_q "sim.plan_s" 0.99 *. 1e6);
      m "sim.exec_s" "s" (if stream then 0. else in_call);
      m "sim.setups" "count" (counter "sim.setups");
      m "sim.teardowns" "count" (counter "sim.teardowns");
      m "serve.pull_s" "s" p.pull_in;
      m "serve.callback_s" "s" (if stream then p.cb else 0.);
      m "serve.loop_self_s" "s" (if stream then in_call else 0.);
      m "serve.max_live" "count" (float_of_int o.max_live);
      m "serve.admitted" "count" (if stream then float_of_int o.admitted else 0.);
      m "serve.rejected" "count" (float_of_int o.rejected);
      m "serve.event_p99_us" "us" (hist_q "serve.event_s" 0.99 *. 1e6);
      m "inter.step_s" "s" (total "inter.step");
      m "inter.step_self_s" "s" (self "inter.step");
      m "inter.steps" "count" steps;
      m "inter.dirty_straddlers" "count" (counter "inter.dirty_straddlers");
      m "inter.repair_cascades" "count" (counter "inter.repair_cascades");
      m "inter.rescheduled" "count" rescheduled;
      m "inter.spliced" "count" spliced;
      m "inter.splice_ratio" "frac" (ratio spliced (spliced +. rescheduled));
      m "inter.shard.conflicts" "count" (float_of_int o.shard.Inter.shard_conflicts);
      m "inter.shard.rollbacks" "count" (float_of_int o.shard.Inter.shard_rollbacks);
      m "inter.shard.rollback_s" "s" (hist_sum "sim.shard.rollback_s");
      m "inter.shard.conflict_rate" "frac"
        (ratio
           (float_of_int o.shard.Inter.shard_conflicts)
           (float_of_int o.shard.Inter.shard_steps));
      m "inter.shard.dirty_shards_mean" "count"
        (ratio (counter "inter.shard.dirty_shards") (float_of_int o.shard.Inter.shard_steps));
      m "pool.chunks" "count" (counter "pool.chunks");
      m "pool.chunk_self_s" "s" (self "pool.chunk");
      m "pool.busy_s" "s" (gauge "pool.busy_s");
      m "pool.busy_frac" "frac"
        (ratio (gauge "pool.busy_s") (float_of_int pool_domains *. o.cost.call_s));
      m "pool.queue_depth_p99" "count" (hist_q "pool.queue_depth" 0.99);
      m "domains" "count" (float_of_int pool_domains);
      m "sunflow.schedule_s" "s" (total "sunflow.schedule");
      m "sunflow.schedule_self_s" "s" (self "sunflow.schedule");
      m "sunflow.schedules" "count" schedules;
      m "sunflow.us_per_schedule" "us"
        (ratio (Profile.total_all prof "sunflow.schedule" *. 1e6) schedules);
      m "sunflow.candidates_s" "s" (self "sunflow.candidates");
      m "sunflow.reserve_s" "s" (self "sunflow.reserve");
      m "sunflow.wakes" "count" (counter "sunflow.wakes");
      m "sunflow.flows_per_schedule" "count" (hist_mean "sunflow.flows_per_schedule");
      m "prt.queries" "count" queries;
      m "prt.scans" "count" scans;
      m "prt.reservations" "count" (prt (fun s -> s.Prt.reservations));
      m "prt.rollbacks" "count" (prt (fun s -> s.Prt.rollbacks));
      m "prt.scans_per_query" "ratio" (ratio scans queries);
      m "gc.minor_words_per_event" "words" (med (fun o -> o.cost.minor_words) /. events);
      m "gc.major_collections" "count" (med (fun o -> float_of_int o.cost.major_collections));
      m "gc.promoted_words" "words" (med (fun o -> o.cost.promoted_words));
      m "obs.trace_overhead_frac" "frac" ((o.cost.call_s /. untraced_call) -. 1.);
      m "obs.tracer_dropped" "count" (float_of_int prof.Profile.dropped);
      m "other_s" "s" other;
      m "profile.traced_wall_s" "s" tr.t_wall;
      m "profile.residual_frac" "frac" residual_frac;
      m "event.samples" "count" (float_of_int samples);
      m "event.p99_us" "us" (best_quantile reps 0.99 *. 1e6);
      m "event.over_delta_frac" "frac"
        (ratio (float_of_int over_delta) (float_of_int samples));
      m "check.failed_frac" "frac" failed_frac;
      m "quality.mean_cct_s" "s" (mean ccts);
      m "quality.p99_slowdown" "ratio" (quantile (fst (quality base.result bounds)) 0.99);
      m "quality.p99_cct_s" "s" (quantile ccts 0.99);
      m "quality.circuit_setups" "count"
        (float_of_int base.result.Sim_result.total_setups);
    ],
    (* profile validity: nothing dropped or unbalanced, no negative
       residual, and the layers account for the traced wall *)
    prof.Profile.dropped = 0
    && prof.Profile.unmatched = 0
    && Profile.open_spans prof = 0
    && in_call >= 0.
    && residual_frac <= sum_tolerance )

(* --- a benchmark run ----------------------------------------------------- *)

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (** empty unless traced *)
  profile_ok : bool;
  digest : string;
}

let work_dir = ".perfbench_work"

let with_stream_file (w : W.t) f =
  match w.W.kind with
  | W.Stream ->
    if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
    let path =
      Filename.concat work_dir
        (Printf.sprintf "stream-%d-%d.trace" w.W.seed (Unix.getpid ()))
    in
    Out_channel.with_open_bin path (fun oc -> output_string oc w.W.text);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f (Some path))
  | _ -> f None

let run_workload (w : W.t) ~budget ~trace =
  with_stream_file w @@ fun path ->
  (* set-up: parse the serialized workload into Coflows from a settled
     heap; one more parse is the batch replays' input and the check's
     reference *)
  let setup_times = ref [] in
  let time_parse () =
    Gc.full_major ();
    let t0 = now () in
    ignore (Sys.opaque_identity (Trace.parse w.W.text));
    setup_times := seconds t0 (now ()) :: !setup_times
  in
  for _ = 1 to setup_reps do
    time_parse ()
  done;
  let coflows = (Trace.parse w.W.text).Trace.coflows in
  Pool.set_jobs (Some pool_domains);
  (* per-Coflow circuit lower bounds, for slowdowns and for [stream]'s
     deadlines: computed once here, outside every timed call *)
  let bounds = Hashtbl.create 1024 in
  List.iter
    (fun (c : Coflow.t) ->
      Hashtbl.replace bounds c.Coflow.id
        (c, Bounds.circuit_lower ~bandwidth:W.bandwidth ~delta:W.delta c.Coflow.demand))
    coflows;
  let deadline_of (c : Coflow.t) =
    c.Coflow.arrival +. (W.deadline_factor *. snd (Hashtbl.find bounds c.Coflow.id))
  in
  let replay p =
    match path with
    | Some path -> run_stream path ~deadline_of p
    | None -> run_batch w coflows p
  in
  let attempted = ref 0 and failed = ref 0 in
  (* warm-up replay: fills the heap and the program's scratch, and is
     the one checked in full; every later replay must match its digest *)
  let base = replay (probe None) in
  let base_digest = digest base.result in
  attempted := w.W.n_coflows;
  failed := check w coflows base;
  let account d =
    attempted := !attempted + w.W.n_coflows;
    if d <> base_digest then begin
      Format.eprintf "%s: replay digest %s differs from %s@." w.W.name d base_digest;
      failed := !failed + w.W.n_coflows
    end
  in
  (* repetitions start from a settled heap; it is not compacted, so
     none of them pays to map fresh memory again *)
  let heap_peaks = ref [] in
  let untraced = ref [] and traced = ref [] in
  let untraced_rep () =
    time_parse ();
    Gc.full_major ();
    let p = probe None in
    let o = replay p in
    account (digest o.result);
    heap_peaks := float_of_int p.heap_peak :: !heap_peaks;
    untraced := (o, Samples.sorted p.lat) :: !untraced
  in
  let traced_rep () =
    Gc.full_major ();
    Obs.Registry.reset ();
    Obs.Tracer.clear ();
    Obs.Sampler.clear ();
    Obs.Timeline.clear ();
    Obs.Attrib.clear ();
    let prof = Profile.create () in
    let p = probe (Some prof) in
    Obs.Control.set_enabled true;
    let w0 = now () in
    let o, t_parse =
      match path with
      | Some path ->
        let o = run_stream path ~deadline_of p in
        (o, o.outside_parse_s +. p.pull_in)
      | None ->
        let t0 = now () in
        let input = (Trace.parse w.W.text).Trace.coflows in
        let parse_s = seconds t0 (now ()) in
        let o = run_batch w input p in
        ({ o with outside_parse_s = parse_s }, parse_s)
    in
    let w1 = now () in
    Obs.Control.set_enabled false;
    Profile.drain prof;
    account (digest o.result);
    traced :=
      {
        t_out = o;
        t_probe = p;
        t_prof = prof;
        t_wall = seconds w0 w1;
        t_parse;
        t_counters = Obs.Registry.snapshot ();
      }
      :: !traced
  in
  let start = now () in
  let rec loop i =
    if trace && i mod 2 = 1 then traced_rep () else untraced_rep ();
    let enough = !untraced <> [] && ((not trace) || !traced <> []) in
    if not (enough && seconds start (now ()) >= budget) then loop (i + 1)
  in
  loop 0;
  Format.eprintf "%s: %d untraced replays (fastest %.3f s), %d traced@." w.W.name
    (List.length !untraced)
    (best (fun (o, _) -> o.cost.call_s) !untraced)
    (List.length !traced);
  let e2e =
    end_to_end w
      ~setup_s:(best Fun.id !setup_times)
      ~base ~bounds ~reps:!untraced ~heap_peak:(median !heap_peaks)
  in
  let failed_frac = float_of_int !failed /. float_of_int !attempted in
  let layers, profile_ok =
    match !traced with
    | [] -> ([], true)
    | l ->
      (* the fastest traced replay, against the fastest untraced one *)
      let tr =
        List.hd (List.sort (fun a b -> Float.compare a.t_out.cost.call_s b.t_out.cost.call_s) l)
      in
      per_layer w ~tr ~base ~bounds ~reps:!untraced ~failed_frac
  in
  {
    correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    e2e;
    layers;
    profile_ok;
    digest = base_digest;
  }

(* --- output ---------------------------------------------------------------- *)

let finite ms = List.for_all (fun x -> Float.is_finite x.value) ms

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
           (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "null")
           x.unit)
       ms)

let engine_of (w : W.t) =
  match w.W.kind with
  | W.Storm ->
    "Circuit_sim.run ~policy:Shortest_first ~replan:`Incremental ~buckets:24 \
     ~bucket_base:2."
  | W.Pods ->
    Printf.sprintf
      "Circuit_sim.run ~policy:Shortest_first ~replan:`Incremental ~buckets:24 \
       ~bucket_base:2. ~shards:%d ~shard_block:%d, shard passes on %d domain(s)"
      W.pod_shards W.pod_size pool_domains
  | W.Stream ->
    "Serve.run ~deadline_of:(arrival + 3 x Bounds.circuit_lower) over \
     Trace.reader, closed loop"

(* one line of context for every result: the workload and the machine *)
let record (w : W.t) (r : run) =
  let env name = Option.value ~default:"unknown" (Sys.getenv_opt name) in
  Printf.sprintf
    "{\"record\": {\"workload\": %S, \"seed\": %d, \"coflows\": %d, \"ports\": \
     %d, \"total_bytes\": %.17g, \"delta_s\": %g, \"bandwidth_Bps\": %g, \
     \"engine\": %S, \"digest\": %S, \"nproc\": %S, \
     \"recommended_domains\": %d, \"pool_domains\": %d, \"core_conditional\": \
     %b, \"ocaml\": %S, \"commit\": %S, \"profile_ok\": %b}}"
    w.W.name w.W.seed w.W.n_coflows w.W.n_ports w.W.total_bytes W.delta W.bandwidth
    (engine_of w) r.digest (env "PERFBENCH_NPROC")
    (Domain.recommended_domain_count ()) pool_domains (w.W.kind = W.Pods)
    Sys.ocaml_version (env "PERFBENCH_COMMIT") r.profile_ok

let usage =
  "usage: main.exe --workload storm|pods|stream --seed N --seconds S --trace \
   0|1\n       main.exe --self-check"

let fail msg =
  prerr_endline msg;
  exit 2

(* the metric names BENCHMARK.json declares under [section] *)
let declared section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Result.map (Obs.Json.member section) (Obs.Json.of_string text) with
  | Ok (Some (Obs.Json.Arr l)) ->
    List.filter_map
      (fun e ->
        match Obs.Json.member "name" e with Some (Obs.Json.Str n) -> Some n | _ -> None)
      l
  | _ -> []

(* every declared metric present, nothing else, all finite *)
let complete section ms =
  let names = List.sort compare (declared section) in
  names <> [] && names = List.sort compare (List.map (fun x -> x.name) ms) && finite ms

let self_check () =
  let ok = ref true in
  List.iter
    (fun name ->
      let kind = Option.get (W.kind_of_name name) in
      let w = W.make ~tiny:true kind 1 in
      let r = run_workload w ~budget:0. ~trace:true in
      let problems =
        List.filter_map
          (fun (bad, what) -> if bad then Some what else None)
          [
            ( not (complete "end_to_end" r.e2e),
              "end-to-end metrics differ from BENCHMARK.json or are non-finite" );
            ( not (complete "per_layer" r.layers),
              "per-layer metrics differ from BENCHMARK.json or are non-finite" );
            (r.failed > 0, "output check failed");
            (not r.profile_ok, "traced layers invalid (dropped events or sum off)");
          ]
      in
      print_endline (record w r);
      Printf.printf "%-6s %s\n%!" name
        (if problems = [] then "ok" else String.concat "; " problems);
      if problems <> [] then ok := false)
    W.names;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref None and seed = ref None and budget = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--self-check" :: _ -> self_check ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      budget := float_of_string_opt v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | _ -> fail usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (Option.bind !workload W.kind_of_name, !seed, !budget, !trace) with
  | Some kind, Some seed, Some budget, Some trace when budget >= 0. ->
    let w = W.make ~tiny:false kind seed in
    let r = run_workload w ~budget ~trace in
    let ms = if trace then r.layers else r.e2e in
    print_endline (record w r);
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      (r.correct && finite ms) r.attempted r.failed (json_metrics ms)
  | _ -> fail usage
