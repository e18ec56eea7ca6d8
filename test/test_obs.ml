(* The observability layer's contract: registry merges are exact once
   workers have synchronised (1/2/4 domains), histogram bucketing puts
   boundaries where the docs say, tracer events keep emission order
   within a domain and export as Chrome trace JSON that validates, and
   the always-on PRT counters and every replan mode's replay result
   stay bit-identical whether or not gated instrumentation runs. *)

module Obs = Sunflow_obs
module Registry = Obs.Registry
module Tracer = Obs.Tracer
module Pool = Sunflow_parallel.Pool
module Units = Sunflow_core.Units

(* Run [f] with tracing enabled, then restore the disabled default and
   drop anything it buffered so later suites see a clean slate. *)
let with_tracing f =
  Obs.Control.set_enabled true;
  Tracer.clear ();
  Obs.Timeline.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.set_enabled false;
      Tracer.clear ();
      Obs.Timeline.clear ())
    f

(* --- registry merges --------------------------------------------------- *)

let test_counter_merge_across_domains () =
  let c = Registry.counter "test.obs.merge_counter" in
  let g = Registry.gauge "test.obs.merge_gauge" in
  let h = Registry.histogram "test.obs.merge_hist" in
  let n = 1000 in
  let expected_sum = n * (n - 1) / 2 in
  List.iter
    (fun domains ->
      Registry.counter_reset c;
      Registry.gauge_reset g;
      let pool = Pool.create ~domains in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          ignore
            (Pool.map ~chunk:7 pool
               (fun i ->
                 Registry.incr c;
                 Registry.add c i;
                 Registry.gauge_add g (float_of_int i);
                 Registry.observe h 1.5;
                 i)
               (Array.init n Fun.id)
              : int array));
      let label fmt = Printf.sprintf fmt domains in
      Alcotest.(check int)
        (label "counter exact at %d domains")
        (n + expected_sum) (Registry.counter_value c);
      Alcotest.(check (float 1e-9))
        (label "gauge sums domains at %d domains")
        (float_of_int expected_sum) (Registry.gauge_value g))
    [ 1; 2; 4 ];
  (* the histogram accumulated across all three pool sizes *)
  let snap = Registry.histogram_value h in
  Alcotest.(check int) "histogram count over all runs" (3 * n) snap.h_count;
  Alcotest.(check (float 1e-6)) "histogram sum" (3. *. float_of_int n *. 1.5)
    snap.h_sum

let test_metric_identity_and_kind_clash () =
  let c1 = Registry.counter "test.obs.shared" in
  let c2 = Registry.counter "test.obs.shared" in
  Registry.counter_reset c1;
  Registry.incr c1;
  Registry.incr c2;
  Alcotest.(check int) "same name, same counter" 2 (Registry.counter_value c2);
  Alcotest.check_raises "name reuse across kinds rejected"
    (Invalid_argument
       "Registry.histogram: \"test.obs.shared\" is already a different kind")
    (fun () -> ignore (Registry.histogram "test.obs.shared"))

(* --- histogram bucket boundaries --------------------------------------- *)

let test_histogram_buckets () =
  let h = Registry.histogram "test.obs.buckets" in
  List.iter (Registry.observe h) [ 1.0; 2.0; 3.0; 0.5; 0.0; -4.0; infinity ];
  let snap = Registry.histogram_value h in
  Alcotest.(check int) "count" 7 snap.h_count;
  Alcotest.(check (float 0.)) "min" (-4.0) snap.h_min;
  Alcotest.(check (float 0.)) "max" infinity snap.h_max;
  let bucket_of v =
    List.find_opt (fun (lo, hi, _) -> lo <= v && v < hi) snap.h_buckets
  in
  (* 1.0 sits at the bottom of [1, 2); the exact power-of-two 2.0 lands
     in the upper bucket [2, 4) together with 3.0; 0.5 in [0.5, 1) *)
  Alcotest.(check (option (triple (float 0.) (float 0.) int)))
    "[1,2) holds 1.0"
    (Some (1.0, 2.0, 1))
    (bucket_of 1.0);
  Alcotest.(check (option (triple (float 0.) (float 0.) int)))
    "[2,4) holds 2.0 and 3.0"
    (Some (2.0, 4.0, 2))
    (bucket_of 2.0);
  Alcotest.(check (option (triple (float 0.) (float 0.) int)))
    "[0.5,1) holds 0.5"
    (Some (0.5, 1.0, 1))
    (bucket_of 0.5);
  (* zero and negatives underflow; infinity overflows *)
  (match snap.h_buckets with
  | (lo, _, k) :: _ ->
    Alcotest.(check (float 0.)) "underflow lo" neg_infinity lo;
    Alcotest.(check int) "underflow holds 0.0 and -4.0" 2 k
  | [] -> Alcotest.fail "no buckets");
  (match List.rev snap.h_buckets with
  | (_, hi, k) :: _ ->
    Alcotest.(check (float 0.)) "overflow hi" infinity hi;
    Alcotest.(check int) "overflow holds infinity" 1 k
  | [] -> Alcotest.fail "no buckets");
  let total = List.fold_left (fun a (_, _, k) -> a + k) 0 snap.h_buckets in
  Alcotest.(check int) "bucket counts sum to the sample count" 7 total;
  (* NaN counts as a sample (underflow) without being lost *)
  let h2 = Registry.histogram "test.obs.buckets_nan" in
  Registry.observe h2 Float.nan;
  Alcotest.(check int) "nan counted" 1 (Registry.histogram_value h2).h_count

(* --- histogram quantile estimation -------------------------------------- *)

let test_histogram_quantiles () =
  let h = Registry.histogram "test.obs.quantiles" in
  (* 100 samples 1..100: log-bucket interpolation cannot be exact, but
     every estimate must stay inside the sample range, be monotone in
     q, and land in the right power-of-two neighbourhood *)
  for i = 1 to 100 do
    Registry.observe h (float_of_int i)
  done;
  let snap = Registry.histogram_value h in
  let p50 = Registry.quantile snap 0.5 in
  let p95 = Registry.quantile snap 0.95 in
  let p99 = Registry.quantile snap 0.99 in
  Alcotest.(check bool) "p50 in the right bucket" true (p50 >= 32. && p50 <= 64.);
  Alcotest.(check bool) "p95 above p50" true (p95 >= p50);
  Alcotest.(check bool) "p99 above p95" true (p99 >= p95);
  Alcotest.(check bool) "p99 clamped to the observed max" true (p99 <= 100.);
  Alcotest.(check (float 0.)) "q=0 is the min" 1. (Registry.quantile snap 0.);
  Alcotest.(check (float 0.)) "q=1 is the max" 100. (Registry.quantile snap 1.);
  (* a single sample collapses every quantile onto it *)
  let h1 = Registry.histogram "test.obs.quantiles_one" in
  Registry.observe h1 42.;
  let s1 = Registry.histogram_value h1 in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "single sample at q=%g" q)
        42. (Registry.quantile s1 q))
    [ 0.; 0.5; 1. ];
  (* empty histogram: NaN, not a crash *)
  let h0 = Registry.histogram "test.obs.quantiles_empty" in
  Alcotest.(check bool) "empty is NaN" true
    (Float.is_nan (Registry.quantile (Registry.histogram_value h0) 0.5))

(* --- tracer ------------------------------------------------------------ *)

let test_tracer_ordering () =
  with_tracing (fun () ->
      Tracer.begin_span "outer";
      Tracer.instant "mark";
      Tracer.begin_span "inner";
      Tracer.end_span "inner";
      Tracer.end_span "outer";
      let evs = Tracer.events () in
      Alcotest.(check int) "event count" 5 (List.length evs);
      Alcotest.(check (list string))
        "emission order preserved within the domain"
        [ "B outer"; "i mark"; "B inner"; "E inner"; "E outer" ]
        (List.map
           (fun (e : Tracer.event) ->
             let ph =
               match e.ph with Begin -> "B" | End -> "E" | Instant -> "i"
             in
             ph ^ " " ^ e.name)
           evs);
      let rec non_decreasing = function
        | (a : Tracer.event) :: (b :: _ as rest) ->
          a.ts <= b.ts && non_decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "timestamps non-decreasing" true
        (non_decreasing evs))

let test_with_span_exception_safe () =
  with_tracing (fun () ->
      Alcotest.check_raises "exception passes through" (Failure "boom")
        (fun () -> Tracer.with_span "risky" (fun () -> failwith "boom"));
      match Tracer.events () with
      | [ b; e ] ->
        Alcotest.(check bool) "begin then end" true
          (b.Tracer.ph = Tracer.Begin && e.Tracer.ph = Tracer.End)
      | evs -> Alcotest.failf "expected a balanced pair, got %d events"
                 (List.length evs))

let test_disabled_records_nothing () =
  Obs.Control.set_enabled false;
  Tracer.clear ();
  Tracer.begin_span "ghost";
  Tracer.instant "ghost";
  Tracer.end_span "ghost";
  Obs.Timeline.clear ();
  Obs.Timeline.record (Obs.Timeline.Arrival { coflow = 0; t = 0. });
  Alcotest.(check int) "no tracer events" 0 (Tracer.event_count ());
  Alcotest.(check int) "no timeline events" 0
    (List.length (Obs.Timeline.events ()))

(* --- exports ----------------------------------------------------------- *)

let test_chrome_trace_valid () =
  with_tracing (fun () ->
      Tracer.with_span "outer" (fun () ->
          Tracer.with_span ~cat:"test" "inner" Fun.id);
      Tracer.instant "mark";
      let json = Tracer.to_chrome_json () in
      (match Obs.Json.of_string json with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg);
      match Obs.Chrome_trace.validate json with
      | Ok n -> Alcotest.(check int) "non-metadata events" 5 n
      | Error msg -> Alcotest.failf "trace JSON does not validate: %s" msg)

let test_metrics_json_parses () =
  ignore (Registry.counter "test.obs.merge_counter" : Registry.counter);
  let json = Registry.to_json (Registry.snapshot ()) in
  match Obs.Json.of_string json with
  | Ok (Obs.Json.Obj _ as root) ->
    (match Obs.Json.member "schema" root with
    | Some (Obs.Json.Str "sunflow-obs-metrics/2") -> ()
    | _ -> Alcotest.fail "schema field missing or wrong");
    (match Obs.Json.member "counters" root with
    | Some (Obs.Json.Obj _) -> ()
    | _ -> Alcotest.fail "counters object missing")
  | Ok _ -> Alcotest.fail "metrics JSON root is not an object"
  | Error msg -> Alcotest.failf "metrics JSON does not parse: %s" msg

let test_timeline_exports () =
  with_tracing (fun () ->
      let open Obs.Timeline in
      record (Arrival { coflow = 3; t = 1.0 });
      record (Setup { coflow = 3; src = 1; dst = 2; t = 1.0; delta = 0.01 });
      record (Flow_finish { coflow = 3; src = 1; dst = 2; t = 1.5 });
      record (Setup { coflow = 3; src = 4; dst = 5; t = 1.5; delta = 0.01 });
      record (Finish { coflow = 3; t = 2.0; cct = 1.0 });
      let csv = Obs.Timeline.to_csv () in
      let lines = String.split_on_char '\n' (String.trim csv) in
      Alcotest.(check string)
        "header" "coflow,event,t_seconds,src,dst,delta_seconds"
        (List.hd lines);
      Alcotest.(check int) "one row per event" 6 (List.length lines);
      let tagged tag =
        List.length
          (List.filter
             (fun l ->
               match String.split_on_char ',' l with
               | _ :: t :: _ -> t = tag
               | _ -> false)
             lines)
      in
      Alcotest.(check int) "exactly one first_circuit" 1 (tagged "first_circuit");
      Alcotest.(check int) "the second setup stays a plain setup" 1
        (tagged "setup");
      match Obs.Json.of_string (Obs.Timeline.to_json ()) with
      | Ok (Obs.Json.Arr [ coflow ]) ->
        (match Obs.Json.member "cct" coflow with
        | Some (Obs.Json.Num c) -> Alcotest.(check (float 0.)) "cct" 1.0 c
        | _ -> Alcotest.fail "cct missing from the timeline JSON")
      | Ok _ -> Alcotest.fail "timeline JSON is not a one-Coflow array"
      | Error msg -> Alcotest.failf "timeline JSON does not parse: %s" msg)

(* --- CCT attribution ---------------------------------------------------- *)

(* Run [f] with the full recording state (attribution windows, sampler,
   timeline) enabled and cleared, restoring the disabled default. *)
let with_attrib f =
  Obs.Control.set_enabled true;
  Obs.Attrib.clear ();
  Obs.Sampler.clear ();
  Obs.Timeline.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.set_enabled false;
      Obs.Attrib.clear ();
      Obs.Sampler.clear ();
      Obs.Timeline.clear ())
    f

(* A hand-built scenario where every component of the decomposition is
   a round number. Coflow 1 (arrival 0, finish 10, one flow 0 -> 1):
   its circuit sets up over [2, 3) and transmits over [3, 6); Coflow 2
   then occupies input port 0 over [6, 8). With no Flow_finish
   recorded, port 0 stays "needed" until the finish, so [6, 8) is
   blocked on Coflow 2 and the rest — [0, 2) and [8, 10) — is
   admission wait. *)
let test_attrib_decomposition () =
  with_attrib (fun () ->
      Obs.Attrib.record_window ~coflow:1 ~src:0 ~dst:1 ~t0:2. ~tx:3. ~t1:6.;
      Obs.Attrib.record_window ~coflow:2 ~src:0 ~dst:2 ~t0:6. ~tx:6. ~t1:8.;
      let spec =
        {
          Obs.Attrib.s_id = 1;
          s_arrival = 0.;
          s_finish = 10.;
          s_srcs = [ { Obs.Attrib.p_port = 0; p_flows = 1 } ];
          s_dsts = [ { Obs.Attrib.p_port = 1; p_flows = 1 } ];
        }
      in
      match Obs.Attrib.compute [ spec ] with
      | [ b ] ->
        Alcotest.(check (float 1e-9)) "cct" 10. b.Obs.Attrib.a_cct;
        Alcotest.(check (float 1e-9)) "wait" 4. b.Obs.Attrib.a_wait;
        Alcotest.(check (float 1e-9)) "setup" 1. b.Obs.Attrib.a_setup;
        Alcotest.(check (float 1e-9)) "transfer" 3. b.Obs.Attrib.a_transfer;
        Alcotest.(check (float 1e-9)) "blocked" 2. b.Obs.Attrib.a_blocked;
        Alcotest.(check (float 1e-9)) "conserves" 0. (Obs.Attrib.residual b);
        (match b.Obs.Attrib.a_blame with
        | [ bl ] ->
          Alcotest.(check int) "blamed on Coflow 2" 2 bl.Obs.Attrib.b_coflow;
          Alcotest.(check (float 1e-9)) "blame seconds" 2.
            bl.Obs.Attrib.b_seconds
        | blame ->
          Alcotest.failf "expected one blame entry, got %d"
            (List.length blame))
      | bs -> Alcotest.failf "expected one breakdown, got %d" (List.length bs))

(* Flow_finish narrowing: once the timeline records that a port's
   flows all finished, later occupancy of that port no longer counts
   as blocked. Same geometry as above, but port 0's single flow is
   recorded finished at t = 6 — exactly when Coflow 2 moves in — so
   [6, 8) flips from blocked to wait. *)
let test_attrib_flow_finish_narrowing () =
  with_attrib (fun () ->
      Obs.Attrib.record_window ~coflow:1 ~src:0 ~dst:1 ~t0:2. ~tx:3. ~t1:6.;
      Obs.Attrib.record_window ~coflow:2 ~src:0 ~dst:2 ~t0:6. ~tx:6. ~t1:8.;
      Obs.Timeline.record
        (Obs.Timeline.Flow_finish { coflow = 1; src = 0; dst = 1; t = 6. });
      let spec =
        {
          Obs.Attrib.s_id = 1;
          s_arrival = 0.;
          s_finish = 10.;
          s_srcs = [ { Obs.Attrib.p_port = 0; p_flows = 1 } ];
          s_dsts = [ { Obs.Attrib.p_port = 1; p_flows = 1 } ];
        }
      in
      match Obs.Attrib.compute [ spec ] with
      | [ b ] ->
        Alcotest.(check (float 1e-9)) "blocked gone" 0. b.Obs.Attrib.a_blocked;
        Alcotest.(check (float 1e-9)) "wait absorbs it" 6. b.Obs.Attrib.a_wait;
        Alcotest.(check (float 1e-9)) "conserves" 0. (Obs.Attrib.residual b)
      | bs -> Alcotest.failf "expected one breakdown, got %d" (List.length bs))

(* --- sampler ------------------------------------------------------------ *)

let test_sampler_ledger_and_jsonl () =
  with_attrib (fun () ->
      Obs.Sampler.port_busy ~src:0 ~dst:3 ~setup_s:0.01 ~tx_s:0.5;
      Obs.Sampler.port_busy ~src:0 ~dst:2 ~setup_s:0.02 ~tx_s:0.25;
      Obs.Sampler.record
        {
          Obs.Sampler.m_t = 0.;
          m_t_next = 0.5;
          m_active = 2;
          m_circuits = 2;
          m_transmit_s = 0.75;
          m_setup_s = 0.03;
          m_busy_ports = 3;
          m_rescheduled = 1;
          m_spliced = 0;
          m_conflicts = 0;
          m_rollbacks = 0;
        };
      (* input port 0 accumulated both segments; outputs sort after *)
      (match Obs.Sampler.port_totals () with
      | [ (p_in, tx, su); (p2, _, _); (p3, _, _) ] ->
        Alcotest.(check string) "input first" "in.0" p_in;
        Alcotest.(check (float 1e-9)) "transmit accumulates" 0.75 tx;
        Alcotest.(check (float 1e-9)) "setup accumulates" 0.03 su;
        Alcotest.(check string) "outputs sorted" "out.2" p2;
        Alcotest.(check string) "then out.3" "out.3" p3
      | rows -> Alcotest.failf "expected 3 port rows, got %d" (List.length rows));
      let jsonl = Obs.Sampler.to_jsonl () in
      let lines = String.split_on_char '\n' (String.trim jsonl) in
      Alcotest.(check int) "one line per sample" 1 (List.length lines);
      match Obs.Json.of_string (List.hd lines) with
      | Ok line ->
        (match Obs.Json.member "active" line with
        | Some (Obs.Json.Num a) -> Alcotest.(check (float 0.)) "active" 2. a
        | _ -> Alcotest.fail "active missing from the sample line")
      | Error msg -> Alcotest.failf "sample line does not parse: %s" msg)

(* --- report rendering --------------------------------------------------- *)

let test_report_body () =
  Alcotest.(check (list string))
    "width bins"
    [ "0"; "1"; "2"; "3-4"; "3-4"; "5-8"; "9-16" ]
    (List.map Obs.Report.width_bin [ 0; 1; 2; 3; 4; 5; 9 ]);
  let breakdown a_id cct wait tx =
    {
      Obs.Attrib.a_id;
      a_arrival = 0.;
      a_finish = cct;
      a_cct = cct;
      a_wait = wait;
      a_setup = 0.;
      a_transfer = tx;
      a_blocked = cct -. wait -. tx;
      a_blame =
        (if cct -. wait -. tx > 0. then
           [ { Obs.Attrib.b_coflow = 99; b_seconds = cct -. wait -. tx } ]
         else []);
    }
  in
  let row w bytes b = { Obs.Report.c_width = w; c_bytes = bytes; c_breakdown = b } in
  let r =
    {
      Obs.Report.r_run = [ ("trace", "\"test\"") ];
      r_makespan_s = 4.;
      r_events = 7;
      r_setups = 3;
      r_rows =
        [
          row 1 1e6 (breakdown 0 1. 0.2 0.8);
          row 1 2e6 (breakdown 1 2. 0.5 1.0);
          row 4 8e6 (breakdown 2 4. 1.0 2.0);
        ];
      r_ports = [ ("in.0", 3.0, 0.5); ("out.1", 2.0, 0.25) ];
      r_top_k = 2;
    }
  in
  let body = Obs.Report.body_json r in
  match Obs.Json.of_string body with
  | Error msg -> Alcotest.failf "report body does not parse: %s" msg
  | Ok root ->
    (match Obs.Json.member "blame" root with
    | Some blame ->
      let num key =
        match Obs.Json.member key blame with
        | Some (Obs.Json.Num v) -> v
        | _ -> Alcotest.failf "blame.%s missing" key
      in
      Alcotest.(check (float 1e-9))
        "blame components sum to total CCT" (num "total_cct_s")
        (num "wait_s" +. num "setup_s" +. num "transfer_s" +. num "blocked_s")
    | None -> Alcotest.fail "blame object missing");
    (match Obs.Json.member "ports" root with
    | Some (Obs.Json.Arr (first :: _)) ->
      (match Obs.Json.member "utilization" first with
      | Some (Obs.Json.Num u) ->
        Alcotest.(check (float 1e-9)) "utilization is a makespan fraction" 0.75 u
      | _ -> Alcotest.fail "utilization missing")
    | _ -> Alcotest.fail "ports array missing");
    (match Obs.Json.member "slowest" root with
    | Some (Obs.Json.Arr rows) ->
      Alcotest.(check int) "top_k bounds the slowest section" 2
        (List.length rows)
    | _ -> Alcotest.fail "slowest array missing");
    (* byte-stability in the small: rendering is a pure function *)
    Alcotest.(check string) "body render is deterministic" body
      (Obs.Report.body_json r)

(* --- the PRT façade ----------------------------------------------------- *)

(* The acceptance bar for the whole layer: running with gated
   instrumentation on must not change the always-on PRT counters by a
   single increment, and the registry's prt.* metrics must be the same
   numbers [Prt.stats] reports. *)
let test_prt_stats_bit_identical_under_obs () =
  let module Prt = Sunflow_core.Prt in
  let module Sunflow = Sunflow_core.Sunflow in
  let coflow =
    let demand = Sunflow_core.Demand.create () in
    for i = 0 to 5 do
      for j = 0 to 5 do
        Sunflow_core.Demand.set demand i (6 + j) (Units.mb (float_of_int (1 + ((i + j) mod 7))))
      done
    done;
    Sunflow_core.Coflow.make ~id:0 demand
  in
  let run () =
    Prt.reset_stats ();
    ignore (Sunflow.schedule ~delta:0.01 ~bandwidth:(Units.gbps 1.) coflow);
    Prt.stats ()
  in
  let off = run () in
  let on = with_tracing run in
  Alcotest.(check bool) "Prt.stats bit-identical with tracing on" true
    (off = on);
  let reg name = Registry.counter_value (Registry.counter name) in
  Alcotest.(check int) "prt.queries façade" on.Prt.queries (reg "prt.queries");
  Alcotest.(check int) "prt.scans façade" on.Prt.scans (reg "prt.scans");
  Alcotest.(check int) "prt.reservations façade" on.Prt.reservations
    (reg "prt.reservations");
  Alcotest.(check int) "prt.rollbacks façade" on.Prt.rollbacks
    (reg "prt.rollbacks")

(* --- obs does not change the replay ------------------------------------ *)

(* With obs on the slice executor keeps its live-circuit table and the
   replay feeds the timeline, sampler and attribution stores; none of
   that may move a single result bit, in any replan mode. *)
let test_replay_bit_identical_under_obs () =
  let module Circuit_sim = Sunflow_sim.Circuit_sim in
  let module Synthetic = Sunflow_trace.Synthetic in
  let trace =
    Synthetic.generate
      { Synthetic.default_params with seed = 5; n_coflows = 60; span = 150. }
  in
  List.iter
    (fun (name, replan) ->
      List.iter
        (fun carry_circuits ->
          let run () =
            Circuit_sim.replay ~replan
              ~config:(Sunflow_core.Inter.config ~carry_circuits ())
              ~delta:(Units.ms 10.) ~bandwidth:(Units.gbps 1.)
              trace.Sunflow_trace.Trace.coflows
          in
          let off = run () in
          let on = with_tracing (fun () -> with_attrib run) in
          Alcotest.(check bool)
            (Printf.sprintf "%s carry=%b: Sim_result bit-identical" name
               carry_circuits)
            true (off = on))
        [ true; false ])
    [ ("full", `Full); ("rebuild", `Rebuild); ("incremental", `Incremental) ]

let suite =
  [
    Alcotest.test_case "registry merge exact at 1/2/4 domains" `Quick
      test_counter_merge_across_domains;
    Alcotest.test_case "metric identity and kind clash" `Quick
      test_metric_identity_and_kind_clash;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "histogram quantile estimation" `Quick
      test_histogram_quantiles;
    Alcotest.test_case "tracer preserves emission order" `Quick
      test_tracer_ordering;
    Alcotest.test_case "with_span is exception-safe" `Quick
      test_with_span_exception_safe;
    Alcotest.test_case "disabled switch records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "chrome trace export validates" `Quick
      test_chrome_trace_valid;
    Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
    Alcotest.test_case "timeline exports" `Quick test_timeline_exports;
    Alcotest.test_case "attribution decomposition conserves" `Quick
      test_attrib_decomposition;
    Alcotest.test_case "attribution narrows on flow finish" `Quick
      test_attrib_flow_finish_narrowing;
    Alcotest.test_case "sampler ledger and JSONL export" `Quick
      test_sampler_ledger_and_jsonl;
    Alcotest.test_case "report body rendering" `Quick test_report_body;
    Alcotest.test_case "PRT stats bit-identical under tracing" `Quick
      test_prt_stats_bit_identical_under_obs;
    Alcotest.test_case "replay bit-identical under obs" `Quick
      test_replay_bit_identical_under_obs;
  ]
