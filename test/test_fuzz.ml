(* Failure injection: hostile inputs must produce typed errors, never
   crashes or corrupted state. *)

module Trace = Sunflow_trace.Trace
module Demand = Sunflow_core.Demand
module Controller = Sunflow_switch.Controller
module Prt = Sunflow_core.Prt

(* --- trace parser --- *)

let parses_or_fails_cleanly text =
  match Trace.parse text with
  | (_ : Trace.t) -> true
  | exception Trace.Parse_error _ -> true
  | exception _ -> false

let prop_parser_random_garbage =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parser survives random garbage" ~count:500
       QCheck2.Gen.(string_size ~gen:printable (int_range 0 200))
       parses_or_fails_cleanly)

let valid_text = "10 2\n0 0 2 1 2 1 5:10\n1 250 1 3 2 6:4 7:2\n"

let prop_parser_mutated_trace =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parser survives mutations of a valid trace"
       ~count:500
       QCheck2.Gen.(
         triple (int_range 0 (String.length valid_text - 1)) char
           (int_range 0 (String.length valid_text)))
       (fun (pos, c, cut) ->
         let mutated = Bytes.of_string valid_text in
         Bytes.set mutated pos c;
         let mutated = Bytes.sub_string mutated 0 cut in
         parses_or_fails_cleanly mutated))

let prop_parser_shuffled_lines =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parser survives line reordering" ~count:200
       QCheck2.Gen.(int_range 0 1000)
       (fun seed ->
         let rng = Sunflow_stats.Rng.create seed in
         let lines = String.split_on_char '\n' valid_text in
         let shuffled =
           String.concat "\n" (Sunflow_stats.Rng.shuffle_list rng lines)
         in
         parses_or_fails_cleanly shuffled))

(* --- controller vs adversarial plans --- *)

let reservation_gen =
  QCheck2.Gen.(
    let* src = int_range 0 3 in
    let* dst = int_range 0 3 in
    let* start = float_range 0. 2. in
    let* setup = oneofl [ 0.; 0.005; 0.01; 0.02 ] in
    let* extra = float_range 0.001 0.5 in
    pure { Prt.coflow = 0; src; dst; start; setup; length = setup +. extra })

let prop_controller_rejects_or_executes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"controller handles arbitrary plans without crashing" ~count:300
       QCheck2.Gen.(list_size (int_range 0 12) reservation_gen)
       (fun plan ->
         match
           Controller.execute ~delta:0.01 ~bandwidth:1e8 ~n_ports:4
             ~coflows:[] ~plan
         with
         | Ok report -> report.leftover = 0.
         | Error msg -> String.length msg > 0))

(* --- PRT: interleaved reserve/query streams vs the list oracle --- *)

module Ref_prt = Util.Ref_prt

type prt_op =
  | Reserve of Prt.reservation
  | Probe_pair of int * int * float
  | Chance of int * int * float * float

let prt_op_gen =
  QCheck2.Gen.(
    let grid hi = map (fun k -> float_of_int k /. 16.) (int_range 0 hi) in
    let reservation =
      let* src = int_range 0 3 and* dst = int_range 0 3 in
      let* start = grid 96 and* len16 = int_range 1 32 in
      let* setup = oneofl [ 0.; 0.01 ] in
      pure
        {
          Prt.coflow = 0;
          src;
          dst;
          start;
          setup;
          length = float_of_int len16 /. 16.;
        }
    in
    oneof
      [
        map (fun r -> Reserve r) reservation;
        (* port 4 never holds a window: pairing with it probes one port *)
        (let* src = int_range 0 4 and* dst = int_range 0 4 in
         map (fun i -> Probe_pair (src, dst, i)) (grid 128));
        (let* src = int_range 0 4 and* dst = int_range 0 4 in
         let* gap = oneofl [ 0.; 0.1; 0.5 ] in
         map (fun i -> Chance (src, dst, gap, i)) (grid 128));
      ])

let prop_prt_stream_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"interleaved PRT ops agree with the list oracle step by step"
       ~count:300
       QCheck2.Gen.(list_size (int_range 1 80) prt_op_gen)
       (fun ops ->
         let t = Prt.create () in
         let ref_t = Ref_prt.create () in
         let cell = [| 0.; 0. |] in
         List.for_all
           (fun op ->
             match op with
             | Reserve r ->
               let ok = try Prt.reserve t r; true with Invalid_argument _ -> false in
               let ref_ok =
                 try Ref_prt.reserve ref_t r; true
                 with Invalid_argument _ -> false
               in
               ok = ref_ok
             | Probe_pair (src, dst, i) ->
               Test_prt.probe_pair t ~src ~dst i
               = Ref_prt.probe_pair (Ref_prt.port_list ref_t) ~src ~dst i
             | Chance (src, dst, gap, i) ->
               cell.(0) <- i;
               Prt.chance t ~src ~dst ~gap cell;
               (cell.(0), cell.(1))
               = Ref_prt.chance (Ref_prt.port_list ref_t) ~src ~dst ~gap i)
           ops
         && Prt.all_reservations t = Ref_prt.all_reservations ref_t))

(* --- Sunflow: event-driven loop vs the round-robin reference --- *)

module Sunflow = Sunflow_core.Sunflow
module Coflow = Sunflow_core.Coflow
module Units = Sunflow_core.Units

(* The pre-optimisation reservation loop, kept verbatim over the list
   table: every pending flow is retried at every release on any pending
   flow's ports, and the ports are asked by full scans. The
   event-driven scheduler must replay it reservation for reservation. *)
module Ref_loop = struct
  module Order = Sunflow_core.Order

  type pending = {
    src : int;
    dst : int;
    mutable remaining : float;
    mutable fresh : bool;
  }

  let make_reservation prt ~coflow ~now ~delta ~established t p =
    (* [neg_infinity] when either port is busy, else the earlier of the
       two next starts *)
    let tm = Ref_prt.probe_pair (Ref_prt.port_list prt) ~src:p.src ~dst:p.dst t in
    if tm <> neg_infinity then begin
      let setup =
        if p.fresh && t = now && established (p.src, p.dst) then 0. else delta
      in
      let lm = tm -. t in
      let ld = setup +. p.remaining in
      let l = if lm <= setup then 0. else Float.min lm ld in
      let rec shave l =
        if l <= 0. || t +. l <= tm then l
        else shave (Float.min (l -. (t +. l -. tm)) (Float.pred l))
      in
      let l = if l = lm then shave l else l in
      let l = if l <= setup then 0. else l in
      if l > 0. then begin
        let r =
          { Prt.coflow; src = p.src; dst = p.dst; start = t; setup; length = l }
        in
        Ref_prt.reserve prt r;
        p.remaining <- ld -. l;
        p.fresh <- false;
        Some r
      end
      else None
    end
    else None

  let no_circuit _ = false

  let schedule ~prt ?(now = 0.) ?(order = Order.Ordered_port)
      ?(established = no_circuit) ?(quantum = 0.) ~delta ~bandwidth coflow =
    let to_processing bytes =
      let p = bytes /. bandwidth in
      if quantum > 0. then quantum *. Float.ceil (p /. quantum) else p
    in
    let pending =
      Order.apply order (Demand.entries coflow.Coflow.demand)
      |> List.filter_map (fun ((src, dst), bytes) ->
             let remaining = to_processing bytes in
             if remaining > 0. then Some { src; dst; remaining; fresh = true }
             else None)
    in
    let made = ref [] in
    let rec loop t pending =
      match pending with
      | [] -> ()
      | _ ->
        List.iter
          (fun p ->
            match
              make_reservation prt ~coflow:coflow.Coflow.id ~now ~delta
                ~established t p
            with
            | Some r -> made := r :: !made
            | None -> ())
          pending;
        let pending = List.filter (fun p -> p.remaining > 0.) pending in
        if pending <> [] then begin
          (* the next release on any pending flow's ports *)
          let t' =
            List.fold_left
              (fun acc p ->
                Float.min acc
                  (Ref_prt.next_release_pair (Ref_prt.port_list prt)
                     ~src:p.src ~dst:p.dst t))
              infinity pending
          in
          if t' = infinity then
            invalid_arg "Ref_loop.schedule: stuck with pending demand"
          else loop t' pending
        end
    in
    loop now pending;
    let reservations = List.rev !made in
    let finish =
      List.fold_left (fun acc r -> Float.max acc (Prt.stop r)) now reservations
    in
    let setups =
      List.fold_left (fun k r -> if r.Prt.setup > 0. then k + 1 else k) 0
        reservations
    in
    { Sunflow.reservations; finish; setups }
end

(* Schedule [jobs] — (now, Coflow) pairs, in order — with both loops,
   each on its own table, and require identical results after every
   Coflow and identical tables at the end. Both tables start holding
   [prefill] (each window offered to both; the two must agree on which
   land). *)
let loops_agree ?(prefill = []) ?order ?established ?quantum ~delta jobs =
  let bandwidth = 1.25e8 in
  let prt_new = Prt.create () and prt_ref = Ref_prt.create () in
  List.for_all
    (fun w ->
      let ok = try Prt.reserve prt_new w; true with Invalid_argument _ -> false in
      let ref_ok =
        try Ref_prt.reserve prt_ref w; true with Invalid_argument _ -> false
      in
      ok = ref_ok)
    prefill
  && List.for_all
       (fun (now, c) ->
         let a =
           Sunflow.schedule ~prt:prt_new ~now ?order ?established ?quantum
             ~delta ~bandwidth c
         in
         let b =
           Ref_loop.schedule ~prt:prt_ref ~now ?order ?established ?quantum
             ~delta ~bandwidth c
         in
         a.Sunflow.reservations = b.Sunflow.reservations
         && a.finish = b.finish && a.setups = b.setups)
       jobs
  && Prt.all_reservations prt_new = Ref_prt.all_reservations prt_ref

let prop_event_loop_matches_round_robin =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"event-driven Sunflow loop replays the round-robin loop exactly"
       ~count:150
       QCheck2.Gen.(
         let* coflows =
           list_size (int_range 1 4) (Util.Gen.coflow ~n_ports:6 ())
         in
         let* delta = oneofl [ 0.; 0.001; 0.01; 0.1 ] in
         let* order =
           oneofl
             Sunflow_core.Order.
               [ Ordered_port; Sorted_demand_desc; Shuffled 13 ]
         in
         pure (coflows, delta, order))
       (fun (coflows, delta, order) ->
         (* inter-style: both loops extend their own shared table in the
            same Coflow order, so later Coflows see earlier reservations *)
         loops_agree ~order ~delta (List.map (fun c -> (0., c)) coflows)))

(* The same, from a table already holding windows of other Coflows: the
   prefill lies on a 1/64 s grid, shifted by sub-[time_tolerance] dust
   so neighbouring windows abut, gap or overlap by rounding dust; the
   Coflows start at random instants inside it, with random circuits
   established and an optional quantum. *)
let prefill_window ~n_ports =
  QCheck2.Gen.(
    let* src = int_range 0 (n_ports - 1) and* dst = int_range 0 (n_ports - 1) in
    let* start = int_range 0 128 and* len = int_range 1 24 in
    let* dust = int_range (-5) 5 in
    let* setup = oneofl [ 0.; 0.005 ] in
    pure
      {
        Prt.coflow = 1000 + src;
        src;
        dst;
        start = (float_of_int start /. 64.) +. (float_of_int dust *. 1e-10);
        setup;
        length = float_of_int len /. 64.;
      })

let prop_loops_agree_prefilled =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"event-driven loop replays round-robin on a pre-filled table"
       ~count:150
       QCheck2.Gen.(
         let window = prefill_window ~n_ports:6 in
         let* prefill = list_size (int_range 0 60) window in
         let* jobs =
           list_size (int_range 1 3)
             (pair (map (fun k -> float_of_int k /. 64.) (int_range 0 96))
                (Util.Gen.coflow ~n_ports:6 ()))
         in
         let* delta = oneofl [ 0.; 0.001; 0.01; 0.1 ] in
         let* quantum = oneofl [ 0.; 0.002 ] in
         let* est = int_range 0 5 in
         pure (prefill, jobs, delta, quantum, est))
       (fun (prefill, jobs, delta, quantum, est) ->
         let established (s, d) = (s + d) mod 6 = est in
         loops_agree ~prefill ~established ~quantum ~delta jobs))

(* The contended kernel case: 40 background Coflows on 16 ports, each
   a partial shift permutation started 5 ms after the last, then one
   96-flow Coflow (every port to the next six) scheduled at [now] into
   the table they fill, with some of its circuits already established.
   At [now = 0.] a few of those are free and reuse their circuit; at
   100 ms every port is busy. *)
let contended_jobs now =
  let n = 16 in
  let background =
    List.init 40 (fun b ->
        let d = Demand.create () in
        for i = 0 to n - 1 do
          if (i + b) mod 3 <> 0 then
            Demand.set d i
              ((i + 1 + b) mod n)
              (Units.mb (1. +. float_of_int ((i * b) mod 7)))
        done;
        (Units.ms 5. *. float_of_int b, Coflow.make ~id:(b + 1) d))
  in
  let d = Demand.create () in
  for i = 0 to n - 1 do
    for s = 1 to 6 do
      Demand.set d i ((i + s) mod n)
        (Units.mb (0.5 +. float_of_int ((i + (3 * s)) mod 5)))
    done
  done;
  background @ [ (now, Coflow.make ~id:0 d) ]

let test_contended_matches_round_robin () =
  let established (s, d) = (s + d) mod 4 = 1 in
  List.iter
    (fun (now, delta, quantum) ->
      Alcotest.(check bool)
        (Printf.sprintf "now %g, delta %g, quantum %g" now delta quantum)
        true
        (loops_agree ~established ~quantum ~delta (contended_jobs now)))
    (List.concat_map
       (fun now ->
         [
           (now, 0., 0.);
           (now, Units.ms 10., 0.);
           (now, 0., Units.ms 1.);
           (now, Units.ms 10., Units.ms 1.);
         ])
       [ 0.; Units.ms 100. ])

(* The kernel's wake counter over the last job of [jobs] alone. *)
let kernel_wakes ?established ~delta jobs =
  let wakes = Sunflow_obs.Registry.counter "sunflow.wakes" in
  let prt = Prt.create () in
  let run (now, c) =
    ignore
      (Sunflow.schedule ~prt ~now ?established ~delta ~bandwidth:1.25e8 c)
  in
  match List.rev jobs with
  | [] -> 0
  | last :: rest ->
    List.iter run (List.rev rest);
    Sunflow_obs.Control.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Sunflow_obs.Control.set_enabled false)
      (fun () ->
        Sunflow_obs.Registry.counter_reset wakes;
        run last;
        Sunflow_obs.Registry.counter_value wakes)

(* Parking sibling-blocked flows must not cost wakes on the contended
   case: the ceilings are the loop's counts before park groups. Two
   variants that replay the loop just as exactly exceed the first one:
   joining a group at the first blocking hop, without the full walk
   (541), and a head re-keying its group without walking its own ports
   (489). See DESIGN.md, "Park groups". *)
let test_contended_wakes () =
  List.iter
    (fun (now, delta, ceiling) ->
      let wakes = kernel_wakes ~delta (contended_jobs now) in
      Alcotest.(check bool)
        (Printf.sprintf "now %g, delta %g: %d wakes <= %d" now delta wakes
           ceiling)
        true (wakes <= ceiling))
    [
      (0., 0., 453);
      (0., Units.ms 10., 477);
      (Units.ms 100., 0., 441);
      (Units.ms 100., Units.ms 10., 496);
    ]

(* --- herd shapes: many sibling flows share one port --- *)

let herd_coflow id pairs =
  Coflow.make ~id
    (Demand.of_list
       (List.mapi
          (fun k pair -> (pair, Units.mb (0.5 +. float_of_int (k * 7 mod 5))))
          pairs))

let herd_shapes =
  [
    ("1->32", List.init 32 (fun k -> (0, k)));
    ("32->1", List.init 32 (fun k -> (k, 0)));
    ("8x8", List.init 64 (fun k -> (k / 8, k mod 8)));
  ]

(* other Coflows' windows over ports 0-31 on a 1/64 s grid, shifted by
   rounding dust; the ones that would overlap are refused by both
   tables alike *)
let herd_prefill =
  List.init 96 (fun k ->
      {
        Prt.coflow = 1000 + k;
        src = k * 5 mod 32;
        dst = k * 7 mod 32;
        start =
          (float_of_int (k * 3 mod 64) /. 64.)
          +. (float_of_int ((k mod 11) - 5) *. 1e-10);
        setup = (if k mod 2 = 0 then 0.005 else 0.);
        length = float_of_int (1 + (k mod 6)) /. 64.;
      })

(* each shape twice (the second Coflow queues behind the first), on an
   empty and on a pre-filled table *)
let test_herd_shapes () =
  let established (s, d) = (s + d) mod 4 = 1 in
  List.iter
    (fun (name, pairs) ->
      List.iter
        (fun (prefill, now, delta, quantum) ->
          let jobs = [ (now, herd_coflow 1 pairs); (now, herd_coflow 2 pairs) ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s table, delta %g, quantum %g" name
               (if prefill = [] then "empty" else "pre-filled")
               delta quantum)
            true
            (loops_agree ~prefill ~established ~quantum ~delta jobs))
        (List.concat_map
           (fun (prefill, now) ->
             List.concat_map
               (fun delta ->
                 [ (prefill, now, delta, 0.); (prefill, now, delta, Units.ms 1.) ])
               [ 0.; Units.ms 10. ])
           [ ([], 0.); (herd_prefill, 1. /. 32.) ]))
    herd_shapes

(* Few ports on one side, many flows: groups form, re-key and split on
   nearly every wake. *)
let prop_loops_agree_narrow =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"event-driven loop replays round-robin on narrow herds"
       ~count:200
       QCheck2.Gen.(
         let coflow id =
           let* narrow = int_range 2 3 and* wide_in = bool in
           let* n = int_range 1 24 in
           let* flows =
             list_size (pure n)
               (triple (int_range 0 (narrow - 1)) (int_range 0 7)
                  (float_range 0.1 16.))
           in
           pure
             (Coflow.make ~id
                (Demand.of_list
                   (List.map
                      (fun (a, b, mb) ->
                        ((if wide_in then (b, a) else (a, b)), Units.mb mb))
                      flows)))
         in
         let* prefill = list_size (int_range 0 30) (prefill_window ~n_ports:8) in
         let* n_jobs = int_range 1 3 in
         let* jobs =
           flatten_l
             (List.init n_jobs (fun id ->
                  pair (map (fun k -> float_of_int k /. 64.) (int_range 0 64))
                    (coflow id)))
         in
         let* delta = oneofl [ 0.; 0.001; 0.01 ] in
         let* quantum = oneofl [ 0.; 0.002 ] in
         let* est = int_range 0 3 in
         pure (prefill, jobs, delta, quantum, est))
       (fun (prefill, jobs, delta, quantum, est) ->
         let established (s, d) = (s + d) mod 4 = est in
         loops_agree ~prefill ~established ~quantum ~delta jobs))

(* --- demand state machine --- *)

type op = Set of int * int * float | Add of int * int * float | Drain of int * int * float

let op_gen =
  QCheck2.Gen.(
    let* i = int_range 0 3 and* j = int_range 0 3 in
    let* v = float_range 0. 100. in
    oneofl [ Set (i, j, v); Add (i, j, v); Drain (i, j, v) ])

let prop_demand_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"demand invariants hold under random ops"
       ~count:300
       QCheck2.Gen.(list_size (int_range 0 60) op_gen)
       (fun ops ->
         let d = Demand.create () in
         List.iter
           (function
             | Set (i, j, v) -> Demand.set d i j v
             | Add (i, j, v) -> Demand.add d i j v
             | Drain (i, j, v) -> Demand.drain d i j v)
           ops;
         let entries = Demand.entries d in
         (* no non-positive entries are ever stored *)
         List.for_all (fun (_, v) -> v > 0.) entries
         (* aggregates agree with the entry list *)
         && Util.close ~eps:1e-6 (Demand.total_bytes d)
              (List.fold_left (fun a (_, v) -> a +. v) 0. entries)
         && Demand.n_flows d = List.length entries
         && List.length (Demand.senders d)
            = List.length
                (List.sort_uniq compare (List.map (fun ((i, _), _) -> i) entries))))

let suite =
  [
    prop_parser_random_garbage;
    prop_parser_mutated_trace;
    prop_parser_shuffled_lines;
    prop_controller_rejects_or_executes;
    prop_prt_stream_oracle;
    prop_event_loop_matches_round_robin;
    prop_loops_agree_prefilled;
    Alcotest.test_case "contended Coflow replays round-robin" `Quick
      test_contended_matches_round_robin;
    Alcotest.test_case "contended Coflow wakes no more than before" `Quick
      test_contended_wakes;
    Alcotest.test_case "herd shapes replay round-robin" `Quick
      test_herd_shapes;
    prop_loops_agree_narrow;
    prop_demand_invariants;
  ]
