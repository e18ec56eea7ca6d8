module Prt = Sunflow_core.Prt

let r ?(coflow = 0) ~src ~dst ~start ~setup ~length () =
  { Prt.coflow; src; dst; start; setup; length }

module Ref_prt = Util.Ref_prt

(* [Prt.chance]: the next chance at or after the instant, and the next
   start after it *)
let chance t ~src ~dst ~gap instant =
  let cell = [| instant; nan |] in
  Prt.chance t ~src ~dst ~gap cell;
  (cell.(0), cell.(1))

(* Algorithm 1's port test through [chance]: with [gap = 0.] the walk
   stays on the instant exactly when both ports are free there, and
   then reports the next start ([infinity] if none); [neg_infinity]
   marks a busy port *)
let probe_pair t ~src ~dst instant =
  let y, tm = chance t ~src ~dst ~gap:0. instant in
  if y = instant then tm else neg_infinity

(* Single-port answers through the two-port test: pair the port with
   one that never holds a window, so [probe_pair] is [neg_infinity]
   exactly when the port is busy at the instant and otherwise the
   port's next start strictly after it (or [infinity]). *)
let idle = 999

let probe1 t p instant =
  match p with
  | Prt.In src -> probe_pair t ~src ~dst:idle instant
  | Prt.Out dst -> probe_pair t ~src:idle ~dst instant

let free_at t p instant = probe1 t p instant <> neg_infinity

(* every port id the fixed-table tests below touch, both namespaces *)
let small_ports =
  List.concat_map (fun i -> [ Prt.In i; Prt.Out i ]) (List.init 8 Fun.id)

let port_windows t = List.map (Prt.port_reservations t) small_ports

let test_free_at () =
  let t = Prt.create () in
  Alcotest.(check (float 0.)) "empty free, nothing ahead" infinity
    (probe1 t (Prt.In 0) 5.);
  Prt.reserve t (r ~src:0 ~dst:1 ~start:1. ~setup:0.1 ~length:2. ());
  Alcotest.(check (float 0.)) "before: free, next start" 1.
    (probe1 t (Prt.In 0) 0.5);
  Alcotest.(check bool) "at start busy" false (free_at t (Prt.In 0) 1.);
  Alcotest.(check bool) "inside busy" false (free_at t (Prt.In 0) 2.);
  Alcotest.(check (float 0.)) "at stop free" infinity (probe1 t (Prt.In 0) 3.);
  Alcotest.(check bool) "out port busy too" false (free_at t (Prt.Out 1) 2.);
  Alcotest.(check bool) "other port free" true (free_at t (Prt.In 1) 2.);
  Alcotest.(check (float 0.)) "busy partner blocks the pair" neg_infinity
    (probe_pair t ~src:1 ~dst:1 2.)

let test_in_out_namespaces () =
  let t = Prt.create () in
  Prt.reserve t (r ~src:3 ~dst:3 ~start:0. ~setup:0. ~length:1. ());
  (* circuit 3 -> 3 occupies In 3 and Out 3 but not the other pair *)
  Alcotest.(check bool) "In 3 busy" false (free_at t (Prt.In 3) 0.5);
  Alcotest.(check bool) "Out 3 busy" false (free_at t (Prt.Out 3) 0.5);
  Alcotest.(check int) "In 3 holds it" 1
    (List.length (Prt.port_reservations t (Prt.In 3)));
  Alcotest.(check int) "Out 3 holds it" 1
    (List.length (Prt.port_reservations t (Prt.Out 3)));
  Alcotest.(check int) "Out 4 does not" 0
    (List.length (Prt.port_reservations t (Prt.Out 4)));
  Prt.reserve t (r ~src:4 ~dst:5 ~start:0. ~setup:0. ~length:1. ());
  Alcotest.(check int) "two reservations" 2 (List.length (Prt.all_reservations t))

let test_overlap_rejected () =
  let t = Prt.create () in
  Prt.reserve t (r ~src:0 ~dst:1 ~start:1. ~setup:0. ~length:2. ());
  let clash = r ~src:0 ~dst:9 ~start:2. ~setup:0. ~length:1. () in
  (try
     Prt.reserve t clash;
     Alcotest.fail "expected overlap rejection"
   with Invalid_argument _ -> ());
  (* the failed reserve must not leave state behind *)
  Alcotest.(check int) "no partial insert" 1 (List.length (Prt.all_reservations t));
  (* a reservation that clashes only on the output port must also be
     rejected without corrupting the input port list *)
  let clash_out = r ~src:7 ~dst:1 ~start:2. ~setup:0. ~length:1. () in
  (try
     Prt.reserve t clash_out;
     Alcotest.fail "expected output overlap rejection"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "still one" 1 (List.length (Prt.all_reservations t));
  Alcotest.(check bool) "In 7 free" true (free_at t (Prt.In 7) 2.5)

let test_back_to_back_ok () =
  let t = Prt.create () in
  Prt.reserve t (r ~src:0 ~dst:1 ~start:0. ~setup:0. ~length:1. ());
  Prt.reserve t (r ~src:0 ~dst:2 ~start:1. ~setup:0. ~length:1. ());
  Alcotest.(check int) "both in" 2 (List.length (Prt.all_reservations t))

let test_validation () =
  let t = Prt.create () in
  let bad_len = r ~src:0 ~dst:1 ~start:0. ~setup:0. ~length:0. () in
  Alcotest.check_raises "zero length"
    (Invalid_argument "Prt.reserve: non-positive length") (fun () ->
      Prt.reserve t bad_len);
  let bad_setup = r ~src:0 ~dst:1 ~start:0. ~setup:2. ~length:1. () in
  Alcotest.check_raises "setup > length"
    (Invalid_argument "Prt.reserve: setup outside [0, length]") (fun () ->
      Prt.reserve t bad_setup);
  (* a port id no slot array can index is refused up front, before
     either port is touched *)
  let huge = r ~src:0 ~dst:max_int ~start:0. ~setup:0. ~length:1. () in
  Alcotest.check_raises "port id too large"
    (Invalid_argument "Prt.reserve: port id too large") (fun () ->
      Prt.reserve t huge);
  Alcotest.(check int) "nothing reserved" 0
    (List.length (Prt.all_reservations t));
  Alcotest.(check bool) "no port touched" true
    (List.for_all (( = ) []) (port_windows t))

let test_next_start_after () =
  let t = Prt.create () in
  Prt.reserve t (r ~src:0 ~dst:1 ~start:5. ~setup:0. ~length:1. ());
  Prt.reserve t (r ~src:0 ~dst:2 ~start:9. ~setup:0. ~length:1. ());
  Prt.reserve t (r ~src:3 ~dst:4 ~start:7. ~setup:0. ~length:1. ());
  Util.check_close "first upcoming" 5. (probe1 t (Prt.In 0) 0.);
  Util.check_close "between windows" 9. (probe1 t (Prt.In 0) 6.);
  (* at 5 the port is busy, so the probe has no next start to give;
     the port's own windows answer "strictly after" *)
  Alcotest.(check (float 0.)) "busy at a start" neg_infinity
    (probe1 t (Prt.In 0) 5.);
  Util.check_close "strictly after, from the slot" 9.
    (List.find (fun w -> w.Prt.start > 5.) (Prt.port_reservations t (Prt.In 0)))
      .Prt.start;
  Alcotest.(check bool) "none left" true (probe1 t (Prt.In 0) 10. = infinity);
  (* the pair answers the earlier next start over both endpoints *)
  Util.check_close "earlier over both ports" 5.
    (probe_pair t ~src:0 ~dst:4 0.);
  Util.check_close "the partner's start when earlier" 7.
    (probe_pair t ~src:0 ~dst:4 6.)

(* A blocked circuit's next chance is a release on its own ports: the
   walk passes each release at which the other port is still busy, or
   a start follows within [gap], and stops at the first at which
   neither holds. *)
let test_next_release () =
  let t = Prt.create () in
  Prt.reserve t (r ~src:0 ~dst:1 ~start:0. ~setup:0. ~length:4. ());
  Prt.reserve t (r ~src:2 ~dst:3 ~start:0. ~setup:0. ~length:2. ());
  Prt.reserve t (r ~src:4 ~dst:3 ~start:5. ~setup:0. ~length:1. ());
  let next ~src ~dst ~gap i = fst (chance t ~src ~dst ~gap i) in
  Util.check_close "past the earlier release, still blocked there" 4.
    (next ~src:0 ~dst:3 ~gap:0. 0.);
  Util.check_close "free at the instant: stays" 4.5
    (next ~src:0 ~dst:3 ~gap:0. 4.5);
  Util.check_close "a start within the gap: past its window" 6.
    (next ~src:0 ~dst:3 ~gap:1.5 0.);
  Util.check_close "a start beyond the gap: the release" 4.
    (next ~src:0 ~dst:3 ~gap:0.5 0.);
  Util.check_close "restricted to ports" 4. (next ~src:0 ~dst:9 ~gap:0. 0.);
  Alcotest.(check (pair (float 0.) (float 0.))) "no windows: free, nothing ahead"
    (0., infinity)
    (chance t ~src:9 ~dst:9 ~gap:10. 0.);
  (* a later window on the same ports is seen by the next query *)
  Prt.reserve t (r ~src:0 ~dst:6 ~start:4. ~setup:0. ~length:0.25 ());
  Util.check_close "the new window" 4.25 (next ~src:0 ~dst:3 ~gap:0. 3.)

let test_established_at () =
  let t = Prt.create () in
  Prt.reserve t (r ~src:0 ~dst:1 ~start:0. ~setup:1. ~length:3. ());
  Alcotest.(check (list (pair int int))) "during setup" []
    (Prt.established_at t 0.5);
  Alcotest.(check (list (pair int int))) "transmitting" [ (0, 1) ]
    (Prt.established_at t 1.5);
  Alcotest.(check (list (pair int int))) "after stop" []
    (Prt.established_at t 3.)

let test_rollback_leaves_table_unchanged () =
  (* Out-port conflict after the In-port insert succeeded: the failed
     reserve must undo the In insert completely — reservations, port
     occupancy and query answers all unchanged. *)
  let t = Prt.create () in
  Prt.reserve t (r ~src:0 ~dst:1 ~start:0. ~setup:0.01 ~length:2. ());
  Prt.reserve t (r ~src:2 ~dst:3 ~start:1. ~setup:0.01 ~length:2. ());
  Prt.reserve t (r ~src:4 ~dst:1 ~start:2.5 ~setup:0.01 ~length:1. ());
  let before = Prt.all_reservations t in
  let before_ports = port_windows t in
  let probe_instants = [ 0.; 0.5; 1.; 1.9999; 2.; 2.75; 3.5; 10. ] in
  let snapshot () =
    List.map
      (fun i ->
        ( probe1 t (Prt.In 5) i,
          probe_pair t ~src:5 ~dst:1 i,
          chance t ~src:0 ~dst:3 ~gap:0.1 i,
          chance t ~src:5 ~dst:1 ~gap:0.1 i ))
      probe_instants
  in
  (* In 5 is free, so the insert succeeds on the input port and must be
     rolled back when Out 1 (busy on [0, 2) and [2.5, 3.5)) rejects *)
  let before_answers = snapshot () in
  let clash = r ~src:5 ~dst:1 ~start:1. ~setup:0.01 ~length:1. () in
  (try
     Prt.reserve t clash;
     Alcotest.fail "expected an Out-port conflict"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "same reservation count" (List.length before)
    (List.length (Prt.all_reservations t));
  Alcotest.(check bool) "same reservations" true
    (before = Prt.all_reservations t);
  Alcotest.(check bool) "same port windows" true
    (before_ports = port_windows t);
  Alcotest.(check bool) "same query answers" true
    (before_answers = snapshot ());
  Alcotest.(check bool) "In 5 still free" true (free_at t (Prt.In 5) 1.5);
  (* the table still accepts a compatible reservation afterwards *)
  Prt.reserve t (r ~src:5 ~dst:6 ~start:1. ~setup:0.01 ~length:1. ());
  Alcotest.(check int) "fresh reserve lands" (List.length before + 1)
    (List.length (Prt.all_reservations t))

(* --- keyed oracle: array PRT vs the list-based reference ------------- *)

(* Streams draw boundaries from a coarse grid so back-to-back windows,
   exact collisions and rollback-triggering Out conflicts all occur
   often. Ports are dense low ids plus one sparse high id, so one table
   holds 0, 1 and 100 000. *)
let reserved_ports = [ 0; 1; 2; 3; 100_000 ]

(* never reserved: inside the slot arrays' reach (4, 99 999), just past
   the highest reserved id, and far beyond it *)
let query_ports = reserved_ports @ [ 4; 99_999; 100_001; 1_000_000 ]

let stream_gen =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (let* src = oneofl reserved_ports in
       let* dst = oneofl reserved_ports in
       let* start8 = int_range 0 160 in
       let* len8 = int_range 1 24 in
       let* setup = oneofl [ 0.; 0.01; 0.05 ] in
       pure
         (r ~src ~dst
            ~start:(float_of_int start8 /. 8.)
            ~setup
            ~length:(float_of_int len8 /. 8.)
            ())))

let query_instants = List.init 42 (fun i -> float_of_int i /. 4.)

let agree_on_queries t ref_t stream =
  let ports =
    List.concat_map (fun i -> [ Prt.In i; Prt.Out i ]) query_ports
  in
  let pairs =
    List.concat_map (fun src -> List.map (fun dst -> (src, dst)) query_ports)
      query_ports
  in
  (* [pairs] includes every never-reserved partner in [query_ports],
     so the single-port answers are covered by [probe_pair] too *)
  let ws = Ref_prt.port_list ref_t in
  List.for_all
    (fun p -> Prt.port_reservations t p = Ref_prt.port_list ref_t p)
    ports
  && List.for_all
       (fun w ->
         let later = { w with Prt.start = w.Prt.start +. 0.0625 } in
         Prt.fits_exact t w = Ref_prt.fits_exact ref_t w
         && Prt.fits_exact t later = Ref_prt.fits_exact ref_t later)
       stream
  && List.for_all
       (fun instant ->
         List.for_all
           (fun (src, dst) ->
             probe_pair t ~src ~dst instant
             = Ref_prt.probe_pair ws ~src ~dst instant
             && List.for_all
                  (fun gap ->
                    chance t ~src ~dst ~gap instant
                    = Ref_prt.chance ws ~src ~dst ~gap instant)
                  [ 0.05; 0.5 ])
           pairs)
       query_instants

let prop_oracle_vs_list_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"array PRT agrees with the list reference on random streams"
       ~count:300 stream_gen
       (fun stream ->
         let t = Prt.create () in
         let ref_t = Ref_prt.create () in
         List.for_all
           (fun res ->
             let accepted =
               try
                 Prt.reserve t res;
                 true
               with Invalid_argument _ -> false
             in
             let ref_accepted =
               try
                 Ref_prt.reserve ref_t res;
                 true
               with Invalid_argument _ -> false
             in
             (* same accept/reject decision, and identical tables after
                every step — reservation for reservation *)
             accepted = ref_accepted
             && Prt.all_reservations t = Ref_prt.all_reservations ref_t)
           stream
         && agree_on_queries t ref_t stream))

(* [Prt.chance] against the brute-force walk over the table's own port
   lists, the way the scheduler drives it: increasing instants per
   circuit and gap, across a second batch of windows reserved in
   between. Window
   edges sit on a 1/16 grid shifted by up to 0.4 ns, so neighbours
   abut, leave dust gaps or overlap by sub-[time_tolerance] dust that
   [reserve] admits. *)
let prop_chance_vs_brute_force =
  let window =
    QCheck2.Gen.(
      let* src = int_range 0 3 and* dst = int_range 0 3 in
      let* start16 = int_range 0 96 and* len16 = int_range 1 24 in
      let* dust = int_range (-4) 4 in
      let* setup = oneofl [ 0.; 0.01 ] in
      pure
        (r ~src ~dst
           ~start:((float_of_int start16 /. 16.) +. (float_of_int dust *. 1e-10))
           ~setup
           ~length:(float_of_int len16 /. 16.)
           ()))
  in
  let instants =
    QCheck2.Gen.(
      map
        (fun l -> List.sort compare (List.map (fun k -> float_of_int k /. 16.) l))
        (list_size (int_range 1 12) (int_range 0 128)))
  in
  QCheck2.Test.make
    ~name:"chance agrees with a brute-force walk over a growing table"
    ~count:300
    QCheck2.Gen.(
      tup4
        (list_size (int_range 0 30) window)
        (list_size (int_range 1 30) window)
        instants instants)
    (fun (first, second, early, late) ->
      let t = Prt.create () in
      let reserve_all =
        List.iter (fun w -> try Prt.reserve t w with Invalid_argument _ -> ())
      in
      let circuits =
        List.concat_map
          (fun src ->
            List.concat_map
              (fun dst ->
                List.map (fun gap -> (src, dst, gap)) [ 0.; 0.05; 0.3 ])
              [ 0; 1; 2; 3; 4 ])
          [ 0; 1; 2; 3; 4 ]
      in
      let cell = [| 0.; 0. |] in
      let agree instants =
        List.for_all
          (fun (src, dst, gap) ->
            List.for_all
              (fun x ->
                cell.(0) <- x;
                Prt.chance t ~src ~dst ~gap cell;
                (cell.(0), cell.(1))
                = Ref_prt.chance (Prt.port_reservations t) ~src ~dst ~gap x)
              instants)
          circuits
      in
      reserve_all first;
      let ok_early = agree early in
      reserve_all second;
      let last = List.fold_left Float.max 0. early in
      ok_early && agree (List.map (fun x -> last +. x) late))
  |> QCheck_alcotest.to_alcotest

let prop_no_overlap =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"random accepted reservations never violate port constraints"
       ~count:200
       QCheck2.Gen.(
         list_size (int_range 1 40)
           (quad (int_range 0 4) (int_range 0 4) (float_range 0. 50.)
              (float_range 0.1 5.)))
       (fun candidates ->
         let t = Prt.create () in
         List.iter
           (fun (src, dst, start, length) ->
             try Prt.reserve t (r ~src ~dst ~start ~setup:0.05 ~length ())
             with Invalid_argument _ -> ())
           candidates;
         match
           Sunflow_core.Schedule.check_port_constraints
             (Prt.all_reservations t)
         with
         | Ok _ -> true
         | Error _ -> false))

(* Hammer the work counters from several domains at once (each on its
   own table — the table itself is single-owner; only the process-wide
   stats are shared) and check no update is lost: after joining, the
   deltas must equal the exact sequential sums. *)
let test_concurrent_counters () =
  let reserves = 60 and queries = 200 and n_domains = 4 in
  let work () =
    let t = Prt.create () in
    for i = 0 to reserves - 1 do
      Prt.reserve t
        (r ~src:0 ~dst:0 ~start:(float_of_int i) ~setup:0.001 ~length:0.5 ())
    done;
    for i = 0 to queries - 1 do
      (* one query each, whatever the port's state *)
      ignore
        (chance t ~src:0 ~dst:idle ~gap:0.1 (float_of_int i *. 0.31)
          : float * float)
    done
  in
  let before = Prt.stats () in
  let domains = Array.init n_domains (fun _ -> Domain.spawn work) in
  Array.iter Domain.join domains;
  let after = Prt.stats () in
  Alcotest.(check int)
    "reservations" (n_domains * reserves)
    (after.Prt.reservations - before.Prt.reservations);
  Alcotest.(check int)
    "queries" (n_domains * queries)
    (after.Prt.queries - before.Prt.queries);
  (* every query probes at least once on the non-empty In port *)
  Alcotest.(check bool)
    "scans counted" true
    (after.Prt.scans - before.Prt.scans >= n_domains * queries)

(* --- removal / retract --- *)

(* everything a reader can observe of a table over the ports the tests
   use: windows per port and overall, the stabbing and slice answers and
   the wake query at two gaps *)
let table_fingerprint t =
  let instants = [ 0.; 0.5; 1.; 2.; 5. ] in
  ( Prt.all_reservations t,
    port_windows t,
    Prt.reservations_in t 0. 10.,
    List.map (fun i -> List.sort compare (Prt.covering_at t i)) instants,
    List.concat_map
      (fun i ->
        List.concat_map
          (fun (src, dst) ->
            [ chance t ~src ~dst ~gap:0. i; chance t ~src ~dst ~gap:0.3 i ])
          [ (0, 0); (1, 1); (2, 2); (4, 5) ])
      instants )

(* What [Deadline.admit] relies on to reject a plan: removing the
   windows just reserved, in the order they were made, restores the
   table exactly — including when they share a Coflow id with windows
   that stay. *)
let test_remove_restores () =
  let t = Prt.create () in
  let own =
    [
      r ~coflow:1 ~src:0 ~dst:1 ~start:0. ~setup:0.01 ~length:1. ();
      r ~coflow:1 ~src:1 ~dst:0 ~start:0.5 ~setup:0.01 ~length:1. ();
    ]
  in
  List.iter (Prt.reserve t) own;
  let snap = table_fingerprint t in
  let reserve_all ws = List.iter (Prt.reserve t) ws in
  let remove_all ws =
    List.iter
      (fun w ->
        Alcotest.(check bool) "window present" true (Prt.remove t w))
      ws
  in
  (* a carried-circuit continuation (zero setup, back to back with
     coflow 1's window on the same ports), fresh windows elsewhere, and
     one more window of coflow 1 itself *)
  let suffix =
    [
      r ~coflow:2 ~src:0 ~dst:1 ~start:1. ~setup:0. ~length:0.5 ();
      r ~coflow:2 ~src:2 ~dst:3 ~start:0. ~setup:0.01 ~length:2. ();
      r ~coflow:3 ~src:1 ~dst:2 ~start:1.5 ~setup:0.01 ~length:1. ();
      r ~coflow:1 ~src:4 ~dst:5 ~start:0. ~setup:0.01 ~length:3. ();
    ]
  in
  reserve_all suffix;
  Alcotest.(check bool) "suffix landed" false (table_fingerprint t = snap);
  remove_all suffix;
  Alcotest.(check bool) "removal restores table" true
    (table_fingerprint t = snap);
  (* the freed span can be reserved again, and removed again *)
  let reuse =
    [ r ~coflow:4 ~src:0 ~dst:1 ~start:1. ~setup:0.01 ~length:0.25 () ]
  in
  reserve_all reuse;
  Alcotest.(check bool) "freed span taken again" false
    (free_at t (Prt.In 0) 1.1);
  remove_all reuse;
  Alcotest.(check bool) "second removal restores" true
    (table_fingerprint t = snap);
  (* coflow 1's original windows survived its removed sibling *)
  Alcotest.(check int) "shared id keeps its other windows" 2
    (Prt.retract t own);
  Alcotest.(check int) "retract windows no longer held" 0
    (Prt.retract t (own @ suffix));
  Alcotest.(check int) "table empty" 0 (List.length (Prt.all_reservations t))

let test_remove_consistency () =
  let t = Prt.create () in
  let a = r ~coflow:1 ~src:0 ~dst:1 ~start:0. ~setup:0. ~length:1. () in
  let b = r ~coflow:2 ~src:1 ~dst:2 ~start:0. ~setup:0. ~length:2. () in
  Prt.reserve t a;
  Prt.reserve t b;
  Alcotest.(check bool) "remove present" true (Prt.remove t a);
  Alcotest.(check bool) "remove absent" false (Prt.remove t a);
  Alcotest.(check (float 0.)) "releases updated" 2.
    (fst (chance t ~src:0 ~dst:2 ~gap:0. 0.5));
  Alcotest.(check bool) "In port freed" true (free_at t (Prt.In 0) 0.5);
  Alcotest.(check bool) "Out port freed" true (free_at t (Prt.Out 1) 0.5);
  Alcotest.(check bool) "other window intact" false (free_at t (Prt.In 1) 0.5)

(* Queries on a port no slot array reaches — negative, or past the
   highest reserved id — answer as for a never-used port, raise
   nothing, and grow nothing: the table's reachable size is unchanged. *)
let test_out_of_range_ports () =
  let t = Prt.create () in
  Prt.reserve t (r ~coflow:1 ~src:0 ~dst:1 ~start:0. ~setup:0. ~length:1. ());
  Prt.reserve t (r ~coflow:2 ~src:5 ~dst:3 ~start:2. ~setup:0. ~length:1. ());
  let before = Prt.all_reservations t in
  let before_ports = port_windows t in
  let before_words = Obj.reachable_words (Obj.repr t) in
  let far = [ -1; min_int; 6; 64; 100_000; max_int ] in
  List.iter
    (fun p ->
      let label what = Printf.sprintf "%s on port %d" what p in
      List.iter
        (fun port ->
          Alcotest.(check (float 0.))
            (label "single-port probe") infinity (probe1 t port 0.5);
          Alcotest.(check int)
            (label "port_reservations") 0
            (List.length (Prt.port_reservations t port)))
        [ Prt.In p; Prt.Out p ];
      Alcotest.(check (float 0.))
        (label "probe_pair") infinity
        (probe_pair t ~src:p ~dst:p 0.5);
      Alcotest.(check (pair (float 0.) (float 0.)))
        (label "chance") (0.5, infinity)
        (chance t ~src:p ~dst:p ~gap:1. 0.5);
      let w = r ~src:p ~dst:p ~start:0. ~setup:0. ~length:5. () in
      Alcotest.(check bool) (label "fits_exact") true (Prt.fits_exact t w);
      Alcotest.(check bool) (label "remove") false (Prt.remove t w))
    far;
  (* one endpoint in range: the in-range port decides *)
  Alcotest.(check (float 0.)) "busy Out port blocks" neg_infinity
    (probe_pair t ~src:(-1) ~dst:1 0.5);
  Alcotest.(check (float 0.)) "release on the in-range port" 1.
    (fst (chance t ~src:max_int ~dst:1 ~gap:0. 0.5));
  Alcotest.(check bool) "same reservations" true
    (before = Prt.all_reservations t);
  Alcotest.(check bool) "same port windows" true
    (before_ports = port_windows t);
  Alcotest.(check int) "nothing grown" before_words
    (Obj.reachable_words (Obj.repr t))

(* The scheduler's wake query reads the dense slots directly and takes
   its instant and returns its answer through the caller's float cell:
   no port key, closure, tuple or boxed float is allocated, whatever
   the walk's length. *)
let test_hot_queries_allocate_only_result () =
  let t = Prt.create () in
  for i = 0 to 39 do
    Prt.reserve t
      (r ~coflow:i ~src:(i mod 8) ~dst:(i * 3 mod 8)
         ~start:(float_of_int (i / 8)) ~setup:0.01 ~length:0.9 ())
  done;
  let n = 10_000 in
  let cell = [| 0.; 0. |] in
  let per_call gap =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      cell.(0) <- 2.5;
      Prt.chance t ~src:(i mod 9) ~dst:(i mod 7) ~gap cell
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  (* one step, from instants that are busy, near a start or free *)
  let instants = [| 2.5; 2.95; 10. |] in
  let seen = Array.make 4 0 in
  let step_per_call gap =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      cell.(0) <- instants.(i / 9 mod 3);
      let k =
        match Prt.step t ~src:(i mod 9) ~dst:(i mod 7) ~gap cell with
        | Prt.Free -> 0
        | Prt.In_busy -> 1
        | Prt.Out_busy -> 2
        | Prt.Near -> 3
      in
      seen.(k) <- seen.(k) + 1
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  List.iter
    (fun gap ->
      let words = per_call gap in
      Alcotest.(check bool)
        (Printf.sprintf "chance ~gap:%g: %.2f words/call = 0" gap words)
        true (words = 0.);
      let words = step_per_call gap in
      Alcotest.(check bool)
        (Printf.sprintf "step ~gap:%g: %.2f words/call = 0" gap words)
        true (words = 0.))
    [ 0.; 0.5 ];
  Array.iteri
    (fun k n -> Alcotest.(check bool) (Printf.sprintf "step answer %d seen" k) true (n > 0))
    seen;
  (* [remove] allocates nothing, and neither does [reserve] into slots
     that have already grown: cycle half the windows out and back in *)
  let ws = List.filter (fun w -> w.Prt.coflow mod 2 = 0) (Prt.all_reservations t) in
  let remove w = ignore (Prt.remove t w : bool) and reserve = Prt.reserve t in
  let rounds = 500 in
  let removed = ref 0. and reserved = ref 0. in
  for _ = 1 to rounds do
    let w0 = Gc.minor_words () in
    List.iter remove ws;
    let w1 = Gc.minor_words () in
    List.iter reserve ws;
    let w2 = Gc.minor_words () in
    removed := !removed +. (w1 -. w0);
    reserved := !reserved +. (w2 -. w1)
  done;
  let per_call x = x /. float_of_int (rounds * List.length ws) in
  Alcotest.(check bool)
    (Printf.sprintf "remove: %.2f words/call = 0" (per_call !removed))
    true (!removed = 0.);
  Alcotest.(check bool)
    (Printf.sprintf "reserve into grown slots: %.2f words/call = 0"
       (per_call !reserved))
    true (!reserved = 0.)

(* [remove] matches windows field for field, not by physical identity:
   a freshly built copy of a reserved window removes it from both
   ports and the owner's list. *)
let test_remove_field_copy () =
  let t = Prt.create () in
  let w = r ~coflow:7 ~src:2 ~dst:3 ~start:0.5 ~setup:0.01 ~length:1. () in
  let other = r ~coflow:7 ~src:4 ~dst:5 ~start:0. ~setup:0.01 ~length:1. () in
  Prt.reserve t w;
  Prt.reserve t other;
  let twin =
    r ~coflow:7 ~src:2 ~dst:3 ~start:(w.Prt.start *. 1.) ~setup:0.01
      ~length:1. ()
  in
  Alcotest.(check bool) "twin is another record" false (twin == w);
  (* a copy differing in any one field is another window *)
  List.iter
    (fun (label, x) ->
      Alcotest.(check bool) label false (Prt.remove t x))
    [
      ("other coflow", { twin with Prt.coflow = 8 });
      ("other setup", { twin with Prt.setup = 0.02 });
      ("other length", { twin with Prt.length = 0.5 });
    ];
  Alcotest.(check bool) "copy removes the window" true (Prt.remove t twin);
  Alcotest.(check int) "In port empty" 0
    (List.length (Prt.port_reservations t (Prt.In 2)));
  Alcotest.(check int) "Out port empty" 0
    (List.length (Prt.port_reservations t (Prt.Out 3)));
  Alcotest.(check bool) "gone from the slot queries" true
    (List.for_all (fun x -> x.Prt.src <> 2) (Prt.covering_at t 0.75));
  Alcotest.(check bool) "second copy finds nothing" false (Prt.remove t twin);
  (* a plan retracted after part of it went: only [other] is left, and
     only it is removed and counted *)
  let rb0 = (Prt.stats ()).Prt.rollbacks in
  Alcotest.(check int) "retract removes the rest" 1
    (Prt.retract t [ w; other ]);
  Alcotest.(check int) "one rollback counted" 1
    ((Prt.stats ()).Prt.rollbacks - rb0);
  Alcotest.(check int) "plan emptied" 0 (Prt.retract t [ w; other ]);
  Alcotest.(check int) "table empty" 0 (List.length (Prt.all_reservations t))

let test_covering_and_range () =
  let t = Prt.create () in
  let a = r ~coflow:1 ~src:0 ~dst:1 ~start:0. ~setup:0.01 ~length:1. () in
  let b = r ~coflow:2 ~src:1 ~dst:2 ~start:0.5 ~setup:0.01 ~length:1. () in
  let c = r ~coflow:3 ~src:0 ~dst:2 ~start:2. ~setup:0.01 ~length:1. () in
  List.iter (Prt.reserve t) [ a; b; c ];
  let ids rs =
    List.sort_uniq compare (List.map (fun x -> x.Prt.coflow) rs)
  in
  Alcotest.(check (list int)) "covering both" [ 1; 2 ]
    (ids (Prt.covering_at t 0.75));
  Alcotest.(check (list int)) "covering at window start" [ 1 ]
    (ids (Prt.covering_at t 0.));
  Alcotest.(check (list int)) "stop excluded" [ 2 ] (ids (Prt.covering_at t 1.));
  Alcotest.(check (list int)) "slice overlap" [ 1; 2 ]
    (ids (Prt.reservations_in t 0.75 1.5));
  Alcotest.(check (list int)) "future window only" [ 3 ]
    (ids (Prt.reservations_in t 1.5 10.));
  (* stop = t0 is excluded, start = t0 included *)
  Alcotest.(check (list int)) "boundaries" [ 2; 3 ]
    (ids (Prt.reservations_in t 1. 2.0001))

(* --- slot queries under rounding dust --- *)

(* [covering_at], [reservations_in], [chance], [fits_exact] and
   [reserve]'s admission against brute force over a mirror list,
   through reserves, removals and a retraction. The windows are built
   to exercise the leftward walks' stopping rule: circuits on distinct
   ports, neighbours overlapping by less than [time_tolerance],
   windows shorter than the tolerance nested inside longer ones (which
   must not hide them), and equal-start twins. *)
let test_slot_queries_oracle () =
  let rng = Sunflow_stats.Rng.create 4242 in
  let t = Prt.create () in
  let mirror = ref [] in
  let n_ports = 6 in
  let tol = Ref_prt.time_tolerance in
  let stop w = w.Prt.start +. w.Prt.length in
  let overlap a b = Float.min (stop a) (stop b) -. Float.max a.Prt.start b.Prt.start in
  let shares a b = a.Prt.src = b.Prt.src || a.Prt.dst = b.Prt.dst in
  let pick l = List.nth l (Sunflow_stats.Rng.int rng (List.length l)) in
  let port () = Sunflow_stats.Rng.int rng n_ports in
  let dust () = pick [ 0.; 1e-12; 3e-10; 9e-10 ] in
  let short () = pick [ 1e-12; 4e-10; 1e-9 ] in
  let fresh () =
    let coflow = Sunflow_stats.Rng.int rng 5 in
    let src = port () and dst = port () in
    let length = 0.05 +. Sunflow_stats.Rng.float rng 0.5 in
    let start =
      match (!mirror, Sunflow_stats.Rng.int rng 4) with
      | [], _ | _, 0 -> Sunflow_stats.Rng.float rng 6.
      | l, 1 ->
        (* abut a window, a few ulps early or exactly *)
        stop (pick l) -. dust ()
      | l, 2 -> (pick l).Prt.start
      | l, _ ->
        (* somewhere inside a window: a short one nests, a long one
           conflicts unless its ports differ *)
        let w = pick l in
        w.Prt.start +. (Sunflow_stats.Rng.float rng 1. *. w.Prt.length)
    in
    let length = if Sunflow_stats.Rng.int rng 3 = 0 then short () else length in
    r ~coflow ~src ~dst ~start ~setup:0. ~length ()
  in
  let reserve () =
    let w = fresh () in
    let admissible =
      List.for_all (fun m -> not (shares m w && overlap m w > tol)) !mirror
    in
    let accepted =
      try
        Prt.reserve t w;
        true
      with Invalid_argument _ -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "reserve [%.17g, %.17g) on %d->%d" w.Prt.start (stop w)
         w.Prt.src w.Prt.dst)
      admissible accepted;
    if accepted then mirror := w :: !mirror
  in
  let remove_random () =
    match !mirror with
    | [] -> ()
    | l ->
      let w = pick l in
      Alcotest.(check bool) "mirror window present" true (Prt.remove t w);
      let rec drop = function
        | [] -> []
        | x :: tl -> if x = w then tl else x :: drop tl
      in
      mirror := drop !mirror
  in
  let sorted = List.sort Prt.physical_order in
  let ws p =
    List.filter
      (fun w ->
        match p with Prt.In i -> w.Prt.src = i | Prt.Out j -> w.Prt.dst = j)
      !mirror
  in
  (* every boundary, a dust step either side of it, and the middle of
     each window, plus random instants *)
  let instants () =
    List.concat_map
      (fun w ->
        let s = stop w in
        [ w.Prt.start; s; s -. 1e-12; s +. 1e-12; s -. 5e-10;
          w.Prt.start +. (w.Prt.length /. 2.) ])
      !mirror
    @ List.init 20 (fun _ -> Sunflow_stats.Rng.float rng 7.)
  in
  let agree label =
    let xs = instants () in
    List.iter
      (fun x ->
        let brute =
          List.filter (fun w -> w.Prt.start <= x && x < stop w) !mirror
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: covering_at %.17g" label x)
          true
          (sorted brute = sorted (Prt.covering_at t x));
        let t1 = x +. Sunflow_stats.Rng.float rng 1.5 -. 0.25 in
        let brute =
          List.filter
            (fun w ->
              (w.Prt.start <= x && stop w > x)
              || (w.Prt.start > x && w.Prt.start < t1))
            !mirror
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: reservations_in [%.17g, %.17g)" label x t1)
          true
          (sorted brute = Prt.reservations_in t x t1);
        let src = port () and dst = port () in
        List.iter
          (fun gap ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: chance %d->%d gap %g at %.17g" label src dst
                 gap x)
              true
              (chance t ~src ~dst ~gap x = Ref_prt.chance ws ~src ~dst ~gap x))
          [ 0.; 0.1 ])
      xs;
    List.iter
      (fun w ->
        let w = { w with Prt.src = port (); dst = port () } in
        let clear =
          List.for_all (fun m -> not (shares m w && overlap m w > 0.)) !mirror
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: fits_exact [%.17g, %.17g)" label w.Prt.start
             (stop w))
          clear (Prt.fits_exact t w))
      (List.init 60 (fun _ -> fresh ()))
  in
  for i = 1 to 300 do
    reserve ();
    if i mod 4 = 0 then remove_random ()
  done;
  agree "after growth";
  (* a batch removed again right after it was reserved must vanish *)
  let snap = table_fingerprint t in
  let before = !mirror in
  for _ = 1 to 60 do
    reserve ()
  done;
  let batch = List.filter (fun w -> not (List.memq w before)) !mirror in
  List.iter
    (fun w ->
      Alcotest.(check bool) "batch window present" true (Prt.remove t w))
    batch;
  mirror := before;
  Alcotest.(check bool) "batch removal restores the table" true
    (table_fingerprint t = snap);
  agree "after batch removal";
  (* retracting a list removes exactly the windows still held: here
     the victim's, not the batch's, which are already gone *)
  let victim = (pick !mirror).Prt.coflow in
  let gone =
    Prt.retract t
      (batch @ List.filter (fun w -> w.Prt.coflow = victim) !mirror)
  in
  Alcotest.(check int) "retract count matches mirror" gone
    (List.length (List.filter (fun w -> w.Prt.coflow = victim) !mirror));
  mirror := List.filter (fun w -> w.Prt.coflow <> victim) !mirror;
  agree "after retract"

(* A window no longer than the tolerance, nested inside a long one,
   hides nothing from the leftward walks: the long window still covers
   the instants after it, blocks the circuit there and refuses an
   overlapping reserve. *)
let test_nested_short_window () =
  let t = Prt.create () in
  let long = r ~coflow:1 ~src:0 ~dst:0 ~start:0. ~setup:0. ~length:10. () in
  let short = r ~coflow:2 ~src:0 ~dst:1 ~start:5. ~setup:0. ~length:5e-10 () in
  List.iter (Prt.reserve t) [ long; short ];
  Alcotest.(check bool) "covering past the short window" true
    (Prt.covering_at t 7. = [ long ]);
  Alcotest.(check bool) "slice past the short window" true
    (Prt.reservations_in t 7. 8. = [ long ]);
  Alcotest.(check bool) "port busy past the short window" true
    (chance t ~src:0 ~dst:2 ~gap:0. 7. = (10., infinity));
  let inside = r ~coflow:3 ~src:0 ~dst:2 ~start:6. ~setup:0. ~length:1. () in
  Alcotest.(check bool) "not an exact fit" false (Prt.fits_exact t inside);
  Alcotest.check_raises "reserve refuses the overlap"
    (Invalid_argument
       "Prt.reserve: overlap on in.0: new [6, 7) vs existing [0, 10)")
    (fun () -> Prt.reserve t inside)

(* [Prt.physical_order] and [Prt.compare_circuits] are field-wise
   comparators; their sign must be polymorphic [compare]'s on the key
   tuples, floats' [nan] and signed zeros included *)
let prop_orders_match_compare =
  let field_float = QCheck2.Gen.oneofl [ 0.; -0.; 1.; 1. +. 1e-12; nan; infinity ] in
  let field_int = QCheck2.Gen.int_range 0 2 in
  let window =
    QCheck2.Gen.(
      let* start = field_float and* src = field_int and* dst = field_int in
      let* coflow = field_int and* setup = field_float in
      let* length = field_float in
      pure { Prt.coflow; src; dst; start; setup; length })
  in
  let key w =
    (w.Prt.start, w.Prt.src, w.Prt.dst, w.Prt.coflow, w.Prt.setup, w.Prt.length)
  in
  let sign x = Int.compare x 0 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"field-wise orders match polymorphic compare"
       ~count:2000
       QCheck2.Gen.(pair window window)
       (fun (a, b) ->
         sign (Prt.physical_order a b) = sign (compare (key a) (key b))
         && sign (Prt.compare_circuits (a.Prt.src, a.Prt.dst) (b.Prt.src, b.Prt.dst))
            = sign (compare (a.Prt.src, a.Prt.dst) (b.Prt.src, b.Prt.dst))))

let test_fits_exact () =
  let t = Prt.create () in
  Prt.reserve t (r ~coflow:1 ~src:0 ~dst:1 ~start:1. ~setup:0. ~length:1. ());
  (* exact abutment on either side fits *)
  Alcotest.(check bool) "abut after" true
    (Prt.fits_exact t (r ~src:0 ~dst:2 ~start:2. ~setup:0. ~length:1. ()));
  Alcotest.(check bool) "abut before" true
    (Prt.fits_exact t (r ~src:0 ~dst:2 ~start:0. ~setup:0. ~length:1. ()));
  Alcotest.(check bool) "distinct ports" true
    (Prt.fits_exact t (r ~src:3 ~dst:4 ~start:1.5 ~setup:0. ~length:1. ()));
  (* plain overlaps on either port do not *)
  Alcotest.(check bool) "overlap on In" false
    (Prt.fits_exact t (r ~src:0 ~dst:9 ~start:1.5 ~setup:0. ~length:1. ()));
  Alcotest.(check bool) "overlap on Out" false
    (Prt.fits_exact t (r ~src:9 ~dst:1 ~start:1.5 ~setup:0. ~length:1. ()));
  (* sub-tolerance dust overlap: [reserve] admits it, the exact test
     refuses — the asymmetry the engine's splice path depends on *)
  let dust = r ~src:0 ~dst:5 ~start:(2. -. 1e-12) ~setup:0. ~length:1. () in
  Alcotest.(check bool) "dust overlap fails the exact test" false
    (Prt.fits_exact t dust);
  Prt.reserve t dust;
  Alcotest.(check int) "while reserve tolerates it as abutment" 2
    (List.length (Prt.all_reservations t))

let test_splice_exact () =
  let t = Prt.create () in
  Prt.reserve t (r ~coflow:1 ~src:0 ~dst:1 ~start:5. ~setup:0.01 ~length:1. ());
  let plan =
    [
      r ~coflow:2 ~src:0 ~dst:1 ~start:0. ~setup:0.01 ~length:1. ();
      r ~coflow:2 ~src:1 ~dst:2 ~start:1. ~setup:0.01 ~length:1. ();
    ]
  in
  Alcotest.(check bool) "clean plan splices" true (Prt.splice_exact t plan);
  Alcotest.(check int) "all windows landed" 3
    (List.length (Prt.all_reservations t));
  (* one blocked window refuses the whole plan atomically *)
  let blocked =
    [
      r ~coflow:3 ~src:3 ~dst:4 ~start:0. ~setup:0.01 ~length:1. ();
      r ~coflow:3 ~src:0 ~dst:1 ~start:5.2 ~setup:0.01 ~length:0.5 ();
    ]
  in
  let touched = [ Prt.In 3; Prt.Out 4; Prt.In 0; Prt.Out 1 ] in
  let windows () = List.map (Prt.port_reservations t) touched in
  let before = windows () in
  Alcotest.(check bool) "blocked plan refused" false
    (Prt.splice_exact t blocked);
  Alcotest.(check int) "nothing reserved" 3
    (List.length (Prt.all_reservations t));
  Alcotest.(check bool) "no port changed by the refusal" true
    (windows () = before)

let suite =
  [
    Alcotest.test_case "free_at windows" `Quick test_free_at;
    Alcotest.test_case "concurrent counters merge exactly" `Quick
      test_concurrent_counters;
    Alcotest.test_case "in/out namespaces" `Quick test_in_out_namespaces;
    Alcotest.test_case "overlap rejected atomically" `Quick
      test_overlap_rejected;
    Alcotest.test_case "back-to-back windows ok" `Quick test_back_to_back_ok;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "next_start_after" `Quick test_next_start_after;
    Alcotest.test_case "next release" `Quick test_next_release;
    Alcotest.test_case "established_at" `Quick test_established_at;
    Alcotest.test_case "rollback leaves table unchanged" `Quick
      test_rollback_leaves_table_unchanged;
    Alcotest.test_case "removing just-reserved windows restores" `Quick
      test_remove_restores;
    Alcotest.test_case "remove consistency" `Quick test_remove_consistency;
    Alcotest.test_case "queries on out-of-range ports" `Quick
      test_out_of_range_ports;
    Alcotest.test_case "remove matches field-for-field copies" `Quick
      test_remove_field_copy;
    Alcotest.test_case "hot queries allocate only their result" `Quick
      test_hot_queries_allocate_only_result;
    Alcotest.test_case "covering_at / reservations_in" `Quick
      test_covering_and_range;
    Alcotest.test_case "slot queries vs brute force under rounding dust"
      `Quick test_slot_queries_oracle;
    Alcotest.test_case "nested short window hides nothing" `Quick
      test_nested_short_window;
    Alcotest.test_case "fits_exact strictness" `Quick test_fits_exact;
    Alcotest.test_case "splice_exact atomicity" `Quick test_splice_exact;
    prop_oracle_vs_list_reference;
    prop_chance_vs_brute_force;
    prop_no_overlap;
    prop_orders_match_compare;
  ]
