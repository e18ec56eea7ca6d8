module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units

let checkf = Alcotest.(check (float 1e-6))

let sample () =
  Demand.of_list
    [ ((0, 5), 10.); ((0, 6), 20.); ((1, 5), 5.); ((2, 7), 1.) ]

let test_get_set () =
  let d = Demand.create () in
  checkf "absent" 0. (Demand.get d 3 4);
  Demand.set d 3 4 7.;
  checkf "set" 7. (Demand.get d 3 4);
  Demand.set d 3 4 0.;
  checkf "zero removes" 0. (Demand.get d 3 4);
  Alcotest.(check int) "empty again" 0 (Demand.n_flows d);
  Alcotest.check_raises "negative port" (Invalid_argument "Demand: negative port id")
    (fun () -> Demand.set d (-1) 0 1.)

let test_of_list_accumulates () =
  let d = Demand.of_list [ ((1, 2), 3.); ((1, 2), 4.); ((0, 0), -5.) ] in
  checkf "accumulated" 7. (Demand.get d 1 2);
  Alcotest.(check int) "dropped non-positive" 1 (Demand.n_flows d)

let test_drain () =
  let d = sample () in
  Demand.drain d 0 5 4.;
  checkf "partial" 6. (Demand.get d 0 5);
  Demand.drain d 0 5 100.;
  checkf "clamped at zero" 0. (Demand.get d 0 5);
  Alcotest.(check int) "entry removed" 3 (Demand.n_flows d)

let test_aggregates () =
  let d = sample () in
  Alcotest.(check int) "flows" 4 (Demand.n_flows d);
  checkf "total" 36. (Demand.total_bytes d);
  checkf "row 0" 30. (Demand.row_sum d 0);
  checkf "col 5" 15. (Demand.col_sum d 5);
  Alcotest.(check (list int)) "senders" [ 0; 1; 2 ] (Demand.senders d);
  Alcotest.(check (list int)) "receivers" [ 5; 6; 7 ] (Demand.receivers d);
  Alcotest.(check int) "max port" 7 (Demand.max_port d);
  Alcotest.(check int) "max port empty" (-1) (Demand.max_port (Demand.create ()))

let test_entries_sorted () =
  let d = sample () in
  let keys = List.map fst (Demand.entries d) in
  Alcotest.(check (list (pair int int)))
    "sorted" [ (0, 5); (0, 6); (1, 5); (2, 7) ] keys

let test_scale_map_copy () =
  let d = sample () in
  let s = Demand.scale 2. d in
  checkf "scaled" 20. (Demand.get s 0 5);
  checkf "original untouched" 10. (Demand.get d 0 5);
  let m = Demand.map (fun _ _ v -> v -. 5.) d in
  checkf "mapped" 5. (Demand.get m 0 5);
  Alcotest.(check int) "non-positive dropped by map" 2 (Demand.n_flows m);
  let c = Demand.copy d in
  Demand.set c 0 5 99.;
  checkf "copy is deep" 10. (Demand.get d 0 5);
  Alcotest.check_raises "bad scale"
    (Invalid_argument "Demand.scale: non-positive factor") (fun () ->
      ignore (Demand.scale 0. d))

let test_to_dense () =
  let d = sample () in
  let ports, m = Demand.to_dense d in
  Alcotest.(check (list int)) "port universe" [ 0; 1; 2; 5; 6; 7 ]
    (Array.to_list ports);
  checkf "entry mapped" 10. m.(0).(3);
  (* 0 -> index 0, 5 -> index 3 *)
  checkf "dense total" 36. (Sunflow_matching.Dense.total m)

let test_equal () =
  let a = sample () and b = sample () in
  Alcotest.(check bool) "equal" true (Demand.equal a b);
  Demand.set b 9 9 1.;
  Alcotest.(check bool) "extra entry" false (Demand.equal a b)

let prop_total_nonneg =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"drain never leaves negative entries" ~count:200
       QCheck2.Gen.(pair (Util.Gen.nonempty_demand ()) (float_range 0. 1e9))
       (fun (d, amount) ->
         List.iter (fun ((i, j), _) -> Demand.drain d i j amount) (Demand.entries d);
         List.for_all (fun (_, v) -> v > 0.) (Demand.entries d)
         && Demand.total_bytes d >= 0.))

(* a drained copy shares no cell with its original *)
let test_drain_copy () =
  let d = sample () in
  let c = Demand.copy d in
  Demand.drain c 0 5 4.;
  Demand.drain c 2 7 100.;
  checkf "copy drained" 6. (Demand.get c 0 5);
  checkf "original kept" 10. (Demand.get d 0 5);
  checkf "original kept the emptied entry" (Demand.get (sample ()) 2 7)
    (Demand.get d 2 7);
  Demand.drain d 0 6 1.;
  checkf "copy kept" (Demand.get (sample ()) 0 6) (Demand.get c 0 6)

(* The demand against a plain float table run through the same
   operations, written as the demand worked before its values moved
   into cells (a snap removes entry by entry in sorted order). The
   tables hash alike, so every fold visits the same order and every
   sum must match bit for bit. *)
type op =
  | Set of int * int * float
  | Add of int * int * float
  | Drain of int * int * float
  | Copy
  | Snap of float

let op_gen =
  QCheck2.Gen.(
    let* i = int_range 0 3 and* j = int_range 0 3 in
    let* v = float_range 0. 100. in
    oneof
      [
        pure (Set (i, j, v));
        pure (Add (i, j, v));
        pure (Drain (i, j, v));
        pure Copy;
        map (fun e -> Snap e) (float_range 0. 30.);
      ])

let prop_matches_plain_table =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"demand ops match a plain float table bit for bit"
       ~count:500
       QCheck2.Gen.(list_size (int_range 0 80) op_gen)
       (fun ops ->
         let d = ref (Demand.create ()) in
         let r : (int * int, float) Hashtbl.t ref = ref (Hashtbl.create 16) in
         let get i j = Option.value ~default:0. (Hashtbl.find_opt !r (i, j)) in
         let set i j v =
           if v > 0. then Hashtbl.replace !r (i, j) v
           else Hashtbl.remove !r (i, j)
         in
         let entries () =
           Hashtbl.fold (fun k v acc -> (k, v) :: acc) !r []
           |> List.sort (fun (a, _) (b, _) -> compare a b)
         in
         let agree () =
           let ports = [ 0; 1; 2; 3 ] in
           Demand.entries !d = entries ()
           && Demand.total_bytes !d = Hashtbl.fold (fun _ v a -> a +. v) !r 0.
           && List.for_all
                (fun p ->
                  Demand.row_sum !d p
                  = Hashtbl.fold
                      (fun (i, _) v a -> if i = p then a +. v else a)
                      !r 0.
                  && Demand.col_sum !d p
                     = Hashtbl.fold
                         (fun (_, j) v a -> if j = p then a +. v else a)
                         !r 0.)
                ports
         in
         List.for_all
           (fun op ->
             (match op with
             | Set (i, j, v) ->
               Demand.set !d i j v;
               set i j v
             | Add (i, j, v) ->
               Demand.add !d i j v;
               set i j (get i j +. v)
             | Drain (i, j, b) ->
               Demand.drain !d i j b;
               let v = get i j in
               set i j (v -. Float.min v b)
             | Copy ->
               d := Demand.copy !d;
               r := Hashtbl.copy !r
             | Snap eps ->
               Demand.snap !d ~eps;
               List.iter (fun ((i, j), v) -> if v <= eps then set i j 0.) (entries ()));
             agree ())
           ops))

let suite =
  [
    Alcotest.test_case "get set remove" `Quick test_get_set;
    Alcotest.test_case "of_list accumulates" `Quick test_of_list_accumulates;
    Alcotest.test_case "drain" `Quick test_drain;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "entries sorted" `Quick test_entries_sorted;
    Alcotest.test_case "scale map copy" `Quick test_scale_map_copy;
    Alcotest.test_case "drained copy leaves the original" `Quick
      test_drain_copy;
    Alcotest.test_case "to_dense" `Quick test_to_dense;
    Alcotest.test_case "equal" `Quick test_equal;
    prop_total_nonneg;
    prop_matches_plain_table;
  ]
