(* The service order on its own: list sorting and its tie rule, the
   sorted vector against a sorted-list model, and the invalidation rule
   against the full scan it replaced. The replay equivalence suites
   cannot catch an order bug, since the rebuild oracle and the
   incremental engine share the order. *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Bounds = Sunflow_core.Bounds
module Inter = Sunflow_core.Inter
module Service_order = Sunflow_core.Service_order
module Id_table = Sunflow_core.Id_table
module Units = Sunflow_core.Units
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result

let b = Units.gbps 1.
let mk id ?(arrival = 0.) flows =
  Coflow.make ~id ~arrival (Demand.of_list flows)

let ids cs = List.map (fun c -> c.Coflow.id) cs
let id_of r = r.Service_order.coflow.Coflow.id

let test_sort_policies () =
  let big = mk 1 [ ((0, 5), Units.mb 100.) ] in
  let small = mk 2 ~arrival:1. [ ((0, 6), Units.mb 5.) ] in
  let ids policy cs = ids (Service_order.sort policy ~bandwidth:b cs) in
  Alcotest.(check (list int)) "fifo by arrival" [ 1; 2 ]
    (ids Inter.Fifo [ small; big ]);
  Alcotest.(check (list int)) "shortest first" [ 2; 1 ]
    (ids Inter.Shortest_first [ big; small ]);
  Alcotest.(check (list int)) "classes override size" [ 1; 2 ]
    (ids
       (Inter.Priority_classes (fun c -> if c.Coflow.id = 1 then 0 else 1))
       [ small; big ]);
  Alcotest.(check (list int)) "custom comparator" [ 2; 1 ]
    (ids
       (Inter.Custom (fun a b -> compare b.Coflow.id a.Coflow.id))
       [ big; small ])

(* a non-total [Custom] comparator's ties go by (arrival, id), whatever
   the order of the input *)
let test_sort_ties () =
  let earlier = mk 1 [ ((0, 1), Units.mb 5.) ] in
  let later = mk 2 ~arrival:1. [ ((0, 1), Units.mb 5.) ] in
  let same_time = mk 0 ~arrival:1. [ ((0, 1), Units.mb 5.) ] in
  let tie = Inter.Custom (fun _ _ -> 0) in
  Alcotest.(check (list int)) "earlier first" [ 1; 2 ]
    (ids (Service_order.sort tie ~bandwidth:b [ later; earlier ]));
  Alcotest.(check (list int)) "equal arrivals by id" [ 1; 0; 2 ]
    (ids (Service_order.sort tie ~bandwidth:b [ later; same_time; earlier ]))

(* the same rule in a [`Full] replay: the replay hands the planner its
   active Coflows newest first, yet the older of two tied Coflows on
   one circuit keeps it *)
let test_full_ties_by_arrival () =
  let older = mk 1 [ ((0, 1), Units.mb 100.) ] in
  let newer = mk 2 ~arrival:0.1 [ ((0, 1), Units.mb 100.) ] in
  let r =
    Circuit_sim.replay ~policy:(Inter.Custom (fun _ _ -> 0)) ~replan:`Full
      ~delta:(Units.ms 10.) ~bandwidth:b [ older; newer ]
  in
  let finish id = List.assoc id r.Sim_result.finishes in
  Alcotest.(check bool) "the older Coflow finishes first" true
    (finish 1 < finish 2)

let test_inconsistent_comparator_detected () =
  let bandwidth = Units.gbps 100. in
  let flip = ref false in
  let policy =
    Inter.Custom
      (fun a b ->
        if !flip then compare b.Coflow.id a.Coflow.id
        else compare a.Coflow.id b.Coflow.id)
  in
  let eng = Inter.engine ~policy ~delta:(Units.ms 10.) ~bandwidth () in
  let coflows =
    List.init 4 (fun i ->
        let d = Demand.create () in
        Demand.set d i (8 + i) (Units.mb 5.);
        Coflow.make ~id:(i + 1) ~arrival:0. d)
  in
  let remaining _ = Demand.create () in
  Inter.schedule_incremental eng ~now:0. ~arrivals:coflows ~finished:[]
    ~remaining;
  flip := true;
  Alcotest.check_raises "mutated comparator is detected, not corrupted"
    (Invalid_argument
       "Service_order.remove: element not found at its ordered position \
        (inconsistent comparator?)") (fun () ->
      Inter.schedule_incremental eng ~now:1. ~arrivals:[] ~finished:[ 1 ]
        ~remaining)

(* --- the sorted vector against a sorted-list model --- *)

(* a configuration of the order, and the reference comparator the
   model sorts by, written out from the documented rule *)
type config = {
  policy : Inter.policy;
  buckets : int;
  base : float;
  delta : float;
}

let class_of c = (c.Coflow.id * 7 mod 5) - 1  (* -1 .. 3: clamped at 0 and 2 *)

let policies =
  [
    ("fifo", Inter.Fifo);
    ("scf", Inter.Shortest_first);
    ("classes", Inter.Priority_classes class_of);
    ( "custom",
      Inter.Custom
        (fun a b -> compare (a.Coflow.id mod 3) (b.Coflow.id mod 3)) );
  ]

let configs =
  List.concat_map
    (fun (pname, policy) ->
      List.concat_map
        (fun buckets ->
          List.concat_map
            (fun base ->
              List.map
                (fun delta ->
                  ( Printf.sprintf "%s b%d base%g delta%g" pname buckets
                      base delta,
                    { policy; buckets; base; delta } ))
                [ 0.; Units.ms 10. ])
            [ 2.; 4. ])
        [ 0; 3; 24 ])
    policies

let ref_key cfg c =
  match cfg.policy with
  | Inter.Shortest_first -> Bounds.packet_lower ~bandwidth:b c.Coflow.demand
  | Inter.Priority_classes f -> float_of_int (f c)
  | Inter.Fifo | Inter.Custom _ -> 0.

let ref_class cfg c =
  let top = cfg.buckets - 1 in
  match cfg.policy with
  | _ when cfg.buckets = 0 -> 0
  | Inter.Priority_classes f -> max 0 (min top (f c))
  | Inter.Shortest_first ->
    let unit = if cfg.delta > 0. then cfg.delta else 1e-3 in
    let key = ref_key cfg c in
    if key <= unit then 0
    else
      min top
        (1 + int_of_float (Float.log (key /. unit) /. Float.log cfg.base))
  | Inter.Fifo | Inter.Custom _ -> 0

let ref_cmp cfg a b =
  let primary =
    match cfg.policy with
    | Inter.Fifo -> 0
    | Inter.Custom cmp -> cmp a b
    | Inter.Shortest_first | Inter.Priority_classes _ when cfg.buckets > 0 ->
      compare (ref_class cfg a) (ref_class cfg b)
    | Inter.Shortest_first | Inter.Priority_classes _ ->
      compare (ref_key cfg a) (ref_key cfg b)
  in
  if primary <> 0 then primary
  else
    match compare a.Coflow.arrival b.Coflow.arrival with
    | 0 -> compare a.Coflow.id b.Coflow.id
    | c -> c

let create cfg =
  Service_order.create ~buckets:cfg.buckets ~bucket_base:cfg.base
    ~delta:cfg.delta ~bandwidth:b ~dummy:() cfg.policy

let contents v = List.init (Service_order.length v) (Service_order.get v)

(* The scan the invalidation walk replaced, as it stood in the
   engine: under buckets, when some arrival's successor shares its
   class, every entry after the first arrival of its class; under the
   exact order, the whole suffix from [first]. *)
let reference_scan v ~buckets ~arrivals ~first =
  let all = contents v in
  let bucket r = r.Service_order.bucket in
  if buckets > 0 then
    if
      List.exists
        (fun e ->
          let k = Service_order.position v e in
          k + 1 < Service_order.length v
          && bucket (Service_order.get v (k + 1)) = bucket e)
        arrivals
    then begin
      let arrived = Id_table.create 8 in
      List.iter (fun r -> Id_table.replace arrived (id_of r) ()) arrivals;
      let poisoned = Array.make buckets false in
      List.filter
        (fun r ->
          poisoned.(bucket r)
          || begin
               if Id_table.mem arrived (id_of r) then
                 poisoned.(bucket r) <- true;
               false
             end)
        all
    end
    else []
  else
    match first with
    | None -> []
    | Some d -> List.filteri (fun i _ -> i >= Service_order.position v d) all

(* an operation: admit a batch, or remove the member at an index
   (taken modulo the size) *)
type op = Admit of (float * int * int * float) list | Retire of int

let gen_ops =
  let open QCheck2.Gen in
  let coflow =
    (* few arrivals, ports and sizes, so keys, classes and arrivals tie *)
    quad (oneofl [ 0.; 1.; 2. ]) (int_range 0 3) (int_range 0 3)
      (oneofl [ 0.05; 0.1; 1.; 4.; 16.; 64. ])
  in
  list_size (int_range 1 24)
    (frequency
       [ (3, map (fun l -> Admit l) (list_size (int_range 1 3) coflow));
         (2, map (fun k -> Retire k) nat) ])

let print_ops ops =
  String.concat " "
    (List.map
       (function
         | Admit l ->
           "admit["
           ^ String.concat ";"
               (List.map
                  (fun (a, s, d, mb) -> Printf.sprintf "%g:%d>%d:%gMB" a s d mb)
                  l)
           ^ "]"
         | Retire k -> Printf.sprintf "retire %d" k)
       ops)

let check_model name cfg ops =
  let v = create cfg in
  let model = ref [] in  (* the ranks, sorted by [ref_cmp] *)
  let next_id = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> failwith (name ^ ": " ^ m)) fmt in
  let check_state () =
    let got = contents v in
    if List.map id_of got <> List.map id_of !model then
      fail "vector out of order";
    List.iteri
      (fun i r ->
        if Service_order.position v r <> i then fail "position %d wrong" i)
      !model
  in
  List.iter
    (function
      | Admit batch ->
        let arrivals =
          List.map
            (fun (arrival, s, d, mb) ->
              let id = !next_id in
              incr next_id;
              let c = mk id ~arrival [ ((s, 4 + d), Units.mb mb) ] in
              let r = Service_order.rank v c () in
              Service_order.insert v r;
              model :=
                List.stable_sort
                  (fun a b ->
                    ref_cmp cfg a.Service_order.coflow b.Service_order.coflow)
                  (r :: !model);
              r)
            batch
        in
        check_state ();
        (* the arrivals, the head and none as the least dirty entry *)
        List.iter
          (fun first ->
            let pulled = ref [] in
            Service_order.pull_in v ~arrivals ~first (fun r ->
                pulled := r :: !pulled);
            let dirty l =
              List.sort_uniq compare (List.map id_of (arrivals @ l))
            in
            let want = reference_scan v ~buckets:cfg.buckets ~arrivals ~first in
            if dirty !pulled <> dirty want then
              fail "pull_in differs from the scan")
          (None :: Some (List.hd !model) :: List.map Option.some arrivals)
      | Retire k ->
        (match !model with
        | [] -> ()
        | l ->
          let r = List.nth l (k mod List.length l) in
          Service_order.remove v r;
          model := List.filter (fun r' -> r' != r) l;
          check_state ()))
    ops

let prop_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"vector, positions and pull_in match the model"
       ~count:60 ~print:print_ops gen_ops (fun ops ->
         List.iter (fun (name, cfg) -> check_model name cfg ops) configs;
         true))

let suite =
  [
    Alcotest.test_case "sort policies" `Quick test_sort_policies;
    Alcotest.test_case "sort breaks ties by arrival, then id" `Quick
      test_sort_ties;
    Alcotest.test_case "Full serves tied Coflows by arrival" `Quick
      test_full_ties_by_arrival;
    Alcotest.test_case "inconsistent comparator detected" `Quick
      test_inconsistent_comparator_detected;
    prop_model;
  ]
