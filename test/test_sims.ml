(* End-to-end behaviour of the two trace-replay simulators. *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Bounds = Sunflow_core.Bounds
module Units = Sunflow_core.Units
module Packet_sim = Sunflow_sim.Packet_sim
module Circuit_sim = Sunflow_sim.Circuit_sim
module R = Sunflow_sim.Sim_result

let b = Units.gbps 1.
let delta = Units.ms 10.

let mk id ?(arrival = 0.) flows = Coflow.make ~id ~arrival (Demand.of_list flows)

let small_trace () =
  [
    mk 0 [ ((0, 5), Units.mb 100.); ((1, 6), Units.mb 50.); ((0, 6), Units.mb 30.) ];
    mk 1 ~arrival:0.1 [ ((0, 5), Units.mb 5.) ];
    mk 2 ~arrival:0.2
      [ ((2, 5), Units.mb 20.); ((3, 6), Units.mb 20.); ((2, 6), Units.mb 10.) ];
    mk 3 ~arrival:1.5 [ ((1, 5), Units.mb 200.) ];
  ]

let schedulers =
  [
    ("varys", Sunflow_packet.Varys.allocate, []);
    ( "aalo",
      Sunflow_packet.Aalo.allocate,
      Packet_sim.aalo_thresholds Sunflow_packet.Aalo.default_params );
    ("fair", Sunflow_packet.Fair.allocate, []);
  ]

let test_packet_all_complete () =
  List.iter
    (fun (name, scheduler, sent_thresholds) ->
      let r = Packet_sim.run ~sent_thresholds ~scheduler ~bandwidth:b (small_trace ()) in
      Alcotest.(check int) (name ^ " completions") 4 (List.length r.R.ccts))
    schedulers

let test_packet_cct_above_tpl () =
  List.iter
    (fun (name, scheduler, sent_thresholds) ->
      let trace = small_trace () in
      let r = Packet_sim.run ~sent_thresholds ~scheduler ~bandwidth:b trace in
      List.iter
        (fun (c : Coflow.t) ->
          let tpl = Bounds.packet_lower ~bandwidth:b c.demand in
          let cct = R.cct_of r c.id in
          if cct < tpl -. 1e-6 then
            Alcotest.failf "%s: coflow %d CCT %.4f below TpL %.4f" name c.id
              cct tpl)
        trace)
    schedulers

let test_packet_single_coflow_at_bound () =
  (* alone in the fabric, Varys finishes exactly at TpL *)
  let c = mk 0 [ ((0, 5), Units.mb 40.); ((1, 5), Units.mb 20.) ] in
  let r =
    Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b [ c ]
  in
  Util.check_close "at TpL" (Bounds.packet_lower ~bandwidth:b c.Coflow.demand)
    (R.cct_of r 0)

let test_packet_arrival_offsets () =
  let c = mk 5 ~arrival:10. [ ((0, 1), Units.mb 10.) ] in
  let r =
    Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b [ c ]
  in
  Util.check_close "cct measured from arrival" 0.08 (R.cct_of r 5);
  Util.check_close "absolute finish" 10.08 (List.assoc 5 r.R.finishes)

let test_packet_empty_coflow () =
  let c = Coflow.make ~id:0 ~arrival:2. (Demand.create ()) in
  let r =
    Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b [ c ]
  in
  Util.check_close "instant" 0. (R.cct_of r 0)

let test_packet_duplicate_ids () =
  let t = [ mk 1 [ ((0, 1), 1.) ]; mk 1 [ ((0, 2), 1.) ] ] in
  Alcotest.check_raises "dup" (Invalid_argument "Packet_sim.run: duplicate Coflow ids")
    (fun () ->
      ignore (Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b t))

let test_circuit_all_complete () =
  let r = Circuit_sim.replay ~delta ~bandwidth:b (small_trace ()) in
  Alcotest.(check int) "completions" 4 (List.length r.R.ccts);
  Alcotest.(check bool) "setups counted" true (r.R.total_setups >= 6)

let test_circuit_single_coflow_matches_intra () =
  let c = mk 0 [ ((0, 5), Units.mb 40.); ((1, 6), Units.mb 20.); ((0, 6), Units.mb 8.) ] in
  let r = Circuit_sim.replay ~delta ~bandwidth:b [ c ] in
  let intra = Circuit_sim.intra_cct ~delta ~bandwidth:b c in
  Util.check_close "matches intra schedule" intra.finish (R.cct_of r 0)

let test_circuit_cct_above_tpl () =
  let trace = small_trace () in
  let r = Circuit_sim.replay ~delta ~bandwidth:b trace in
  List.iter
    (fun (c : Coflow.t) ->
      let tpl = Bounds.packet_lower ~bandwidth:b c.demand in
      if R.cct_of r c.id < tpl -. 1e-6 then
        Alcotest.failf "coflow %d beats the packet bound" c.id)
    trace

let test_circuit_sequential_coflows_isolated () =
  (* far-apart arrivals: each Coflow behaves as if alone *)
  let c1 = mk 0 [ ((0, 5), Units.mb 10.) ] in
  let c2 = mk 1 ~arrival:100. [ ((0, 5), Units.mb 10.) ] in
  let r = Circuit_sim.replay ~delta ~bandwidth:b [ c1; c2 ] in
  Util.check_close "first alone" 0.09 (R.cct_of r 0);
  Util.check_close "second alone" 0.09 (R.cct_of r 1)

let test_circuit_policy_fifo_vs_scf () =
  (* a big coflow arrives first; under FIFO the later small one waits,
     under shortest-first it preempts *)
  let big = mk 0 [ ((0, 5), Units.mb 500.) ] in
  let small = mk 1 ~arrival:0.5 [ ((0, 6), Units.mb 1.) ] in
  let fifo =
    Circuit_sim.replay ~policy:Sunflow_core.Inter.Fifo ~delta ~bandwidth:b
      [ big; small ]
  in
  let scf = Circuit_sim.replay ~delta ~bandwidth:b [ big; small ] in
  Alcotest.(check bool) "scf small faster than fifo small" true
    (R.cct_of scf 1 < R.cct_of fifo 1);
  Alcotest.(check bool) "fifo big not preempted" true
    (R.cct_of fifo 0 <= R.cct_of scf 0 +. 1e-9)

let test_empty_trace () =
  let r = Circuit_sim.replay ~delta ~bandwidth:b [] in
  Alcotest.(check int) "no completions" 0 (List.length r.R.ccts);
  Alcotest.(check (float 0.)) "zero makespan" 0. r.R.makespan;
  Alcotest.(check bool) "average_cct_opt is None" true
    (R.average_cct_opt r = None);
  Alcotest.check_raises "average_cct raises"
    (Invalid_argument "Sim_result.average_cct: empty result") (fun () ->
      ignore (R.average_cct r));
  (* pp must not itself compute the undefined average *)
  let s = Format.asprintf "%a" R.pp r in
  Alcotest.(check bool) "pp survives emptiness" true (Util.contains s "coflows=0")

let test_sim_result_helpers () =
  let r = Circuit_sim.replay ~delta ~bandwidth:b (small_trace ()) in
  Alcotest.(check int) "cct list length" 4 (List.length (R.cct_list r));
  Alcotest.(check bool) "average positive" true (R.average_cct r > 0.);
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (R.cct_of r 999));
  let s = Format.asprintf "%a" R.pp r in
  Alcotest.(check bool) "pp mentions coflows" true (Util.contains s "coflows=4")

let prop_circuit_completes_everything =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"circuit replay completes every Coflow"
       ~count:60
       QCheck2.Gen.(
         list_size (int_range 1 6)
           (pair (Util.Gen.coflow ~n_ports:5 ~max_flows:6 ()) (float_range 0. 3.)))
       (fun entries ->
         let trace =
           List.mapi
             (fun i (c, arr) -> { c with Coflow.id = i; arrival = arr })
             entries
         in
         let r = Circuit_sim.replay ~delta ~bandwidth:b trace in
         List.length r.R.ccts = List.length trace
         && List.for_all (fun (_, cct) -> cct >= 0.) r.R.ccts))

let prop_packet_completes_everything =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"packet replay completes every Coflow" ~count:60
       QCheck2.Gen.(
         list_size (int_range 1 6)
           (pair (Util.Gen.coflow ~n_ports:5 ~max_flows:6 ()) (float_range 0. 3.)))
       (fun entries ->
         let trace =
           List.mapi
             (fun i (c, arr) -> { c with Coflow.id = i; arrival = arr })
             entries
         in
         let r =
           Packet_sim.run ~scheduler:Sunflow_packet.Varys.allocate ~bandwidth:b
             trace
         in
         List.length r.R.ccts = List.length trace))

(* [Slice.execute] snaps and tests only the Coflows a slice drains or
   that entered since the last slice. Against the rule it replaced —
   snap every active Coflow, partition them all — on twin demands:
   the (finished, still) lists, their order and every remaining value
   must be bit-identical, slice after slice. *)
let test_slice_snaps_touched_only () =
  let module Slice = Sunflow_sim.Slice in
  let module Id_table = Sunflow_core.Id_table in
  let module Prt = Sunflow_core.Prt in
  let module Schedule = Sunflow_core.Schedule in
  let ex = Slice.create ~timeline:false ~bandwidth:b in
  let by_id = Id_table.create 8 in
  let twins = Hashtbl.create 8 in
  let acts = ref [] and entered = ref [] in
  let id (a : Slice.active) = a.Slice.orig.Coflow.id in
  let twin a = Hashtbl.find twins (id a) in
  let enter c =
    let a = Slice.active c in
    Id_table.replace by_id c.Coflow.id a;
    Hashtbl.replace twins c.Coflow.id (Demand.copy c.Coflow.demand);
    acts := a :: !acts;
    entered := a :: !entered
  in
  (* a deadline rejection: entered, then retracted before the slice *)
  let reject () =
    let a = List.hd !acts in
    Id_table.remove by_id (id a);
    Hashtbl.remove twins (id a);
    acts := List.tl !acts;
    entered := List.tl !entered
  in
  (* a window on [(src, dst)] of Coflow [coflow] moving [bytes] from
     [start], after a setup *)
  let w coflow src dst start bytes =
    { Prt.coflow; src; dst; start; setup = delta; length = delta +. (bytes /. b) }
  in
  let bits d =
    List.map (fun (k, v) -> (k, Int64.bits_of_float v)) (Demand.entries d)
  in
  let n_finished = ref 0 in
  let slice ~t ~t_next windows =
    List.iter
      (fun (r : Prt.reservation) ->
        let s = Schedule.transmission_overlap r ~t0:t ~t1:t_next in
        if s > 0. then
          Demand.drain (Hashtbl.find twins r.coflow) r.src r.dst (s *. b))
      windows;
    List.iter (fun a -> Slice.snap_demand ~bandwidth:b (twin a)) !acts;
    let ref_fin, ref_still =
      List.partition (fun a -> Demand.is_empty (twin a)) !acts
    in
    let fin, still =
      Slice.execute ex ~t ~t_next by_id ~entered:!entered windows !acts
    in
    entered := [];
    let label what = Printf.sprintf "slice [%g, %g): %s" t t_next what in
    let same l l' = List.length l = List.length l' && List.for_all2 ( == ) l l' in
    Alcotest.(check bool) (label "finished") true (same fin ref_fin);
    Alcotest.(check bool) (label "still") true (same still ref_still);
    List.iter
      (fun a ->
        Alcotest.(check bool)
          (label (Printf.sprintf "Coflow %d remaining" (id a)))
          true
          (bits a.Slice.remaining = bits (twin a)))
      !acts;
    List.iter
      (fun a ->
        Id_table.remove by_id (id a);
        Hashtbl.remove twins (id a))
      fin;
    n_finished := !n_finished + List.length fin;
    acts := still
  in
  let dust = 1e-4 in
  (* slice 0: B's only flow is dust and no window drains it; C idles *)
  enter (mk 0 [ ((0, 1), Units.mb 1.); ((2, 3), Units.mb 1.) ]);
  enter (mk 1 [ ((4, 5), dust) ]);
  enter (mk 2 [ ((1, 2), Units.mb 1. +. dust) ]);
  slice ~t:0. ~t_next:1.
    [ w 0 0 1 0. (Units.mb 1.); w 0 2 3 0.995 (Units.mb 1.) ];
  Alcotest.(check int) "the dust-only Coflow finished" 1 !n_finished;
  (* slice 1: D (dust only) is entered and rejected; A drains out *)
  enter (mk 3 [ ((6, 7), dust) ]);
  reject ();
  slice ~t:1. ~t_next:2. [ w 0 2 3 0.995 (Units.mb 1.) ];
  Alcotest.(check int) "A finished" 2 !n_finished;
  (* slices 2-4: C idles, E enters and is partly drained *)
  enter (mk 4 [ ((0, 1), Units.mb 2.); ((3, 4), Units.mb 1.) ]);
  slice ~t:2. ~t_next:3. [];
  slice ~t:3. ~t_next:4. [ w 4 0 1 3. (Units.mb 1.) ];
  slice ~t:4. ~t_next:5. [];
  (* slice 5: C drains to a dust residue, snapped to nothing *)
  slice ~t:5. ~t_next:6. [ w 2 1 2 5. (Units.mb 1.) ];
  Alcotest.(check int) "C finished on its residue" 3 !n_finished;
  Alcotest.(check (list int)) "E still active" [ 4 ] (List.map id !acts)

let suite =
  [
    Alcotest.test_case "packet: all complete" `Quick test_packet_all_complete;
    Alcotest.test_case "packet: CCT >= TpL" `Quick test_packet_cct_above_tpl;
    Alcotest.test_case "packet: single coflow at bound" `Quick
      test_packet_single_coflow_at_bound;
    Alcotest.test_case "packet: arrival offsets" `Quick
      test_packet_arrival_offsets;
    Alcotest.test_case "packet: empty coflow" `Quick test_packet_empty_coflow;
    Alcotest.test_case "packet: duplicate ids" `Quick test_packet_duplicate_ids;
    Alcotest.test_case "circuit: all complete" `Quick test_circuit_all_complete;
    Alcotest.test_case "circuit: single matches intra" `Quick
      test_circuit_single_coflow_matches_intra;
    Alcotest.test_case "circuit: CCT >= TpL" `Quick test_circuit_cct_above_tpl;
    Alcotest.test_case "circuit: isolated sequential" `Quick
      test_circuit_sequential_coflows_isolated;
    Alcotest.test_case "circuit: fifo vs shortest-first" `Quick
      test_circuit_policy_fifo_vs_scf;
    Alcotest.test_case "sim result helpers" `Quick test_sim_result_helpers;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "slice snaps only drained and entered Coflows" `Quick
      test_slice_snaps_touched_only;
    prop_circuit_completes_everything;
    prop_packet_completes_everything;
  ]
