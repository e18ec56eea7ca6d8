module Bounds = Sunflow_core.Bounds
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module Prt = Sunflow_core.Prt
module Sunflow = Sunflow_core.Sunflow
module V = Violation

type spec = {
  delta : float;
  bandwidth : float;
  now : float;
  established : (int * int) list;
  quantum : float;
}

let spec ?(now = 0.) ?(established = []) ?(quantum = 0.) ~delta ~bandwidth () =
  { delta; bandwidth; now; established; quantum }

(* Relative tolerance: plans chain float sums, so window boundaries
   land within an ulp or two of the analytic values. *)
let eps x = 1e-9 *. Float.max 1. (Float.abs x)
let close a b = Float.abs (a -. b) <= eps (Float.max (Float.abs a) (Float.abs b))

let port_name = function
  | Prt.In i -> Printf.sprintf "In %d" i
  | Prt.Out j -> Printf.sprintf "Out %d" j

(* --- windows: well-formedness, delta accounting, disjointness --- *)

let windows spec rs =
  let vs = ref [] in
  let push v = vs := v :: !vs in
  List.iter
    (fun (r : Prt.reservation) ->
      if r.length <= 0. then
        push
          (V.v ~coflow:r.coflow ~at:r.start V.Malformed_window
             "circuit [%d -> %d]: non-positive window length %g" r.src r.dst
             r.length)
      else begin
        if r.setup < 0. || r.setup > r.length +. eps r.length then
          push
            (V.v ~coflow:r.coflow ~at:r.start V.Malformed_window
               "circuit [%d -> %d]: setup %g outside [0, %g]" r.src r.dst
               r.setup r.length);
        if r.start +. eps r.start < spec.now then
          push
            (V.v ~coflow:r.coflow ~at:r.start V.Malformed_window
               "circuit [%d -> %d] starts before the scheduling instant %g"
               r.src r.dst spec.now);
        (* delta is paid exactly once per window — or not at all, but
           only by a window beginning exactly at [now] on a circuit
           that carried over from the previous plan (§4.2) *)
        if r.setup <= eps spec.delta then begin
          if spec.delta > eps spec.delta then
            if
              not
                (close r.start spec.now
                && List.mem (r.src, r.dst) spec.established)
            then
              push
                (V.v ~coflow:r.coflow ~at:r.start V.Delta_violation
                   "circuit [%d -> %d] pays no reconfiguration delay but is \
                    not carried over at %g"
                   r.src r.dst spec.now)
        end
        else if not (close r.setup spec.delta) then
          push
            (V.v ~coflow:r.coflow ~at:r.start V.Delta_violation
               "circuit [%d -> %d]: setup %g, reconfiguration delay is %g"
               r.src r.dst r.setup spec.delta)
      end)
    rs;
  (* per-port disjointness, input and output namespaces independently *)
  let by_port : (Prt.port, Prt.reservation list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let on_port p r =
    match Hashtbl.find_opt by_port p with
    | Some l -> l := r :: !l
    | None -> Hashtbl.add by_port p (ref [ r ])
  in
  List.iter
    (fun (r : Prt.reservation) ->
      if r.length > 0. then begin
        on_port (Prt.In r.src) r;
        on_port (Prt.Out r.dst) r
      end)
    rs;
  let ports =
    Hashtbl.fold (fun p l acc -> (p, !l) :: acc) by_port []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (port, l) ->
      let sorted =
        List.sort
          (fun (a : Prt.reservation) (b : Prt.reservation) ->
            compare (a.start, a.src, a.dst) (b.start, b.src, b.dst))
          l
      in
      let rec walk = function
        | (a : Prt.reservation) :: ((b : Prt.reservation) :: _ as tl) ->
          if Prt.stop a > b.start then
            push
              (V.v ~coflow:b.coflow ~at:b.start V.Port_overlap
                 "%s: window [%g, %g) of coflow %d overlaps [%g, %g) of \
                  coflow %d"
                 (port_name port) b.start (Prt.stop b) b.coflow a.start
                 (Prt.stop a) a.coflow);
          walk tl
        | _ -> ()
      in
      walk sorted)
    ports;
  List.rev !vs

(* --- coverage: byte accounting and non-preemption --- *)

(* A reservation that ends with its flow's demand unfinished was cut;
   Algorithm 1 only cuts at the start of a pre-existing reservation on
   the shared input or output port, so some other window must begin at
   (within tolerance of) the cut instant. *)
let justified rs (r : Prt.reservation) =
  let stop_t = Prt.stop r in
  List.exists
    (fun (r' : Prt.reservation) ->
      r' != r
      && (r'.src = r.src || r'.dst = r.dst)
      && Float.abs (r'.start -. stop_t) <= eps stop_t)
    rs

let coverage spec ~coflows rs =
  let vs = ref [] in
  let push v = vs := v :: !vs in
  let by_id = Hashtbl.create 16 in
  List.iter (fun (c : Coflow.t) -> Hashtbl.replace by_id c.id c) coflows;
  (* transmission seconds and window lists per flow (coflow, src, dst) *)
  let flows : (int * int * int, (float * Prt.reservation list) ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (r : Prt.reservation) ->
      match Hashtbl.find_opt by_id r.coflow with
      | None ->
        push
          (V.v ~coflow:r.coflow ~at:r.start V.Unknown_coflow
             "reservation [%d -> %d] for a Coflow not in the input set" r.src
             r.dst)
      | Some (c : Coflow.t) ->
        if Demand.get c.demand r.src r.dst <= 0. then
          push
            (V.v ~coflow:r.coflow ~at:r.start V.Over_service
               "circuit [%d -> %d] reserved for a flow with no demand" r.src
               r.dst)
        else begin
          let key = (r.coflow, r.src, r.dst) in
          let tx = Float.max 0. (Prt.transmission r) in
          match Hashtbl.find_opt flows key with
          | Some cell ->
            let s, l = !cell in
            cell := (s +. tx, r :: l)
          | None -> Hashtbl.add flows key (ref (tx, [ r ]))
        end)
    rs;
  List.iter
    (fun (c : Coflow.t) ->
      List.iter
        (fun ((i, j), d) ->
          let p = d /. spec.bandwidth in
          let served, windows =
            match Hashtbl.find_opt flows (c.id, i, j) with
            | Some cell -> !cell
            | None -> (0., [])
          in
          let tol = eps p in
          let allowed =
            (* quantum rounding over-reserves each window by up to one
               quantum (§6) *)
            p +. (spec.quantum *. float_of_int (List.length windows))
          in
          if served < p -. tol then
            push
              (V.v ~coflow:c.id V.Under_service
                 "flow [%d -> %d]: %.9g s of transmission reserved, %.9g s \
                  needed"
                 i j served p)
          else if served > allowed +. tol then
            push
              (V.v ~coflow:c.id V.Over_service
                 "flow [%d -> %d]: %.9g s of transmission reserved, %.9g s \
                  needed"
                 i j served p);
          (* non-preemption: every window but the flow's last must end
             at a blocking reservation's start. Quantum rounding moves
             the cut instants off the blockers, so skip the check. *)
          if spec.quantum <= 0. then begin
            let sorted =
              List.sort
                (fun (a : Prt.reservation) (b : Prt.reservation) ->
                  compare a.start b.start)
                windows
            in
            let rec cuts cum = function
              | [] | [ _ ] -> ()
              | (r : Prt.reservation) :: tl ->
                let cum = cum +. Float.max 0. (Prt.transmission r) in
                if cum < p -. tol && not (justified rs r) then
                  push
                    (V.v ~coflow:c.id ~at:(Prt.stop r) V.Preemption
                       "flow [%d -> %d]: window ending at %g leaves %.9g s \
                        of demand with no blocking reservation at its stop"
                       i j (Prt.stop r) (p -. cum));
                cuts cum tl
            in
            cuts 0. sorted
          end)
        (Demand.entries c.demand))
    coflows;
  List.rev !vs

(* --- result-level checks --- *)

let structural spec ?(label = "result") (r : Sunflow.result) =
  let finish =
    List.fold_left
      (fun acc x -> Float.max acc (Prt.stop x))
      spec.now r.reservations
  in
  let setups =
    List.length (List.filter (fun (x : Prt.reservation) -> x.setup > 0.) r.reservations)
  in
  let vs = ref [] in
  if not (close finish r.finish) then
    vs :=
      V.v ~at:r.finish V.Result_mismatch
        "%s.finish = %.9g but the latest reservation stop is %.9g" label
        r.finish finish
      :: !vs;
  if setups <> r.setups then
    vs :=
      V.v V.Result_mismatch
        "%s.setups = %d but %d reservations pay a setup" label r.setups setups
      :: !vs;
  List.rev !vs

(* Fresh-table guarantees: minimal switching (Fig. 5) and the Lemma 1
   / Lemma 2 completion-time bounds. Only sound when the Coflow's view
   of the table was empty and no quantum rounding was applied. *)
let guarantees spec (c : Coflow.t) (r : Sunflow.result) =
  if Demand.is_empty c.demand || spec.quantum > 0. then []
  else begin
    let n = Coflow.n_subflows c in
    let switching =
      (* with delta = 0 no window pays a setup, so the establishment
         count is 0 by construction and Fig. 5 says nothing *)
      if spec.delta <= eps spec.delta then []
      else if spec.established = [] && r.setups <> n then
        [
          V.v ~coflow:c.id V.Switching_excess
            "%d circuit establishments for %d subflows (fresh-table Sunflow \
             pays exactly one per subflow)"
            r.setups n;
        ]
      else if r.setups > n then
        [
          V.v ~coflow:c.id V.Switching_excess
            "%d circuit establishments exceed the %d subflows" r.setups n;
        ]
      else []
    in
    let lemmas =
      if spec.established <> [] then []
      else begin
        let cct = r.finish -. spec.now in
        let tcl =
          Bounds.circuit_lower ~bandwidth:spec.bandwidth ~delta:spec.delta
            c.demand
        in
        let tpl = Bounds.packet_lower ~bandwidth:spec.bandwidth c.demand in
        let alpha =
          Bounds.alpha ~bandwidth:spec.bandwidth ~delta:spec.delta c.demand
        in
        let l1 =
          if cct > (2. *. tcl) +. eps (2. *. tcl) then
            [
              V.v ~coflow:c.id V.Lemma1_exceeded
                "CCT %.9g > 2 * T_L^c = %.9g" cct (2. *. tcl);
            ]
          else []
        in
        let bound2 = 2. *. (1. +. alpha) *. tpl in
        let l2 =
          if cct > bound2 +. eps bound2 then
            [
              V.v ~coflow:c.id V.Lemma2_exceeded
                "CCT %.9g > 2 * (1 + alpha) * T_L^p = %.9g" cct bound2;
            ]
          else []
        in
        l1 @ l2
      end
    in
    switching @ lemmas
  end

let intra spec (c : Coflow.t) (r : Sunflow.result) =
  windows spec r.reservations
  @ coverage spec ~coflows:[ c ] r.reservations
  @ structural spec r
  @ guarantees spec c r

let inter spec ~coflows (res : Inter.result) =
  let rs = Prt.all_reservations res.prt in
  let vs = windows spec rs @ coverage spec ~coflows rs in
  (* the PRT and the per-Coflow lists must describe the same plan *)
  let key (r : Prt.reservation) =
    (r.start, r.src, r.dst, r.coflow, r.setup, r.length)
  in
  let flat =
    List.concat_map
      (fun (_, (r : Sunflow.result)) -> r.reservations)
      res.per_coflow
  in
  let agreement =
    if
      List.sort compare (List.map key flat)
      <> List.sort compare (List.map key rs)
    then
      [
        V.v V.Result_mismatch
          "the PRT holds %d reservations but the per-Coflow lists describe \
           %d (or their contents differ)"
          (List.length rs) (List.length flat);
      ]
    else []
  in
  let ids_in =
    List.sort_uniq compare (List.map (fun (c : Coflow.t) -> c.id) coflows)
  in
  let ids_out = List.sort compare (List.map fst res.per_coflow) in
  let cover =
    if ids_in <> ids_out then
      [
        V.v V.Unknown_coflow
          "the plan schedules %d Coflows, the input set has %d (or the ids \
           differ)"
          (List.length ids_out) (List.length ids_in);
      ]
    else []
  in
  let per_coflow =
    List.concat_map
      (fun (id, (r : Sunflow.result)) ->
        structural spec ~label:(Printf.sprintf "coflow %d" id) r)
      res.per_coflow
  in
  (* only the first Coflow in service order saw an empty table *)
  let head =
    match res.per_coflow with
    | (id, r) :: _ -> (
      match List.find_opt (fun (c : Coflow.t) -> c.id = id) coflows with
      | Some c -> guarantees spec c r
      | None -> [])
    | [] -> []
  in
  vs @ agreement @ cover @ per_coflow @ head

(* --- incremental vs from-scratch replay equivalence --- *)

module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result

let replay_equiv ?policy ?order ?config ~delta ~bandwidth coflows =
  let capture replan =
    let slices = ref [] in
    let on_slice ~t ~t_next ~established ~coflows:_ (plan : Inter.result) =
      slices := (t, t_next, established, plan.Inter.per_coflow) :: !slices
    in
    (* [shards] reaches both runs, but [`Rebuild] coerces it to 1 — so
       with [shards > 1] this compares the sharded incremental engine
       against the unsharded from-scratch oracle, the strongest form of
       the bit-identity requirement *)
    let r =
      Circuit_sim.replay ?policy ?order ~replan ?config ~on_slice ~delta
        ~bandwidth coflows
    in
    (r, List.rev !slices)
  in
  let ri, si = capture `Incremental in
  let rr, sr = capture `Rebuild in
  let vs = ref [] in
  let push v = vs := v :: !vs in
  let field name get =
    if get ri <> get rr then
      push
        (V.v V.Result_mismatch
           "incremental replay disagrees with the from-scratch rebuild on \
            Sim_result.%s"
           name)
  in
  field "finishes" (fun r -> r.Sim_result.finishes);
  field "ccts" (fun r -> r.Sim_result.ccts);
  field "makespan" (fun r -> [ (0, r.Sim_result.makespan) ]);
  field "n_events" (fun r -> [ (r.Sim_result.n_events, 0.) ]);
  field "total_setups" (fun r -> [ (r.Sim_result.total_setups, 0.) ]);
  if List.length si <> List.length sr then
    push
      (V.v V.Divergence
         "incremental replay executed %d slices, the rebuild %d"
         (List.length si) (List.length sr))
  else
    List.iteri
      (fun i ((ti, tni, ei, pi), (tr, tnr, er, pr)) ->
        if ti <> tr || tni <> tnr then
          push
            (V.v ~at:ti V.Divergence
               "slice %d spans [%.17g, %.17g) incrementally but [%.17g, \
                %.17g) in the rebuild"
               i ti tni tr tnr)
        else if ei <> er then
          push
            (V.v ~at:ti V.Divergence
               "slice %d: carried-circuit sets differ between incremental \
                and rebuild"
               i)
        else if pi <> pr then
          push
            (V.v ~at:ti V.Divergence
               "slice %d: per-Coflow plans are not bit-identical between \
                incremental and rebuild"
               i))
      (List.combine si sr);
  List.rev !vs
