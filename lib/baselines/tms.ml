module Demand = Sunflow_core.Demand
module Dense = Sunflow_matching.Dense
module Bvn = Sunflow_matching.Bvn
module Sinkhorn = Sunflow_matching.Sinkhorn

let quantization_steps = 4096
(* bound on proportional-share rounds before the exact endgame finishes
   the remainder (never reached on sane demand) *)
let max_rounds = 64

(* Exact BvN on the integer lattice: the idealised variant and the
   endgame that finishes whatever the proportional rounds left over. *)
let exact_assignments ~bandwidth demand =
  match Quantized.of_demand ~bandwidth ~steps:quantization_steps demand with
  | None -> []
  | Some q ->
    let work = Quantized.stuff q in
    let out = ref [] in
    let rec extract () =
      if Quantized.total work > 0 then begin
        match Quantized.perfect_matching_at_least work 1 with
        | Some pm ->
          let w =
            List.fold_left
              (fun acc (i, j) -> min acc work.Quantized.units.(i).(j))
              max_int pm
          in
          Quantized.subtract_matching work pm w;
          let pairs = Quantized.to_pairs work pm in
          let duration = float_of_int w *. work.Quantized.quantum in
          out := Assignment.make ~pairs ~duration :: !out;
          extract ()
        | None ->
          (* impossible on a balanced integer matrix *)
          invalid_arg "Tms.assignments: balanced matrix without matching"
      end
    in
    extract ();
    List.sort
      (fun (a : Assignment.t) (b : Assignment.t) -> compare b.duration a.duration)
      !out

(* The Mordia pipeline: pad, Sinkhorn-scale to a share matrix, BvN,
   slice the round proportionally, drop slices shorter than delta,
   repeat on the remainder. *)
let mordia_assignments ~delta ~bandwidth demand =
  if Demand.is_empty demand then []
  else begin
    let ports, m_bytes = Demand.to_dense demand in
    let k = Array.length ports in
    let work = Array.map (Array.map (fun b -> b /. bandwidth)) m_bytes in
    let initial_total = Dense.total work in
    let eps_total = 1e-9 *. initial_total in
    let out = ref [] in
    let rec round n =
      if Dense.total work > eps_total && n < max_rounds then begin
        let s = Dense.max_line_sum work in
        (* padding constant: the "heavy modification" of §3.1.1 *)
        let pad = Float.max (Dense.max_entry work /. 1024.) 1e-12 in
        let padded =
          Array.map (Array.map (fun v -> v +. pad)) work
        in
        (* Sinkhorn converges slowly on nearly-decomposable supports;
           stuffing the residual drift makes the line sums exactly
           equal so the BvN decomposition below cannot reject it *)
        let shares =
          Sunflow_matching.Stuffing.stuff (Sinkhorn.scale padded)
        in
        let terms =
          Bvn.decompose shares
          |> List.filter (fun (t : Bvn.term) -> t.weight *. s >= delta)
          |> List.sort (fun (a : Bvn.term) (b : Bvn.term) ->
                 compare b.weight a.weight)
        in
        if terms = [] then () (* every slice below the minimum: endgame *)
        else begin
          List.iter
            (fun (t : Bvn.term) ->
              let duration = t.weight *. s in
              let pairs =
                List.map (fun (a, b) -> (ports.(a), ports.(b))) t.pairs
              in
              out := Assignment.make ~pairs ~duration :: !out;
              List.iter
                (fun (a, b) ->
                  work.(a).(b) <- Float.max 0. (work.(a).(b) -. duration))
                t.pairs)
            terms;
          round (n + 1)
        end
      end
    in
    if k > 0 then round 0;
    let remainder = Demand.create () in
    Dense.iter_positive
      (fun a b p ->
        if p *. bandwidth > 1e-6 then
          Demand.set remainder ports.(a) ports.(b) (p *. bandwidth))
      work;
    List.rev !out @ exact_assignments ~bandwidth remainder
  end

let assignments ?(ideal = false) ?(delta = 0.01) ~bandwidth demand =
  if bandwidth <= 0. then invalid_arg "Tms.assignments: bandwidth <= 0";
  if ideal then exact_assignments ~bandwidth demand
  else mordia_assignments ~delta ~bandwidth demand

let schedule ?ideal ~delta ~bandwidth (coflow : Sunflow_core.Coflow.t) =
  let plan = assignments ?ideal ~delta ~bandwidth coflow.demand in
  let demand_time =
    List.map
      (fun (pair, bytes) -> (pair, bytes /. bandwidth))
      (Demand.entries coflow.demand)
  in
  Executor.run ~delta ~demand_time plan
