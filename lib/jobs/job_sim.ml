module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module R = Sunflow_sim.Sim_result

type fabric =
  | Circuit of { delta : float; policy : Inter.policy }
  | Packet of Sunflow_packet.Snapshot.scheduler

(* Coflow ids encode (job, stage) so completions route back. *)
let stage_bits = 4096
let encode ~job ~stage = (job * stage_bits) + stage
let decode id = (id / stage_bits, id mod stage_bits)

(* Earlier pipeline stages first; FIFO inside a class comes from the
   service order's tie-breaking, which the paper's example asks for. *)
let stage_policy =
  Inter.Priority_classes (fun (c : Coflow.t) -> snd (decode c.id))

type result = {
  job_completions : (int * float) list;
  stage_finishes : (int * int * float) list;
  coflow_result : R.t;
}

let run ~fabric ~bandwidth jobs =
  let ids = List.map (fun (j : Job.t) -> j.id) jobs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Job_sim.run: duplicate job ids";
  List.iter
    (fun (j : Job.t) ->
      if Job.n_stages j > stage_bits then
        invalid_arg "Job_sim.run: too many stages";
      if j.id < 0 then invalid_arg "Job_sim.run: negative job id")
    jobs;
  let job_of = Hashtbl.create 16 in
  List.iter (fun (j : Job.t) -> Hashtbl.replace job_of j.id j) jobs;
  let completed : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let released : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let empty_finishes = ref [] in
  (* Release every ready, unreleased stage of a job; empty-demand
     stages complete on the spot and may unlock further stages. *)
  let rec release_ready (j : Job.t) t =
    let is_done s = Hashtbl.mem completed (j.id, s) in
    Job.ready j ~completed:is_done
    |> List.filter (fun s -> not (Hashtbl.mem released (j.id, s)))
    |> List.concat_map (fun s ->
           Hashtbl.replace released (j.id, s) ();
           let demand = j.stages.(s).Job.demand in
           if Demand.is_empty demand then begin
             Hashtbl.replace completed (j.id, s) ();
             empty_finishes := (j.id, s, t) :: !empty_finishes;
             release_ready j t
           end
           else
             [
               Coflow.make ~id:(encode ~job:j.id ~stage:s) ~arrival:t
                 (Demand.copy demand);
             ])
  in
  let initial =
    List.concat_map (fun (j : Job.t) -> release_ready j j.arrival) jobs
  in
  let on_complete id t =
    let job, stage = decode id in
    Hashtbl.replace completed (job, stage) ();
    release_ready (Hashtbl.find job_of job) t
  in
  let coflow_result =
    match fabric with
    | Circuit { delta; policy } ->
      Sunflow_sim.Circuit_sim.replay ~policy ~on_complete ~delta ~bandwidth
        initial
    | Packet scheduler ->
      Sunflow_sim.Packet_sim.run ~on_complete ~scheduler ~bandwidth initial
  in
  let stage_finishes =
    List.map
      (fun (id, t) ->
        let job, stage = decode id in
        (job, stage, t))
      coflow_result.R.finishes
    @ !empty_finishes
  in
  let job_completions =
    List.map
      (fun (j : Job.t) ->
        let finishes =
          List.filter_map
            (fun (job, stage, t) -> if job = j.id then Some (stage, t) else None)
            stage_finishes
        in
        if List.length finishes <> Job.n_stages j then
          invalid_arg "Job_sim.run: a stage never completed";
        let last = List.fold_left (fun a (_, t) -> Float.max a t) 0. finishes in
        (j.id, last -. j.arrival))
      jobs
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    job_completions;
    stage_finishes =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) stage_finishes;
    coflow_result;
  }

let average_jct r =
  match r.job_completions with
  | [] -> invalid_arg "Job_sim.average_jct: no jobs"
  | l -> List.fold_left (fun a (_, t) -> a +. t) 0. l /. float_of_int (List.length l)
