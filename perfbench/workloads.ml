(* The three benchmark workloads, built from a seed and serialized with
   [Trace.to_string]: the text is all the program under test is given.
   Sizes are chosen so one replay takes about half a second to a second
   on one core, and a measured run holds a dozen replays or more. *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units
module Synthetic = Sunflow_trace.Synthetic
module Trace = Sunflow_trace.Trace
module Rng = Sunflow_stats.Rng

type kind = Storm | Pods | Stream

type t = {
  name : string;
  kind : kind;
  seed : int;
  text : string;  (** the serialized trace *)
  n_coflows : int;
  n_ports : int;
  total_bytes : float;
}

(* the fabric every workload replays on: the paper's default
   reconfiguration delay and link rate *)
let delta = Units.ms 10.
let bandwidth = Units.gbps 1.

let names = [ "storm"; "pods"; "stream" ]

let kind_of_name = function
  | "storm" -> Some Storm
  | "pods" -> Some Pods
  | "stream" -> Some Stream
  | _ -> None

(* Every workload draws its Coflow sizes once, from the generator's
   fixed default seed, and lets [--seed] choose where the traffic goes:
   a seeded relabelling of the fabric's ports (and, for [storm], the
   mice's endpoints). The sizes' heavy tail would otherwise decide the
   backlog, and with it the per-event cost, seed by seed; this way every
   seed is a different input of the same shape. *)
let relabel perm (t : Trace.t) =
  {
    t with
    Trace.coflows =
      List.map
        (fun (c : Coflow.t) ->
          let d = Demand.create () in
          List.iter
            (fun ((i, j), v) -> Demand.set d perm.(i) perm.(j) v)
            (Demand.entries c.Coflow.demand);
          Coflow.make ~id:c.Coflow.id ~arrival:c.Coflow.arrival d)
        t.Trace.coflows;
  }

let shuffled rng n =
  let a = Array.init n Fun.id in
  Rng.shuffle rng a;
  a

(* The SCF-adversarial storm: the synthetic trace's arrival mix at 10x
   the paper's density (a standing M2M backlog), interleaved at the same
   rate with single-flow mice whose sizes shrink monotonically, so under
   shortest-first every mouse sorts ahead of the draining backlog. The
   M2M reducer tail is tamed to sigma 2.2 as in bench/main.ml's storm,
   so no terabyte-scale giant outlives the arrival span. *)
let storm ~tiny rng =
  let p = Synthetic.default_params in
  let base_n = if tiny then 60 else 200 in
  let mice_n = if tiny then 200 else 800 in
  let density = 0.1 in
  let span =
    p.Synthetic.span *. float_of_int base_n /. float_of_int p.Synthetic.n_coflows
    *. density
  in
  let n_ports = p.Synthetic.n_ports in
  let base =
    relabel (shuffled rng n_ports)
      (Synthetic.generate
         {
           p with
           Synthetic.n_coflows = base_n;
           span;
           m2m_reducer_mb = (fst p.Synthetic.m2m_reducer_mb, 2.2);
         })
  in
  let mice =
    List.init mice_n (fun i ->
        let src = Rng.int rng n_ports in
        let dst =
          let d = Rng.int rng (n_ports - 1) in
          if d >= src then d + 1 else d
        in
        let mb = 64. -. (60. *. float_of_int i /. float_of_int mice_n) in
        let d = Demand.create () in
        Demand.set d src dst (Units.mb mb);
        Coflow.make ~id:(base_n + i)
          ~arrival:(span *. float_of_int i /. float_of_int mice_n)
          d)
  in
  {
    Trace.n_ports;
    coflows =
      List.sort Coflow.compare_arrival (base.Trace.coflows @ mice);
  }

(* 16 pods of 8 consecutive ports, 0.5 % single-flow cross-pod
   stragglers: with pod-aligned shard stripes an arrival dirties one
   shard and the stragglers take the conflict/rollback path. The
   relabelling permutes the ports inside each pod and the pods that
   share a shard (pods p and p + 8 under 8 stripes), so every shard
   keeps the same load whatever the seed. *)
let pod_size = 8
let pod_shards = 8

let pods ~tiny rng =
  let n_pods = 16 and shards = pod_shards in
  let n = if tiny then 200 else 800 in
  let pod_of = Array.init n_pods Fun.id in
  for c = 0 to shards - 1 do
    let members = shuffled rng (n_pods / shards) in
    Array.iteri (fun k m -> pod_of.(c + (k * shards)) <- c + (m * shards)) members
  done;
  let offsets = Array.init n_pods (fun _ -> shuffled rng pod_size) in
  let perm =
    Array.init (n_pods * pod_size) (fun port ->
        let pod = port / pod_size in
        (pod_of.(pod) * pod_size) + offsets.(pod).(port mod pod_size))
  in
  relabel perm
    (Synthetic.pods
       {
         Synthetic.default_pod_params with
         p_pods = n_pods;
         p_pod_size = pod_size;
         p_coflows = n;
         p_span = 0.008 *. float_of_int n;
         p_cross_frac = 0.005;
         p_flow_mb = (4., 1.2);
       })

(* the synthetic trace at the paper's default offered load (526 Coflows
   per hour on 150 ports), stretched to [n] Coflows *)
let stream ~tiny rng =
  let p = Synthetic.default_params in
  let n = if tiny then 150 else 2_500 in
  relabel (shuffled rng p.Synthetic.n_ports)
    (Synthetic.generate
       {
         p with
         Synthetic.n_coflows = n;
         span = p.Synthetic.span *. float_of_int n /. float_of_int p.Synthetic.n_coflows;
       })

let make ~tiny kind seed =
  let rng = Rng.create seed in
  let name, trace =
    match kind with
    | Storm -> ("storm", storm ~tiny rng)
    | Pods -> ("pods", pods ~tiny rng)
    | Stream -> ("stream", stream ~tiny rng)
  in
  {
    name;
    kind;
    seed;
    text = Trace.to_string trace;
    n_coflows = Trace.n_coflows trace;
    n_ports = trace.Trace.n_ports;
    total_bytes = Trace.total_bytes trace;
  }

(* [stream]'s deadline: arrival plus this many times the Coflow's
   circuit-switched lower bound *)
let deadline_factor = 3.
