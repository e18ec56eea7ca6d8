module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Inter = Sunflow_core.Inter
module Order = Sunflow_core.Order
module Prt = Sunflow_core.Prt
module Units = Sunflow_core.Units
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result
module Controller = Sunflow_switch.Controller
module Rng = Sunflow_stats.Rng
module Obs = Sunflow_obs
module V = Violation

type outcome = {
  compared : int;
  max_err_s : float;
  violations : Violation.t list;
}

(* The simulator snaps byte residues below [max 1e-3 (B * 1e-6)] to
   zero when it declares a Coflow finished, so its finish can precede
   the physical drain instant by up to that residue at line rate. *)
let default_tol bandwidth = 2. *. Float.max (1e-3 /. bandwidth) 1e-6
let snap_eps bandwidth = Float.max 1e-3 (bandwidth *. 1e-6)

let replay ?(policy = Inter.Shortest_first) ?(order = Order.Ordered_port)
    ?(replan = `Full) ?config ?(validate_plans = true) ?(check_attrib = false)
    ?tol ~delta ~bandwidth ~n_ports coflows =
  let tol = match tol with Some t -> t | None -> default_tol bandwidth in
  let vs = ref [] in
  let push v = vs := v :: !vs in
  let ids = List.map (fun (c : Coflow.t) -> c.id) coflows in
  let ok_input =
    if delta <= 1e-9 then begin
      push
        (V.v V.Rejected_plan
           "delta %g is too small for the physical oracle (the switch cannot \
            tell a zero-delay setup from a carried circuit)"
           delta);
      false
    end
    else if List.length (List.sort_uniq compare ids) <> List.length ids then begin
      push (V.v V.Unknown_coflow "duplicate Coflow ids in the trace");
      false
    end
    else if
      List.exists
        (fun (c : Coflow.t) -> Demand.max_port c.demand >= n_ports)
        coflows
    then begin
      push
        (V.v V.Unknown_coflow "a Coflow uses a port outside the %d-port fabric"
           n_ports);
      false
    end
    else true
  in
  if not ok_input then
    { compared = 0; max_err_s = 0.; violations = List.rev !vs }
  else begin
    (* Reconstruct the schedule the simulator actually executed: each
       plan clipped to its slice [t, t_next). A carried circuit's next
       fragment begins exactly where the previous one stopped (with
       zero setup), which is precisely the continuation the physical
       switch keeps the light on for. *)
    let fragments = ref [] in
    let dropped = ref 0 in
    let on_slice ~t:now ~t_next ~established ~coflows:scheduled
        (plan : Inter.result) =
      if validate_plans then begin
        let sp = Plan_check.spec ~now ~established ~delta ~bandwidth () in
        List.iter push (Plan_check.inter sp ~coflows:scheduled plan)
      end;
      List.iter
        (fun (r : Prt.reservation) ->
          if r.start < t_next then begin
            let seg_stop = Float.min (Prt.stop r) t_next in
            let len = seg_stop -. r.start in
            if len <= 1e-9 then begin
              (* sub-nanosecond sliver (a replan lands an instant after
                 the window opens): skipping it keeps the physical event
                 list sane; compensate the establishment count *)
              if r.setup > 0. then incr dropped
            end
            else fragments := { r with Prt.length = len } :: !fragments
          end)
        (Prt.all_reservations plan.Inter.prt)
    in
    (* Attribution rides on the recorded windows, so its fuzz leg runs
       the replay with observability forced on (restored afterwards)
       over a cleared recording state; the conservation invariant then
       has to hold for every Coflow of every fuzzed configuration. *)
    let was_obs = Obs.Control.enabled () in
    if check_attrib then begin
      Obs.Control.set_enabled true;
      Obs.Attrib.clear ();
      Obs.Sampler.clear ();
      Obs.Timeline.clear ()
    end;
    let sim =
      Circuit_sim.replay ~policy ~order ~replan ?config ~on_slice ~delta
        ~bandwidth coflows
    in
    if check_attrib then begin
      Obs.Control.set_enabled was_obs;
      let _, avs = Sim_check.attribution ~coflows sim in
      List.iter push avs
    end;
    List.iter push (Sim_check.result ~bandwidth ~coflows sim);
    let plan = List.rev !fragments in
    match Controller.execute ~delta ~bandwidth ~n_ports ~coflows ~plan with
    | Error msg ->
      push
        (V.v V.Rejected_plan
           "the physical switch refused the executed schedule: %s" msg);
      { compared = 0; max_err_s = 0.; violations = List.rev !vs }
    | Ok report ->
      let compared = ref 0 and max_err = ref 0. in
      List.iter
        (fun (c : Coflow.t) ->
          if not (Demand.is_empty c.demand) then begin
            match
              ( List.assoc_opt c.id sim.Sim_result.finishes,
                List.assoc_opt c.id report.Controller.finish_times )
            with
            | Some ts, Some tp ->
              incr compared;
              let err = Float.abs (ts -. tp) in
              max_err := Float.max !max_err err;
              if err > tol then
                push
                  (V.v ~coflow:c.id ~at:ts V.Divergence
                     "simulator finishes at %.9g, physical switch at %.9g \
                      (gap %.3g s exceeds the %.3g s tolerance)"
                     ts tp err tol)
            | Some ts, None ->
              push
                (V.v ~coflow:c.id ~at:ts V.Divergence
                   "the physical replay never drained this Coflow")
            | None, _ ->
              (* missing from the simulator result: Sim_check already
                 reported the coverage violation *)
              ()
          end)
        coflows;
      let entries =
        List.fold_left
          (fun acc (c : Coflow.t) -> acc + Demand.n_flows c.demand)
          0 coflows
      in
      let byte_slack = (float_of_int entries *. snap_eps bandwidth) +. 1. in
      if report.Controller.leftover > byte_slack then
        push
          (V.v V.Conservation
             "%.6g bytes left in the VOQs after the physical replay (slack \
              %.3g)"
             report.Controller.leftover byte_slack);
      let expected = sim.Sim_result.total_setups - !dropped in
      if report.Controller.switch_count <> expected then
        push
          (V.v V.Switching_excess
             "the physical switch performed %d circuit establishments, the \
              simulator counted %d"
             report.Controller.switch_count expected);
      { compared = !compared; max_err_s = !max_err; violations = List.rev !vs }
  end

type stats = {
  traces : int;
  total_compared : int;
  worst_err_s : float;
  total_violations : Violation.t list;
}

let random_trace rng ~n_ports ~max_coflows ~span ~max_mb =
  let n = 2 + Rng.int rng (Int.max 1 (max_coflows - 1)) in
  List.init n (fun id ->
      let demand = Demand.create () in
      let flows = 1 + Rng.int rng 4 in
      for _ = 1 to flows do
        let src = Rng.int rng n_ports and dst = Rng.int rng n_ports in
        Demand.add demand src dst (Units.mb (0.5 +. Rng.float rng max_mb))
      done;
      let arrival = if id = 0 then 0. else Rng.float rng span in
      Coflow.make ~id ~arrival demand)

let fuzz ?(policy = Inter.Shortest_first) ?(check_attrib = false) ?tol ~seed
    ~traces ~n_ports ~max_coflows ~span ~max_mb ~delta ~bandwidth () =
  let compared = ref 0 and worst = ref 0. and vs = ref [] in
  for i = 0 to traces - 1 do
    let trace_seed = seed + (7919 * i) in
    let rng = Rng.create trace_seed in
    let trace = random_trace rng ~n_ports ~max_coflows ~span ~max_mb in
    let record label (o : outcome) =
      compared := !compared + o.compared;
      worst := Float.max !worst o.max_err_s;
      List.iter
        (fun (v : V.t) ->
          vs :=
            {
              v with
              V.message =
                Printf.sprintf "[trace seed %d%s] %s" trace_seed label
                  v.V.message;
            }
            :: !vs)
        o.violations
    in
    let replays =
      List.iter (fun (label, replan, config) ->
          record label
            (replay ~policy ~replan ~config ~check_attrib ?tol ~delta
               ~bandwidth ~n_ports trace))
    in
    let equivs =
      List.iter (fun (label, config) ->
          List.iter
            (fun (v : V.t) ->
              vs :=
                {
                  v with
                  V.message =
                    Printf.sprintf "[trace seed %d, %s] %s" trace_seed label
                      v.V.message;
                }
                :: !vs)
            (Plan_check.replay_equiv ~policy ~config ~delta ~bandwidth trace))
    in
    (* the bucketed order is its own configuration (alternate the class
       count so both the coarse and fine quantizations fuzz), and the
       sharded engine must stay pinned to the unsharded oracle for every
       shard count: cycle the count and a non-trivial stripe width
       across traces *)
    let buckets = if i mod 2 = 0 then 4 else 16 in
    let shards = [| 2; 4; 8 |].(i mod 3) in
    let shard_block = 1 + (i mod 2) in
    let all_stop = Inter.config ~carry_circuits:false () in
    let bucketed = Inter.config ~buckets () in
    let sharded = Inter.config ~shards ~shard_block () in
    (* the incremental engine replays the same trace through the
       physical oracle too, with its per-slice plan views validated;
       Plan_check.replay_equiv separately pins it to the rebuild mode,
       exact and bucketed orders both *)
    replays
      [
        ("", `Full, Inter.default_config);
        (", incremental", `Incremental, Inter.default_config);
      ];
    equivs
      [
        ("equiv", Inter.default_config);
        (Printf.sprintf "equiv buckets=%d" buckets, bucketed);
        (Printf.sprintf "equiv shards=%d" shards, sharded);
        ( Printf.sprintf "equiv shards=%d buckets=%d" shards buckets,
          Inter.config ~shards ~shard_block ~buckets () );
      ];
    (* every third trace also runs the all-stop ablation, where no
       circuit survives a rescheduling instant, and drives the bucketed
       and the sharded incremental schedules through the physical
       switch — engine_slice's mirror-deduped merge is what actually
       executes, so it gets its own oracle run *)
    if i mod 3 = 2 then
      replays
        [
          (", all-stop", `Full, all_stop);
          (", all-stop incremental", `Incremental, all_stop);
          ( Printf.sprintf ", incremental buckets=%d" buckets,
            `Incremental,
            bucketed );
          ( Printf.sprintf ", incremental shards=%d" shards,
            `Incremental,
            sharded );
        ]
  done;
  {
    traces;
    total_compared = !compared;
    worst_err_s = !worst;
    total_violations = List.rev !vs;
  }
