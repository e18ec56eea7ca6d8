(* Shared test helpers: substring checks, approximate float comparison,
   QCheck generators for demands and Coflows, and the list-based PRT
   reference. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let check_close ?eps msg expected actual =
  if not (close ?eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

module Gen = struct
  open QCheck2.Gen

  (* A sparse demand over a small fabric: up to [max_flows] flows with
     megabyte-scale sizes. *)
  let demand ?(n_ports = 8) ?(max_flows = 12) () =
    let* n = int_range 1 max_flows in
    let* entries =
      list_size (pure n)
        (triple (int_range 0 (n_ports - 1)) (int_range 0 (n_ports - 1))
           (float_range 0.1 64.))
    in
    pure
      (Sunflow_core.Demand.of_list
         (List.map
            (fun (i, j, mb) -> ((i, j), Sunflow_core.Units.mb mb))
            entries))

  let nonempty_demand ?n_ports ?max_flows () =
    let* d = demand ?n_ports ?max_flows () in
    if Sunflow_core.Demand.is_empty d then
      pure
        (Sunflow_core.Demand.of_list [ ((0, 1), Sunflow_core.Units.mb 1.) ])
    else pure d

  let coflow ?n_ports ?max_flows () =
    let* d = nonempty_demand ?n_ports ?max_flows () in
    let* id = int_range 0 1000 in
    pure (Sunflow_core.Coflow.make ~id d)

  (* Balanced (equal line sums) small dense matrix, built by stuffing a
     random non-negative one. *)
  let balanced_dense ?(n = 5) () =
    let* rows =
      list_size (pure n) (list_size (pure n) (float_range 0. 10.))
    in
    let m = Array.of_list (List.map Array.of_list rows) in
    pure (Sunflow_matching.Stuffing.stuff m)
end

(* Reference list-based PRT: the pre-optimisation implementation kept
   verbatim (sorted lists, full scans) as the oracle the array-backed
   table must agree with reservation for reservation, plus full-scan
   definitions of the scheduler's port queries and [fits_exact]. The
   queries take a per-port window view [ws] — this table's [port_list],
   or [Prt.port_reservations] of a real table — so one definition
   checks both. *)
module Ref_prt = struct
  module Prt = Sunflow_core.Prt

  let stop (r : Prt.reservation) = r.Prt.start +. r.Prt.length

  type t = (Prt.port, Prt.reservation list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let port_list (t : t) p =
    match Hashtbl.find_opt t p with Some l -> l | None -> []

  let free_at ws p instant =
    List.for_all
      (fun (r : Prt.reservation) -> instant < r.Prt.start || instant >= stop r)
      (ws p)

  let next_start_after ws p instant =
    List.fold_left
      (fun acc (r : Prt.reservation) ->
        if r.Prt.start > instant then Float.min acc r.Prt.start else acc)
      infinity (ws p)

  let port_next_release ws p instant =
    List.fold_left
      (fun acc r ->
        let s = stop r in
        if s > instant then Float.min acc s else acc)
      infinity (ws p)

  (* the earliest stop strictly after the instant on either endpoint *)
  let next_release_pair ws ~src ~dst instant =
    Float.min
      (port_next_release ws (Prt.In src) instant)
      (port_next_release ws (Prt.Out dst) instant)

  (* both endpoints free: the earlier next start, else [neg_infinity] *)
  let probe_pair ws ~src ~dst instant =
    if free_at ws (Prt.In src) instant && free_at ws (Prt.Out dst) instant then
      Float.min
        (next_start_after ws (Prt.In src) instant)
        (next_start_after ws (Prt.Out dst) instant)
    else neg_infinity

  (* [Prt.chance] by brute force: the candidates are the instant itself
     and every later window stop on either port, in order; the answer
     is the first at which both ports are free and the next start is
     more than [gap] away, with that next start *)
  let chance ws ~src ~dst ~gap instant =
    let stops =
      List.filter_map
        (fun r -> if stop r > instant then Some (stop r) else None)
        (ws (Prt.In src) @ ws (Prt.Out dst))
    in
    let ok y =
      let tm = probe_pair ws ~src ~dst y in
      tm <> neg_infinity && not (tm -. y <= gap)
    in
    let y =
      List.find ok (instant :: List.sort_uniq Float.compare stops)
    in
    (y, probe_pair ws ~src ~dst y)

  (* no window on either port intersects [r] with positive measure *)
  let fits_exact t (r : Prt.reservation) =
    let clear p =
      List.for_all
        (fun (e : Prt.reservation) ->
          Float.min (stop e) (stop r) <= Float.max e.Prt.start r.Prt.start)
        (port_list t p)
    in
    clear (Prt.In r.Prt.src) && clear (Prt.Out r.Prt.dst)

  let time_tolerance = 1e-9

  let overlaps (a : Prt.reservation) (b : Prt.reservation) =
    Float.min (stop a) (stop b) -. Float.max a.Prt.start b.Prt.start
    > time_tolerance

  let insert_sorted t p (r : Prt.reservation) =
    let l = port_list t p in
    List.iter
      (fun existing ->
        if overlaps existing r then invalid_arg "Ref_prt.reserve: overlap")
      l;
    let sorted =
      List.sort (fun (a : Prt.reservation) b -> compare a.Prt.start b.Prt.start) (r :: l)
    in
    Hashtbl.replace t p sorted

  let reserve t (r : Prt.reservation) =
    if r.Prt.length <= 0. then invalid_arg "Ref_prt.reserve: non-positive length";
    if r.Prt.setup < 0. || r.Prt.setup > r.Prt.length then
      invalid_arg "Ref_prt.reserve: setup outside [0, length]";
    if r.Prt.src < 0 || r.Prt.dst < 0 then
      invalid_arg "Ref_prt.reserve: negative port";
    insert_sorted t (Prt.In r.Prt.src) r;
    (try insert_sorted t (Prt.Out r.Prt.dst) r
     with e ->
       Hashtbl.replace t (Prt.In r.Prt.src)
         (List.filter (fun x -> x != r) (port_list t (Prt.In r.Prt.src)));
       raise e)

  let all_reservations (t : t) =
    Hashtbl.fold
      (fun p rs acc ->
        match p with Prt.In _ -> List.rev_append rs acc | Prt.Out _ -> acc)
      t []
    |> List.sort (fun (a : Prt.reservation) b ->
           compare (a.Prt.start, a.Prt.src, a.Prt.dst)
             (b.Prt.start, b.Prt.src, b.Prt.dst))
end
