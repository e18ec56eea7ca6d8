(* Each value sits in its own mutable cell, which [drain] updates in
   place. Keys and table are as with plain float values, so every fold
   order and every sum is the same. *)
type cell = { mutable v : float }
type t = (int * int, cell) Hashtbl.t

let create () : t = Hashtbl.create 16

let check_ports i j =
  if i < 0 || j < 0 then invalid_arg "Demand: negative port id"

let get (d : t) i j =
  match Hashtbl.find_opt d (i, j) with Some c -> c.v | None -> 0.

let check_finite v =
  if not (Float.is_finite v) then invalid_arg "Demand: non-finite value"

let set (d : t) i j v =
  check_ports i j;
  check_finite v;
  if v > 0. then Hashtbl.replace d (i, j) { v } else Hashtbl.remove d (i, j)

let add (d : t) i j v = set d i j (get d i j +. v)

let drain (d : t) i j b =
  match Hashtbl.find d (i, j) with
  | c ->
    let v = c.v -. Float.min c.v b in
    if v > 0. && v < infinity then c.v <- v else set d i j v
  | exception Not_found -> set d i j (0. -. Float.min 0. b)

let of_list pairs =
  let d = create () in
  List.iter
    (fun ((i, j), v) ->
      if v > 0. then add d i j v
      else begin
        check_ports i j;
        check_finite v
      end)
    pairs;
  d

let copy (d : t) =
  let d' = Hashtbl.copy d in
  Hashtbl.filter_map_inplace (fun _ c -> Some { v = c.v }) d';
  d'

let snap (d : t) ~eps =
  Hashtbl.filter_map_inplace (fun _ c -> if c.v <= eps then None else Some c) d

let entries (d : t) =
  Hashtbl.fold (fun k c acc -> (k, c.v) :: acc) d []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let n_flows (d : t) = Hashtbl.length d
let total_bytes (d : t) = Hashtbl.fold (fun _ c acc -> acc +. c.v) d 0.
let is_empty (d : t) = Hashtbl.length d = 0

let sorted_distinct l = List.sort_uniq compare l

let senders (d : t) =
  sorted_distinct (Hashtbl.fold (fun (i, _) _ acc -> i :: acc) d [])

let receivers (d : t) =
  sorted_distinct (Hashtbl.fold (fun (_, j) _ acc -> j :: acc) d [])

let row_sum (d : t) i =
  Hashtbl.fold (fun (i', _) c acc -> if i' = i then acc +. c.v else acc) d 0.

let col_sum (d : t) j =
  Hashtbl.fold (fun (_, j') c acc -> if j' = j then acc +. c.v else acc) d 0.

let scale f d =
  if f <= 0. then invalid_arg "Demand.scale: non-positive factor";
  let out = create () in
  Hashtbl.iter (fun (i, j) c -> set out i j (c.v *. f)) d;
  out

let map f d =
  let out = create () in
  Hashtbl.iter (fun (i, j) c -> set out i j (f i j c.v)) d;
  out

let max_port (d : t) =
  Hashtbl.fold (fun (i, j) _ acc -> max acc (max i j)) d (-1)

let to_dense d =
  let ports = Array.of_list (sorted_distinct (senders d @ receivers d)) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun a p -> Hashtbl.replace index p a) ports;
  let n = Array.length ports in
  let m = Sunflow_matching.Dense.make n in
  Hashtbl.iter
    (fun (i, j) c ->
      let a = Hashtbl.find index i and b = Hashtbl.find index j in
      m.(a).(b) <- m.(a).(b) +. c.v)
    d;
  (ports, m)

let equal ?(eps = 1e-6) a b =
  let covered d d' =
    Hashtbl.fold
      (fun (i, j) c acc -> acc && Float.abs (c.v -. get d' i j) <= eps)
      d true
  in
  covered a b && covered b a

let pp ppf d =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun ((i, j), v) ->
      Format.fprintf ppf "[in.%d -> out.%d] %a@," i j Units.pp_bytes v)
    (entries d);
  Format.fprintf ppf "@]"
