type t = (int * int, float) Hashtbl.t

let create () : t = Hashtbl.create 16

let check_ports i j =
  if i < 0 || j < 0 then invalid_arg "Demand: negative port id"

let get (d : t) i j = match Hashtbl.find_opt d (i, j) with Some v -> v | None -> 0.

let check_finite v =
  if not (Float.is_finite v) then invalid_arg "Demand: non-finite value"

let set (d : t) i j v =
  check_ports i j;
  check_finite v;
  if v > 0. then Hashtbl.replace d (i, j) v else Hashtbl.remove d (i, j)

let add (d : t) i j v = set d i j (get d i j +. v)

let drain (d : t) i j b =
  let v = get d i j in
  set d i j (v -. Float.min v b)

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

let copy (d : t) = Hashtbl.copy d

let entries (d : t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) d []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let n_flows (d : t) = Hashtbl.length d
let total_bytes (d : t) = Hashtbl.fold (fun _ v acc -> acc +. v) d 0.
let is_empty (d : t) = Hashtbl.length d = 0

let sorted_distinct l = List.sort_uniq compare l

let senders (d : t) =
  sorted_distinct (Hashtbl.fold (fun (i, _) _ acc -> i :: acc) d [])

let receivers (d : t) =
  sorted_distinct (Hashtbl.fold (fun (_, j) _ acc -> j :: acc) d [])

let row_sum (d : t) i =
  Hashtbl.fold (fun (i', _) v acc -> if i' = i then acc +. v else acc) d 0.

let col_sum (d : t) j =
  Hashtbl.fold (fun (_, j') v acc -> if j' = j then acc +. v else acc) d 0.

let scale f d =
  if f <= 0. then invalid_arg "Demand.scale: non-positive factor";
  let out = create () in
  Hashtbl.iter (fun (i, j) v -> set out i j (v *. f)) d;
  out

let map f d =
  let out = create () in
  Hashtbl.iter (fun (i, j) v -> set out i j (f i j v)) d;
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
    (fun (i, j) v ->
      let a = Hashtbl.find index i and b = Hashtbl.find index j in
      m.(a).(b) <- m.(a).(b) +. v)
    d;
  (ports, m)

let equal ?(eps = 1e-6) a b =
  let covered d d' =
    Hashtbl.fold
      (fun (i, j) v acc -> acc && Float.abs (v -. get d' i j) <= eps)
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
