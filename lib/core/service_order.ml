type policy =
  | Fifo
  | Shortest_first
  | Priority_classes of (Coflow.t -> int)
  | Custom of (Coflow.t -> Coflow.t -> int)

type 'a rank = { coflow : Coflow.t; key : float; bucket : int; data : 'a }

let key_of policy ~bandwidth c =
  match policy with
  | Fifo | Custom _ -> 0.
  | Shortest_first -> Bounds.packet_lower ~bandwidth c.Coflow.demand
  | Priority_classes class_of -> float_of_int (class_of c)

(* the key's class (see [create]): D-CLAS-style coarsening, so an
   arrival cannot outrank everything with a marginally larger key *)
let bucket_of policy ~buckets ~bucket_base ~delta key =
  match policy with
  | _ when buckets <= 0 -> 0
  | Fifo | Custom _ -> 0
  | Priority_classes _ -> Int.max 0 (Int.min (buckets - 1) (int_of_float key))
  | Shortest_first ->
    let unit = if delta > 0. then delta else 1e-3 in
    if key <= unit then 0
    else
      let b = Float.log (key /. unit) /. Float.log bucket_base in
      Int.min (buckets - 1) (1 + int_of_float b)

(* total: every policy falls back to (arrival, id), so distinct
   Coflows never compare equal and binary search finds exact
   positions *)
let by_arrival a b = Coflow.compare_arrival a.coflow b.coflow

let comparator ~buckets policy =
  match policy with
  | Fifo -> by_arrival
  | (Shortest_first | Priority_classes _) when buckets > 0 ->
    fun a b ->
      (match Int.compare a.bucket b.bucket with 0 -> by_arrival a b | c -> c)
  | Shortest_first | Priority_classes _ ->
    fun a b ->
      (match Float.compare a.key b.key with 0 -> by_arrival a b | c -> c)
  | Custom cmp ->
    fun a b -> (match cmp a.coflow b.coflow with 0 -> by_arrival a b | c -> c)

(* decorate-sort-undecorate: the packet lower bound walks the whole
   demand matrix, so compute it once per Coflow, not per comparison *)
let sort policy ~bandwidth coflows =
  coflows
  |> List.map (fun c ->
         let key = key_of policy ~bandwidth c in
         { coflow = c; key; bucket = 0; data = () })
  |> List.sort (comparator ~buckets:0 policy)
  |> List.map (fun r -> r.coflow)

type 'a t = {
  rank : Coflow.t -> 'a -> 'a rank;
  cmp : 'a rank -> 'a rank -> int;
  exact : bool;  (* no buckets *)
  dummy : 'a rank;
  mutable arr : 'a rank array;
  mutable n : int;
}

let create ~buckets ~bucket_base ~delta ~bandwidth ~dummy policy =
  let nobody = Coflow.make ~id:min_int ~arrival:0. (Demand.create ()) in
  {
    rank =
      (fun c data ->
        let key = key_of policy ~bandwidth c in
        let bucket = bucket_of policy ~buckets ~bucket_base ~delta key in
        { coflow = c; key; bucket; data });
    cmp = comparator ~buckets policy;
    exact = buckets = 0;
    dummy = { coflow = nobody; key = neg_infinity; bucket = 0; data = dummy };
    arr = [||];
    n = 0;
  }

let rank v c data = v.rank c data
let compare v = v.cmp
let length v = v.n
let get v i = v.arr.(i)

let position v e =
  let lo = ref 0 and hi = ref v.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.cmp v.arr.(mid) e < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* spare and vacated slots hold [dummy], so none pins a removed
   element (and its Coflow's demand matrix) against the GC *)
let insert v e =
  let k = position v e in
  let cap = Array.length v.arr in
  if v.n = cap then begin
    let arr = Array.make (max 8 (2 * cap)) v.dummy in
    Array.blit v.arr 0 arr 0 v.n;
    v.arr <- arr
  end;
  Array.blit v.arr k v.arr (k + 1) (v.n - k);
  v.arr.(k) <- e;
  v.n <- v.n + 1

let remove v e =
  let k = position v e in
  (* unconditional (must survive [-noassert]): an inconsistent [Custom]
     comparator — one whose answers changed since this element was
     inserted — sends the binary search to the wrong position, and a
     blind blit from there would silently corrupt the order *)
  if not (k < v.n && v.arr.(k) == e) then
    invalid_arg
      "Service_order.remove: element not found at its ordered position \
       (inconsistent comparator?)";
  Array.blit v.arr (k + 1) v.arr k (v.n - k - 1);
  v.n <- v.n - 1;
  v.arr.(v.n) <- v.dummy

(* Buckets are contiguous runs of the order, so "after some arrival in
   its class" is "among the class-mates that follow the last arrival
   before it": walk from each arrival up to the next one or the end of
   its class. Each position is visited at most once. *)
let pull_in v ~arrivals ~first f =
  if v.exact then
    match first with
    | None -> ()
    | Some d ->
      for i = position v d to v.n - 1 do
        f v.arr.(i)
      done
  else
    let rec walk = function
      | [] -> ()
      | p :: rest ->
        let stop = match rest with q :: _ -> q | [] -> v.n in
        let i = ref (p + 1) in
        while !i < stop && v.arr.(!i).bucket = v.arr.(p).bucket do
          f v.arr.(!i);
          incr i
        done;
        walk rest
    in
    walk (List.sort Int.compare (List.map (position v) arrivals))
