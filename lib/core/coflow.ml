type t = { id : int; arrival : float; demand : Demand.t }

let make ~id ?(arrival = 0.) demand =
  if not (Float.is_finite arrival) then
    invalid_arg "Coflow.make: non-finite arrival time";
  if arrival < 0. then invalid_arg "Coflow.make: negative arrival time";
  { id; arrival; demand }

let n_subflows c = Demand.n_flows c.demand
let total_bytes c = Demand.total_bytes c.demand
let with_demand c demand = { c with demand }

module Category = struct
  type t = One_to_one | One_to_many | Many_to_one | Many_to_many

  let to_string = function
    | One_to_one -> "O2O"
    | One_to_many -> "O2M"
    | Many_to_one -> "M2O"
    | Many_to_many -> "M2M"

  let all = [ One_to_one; One_to_many; Many_to_one; Many_to_many ]
end

let category c =
  if Demand.is_empty c.demand then invalid_arg "Coflow.category: empty demand";
  let ns = List.length (Demand.senders c.demand) in
  let nr = List.length (Demand.receivers c.demand) in
  match (ns > 1, nr > 1) with
  | false, false -> Category.One_to_one
  | false, true -> Category.One_to_many
  | true, false -> Category.Many_to_one
  | true, true -> Category.Many_to_many

let processing_time ~bandwidth c i j = Demand.get c.demand i j /. bandwidth

let avg_processing_time ~bandwidth c =
  let n = n_subflows c in
  if n = 0 then invalid_arg "Coflow.avg_processing_time: empty Coflow";
  total_bytes c /. bandwidth /. float_of_int n

let is_long ~bandwidth ~delta c = avg_processing_time ~bandwidth c > 40. *. delta

let compare_arrival a b =
  match compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c

let pp ppf c =
  Format.fprintf ppf "coflow#%d arr=%a |C|=%d bytes=%a (%s)" c.id Units.pp_time
    c.arrival (n_subflows c) Units.pp_bytes (total_bytes c)
    (if Demand.is_empty c.demand then "empty"
     else Category.to_string (category c))
