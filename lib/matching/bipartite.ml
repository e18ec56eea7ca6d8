type t = { n_left : int; n_right : int; adj : int list array }

let create ~n_left ~n_right edges =
  if n_left < 0 || n_right < 0 then invalid_arg "Bipartite.create: negative size";
  let adj = Array.make (max n_left 1) [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n_left || v < 0 || v >= n_right then
        invalid_arg "Bipartite.create: endpoint out of range";
      adj.(u) <- v :: adj.(u))
    edges;
  { n_left; n_right; adj }

let n_left g = g.n_left
let n_right g = g.n_right
let neighbours g u = g.adj.(u)
