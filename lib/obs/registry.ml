(* Per-domain cells behind a per-metric DLS key, merged under the
   metric's mutex — the same discipline as Prt's work counters, which
   this registry generalises (and which now live here; Prt.stats is a
   façade over four of these counters). *)

type counter_cell = { mutable v : int }

type counter = {
  c_name : string;
  c_mu : Mutex.t;
  c_cells : counter_cell list ref;
  c_key : counter_cell Domain.DLS.key;
}

type gauge_cell = { mutable g : float }

type gauge = {
  g_name : string;
  g_mu : Mutex.t;
  g_cells : gauge_cell list ref;
  g_key : gauge_cell Domain.DLS.key;
}

(* Bucket [i] (for [1 <= i <= n_exp]) covers binary exponents
   [min_exp + i - 1]: the half-open value range
   [2^(min_exp+i-2), 2^(min_exp+i-1)). Index 0 is underflow (<= 0,
   NaN, anything below 2^(min_exp-1)); the last index is overflow. *)
let min_exp = -64
let max_exp = 64
let n_exp = max_exp - min_exp + 1
let n_buckets = n_exp + 2

type histogram_cell = {
  buckets : int array;  (* length n_buckets *)
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

type histogram = {
  h_name : string;
  h_mu : Mutex.t;
  h_cells : histogram_cell list ref;
  h_key : histogram_cell Domain.DLS.key;
}

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * float * int) list;
}

(* --- the global name table -------------------------------------------- *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry_mu = Mutex.create ()
let metrics : (string, metric) Hashtbl.t = Hashtbl.create 32

(* Find-or-create under the registry mutex. [make] runs inside the
   critical section so two domains racing on the same name cannot
   register twice. *)
let intern name ~kind ~unwrap ~make =
  Mutex.lock registry_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mu)
    (fun () ->
      match Hashtbl.find_opt metrics name with
      | Some m -> (
        match unwrap m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Registry.%s: %S is already a different kind" kind
               name))
      | None ->
        let v, m = make () in
        Hashtbl.replace metrics name m;
        v)

(* --- counters --------------------------------------------------------- *)

let counter name =
  intern name ~kind:"counter"
    ~unwrap:(function Counter c -> Some c | _ -> None)
    ~make:(fun () ->
      let mu = Mutex.create () in
      let cells = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let cell = { v = 0 } in
            Mutex.lock mu;
            cells := cell :: !cells;
            Mutex.unlock mu;
            cell)
      in
      let c = { c_name = name; c_mu = mu; c_cells = cells; c_key = key } in
      (c, Counter c))

let cell c = Domain.DLS.get c.c_key

let incr c =
  let cl = cell c in
  cl.v <- cl.v + 1

let add c n =
  let cl = cell c in
  cl.v <- cl.v + n

let counter_value c =
  Mutex.lock c.c_mu;
  let s = List.fold_left (fun acc cell -> acc + cell.v) 0 !(c.c_cells) in
  Mutex.unlock c.c_mu;
  s

let counter_reset c =
  Mutex.lock c.c_mu;
  List.iter (fun cell -> cell.v <- 0) !(c.c_cells);
  Mutex.unlock c.c_mu

(* --- gauges ----------------------------------------------------------- *)

let gauge name =
  intern name ~kind:"gauge"
    ~unwrap:(function Gauge g -> Some g | _ -> None)
    ~make:(fun () ->
      let mu = Mutex.create () in
      let cells = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let cell = { g = 0. } in
            Mutex.lock mu;
            cells := cell :: !cells;
            Mutex.unlock mu;
            cell)
      in
      let g = { g_name = name; g_mu = mu; g_cells = cells; g_key = key } in
      (g, Gauge g))

let gauge_cell g = Domain.DLS.get g.g_key
let gauge_set g v = (gauge_cell g).g <- v

let gauge_add g v =
  let cl = gauge_cell g in
  cl.g <- cl.g +. v

let gauge_value g =
  Mutex.lock g.g_mu;
  let s = List.fold_left (fun acc cell -> acc +. cell.g) 0. !(g.g_cells) in
  Mutex.unlock g.g_mu;
  s

let gauge_reset g =
  Mutex.lock g.g_mu;
  List.iter (fun cell -> cell.g <- 0.) !(g.g_cells);
  Mutex.unlock g.g_mu

(* --- histograms ------------------------------------------------------- *)

let histogram name =
  intern name ~kind:"histogram"
    ~unwrap:(function Histogram h -> Some h | _ -> None)
    ~make:(fun () ->
      let mu = Mutex.create () in
      let cells = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let cell =
              {
                buckets = Array.make n_buckets 0;
                n = 0;
                sum = 0.;
                mn = infinity;
                mx = neg_infinity;
              }
            in
            Mutex.lock mu;
            cells := cell :: !cells;
            Mutex.unlock mu;
            cell)
      in
      let h = { h_name = name; h_mu = mu; h_cells = cells; h_key = key } in
      (h, Histogram h))

let bucket_index v =
  if Float.is_nan v || v <= 0. then 0
  else if v = infinity then n_buckets - 1
  else begin
    let _, e = Float.frexp v in
    if e < min_exp then 0
    else if e > max_exp then n_buckets - 1
    else e - min_exp + 1
  end

let observe h v =
  let cell = Domain.DLS.get h.h_key in
  let i = bucket_index v in
  cell.buckets.(i) <- cell.buckets.(i) + 1;
  cell.n <- cell.n + 1;
  cell.sum <- cell.sum +. v;
  if v < cell.mn then cell.mn <- v;
  if v > cell.mx then cell.mx <- v

let bucket_bounds i =
  if i = 0 then (neg_infinity, Float.ldexp 1. (min_exp - 1))
  else if i = n_buckets - 1 then (Float.ldexp 1. max_exp, infinity)
  else
    let e = min_exp + i - 1 in
    (Float.ldexp 1. (e - 1), Float.ldexp 1. e)

let histogram_value h =
  Mutex.lock h.h_mu;
  let merged = Array.make n_buckets 0 in
  let n = ref 0 and sum = ref 0. in
  let mn = ref infinity and mx = ref neg_infinity in
  List.iter
    (fun cell ->
      Array.iteri (fun i k -> merged.(i) <- merged.(i) + k) cell.buckets;
      n := !n + cell.n;
      sum := !sum +. cell.sum;
      if cell.mn < !mn then mn := cell.mn;
      if cell.mx > !mx then mx := cell.mx)
    !(h.h_cells);
  Mutex.unlock h.h_mu;
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if merged.(i) > 0 then begin
      let lo, hi = bucket_bounds i in
      buckets := (lo, hi, merged.(i)) :: !buckets
    end
  done;
  { h_count = !n; h_sum = !sum; h_min = !mn; h_max = !mx; h_buckets = !buckets }

(* A log-bucket histogram only remembers counts per power-of-two range,
   so a quantile is estimated: walk the cumulative counts to the bucket
   holding the target rank and interpolate linearly inside it. The
   tracked exact min/max replace the unbounded edges of the underflow/
   overflow buckets and clamp the estimate, so q=0 and q=1 are exact. *)
let quantile (s : histogram_snapshot) q =
  if s.h_count = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int s.h_count in
    let clamp v = Float.max s.h_min (Float.min s.h_max v) in
    let rec walk cum = function
      | [] -> s.h_max
      | (lo, hi, k) :: rest ->
        let cum' = cum +. float_of_int k in
        if cum' >= target || rest = [] then begin
          let lo = if Float.is_finite lo then lo else s.h_min in
          let hi = if Float.is_finite hi then hi else s.h_max in
          let frac = if k = 0 then 0. else (target -. cum) /. float_of_int k in
          clamp (lo +. (frac *. (hi -. lo)))
        end
        else walk cum' rest
    in
    walk 0. s.h_buckets
  end

(* --- snapshots -------------------------------------------------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let all_metrics () =
  Mutex.lock registry_mu;
  let l = Hashtbl.fold (fun name m acc -> (name, m) :: acc) metrics [] in
  Mutex.unlock registry_mu;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let snapshot () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> counters := (name, counter_value c) :: !counters
      | Gauge g -> gauges := (name, gauge_value g) :: !gauges
      | Histogram h -> histograms := (name, histogram_value h) :: !histograms)
    (all_metrics ());
  {
    counters = List.rev !counters;
    gauges = List.rev !gauges;
    histograms = List.rev !histograms;
  }

let reset () =
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c -> counter_reset c
      | Gauge g -> gauge_reset g
      | Histogram h ->
        Mutex.lock h.h_mu;
        List.iter
          (fun cell ->
            Array.fill cell.buckets 0 n_buckets 0;
            cell.n <- 0;
            cell.sum <- 0.;
            cell.mn <- infinity;
            cell.mx <- neg_infinity)
          !(h.h_cells);
        Mutex.unlock h.h_mu)
    (all_metrics ())

(* --- JSON ------------------------------------------------------------- *)

let to_json s =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let obj fields render =
    List.iteri
      (fun i (name, v) ->
        add "    \"%s\": " (Json.escape name);
        render v;
        add "%s\n" (if i = List.length fields - 1 then "" else ","))
      fields
  in
  add "{\n";
  add "  \"schema\": \"sunflow-obs-metrics/2\",\n";
  add "  \"counters\": {\n";
  obj s.counters (fun v -> add "%d" v);
  add "  },\n";
  add "  \"gauges\": {\n";
  obj s.gauges (fun v -> add "%s" (Json.float v));
  add "  },\n";
  add "  \"histograms\": {\n";
  obj s.histograms (fun (h : histogram_snapshot) ->
      add
        "{\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"p50\": %s, \
         \"p95\": %s, \"p99\": %s, \"buckets\": ["
        h.h_count (Json.float h.h_sum) (Json.float h.h_min)
        (Json.float h.h_max)
        (Json.float (quantile h 0.5))
        (Json.float (quantile h 0.95))
        (Json.float (quantile h 0.99));
      List.iteri
        (fun i (lo, hi, k) ->
          add "%s{\"lo\": %s, \"hi\": %s, \"count\": %d}"
            (if i = 0 then "" else ", ")
            (Json.float lo) (Json.float hi) k)
        h.h_buckets;
      add "]}");
  add "  }\n";
  add "}\n";
  Buffer.contents buf
