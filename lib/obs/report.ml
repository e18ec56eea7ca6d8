type coflow_row = {
  c_width : int;
  c_bytes : float;
  c_breakdown : Attrib.breakdown;
}

type t = {
  r_run : (string * string) list;
  r_makespan_s : float;
  r_events : int;
  r_setups : int;
  r_rows : coflow_row list;
  r_ports : (string * float * float) list;
  r_top_k : int;
}

let fl x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

(* Power-of-two classes, matching the paper's narrow/wide split at a
   finer grain: {1}, {2}, {3-4}, {5-8}, ... *)
let width_bin w =
  if w <= 0 then "0"
  else if w <= 2 then string_of_int w
  else begin
    let hi = ref 2 in
    while !hi < w do
      hi := !hi * 2
    done;
    Printf.sprintf "%d-%d" ((!hi / 2) + 1) !hi
  end

(* order key for a bin: its upper bound *)
let width_bin_key w =
  if w <= 0 then 0
  else begin
    let hi = ref 1 in
    while !hi < w do
      hi := !hi * 2
    done;
    !hi
  end

let cdf_fractions = [ 0.; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1. ]

(* exact quantile of a sorted array by linear index interpolation *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let lo = max 0 (min (n - 1) lo) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let body_json r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = List.length r.r_rows in
  add "{\n";
  add "  \"coflows\": %d,\n" n;
  add "  \"events\": %d,\n" r.r_events;
  add "  \"setups\": %d,\n" r.r_setups;
  add "  \"makespan_s\": %s,\n" (fl r.r_makespan_s);
  (* aggregate blame *)
  let wait = ref 0. and setup = ref 0. and tx = ref 0. in
  let blocked = ref 0. and cct = ref 0. in
  List.iter
    (fun { c_breakdown = b; _ } ->
      wait := !wait +. b.Attrib.a_wait;
      setup := !setup +. b.Attrib.a_setup;
      tx := !tx +. b.Attrib.a_transfer;
      blocked := !blocked +. b.Attrib.a_blocked;
      cct := !cct +. b.Attrib.a_cct)
    r.r_rows;
  add
    "  \"blame\": {\"wait_s\": %s, \"setup_s\": %s, \"transfer_s\": %s, \
     \"blocked_s\": %s, \"total_cct_s\": %s},\n"
    (fl !wait) (fl !setup) (fl !tx) (fl !blocked) (fl !cct);
  (* CCT CDFs binned by width *)
  let bins : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let key = width_bin_key row.c_width in
      match Hashtbl.find_opt bins key with
      | Some l -> l := row.c_breakdown.Attrib.a_cct :: !l
      | None -> Hashtbl.add bins key (ref [ row.c_breakdown.Attrib.a_cct ]))
    r.r_rows;
  let bin_rows =
    Hashtbl.fold (fun k l acc -> (k, !l) :: acc) bins []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  add "  \"cct_cdf\": [";
  List.iteri
    (fun i (key, ccts) ->
      let a = Array.of_list ccts in
      Array.sort Float.compare a;
      add "%s\n    {\"width\": \"%s\", \"count\": %d, \"quantiles\": ["
        (if i = 0 then "" else ",")
        (width_bin key) (Array.length a);
      List.iteri
        (fun j q ->
          add "%s{\"q\": %s, \"cct_s\": %s}"
            (if j = 0 then "" else ", ")
            (fl q)
            (fl (quantile_sorted a q)))
        cdf_fractions;
      add "]}")
    bin_rows;
  add "\n  ],\n";
  (* per-port duty cycle *)
  let span = r.r_makespan_s in
  add "  \"ports\": [";
  List.iteri
    (fun i (port, tx_s, su_s) ->
      let frac v = if span > 0. then v /. span else 0. in
      add
        "%s\n    {\"port\": \"%s\", \"transmit_s\": %s, \"setup_s\": %s, \
         \"utilization\": %s, \"reconfiguring\": %s}"
        (if i = 0 then "" else ",")
        port (fl tx_s) (fl su_s)
        (fl (frac tx_s))
        (fl (frac su_s)))
    r.r_ports;
  add "\n  ],\n";
  (* top-K slowest with blame vectors *)
  let slowest =
    List.stable_sort
      (fun a b ->
        match Float.compare b.c_breakdown.Attrib.a_cct a.c_breakdown.Attrib.a_cct with
        | 0 -> compare a.c_breakdown.Attrib.a_id b.c_breakdown.Attrib.a_id
        | c -> c)
      r.r_rows
  in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  add "  \"slowest\": [";
  List.iteri
    (fun i row ->
      let b = row.c_breakdown in
      add
        "%s\n    {\"coflow\": %d, \"width\": %d, \"bytes\": %s, \"cct_s\": %s, \
         \"wait_s\": %s, \"setup_s\": %s, \"transfer_s\": %s, \"blocked_s\": \
         %s, \"blame\": ["
        (if i = 0 then "" else ",")
        b.Attrib.a_id row.c_width (fl row.c_bytes) (fl b.Attrib.a_cct)
        (fl b.Attrib.a_wait) (fl b.Attrib.a_setup) (fl b.Attrib.a_transfer)
        (fl b.Attrib.a_blocked);
      List.iteri
        (fun j (bl : Attrib.blame) ->
          add "%s{\"coflow\": %d, \"seconds\": %s}"
            (if j = 0 then "" else ", ")
            bl.Attrib.b_coflow (fl bl.Attrib.b_seconds))
        b.Attrib.a_blame;
      add "]}")
    (take r.r_top_k slowest);
  add "\n  ]\n";
  add "}";
  Buffer.contents buf

let to_json r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "\"schema\": \"sunflow-report/1\",\n";
  add "\"run\": {";
  List.iteri
    (fun i (k, v) ->
      add "%s\n  \"%s\": %s" (if i = 0 then "" else ",") (Json.escape k) v)
    r.r_run;
  add "\n},\n";
  add "\"body\": %s\n" (body_json r);
  add "}\n";
  Buffer.contents buf
