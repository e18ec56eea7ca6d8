module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units

type t = { n_ports : int; coflows : Coflow.t list }

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let tokens_of_line s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")

let int_tok line tok =
  match int_of_string_opt tok with
  | Some v -> v
  | None -> fail line "expected an integer, got %S" tok

(* [float_of_string] also accepts "nan", "inf" and overflowing
   literals such as "1e400"; none of them is a time or a size *)
let float_tok line tok =
  match float_of_string_opt tok with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail line "expected a finite number, got %S" tok
  | None -> fail line "expected a number, got %S" tok

let parse_coflow ~n_ports ~line toks =
  let check_rack r =
    if r < 0 || r >= n_ports then fail line "rack %d out of range [0, %d)" r n_ports
  in
  match toks with
  | id :: arrival_ms :: n_mappers :: rest ->
    let id = int_tok line id in
    let arrival = float_tok line arrival_ms /. 1e3 in
    if arrival < 0. then fail line "negative arrival time";
    let n_mappers = int_tok line n_mappers in
    if n_mappers <= 0 then fail line "coflow %d has no mappers" id;
    if List.length rest < n_mappers + 1 then
      fail line "coflow %d: truncated mapper list" id;
    let rec split k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | tok :: rest -> split (k - 1) (int_tok line tok :: acc) rest
        | [] -> fail line "coflow %d: truncated mapper list" id
    in
    let mappers, rest = split n_mappers [] rest in
    List.iter check_rack mappers;
    (match rest with
    | n_reducers :: rest ->
      let n_reducers = int_tok line n_reducers in
      if n_reducers <= 0 then fail line "coflow %d has no reducers" id;
      if List.length rest <> n_reducers then
        fail line "coflow %d: expected %d reducers, found %d" id n_reducers
          (List.length rest);
      let demand = Demand.create () in
      List.iter
        (fun tok ->
          match String.split_on_char ':' tok with
          | [ rack; size_mb ] ->
            let rack = int_tok line rack in
            check_rack rack;
            let size = Units.mb (float_tok line size_mb) in
            if size <= 0. then fail line "coflow %d: non-positive size %S" id tok;
            let share = size /. float_of_int n_mappers in
            (* a finite size can still overflow in bytes or summed *)
            List.iter
              (fun m ->
                try Demand.add demand m rack share
                with Invalid_argument _ ->
                  fail line "coflow %d: size %S overflows" id tok)
              mappers
          | _ -> fail line "coflow %d: malformed reducer %S" id tok)
        rest;
      Coflow.make ~id ~arrival demand
    | [] -> fail line "coflow %d: missing reducer count" id)
  | _ -> fail line "coflow line needs at least id, arrival and mapper count"

(* --- streaming reader ---

   One line at a time over a [next] thunk, so pipes and stdin work and
   resident memory stays O(1 coflow) regardless of stream length. The
   header-count check sits where a stream can make it: at EOF for a
   shortfall, at the first surplus line (after counting the rest, so the
   message gives the file's full count) for an excess. *)

let channel_lines ic () =
  match input_line ic with l -> Some l | exception End_of_file -> None

let no_header ~n_ports:_ ~n_coflows:_ = ()

(* Pull core: parse the header eagerly, then hand back a generator
   producing one [(line, coflow)] per call. *)
let read_stream next ~on_header =
  let lineno = ref 0 in
  let rec next_meaningful () =
    match next () with
    | None -> None
    | Some raw ->
      incr lineno;
      let l = String.trim raw in
      if l = "" || l.[0] = '#' then next_meaningful () else Some (!lineno, l)
  in
  match next_meaningful () with
  | None -> raise (Parse_error { line = 1; message = "empty trace" })
  | Some (line0, header) ->
    (match tokens_of_line header with
    | [ n_ports; n_coflows ] ->
      let n_ports = int_tok line0 n_ports in
      let n_coflows = int_tok line0 n_coflows in
      if n_ports <= 0 then fail line0 "non-positive port count";
      on_header ~n_ports ~n_coflows;
      let count = ref 0 in
      let eof = ref false in
      begin
        fun () ->
          if !eof then None
          else
            match next_meaningful () with
            | None ->
              eof := true;
              if !count <> n_coflows then
                fail line0 "header promises %d coflows, file has %d" n_coflows
                  !count;
              None
            | Some (line, l) ->
              if !count = n_coflows then begin
                (* surplus line: count the rest so the message gives
                   the file's full count *)
                let rec drain n =
                  match next_meaningful () with
                  | None -> n
                  | Some _ -> drain (n + 1)
                in
                fail line0 "header promises %d coflows, file has %d" n_coflows
                  (drain (!count + 1))
              end;
              let c = parse_coflow ~n_ports ~line (tokens_of_line l) in
              incr count;
              Some (line, c)
      end
    | _ -> fail line0 "header must be: <num_racks> <num_coflows>")

let reader ?(on_header = no_header) ic =
  let pull = read_stream (channel_lines ic) ~on_header in
  fun () -> Option.map snd (pull ())

let fold ?on_header ic ~init ~f =
  let pull = reader ?on_header ic in
  let rec go acc = match pull () with None -> acc | Some c -> go (f acc c) in
  go init

(* The batch readers: the stream core plus the duplicate-id check a
   stream cannot afford (it needs every id ever seen). *)
let collect next =
  let ports = ref 0 and seen = Hashtbl.create 64 in
  let pull =
    read_stream next ~on_header:(fun ~n_ports ~n_coflows:_ -> ports := n_ports)
  in
  let rec go acc =
    match pull () with
    | None -> { n_ports = !ports; coflows = List.rev acc }
    | Some (line, (c : Coflow.t)) ->
      if Hashtbl.mem seen c.id then fail line "duplicate Coflow id %d" c.id;
      Hashtbl.replace seen c.id ();
      go (c :: acc)
  in
  go []

let parse text =
  let lines = ref (String.split_on_char '\n' text) in
  collect (fun () ->
      match !lines with
      | [] -> None
      | l :: rest ->
        lines := rest;
        Some l)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> collect (channel_lines ic))

(* --- full-precision serialisation ---

   The format stores arrivals as decimal milliseconds and sizes as
   decimal MB. The writer used to print ["%.0f"] / ["%.6g"], so a
   save/load cycle quantised arrivals to whole milliseconds and sizes
   to six significant digits — silently perturbing every replay of a
   re-saved trace. We now emit, for each value, a decimal literal
   whose *parse* (divide the ms by 1e3; scale the MB by 1e6, split it
   over the mappers and re-sum the shares) reproduces the in-memory
   float bit-for-bit whenever such a literal exists. *)

(* Shortest decimal literal that [float_of_string]s back to [x]
   exactly; 17 significant digits always suffice for a double. *)
let shortest_exact x =
  if Float.is_integer x && Float.abs x < 1e16 then Printf.sprintf "%.0f" x
  else begin
    let rec go p =
      if p >= 17 then Printf.sprintf "%.17g" x
      else
        let s = Printf.sprintf "%.*g" p x in
        if float_of_string s = x then s else go (p + 1)
    in
    go 1
  end

(* Find a non-negative double [y] with [replay y = target], starting
   the search at [guess]. [replay] must be monotone non-decreasing
   (both of ours are: [y /. 1e3], and a sum of [n] copies of
   [y *. 1e6 /. n]), so the preimage can be bisected over the float
   bit patterns. Not every double has one — a target outside the
   image of [replay] (possible for values that never came from a
   trace file) falls back to the nearest achievable double. *)
let exact_preimage ~replay ~guess ~target =
  if replay guess = target then guess
  else begin
    let max_bits = Int64.bits_of_float infinity in
    let clamp b =
      if Int64.compare b 0L < 0 then 0L
      else if Int64.compare b max_bits > 0 then max_bits
      else b
    in
    let g = Int64.bits_of_float guess in
    let rec widen step lo hi =
      let rlo = replay (Int64.float_of_bits lo)
      and rhi = replay (Int64.float_of_bits hi) in
      if (rlo <= target && target <= rhi) || step > 62 then (lo, hi)
      else
        let d = Int64.shift_left 1L step in
        widen (step + 1)
          (if rlo > target then clamp (Int64.sub lo d) else lo)
          (if rhi < target then clamp (Int64.add hi d) else hi)
    in
    let rec bisect lo hi =
      if Int64.compare (Int64.sub hi lo) 1L <= 0 then (lo, hi)
      else
        let mid = Int64.add lo (Int64.div (Int64.sub hi lo) 2L) in
        if replay (Int64.float_of_bits mid) < target then bisect mid hi
        else bisect lo mid
    in
    let lo, hi = widen 0 g g in
    let lo, hi = bisect lo hi in
    let err y = Float.abs (replay y -. target) in
    List.fold_left
      (fun best y -> if err y < err best then y else best)
      guess
      [ Int64.float_of_bits lo; Int64.float_of_bits hi ]
  end

let arrival_token arrival =
  shortest_exact
    (exact_preimage ~replay:(fun y -> y /. 1e3) ~guess:(arrival *. 1e3)
       ~target:arrival)

(* The parser splits each reducer total over the mappers and the
   column sum re-adds the [n] equal shares, so the replay must follow
   the same float path. *)
let reducer_token ~n_mappers total =
  let n = float_of_int n_mappers in
  let replay y =
    let share = Units.mb y /. n in
    let acc = ref 0. in
    for _ = 1 to n_mappers do
      acc := !acc +. share
    done;
    !acc
  in
  shortest_exact (exact_preimage ~replay ~guess:(Units.to_mb total) ~target:total)

let coflow_line buf (c : Coflow.t) =
  let senders = Demand.senders c.demand in
  let receivers = Demand.receivers c.demand in
  Buffer.add_string buf
    (Printf.sprintf "%d %s %d" c.id (arrival_token c.arrival)
       (List.length senders));
  List.iter (fun m -> Buffer.add_string buf (Printf.sprintf " %d" m)) senders;
  Buffer.add_string buf (Printf.sprintf " %d" (List.length receivers));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf " %d:%s" r
           (reducer_token ~n_mappers:(List.length senders)
              (Demand.col_sum c.demand r))))
    receivers;
  Buffer.add_char buf '\n'

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" t.n_ports (List.length t.coflows));
  List.iter (coflow_line buf) t.coflows;
  Buffer.contents buf

let save path t =
  let text = to_string t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      (* flush inside the protected section so write errors surface as
         exceptions rather than vanishing in [close_out_noerr] *)
      flush oc)

let total_bytes t =
  List.fold_left (fun acc c -> acc +. Coflow.total_bytes c) 0. t.coflows

let n_coflows t = List.length t.coflows
