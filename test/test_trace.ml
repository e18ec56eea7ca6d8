module Trace = Sunflow_trace.Trace
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units

let sample_text =
  "150 2\n\
   0 0 2 10 20 1 30:100\n\
   1 500 1 5 2 6:4 7:2\n"

let test_parse () =
  let t = Trace.parse sample_text in
  Alcotest.(check int) "ports" 150 t.Trace.n_ports;
  Alcotest.(check int) "coflows" 2 (Trace.n_coflows t);
  match t.Trace.coflows with
  | [ c0; c1 ] ->
    Util.check_close "arrival ms to s" 0.5 c1.Coflow.arrival;
    (* coflow 0: two mappers share reducer 30's 100 MB evenly *)
    Util.check_close "even split" (Units.mb 50.) (Demand.get c0.demand 10 30);
    Util.check_close "even split" (Units.mb 50.) (Demand.get c0.demand 20 30);
    (* coflow 1: single mapper, two reducers *)
    Util.check_close "full size" (Units.mb 4.) (Demand.get c1.demand 5 6);
    Util.check_close "full size" (Units.mb 2.) (Demand.get c1.demand 5 7);
    Alcotest.(check string) "category" "O2M"
      (Coflow.Category.to_string (Coflow.category c1))
  | _ -> Alcotest.fail "wrong shape"

let test_parse_skips_comments () =
  let t = Trace.parse "# a comment\n\n2 1\n0 0 1 0 1 1:5\n" in
  Alcotest.(check int) "one coflow" 1 (Trace.n_coflows t)

let expect_error ~line text =
  match Trace.parse text with
  | exception Trace.Parse_error e ->
    Alcotest.(check int) "line number" line e.line
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_errors () =
  expect_error ~line:1 "";
  expect_error ~line:1 "abc def\n";
  (* header promises two coflows, file has one *)
  expect_error ~line:1 "10 2\n0 0 1 0 1 1:5\n";
  (* rack out of range *)
  expect_error ~line:2 "10 1\n0 0 1 99 1 1:5\n";
  (* malformed reducer *)
  expect_error ~line:2 "10 1\n0 0 1 0 1 15\n";
  (* non-positive size *)
  expect_error ~line:2 "10 1\n0 0 1 0 1 1:0\n";
  (* truncated mapper list *)
  expect_error ~line:2 "10 1\n0 0 3 1 2\n";
  (* negative arrival *)
  expect_error ~line:2 "10 1\n0 -5 1 0 1 1:5\n";
  (* duplicate Coflow id: the second occurrence is the offender *)
  expect_error ~line:3 "10 2\n0 0 1 0 1 1:5\n0 5 1 0 1 1:5\n"

let test_roundtrip_even_shuffle () =
  let t = Trace.parse sample_text in
  let t' = Trace.parse (Trace.to_string t) in
  Alcotest.(check int) "coflows" 2 (Trace.n_coflows t');
  List.iter2
    (fun (a : Coflow.t) (b : Coflow.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "coflow %d demand preserved" a.id)
        true
        (Demand.equal ~eps:1. a.demand b.demand))
    t.Trace.coflows t'.Trace.coflows

(* The writer used to quantise arrivals to whole milliseconds and
   sizes to six significant digits; both must now survive a round
   trip bit-for-bit. *)
let test_roundtrip_full_precision () =
  let text = "10 1\n0 0.123456789 2 1 2 1 5:3.141592653589793\n" in
  let t = Trace.parse text in
  let t' = Trace.parse (Trace.to_string t) in
  match (t.Trace.coflows, t'.Trace.coflows) with
  | [ a ], [ b ] ->
    Alcotest.(check bool)
      "sub-ms arrival exact" true
      (a.Coflow.arrival = b.Coflow.arrival);
    Alcotest.(check bool)
      "17-digit size exact" true
      (Demand.col_sum a.Coflow.demand 5 = Demand.col_sum b.Coflow.demand 5)
  | _ -> Alcotest.fail "wrong shape"

(* QCheck: parse ∘ to_string is the identity on ports, ids, arrivals
   and per-receiver column sums for any trace in the parse image (the
   only per-flow information the format stores; see the .mli). One
   round trip is also a serialisation fixed point. *)
let prop_roundtrip_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"roundtrip identity on the parse image"
       ~count:300
       QCheck2.Gen.(int_range 0 100_000)
       (fun seed ->
         let rng = Sunflow_stats.Rng.create seed in
         let n_ports = 8 in
         let n = 1 + Sunflow_stats.Rng.int rng 4 in
         let buf = Buffer.create 256 in
         Buffer.add_string buf (Printf.sprintf "%d %d\n" n_ports n);
         for id = 0 to n - 1 do
           let n_mappers = 1 + Sunflow_stats.Rng.int rng 3 in
           let mappers = List.init n_mappers (fun i -> i * 2) in
           Buffer.add_string buf
             (Printf.sprintf "%d %.17g %d" id
                (Sunflow_stats.Rng.float rng 5000.)
                n_mappers);
           List.iter
             (fun m -> Buffer.add_string buf (Printf.sprintf " %d" m))
             mappers;
           let n_reducers = 1 + Sunflow_stats.Rng.int rng 2 in
           Buffer.add_string buf (Printf.sprintf " %d" n_reducers);
           for r = 0 to n_reducers - 1 do
             Buffer.add_string buf
               (Printf.sprintf " %d:%.17g"
                  ((r * 2) + 1)
                  (0.1 +. Sunflow_stats.Rng.float rng 500.))
           done;
           Buffer.add_char buf '\n'
         done;
         let t1 = Trace.parse (Buffer.contents buf) in
         let s1 = Trace.to_string t1 in
         let t2 = Trace.parse s1 in
         List.for_all2
           (fun (a : Coflow.t) (b : Coflow.t) ->
             a.id = b.id
             && a.arrival = b.arrival
             && Demand.senders a.demand = Demand.senders b.demand
             && Demand.receivers a.demand = Demand.receivers b.demand
             && List.for_all
                  (fun r ->
                    Demand.col_sum a.demand r = Demand.col_sum b.demand r)
                  (Demand.receivers a.demand))
           t1.Trace.coflows t2.Trace.coflows
         && Trace.to_string t2 = s1))

let test_save_load () =
  let t = Trace.parse sample_text in
  let path = Filename.temp_file "sunflow" ".trace" in
  Trace.save path t;
  let t' = Trace.load path in
  Sys.remove path;
  Util.check_close "bytes preserved" (Trace.total_bytes t) (Trace.total_bytes t')

let test_totals () =
  let t = Trace.parse sample_text in
  Util.check_close "total" (Units.mb 106.) (Trace.total_bytes t)

(* --- streaming readers (serve-mode plumbing) --- *)

let with_text_channel text f =
  let path = Filename.temp_file "sunflow" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let check_coflows_equal name expected got =
  Alcotest.(check int) (name ^ ": count") (List.length expected) (List.length got);
  List.iter2
    (fun (a : Coflow.t) (b : Coflow.t) ->
      Alcotest.(check int) (name ^ ": id") a.id b.id;
      Alcotest.(check bool) (name ^ ": arrival") true (a.arrival = b.arrival);
      Alcotest.(check bool)
        (name ^ ": demand") true
        (Demand.entries a.demand = Demand.entries b.demand))
    expected got

let test_fold_matches_parse () =
  let t = Trace.parse sample_text in
  let header = ref (0, 0) in
  let got =
    with_text_channel sample_text (fun ic ->
        Trace.fold
          ~on_header:(fun ~n_ports ~n_coflows -> header := (n_ports, n_coflows))
          ic ~init:[]
          ~f:(fun acc c -> c :: acc))
    |> List.rev
  in
  Alcotest.(check (pair int int)) "header seen" (150, 2) !header;
  check_coflows_equal "fold" t.Trace.coflows got

let test_reader_matches_parse () =
  let t = Trace.parse sample_text in
  let got =
    with_text_channel sample_text (fun ic ->
        let next = Trace.reader ic in
        let rec pull acc =
          match next () with None -> List.rev acc | Some c -> pull (c :: acc)
        in
        pull [])
  in
  check_coflows_equal "reader" t.Trace.coflows got;
  (* the reader stays exhausted after EOF *)
  Alcotest.(check bool) "sticky EOF" true
    (with_text_channel sample_text (fun ic ->
         let next = Trace.reader ic in
         let rec drain () = match next () with None -> () | Some _ -> drain () in
         drain ();
         next () = None))

(* the whole point of the rewrite: reading from a non-seekable fd (a
   pipe, stdin) must work — the old loader measured the file size *)
let test_fold_over_pipe () =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  output_string oc sample_text;
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let t = Trace.parse sample_text in
  let got = List.rev (Trace.fold ic ~init:[] ~f:(fun acc c -> c :: acc)) in
  check_coflows_equal "pipe" t.Trace.coflows got

let test_stream_error_semantics () =
  (* header shortfall is detected at EOF and reported at the header
     line, same as the batch parser *)
  (match
     with_text_channel "10 2\n0 0 1 0 1 1:5\n" (fun ic ->
         Trace.fold ic ~init:0 ~f:(fun n _ -> n + 1))
   with
  | exception Trace.Parse_error e ->
    Alcotest.(check int) "shortfall at header line" 1 e.line
  | _ -> Alcotest.fail "expected a parse error");
  (* fold itself keeps no id set (bounded memory): duplicate ids
     stream through; [load] still rejects them *)
  let dup = "10 2\n0 0 1 0 1 1:5\n0 5 1 0 1 1:5\n" in
  Alcotest.(check int) "fold streams duplicate ids" 2
    (with_text_channel dup (fun ic ->
         Trace.fold ic ~init:0 ~f:(fun n _ -> n + 1)));
  let path = Filename.temp_file "sunflow" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc dup;
  close_out oc;
  match Trace.load path with
  | exception Trace.Parse_error e ->
    Alcotest.(check int) "load rejects duplicate at its line" 3 e.line
  | _ -> Alcotest.fail "expected a duplicate-id error"

(* [float_of_string] parses "nan", "inf" and "1e400" (to infinity);
   none of them may reach the scheduler as an arrival or a size. NaN
   would pass the [< 0.] / [<= 0.] guards. Both the batch parser and
   the streaming reader must reject each at its line. *)
let test_non_finite_rejected () =
  let bad_values = [ "nan"; "inf"; "-inf"; "1e400"; "infinity" ] in
  let head = "10 2\n0 0 1 0 1 1:5\n" in
  let texts =
    List.concat_map
      (fun v ->
        [
          ("arrival " ^ v, Printf.sprintf "%s1 %s 1 0 1 1:5\n" head v);
          ("size " ^ v, Printf.sprintf "%s1 5 1 0 1 1:%s\n" head v);
        ])
      bad_values
    (* finite megabytes that overflow once converted to bytes *)
    @ [ ("size overflow", head ^ "1 5 1 0 1 1:1e305\n") ]
  in
  List.iter
    (fun (what, text) ->
      (match Trace.parse text with
      | exception Trace.Parse_error e ->
        Alcotest.(check int) ("parse: " ^ what) 3 e.line
      | _ -> Alcotest.failf "parse accepted %s" what);
      match
        with_text_channel text (fun ic ->
            let next = Trace.reader ic in
            let rec pull n =
              match next () with None -> n | Some _ -> pull (n + 1)
            in
            pull 0)
      with
      | exception Trace.Parse_error e ->
        Alcotest.(check int) ("reader: " ^ what) 3 e.line
      | n -> Alcotest.failf "reader accepted %s (%d coflows)" what n)
    texts;
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  List.iter
    (fun v ->
      raises "Coflow.make non-finite arrival" (fun () ->
          ignore (Coflow.make ~id:0 ~arrival:v (Demand.create ())));
      raises "Demand.set non-finite value" (fun () ->
          Demand.set (Demand.create ()) 0 1 v))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let suite =
  [
    Alcotest.test_case "parse" `Quick test_parse;
    Alcotest.test_case "comments and blanks" `Quick test_parse_skips_comments;
    Alcotest.test_case "parse errors carry line numbers" `Quick
      test_parse_errors;
    Alcotest.test_case "roundtrip even shuffle" `Quick
      test_roundtrip_even_shuffle;
    Alcotest.test_case "roundtrip full precision" `Quick
      test_roundtrip_full_precision;
    prop_roundtrip_identity;
    Alcotest.test_case "save and load" `Quick test_save_load;
    Alcotest.test_case "totals" `Quick test_totals;
    Alcotest.test_case "fold matches parse" `Quick test_fold_matches_parse;
    Alcotest.test_case "reader matches parse" `Quick test_reader_matches_parse;
    Alcotest.test_case "fold over a pipe" `Quick test_fold_over_pipe;
    Alcotest.test_case "streaming error semantics" `Quick
      test_stream_error_semantics;
    Alcotest.test_case "non-finite numbers rejected" `Quick
      test_non_finite_rejected;
  ]
