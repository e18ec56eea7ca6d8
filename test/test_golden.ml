(* Golden replay digests: fixed small traces replayed through every
   engine, each result's digest compared against a constant. The
   equivalence suites compare two engines with each other, so a drift
   both share slips past them; these constants pin the absolute
   decisions, so any change to one fails here.

   A digest is the MD5 of the canonical text of the result, every float
   written in hex ([%h]), so it is exact to the bit. After a deliberate
   change of decisions, re-record the constants from the failures'
   "got" values. *)

module Coflow = Sunflow_core.Coflow
module Inter = Sunflow_core.Inter
module Bounds = Sunflow_core.Bounds
module Units = Sunflow_core.Units
module Circuit_sim = Sunflow_sim.Circuit_sim
module Sim_result = Sunflow_sim.Sim_result
module Serve = Sunflow_serve.Serve
module Synthetic = Sunflow_trace.Synthetic
module Trace = Sunflow_trace.Trace

let bandwidth = Test_incremental.bandwidth
let delta = Units.ms 10.

let hex b (k, t) = Printf.bprintf b "%d:%h;" k t

let digest_result (r : Sim_result.t) =
  let b = Buffer.create 1024 in
  List.iter (hex b) r.ccts;
  Buffer.add_char b '|';
  List.iter (hex b) r.finishes;
  Printf.bprintf b "|%h|%d|%d" r.makespan r.n_events r.total_setups;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* an 80-Coflow synthetic trace, arrivals packed into 2 s so Coflows
   contend *)
let synthetic_trace () =
  (Synthetic.generate
     { Synthetic.default_params with seed = 9; n_coflows = 80; span = 2. })
    .Trace.coflows

let traces () =
  [
    ("storm", Test_incremental.storm_trace ());
    ("pods", Test_incremental.pod_trace ());
    ("synthetic", synthetic_trace ());
  ]

let check_digests label expected got =
  List.iter2
    (fun (name, want) (name', d) ->
      Alcotest.(check string) (label ^ ": " ^ name ^ " names") name name';
      Alcotest.(check string) (label ^ ": " ^ name) want d)
    expected got

(* trace x policy x buckets {0, 4} through the incremental engine *)
let expected_incremental =
  [
    ("storm/fifo/b0", "ab70afa4649ffc353cffb244b9adefdd");
    ("storm/fifo/b4", "ab70afa4649ffc353cffb244b9adefdd");
    ("storm/scf/b0", "7c21dcab106cf6cdce29bd09ea39bc47");
    ("storm/scf/b4", "ab70afa4649ffc353cffb244b9adefdd");
    ("storm/classes/b0", "779db8ff8b2aa6eb9db63fcb4e57ea94");
    ("storm/classes/b4", "ab70afa4649ffc353cffb244b9adefdd");
    ("storm/custom/b0", "e1daf72ba48ea84a104ad212655f4db8");
    ("storm/custom/b4", "e1daf72ba48ea84a104ad212655f4db8");
    ("pods/fifo/b0", "831e2661eca0bc65961430b66c8e16b1");
    ("pods/fifo/b4", "831e2661eca0bc65961430b66c8e16b1");
    ("pods/scf/b0", "53da2e95a1a77c67b7772e57439bdec1");
    ("pods/scf/b4", "831e2661eca0bc65961430b66c8e16b1");
    ("pods/classes/b0", "cd3b327b2049a4c16d9d850c39831253");
    ("pods/classes/b4", "7ed140231dff549c597c0184a2365c84");
    ("pods/custom/b0", "1a8ce8ca9ca4bcd537118d922f1f9066");
    ("pods/custom/b4", "1a8ce8ca9ca4bcd537118d922f1f9066");
    ("synthetic/fifo/b0", "89ca524b3d3dce354eb4cfb7bf9f2f93");
    ("synthetic/fifo/b4", "a56a70b443033e2dc6b7744e3fe6e904");
    ("synthetic/scf/b0", "b3d387f5c97ab99dc4efbede4bea4eb9");
    ("synthetic/scf/b4", "d213148186731da78910d19faa530d29");
    ("synthetic/classes/b0", "5887b08c94ed8ca9df5d363520ebb753");
    ("synthetic/classes/b4", "2733b20d30e270b7347bbe40928ad394");
    ("synthetic/custom/b0", "12dce53f50dc7107bd02780bb2f440e6");
    ("synthetic/custom/b4", "5a0bdafb5a8ca5264d932c00f4dceb44");
  ]

let test_incremental () =
  let got =
    List.concat_map
      (fun (tname, trace) ->
        List.concat_map
          (fun (pname, policy) ->
            List.map
              (fun buckets ->
                ( Printf.sprintf "%s/%s/b%d" tname pname buckets,
                  digest_result
                    (Circuit_sim.replay ~policy ~replan:`Incremental
                       ~config:(Inter.config ~buckets ())
                       ~delta ~bandwidth trace) ))
              [ 0; 4 ])
          Test_incremental.policies)
      (traces ())
  in
  check_digests "incremental" expected_incremental got

(* [`Full] under the total policies: a non-total [Custom] comparator
   leaves ties to the order of the replay's active list *)
let full_policies =
  [
    ("fifo", Inter.Fifo);
    ("scf", Inter.Shortest_first);
    ("classes", Inter.Priority_classes (fun c -> c.Coflow.id mod 2));
    ("custom-total", Inter.Custom (fun a b -> compare b.Coflow.id a.Coflow.id));
  ]

let expected_full =
  [
    ("storm/fifo", "58cecd52b0fcb89440156ca9f0b4c8f4");
    ("storm/scf", "58cecd52b0fcb89440156ca9f0b4c8f4");
    ("storm/classes", "58cecd52b0fcb89440156ca9f0b4c8f4");
    ("storm/custom-total", "58cecd52b0fcb89440156ca9f0b4c8f4");
    ("pods/fifo", "bbb6e3c53296446df611641cea8392ab");
    ("pods/scf", "f4f379fc57c9157ef9c7f6a3a2a5d082");
    ("pods/classes", "78da965a5993b11fc320cfb4533983e4");
    ("pods/custom-total", "509d6c237f7658a35e41e92166097915");
    ("synthetic/fifo", "de4d031c1dbfb51a064a48850b65e996");
    ("synthetic/scf", "30282ba212e20368c46e2d5747ae245d");
    ("synthetic/classes", "bde09d6606e346413972bc9905d645a7");
    ("synthetic/custom-total", "7cb8dc21ad10a610f27c269ea9d9e1c5");
  ]

let test_full () =
  let got =
    List.concat_map
      (fun (tname, trace) ->
        List.map
          (fun (pname, policy) ->
            ( Printf.sprintf "%s/%s" tname pname,
              digest_result
                (Circuit_sim.replay ~policy ~replan:`Full ~delta ~bandwidth
                   trace) ))
          full_policies)
      (traces ())
  in
  check_digests "full" expected_full got

(* [Serve.run] over each trace as a stream: every callback in order,
   then the summary *)
let digest_serve ?deadline_of trace =
  let b = Buffer.create 1024 in
  let pending = ref (List.stable_sort Coflow.compare_arrival trace) in
  let next () =
    match !pending with
    | [] -> None
    | c :: rest ->
      pending := rest;
      Some c
  in
  let s =
    Serve.run ?deadline_of
      ~on_admit:(fun c ~finish -> Printf.bprintf b "a%d:%h;" c.Coflow.id finish)
      ~on_reject:(fun c -> function
        | Serve.Expired { deadline } ->
          Printf.bprintf b "x%d:%h;" c.Coflow.id deadline
        | Serve.Deadline_miss { deadline; finish } ->
          Printf.bprintf b "m%d:%h:%h;" c.Coflow.id deadline finish)
      ~on_finish:(fun ~id ~t ~cct -> Printf.bprintf b "f%d:%h:%h;" id t cct)
      ~delta ~bandwidth next
  in
  Printf.bprintf b "|%d %d %d %d %d %d %d %h %b" s.Serve.arrivals s.admitted
    s.rejected s.completed s.events s.setups s.max_live s.makespan s.stopped;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_serve =
  [
    ("storm/plain", "6748701c5fafe5b9ee07ef10284b95ce");
    ("storm/deadline", "a3e9227ca783270c0fd898a6b7da1f0b");
    ("pods/plain", "49f776d1045fd8fb9c6a112c1025c8b4");
    ("pods/deadline", "46c8765cb37cbc5aded60fadc96d8a2d");
    ("synthetic/plain", "953db82f1717890e4ee511fcd7022343");
    ("synthetic/deadline", "a5f186d0fb6ad90a6c0c9dc286dce6e3");
  ]

let test_serve () =
  let deadline_of (c : Coflow.t) =
    c.arrival +. (3. *. Bounds.circuit_lower ~bandwidth ~delta c.demand)
  in
  let got =
    List.concat_map
      (fun (tname, trace) ->
        [
          (tname ^ "/plain", digest_serve trace);
          (tname ^ "/deadline", digest_serve ~deadline_of trace);
        ])
      (traces ())
  in
  check_digests "serve" expected_serve got

let suite =
  [
    Alcotest.test_case "incremental replays match their digests" `Quick
      test_incremental;
    Alcotest.test_case "Full replays match their digests" `Quick test_full;
    Alcotest.test_case "serve runs match their digests" `Quick test_serve;
  ]
