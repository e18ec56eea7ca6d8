type phase = Begin | End | Instant

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : int64;
  tid : int;
}

(* Growable per-domain buffer. Only its owning domain appends; the
   exporter reads under the registry mutex after the fact, so appends
   are plain stores. *)
type buf = {
  b_tid : int;
  mutable evs : event array;
  mutable len : int;
  mutable b_dropped : int;
}

let max_events_per_domain = 1 lsl 20

(* Mirror of [dropped ()] in the metrics registry, so a metrics export
   records whether the trace export it accompanies is truncated. Kept
   in lockstep: bumped on the drop path, zeroed by [clear]. *)
let c_dropped = Registry.counter "tracer.dropped"

let registry_mu = Mutex.create ()
let bufs : buf list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          evs = [||];
          len = 0;
          b_dropped = 0;
        }
      in
      Mutex.lock registry_mu;
      bufs := b :: !bufs;
      Mutex.unlock registry_mu;
      b)

let append b ev =
  if b.len >= max_events_per_domain then begin
    b.b_dropped <- b.b_dropped + 1;
    Registry.incr c_dropped
  end
  else begin
    let cap = Array.length b.evs in
    if b.len = cap then begin
      let evs = Array.make (max 256 (2 * cap)) ev in
      Array.blit b.evs 0 evs 0 b.len;
      b.evs <- evs
    end;
    b.evs.(b.len) <- ev;
    b.len <- b.len + 1
  end

let emit ph cat name =
  let b = Domain.DLS.get buf_key in
  append b { ph; name; cat; ts = Control.now_ns (); tid = b.b_tid }

let begin_span ?(cat = "sunflow") name =
  if Control.enabled () then emit Begin cat name

let end_span ?(cat = "sunflow") name =
  if Control.enabled () then emit End cat name

let instant ?(cat = "sunflow") name =
  if Control.enabled () then emit Instant cat name

let with_span ?cat name f =
  if not (Control.enabled ()) then f ()
  else begin
    begin_span ?cat name;
    Fun.protect ~finally:(fun () -> end_span ?cat name) f
  end

let with_bufs f =
  Mutex.lock registry_mu;
  let l = !bufs in
  Mutex.unlock registry_mu;
  f l

let event_count () =
  with_bufs (List.fold_left (fun acc b -> acc + b.len) 0)

let dropped () =
  with_bufs (List.fold_left (fun acc b -> acc + b.b_dropped) 0)

(* Snapshot as [(event, append index)], sorted by (ts, tid, index):
   per-domain emission order is preserved (monotonic ts, index breaks
   ties), and domains interleave by timestamp. *)
let indexed_events () =
  with_bufs (fun l ->
      let all = ref [] in
      List.iter
        (fun b ->
          for i = b.len - 1 downto 0 do
            all := (b.evs.(i), i) :: !all
          done)
        l;
      List.sort
        (fun ((a : event), ai) ((b : event), bi) ->
          compare (a.ts, a.tid, ai) (b.ts, b.tid, bi))
        !all)

let events () = List.map fst (indexed_events ())

let clear () =
  Registry.counter_reset c_dropped;
  with_bufs
    (List.iter (fun b ->
         b.evs <- [||];
         b.len <- 0;
         b.b_dropped <- 0))

(* --- Chrome trace-event export ---------------------------------------- *)

let ph_string = function Begin -> "B" | End -> "E" | Instant -> "i"

let to_chrome_json () =
  let evs = events () in
  let t0 = match evs with [] -> 0L | e :: _ -> e.ts in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\"traceEvents\": [\n";
  let tids =
    List.sort_uniq compare (List.map (fun (e : event) -> e.tid) evs)
  in
  let n_meta = List.length tids and n_evs = List.length evs in
  List.iteri
    (fun i tid ->
      add
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": \
         %d, \"args\": {\"name\": \"domain-%d\"}}%s\n"
        tid tid
        (if n_evs = 0 && i = n_meta - 1 then "" else ","))
    tids;
  List.iteri
    (fun i (e : event) ->
      let ts_us = Int64.to_float (Int64.sub e.ts t0) /. 1e3 in
      add
        "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": \
         %.3f, \"pid\": 1, \"tid\": %d%s}%s\n"
        (Json.escape e.name) (Json.escape e.cat) (ph_string e.ph) ts_us e.tid
        (match e.ph with Instant -> ", \"s\": \"t\"" | _ -> "")
        (if i = n_evs - 1 then "" else ","))
    evs;
  add "], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf
