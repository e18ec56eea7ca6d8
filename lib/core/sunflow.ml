type result = {
  reservations : Prt.reservation list;
  finish : float;
  setups : int;
}

(* Gated observability (spans and counters record only under
   Sunflow_obs.Control.enabled; the PRT work counters underneath stay
   always-on). The schedule is traced as one outer span with two
   phase children: candidate selection (demand -> ordered pending
   flows) and the reservation loop (PRT probe/reserve driven by the
   wake heap). *)
module Obs = Sunflow_obs

let m_schedules = Obs.Registry.counter "sunflow.schedules"
let m_wakes = Obs.Registry.counter "sunflow.wakes"
let h_flows = Obs.Registry.histogram "sunflow.flows_per_schedule"

(* One pending flow with its remaining processing time. [fresh] tracks
   whether the flow may still reuse a pre-established circuit (only
   before its first reservation, and only at the schedule start).
   [idx] is the flow's rank in the reservation consideration order; it
   breaks ties between flows retried at the same instant so the
   event-driven loop visits them exactly as the round-robin loop did.
   Every field is mutable: the records live in a per-domain scratch
   arena and are rewritten call to call instead of reallocated. *)
type pending = {
  mutable src : int;
  mutable dst : int;
  mutable idx : int;
  mutable remaining : float;
  mutable fresh : bool;
}

let dummy_pending =
  { src = -1; dst = -1; idx = -1; remaining = 0.; fresh = false }

let dummy_res =
  { Prt.coflow = min_int; src = 0; dst = 0; start = 0.; setup = 0.; length = 0. }

(* The per-domain scratch arena: the pending pool, the wake heap
   (parallel arrays — unboxed times next to their flows) and the
   growable accumulator of made reservations, all reused across calls
   so the kernel's steady state allocates nothing proportional to the
   flow count. Reuse rules (see DESIGN.md "Schedule kernel"): the
   arena owns only scalar-field [pending] records; every slot that
   ever referenced a caller-visible value (a made reservation, a
   popped heap flow) is cleared back to a dummy before the call
   returns, so a retained arena never pins schedule outputs against
   the GC. A reentrant call (a hostile [established] closure
   calling [schedule]) finds the arena busy and falls back to a fresh
   one. *)
type scratch = {
  mutable pool : pending array;
  mutable wk_time : float array;  (* wake heap: times, unboxed *)
  mutable wk_flow : pending array;  (* wake heap: flows, parallel *)
  mutable wk_len : int;
  mutable made : Prt.reservation array;  (* creation order *)
  mutable n_made : int;
  mutable busy : bool;
}

let fresh_scratch () =
  {
    pool = [||];
    wk_time = [||];
    wk_flow = [||];
    wk_len = 0;
    made = [||];
    n_made = 0;
    busy = false;
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

let pool_ensure sc n =
  let cap = Array.length sc.pool in
  if n > cap then begin
    let cap' = max 8 (max n (2 * cap)) in
    let arr =
      Array.init cap' (fun i ->
          if i < cap then sc.pool.(i)
          else { src = -1; dst = -1; idx = -1; remaining = 0.; fresh = false })
    in
    sc.pool <- arr
  end

(* an exception can abandon the call mid-drain; clear every slot that
   might reference a reservation or flow so the arena pins nothing *)
let scratch_abort sc =
  Array.fill sc.wk_flow 0 (Array.length sc.wk_flow) dummy_pending;
  sc.wk_len <- 0;
  Array.fill sc.made 0 (Array.length sc.made) dummy_res;
  sc.n_made <- 0;
  sc.busy <- false

(* --- wake heap ---------------------------------------------------------

   Min-heap of flow wake-up times ordered by (time, consideration
   rank), so simultaneous wake-ups replay in the original reservation
   order. Each pending flow has exactly one entry. Same element
   movement as the boxed-entry heap it replaces, on the scratch
   arena's parallel arrays; a pop clears the vacated slot back to
   [dummy_pending] — the boxed heap left the popped entry parked at
   [data.(len)], pinning its flow until a later push overwrote it. *)

let wk_before sc i j =
  sc.wk_time.(i) < sc.wk_time.(j)
  || (sc.wk_time.(i) = sc.wk_time.(j) && sc.wk_flow.(i).idx < sc.wk_flow.(j).idx)

let wk_swap sc i j =
  let t = sc.wk_time.(i) in
  sc.wk_time.(i) <- sc.wk_time.(j);
  sc.wk_time.(j) <- t;
  let f = sc.wk_flow.(i) in
  sc.wk_flow.(i) <- sc.wk_flow.(j);
  sc.wk_flow.(j) <- f

let wk_push sc time flow =
  let cap = Array.length sc.wk_time in
  if sc.wk_len = cap then begin
    let cap' = max 8 (2 * cap) in
    let ts = Array.make cap' 0. in
    Array.blit sc.wk_time 0 ts 0 sc.wk_len;
    sc.wk_time <- ts;
    let fs = Array.make cap' dummy_pending in
    Array.blit sc.wk_flow 0 fs 0 sc.wk_len;
    sc.wk_flow <- fs
  end;
  sc.wk_time.(sc.wk_len) <- time;
  sc.wk_flow.(sc.wk_len) <- flow;
  sc.wk_len <- sc.wk_len + 1;
  let i = ref (sc.wk_len - 1) in
  while !i > 0 && wk_before sc !i ((!i - 1) / 2) do
    wk_swap sc !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(* remove the root; the caller has already read it off slot 0 *)
let wk_drop sc =
  sc.wk_len <- sc.wk_len - 1;
  let n = sc.wk_len in
  if n > 0 then begin
    sc.wk_time.(0) <- sc.wk_time.(n);
    sc.wk_flow.(0) <- sc.wk_flow.(n)
  end;
  sc.wk_flow.(n) <- dummy_pending;
  if n > 1 then begin
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < n && wk_before sc l !smallest then smallest := l;
      if r < n && wk_before sc r !smallest then smallest := r;
      if !smallest = !i then continue_ := false
      else begin
        wk_swap sc !smallest !i;
        i := !smallest
      end
    done
  end

let made_push sc r =
  let cap = Array.length sc.made in
  if sc.n_made = cap then begin
    let arr = Array.make (max 8 (2 * cap)) dummy_res in
    Array.blit sc.made 0 arr 0 sc.n_made;
    sc.made <- arr
  end;
  sc.made.(sc.n_made) <- r;
  sc.n_made <- sc.n_made + 1

(* MakeReservation (Algorithm 1 lines 13-23). Pushes the reservation
   made, if any, onto the scratch accumulator. The paper's guard is
   [lm < delta -> l = 0]; we also skip the boundary case [lm = setup],
   where the reservation would be pure reconfiguration transmitting
   nothing. The two port probes are fused into [Prt.probe_pair]:
   [neg_infinity] means a busy port, anything else is the earlier
   next-reserv-time [tm] over both free ports. *)
let make_reservation sc prt ~coflow ~now ~delta ~established t p =
  let tm = Prt.probe_pair prt ~src:p.src ~dst:p.dst t in
  if tm <> neg_infinity then begin
    let setup =
      if p.fresh && t = now && established (p.src, p.dst) then 0. else delta
    in
    let lm = tm -. t in
    let ld = setup +. p.remaining in
    let l = if lm <= setup then 0. else Float.min lm ld in
    (* rounding of [t +. (tm -. t)] can overshoot [tm]; clamp by the
       measured overshoot (one step almost always lands the window at
       or before [tm] — a second only when the clamp itself rounds up) *)
    let rec shave l =
      if l <= 0. || t +. l <= tm then l
      else shave (Float.min (l -. (t +. l -. tm)) (Float.pred l))
    in
    let l = if l = lm then shave l else l in
    let l = if l <= setup then 0. else l in
    if l > 0. then begin
      let r =
        { Prt.coflow; src = p.src; dst = p.dst; start = t; setup; length = l }
      in
      Prt.reserve prt r;
      p.remaining <- ld -. l;
      p.fresh <- false;
      made_push sc r
    end
  end

let no_circuit _ = false

(* The reservation loop is event-driven: a flow that fails (or makes
   partial progress) can next change state only when one of its two
   ports releases a window, so it sleeps until exactly that instant
   instead of being retried at every release in the fabric. A release
   added to its ports later by another flow's reservation cannot wake
   it earlier: such a window occupies a port the flow needed, and ends
   strictly before the state the flow was already waiting on clears.
   This replays the round-robin loop reservation for reservation while
   doing O(1) retries per release instead of O(|pending|). *)
let schedule ?prt ?(now = 0.) ?(order = Order.Ordered_port)
    ?(established = no_circuit) ?(quantum = 0.) ~delta ~bandwidth coflow =
  if bandwidth <= 0. then invalid_arg "Sunflow.schedule: bandwidth <= 0";
  if delta < 0. then invalid_arg "Sunflow.schedule: negative delta";
  if now < 0. then invalid_arg "Sunflow.schedule: negative start time";
  let prt = match prt with Some p -> p | None -> Prt.create () in
  let obs = Obs.Control.enabled () in
  if obs then begin
    Obs.Registry.incr m_schedules;
    Obs.Tracer.begin_span ~cat:"core" "sunflow.schedule";
    Obs.Tracer.begin_span ~cat:"core" "sunflow.candidates"
  end;
  let to_processing bytes =
    let p = bytes /. bandwidth in
    if quantum > 0. then quantum *. Float.ceil (p /. quantum) else p
  in
  let sc0 = Domain.DLS.get scratch_key in
  let sc = if sc0.busy then fresh_scratch () else sc0 in
  sc.busy <- true;
  let run () =
    let entries =
      match order with
      | Order.Ordered_port ->
        (* [Demand.entries] is already (src, dst)-sorted, which is
           exactly [Ordered_port]'s sort — skip the re-sort *)
        Demand.entries coflow.Coflow.demand
      | _ -> Order.apply order (Demand.entries coflow.Coflow.demand)
    in
    let n_pending = ref 0 in
    List.iter
      (fun ((src, dst), bytes) ->
        let remaining = to_processing bytes in
        if remaining > 0. then begin
          let i = !n_pending in
          pool_ensure sc (i + 1);
          let p = sc.pool.(i) in
          p.src <- src;
          p.dst <- dst;
          p.idx <- i;
          p.remaining <- remaining;
          p.fresh <- true;
          n_pending := i + 1
        end)
      entries;
    let n_pending = !n_pending in
    if obs then begin
      Obs.Registry.observe h_flows (float_of_int n_pending);
      Obs.Tracer.end_span ~cat:"core" "sunflow.candidates";
      Obs.Tracer.begin_span ~cat:"core" "sunflow.reserve"
    end;
    for i = 0 to n_pending - 1 do
      wk_push sc now sc.pool.(i)
    done;
    let n_wakes = ref 0 in
    while sc.wk_len > 0 do
      let t = sc.wk_time.(0) in
      let p = sc.wk_flow.(0) in
      wk_drop sc;
      incr n_wakes;
      make_reservation sc prt ~coflow:coflow.Coflow.id ~now ~delta
        ~established t p;
      if p.remaining > 0. then begin
        let t' = Prt.next_release_pair prt ~src:p.src ~dst:p.dst t in
        if t' = infinity then
          (* Impossible: a blocked flow implies a reservation releasing
             after [t] (see the progress argument in the design doc). *)
          invalid_arg "Sunflow.schedule: stuck with pending demand"
        else wk_push sc t' p
      end
    done;
    if obs then Obs.Registry.add m_wakes !n_wakes;
    let finish = ref now and setups = ref 0 in
    for i = 0 to sc.n_made - 1 do
      let r = sc.made.(i) in
      finish := Float.max !finish (Prt.stop r);
      if r.Prt.setup > 0. then incr setups
    done;
    let reservations = ref [] in
    for i = sc.n_made - 1 downto 0 do
      reservations := sc.made.(i) :: !reservations;
      sc.made.(i) <- dummy_res
    done;
    sc.n_made <- 0;
    let result =
      { reservations = !reservations; finish = !finish; setups = !setups }
    in
    if obs then begin
      Obs.Tracer.end_span ~cat:"core" "sunflow.reserve";
      Obs.Tracer.end_span ~cat:"core" "sunflow.schedule"
    end;
    result
  in
  match run () with
  | r ->
    sc.busy <- false;
    r
  | exception e ->
    scratch_abort sc;
    raise e

let cct ?(delta = 10e-3) ?(bandwidth = 1.25e8) coflow =
  (schedule ~delta ~bandwidth { coflow with Coflow.arrival = 0. }).finish
