type result = {
  reservations : Prt.reservation list;
  finish : float;
  setups : int;
}

(* Gated observability (spans and counters record only under
   Sunflow_obs.Control.enabled; the PRT work counters underneath stay
   always-on). The schedule is traced as one outer span with two
   phase children: candidate selection (demand -> ordered pending
   flows) and the reservation loop (PRT chance/reserve driven by the
   wake heap). *)
module Obs = Sunflow_obs

let m_schedules = Obs.Registry.counter "sunflow.schedules"
let m_wakes = Obs.Registry.counter "sunflow.wakes"
let h_flows = Obs.Registry.histogram "sunflow.flows_per_schedule"

(* The per-domain scratch arena, reused across calls so the kernel's
   steady state allocates nothing proportional to the flow count. The
   pending flows are parallel arrays indexed by the flow's rank in the
   reservation consideration order: endpoints, remaining processing
   time (unboxed), whether the flow may still reuse a pre-established
   circuit (only before its first reservation, and only at the schedule
   start). The wake heap holds (time, rank) pairs in two more parallel
   arrays; the rank breaks ties between flows woken at the same
   instant, so the event-driven loop visits them exactly as the
   round-robin loop did. [cell] carries instants into and out of
   {!Prt.step}, {!Prt.chance} and the heap, so no float is boxed on the
   wake path. The park groups (see [schedule]) are two more per-flow
   arrays (next member, side) and per-port records indexed
   [2 * port + side] (key, head, last member, call epoch); a record is
   live only under the current call's epoch, so a call resets them by
   bumping [epoch], not by clearing.
   Reuse rules (see DESIGN.md "Schedule kernel"): the arena holds only
   scalars, except the growable accumulator of made reservations,
   whose slots are cleared back to a dummy before the call returns, so
   a retained arena never pins schedule outputs against the GC. A
   reentrant call (a hostile [established] closure calling [schedule])
   finds the arena busy and falls back to a fresh one. *)
type scratch = {
  mutable f_src : int array;
  mutable f_dst : int array;
  mutable f_rem : float array;
  mutable f_fresh : bool array;
  mutable wk_time : float array;  (* wake heap: times, unboxed *)
  mutable wk_flow : int array;  (* wake heap: flow ranks, parallel *)
  mutable wk_len : int;
  mutable g_next : int array;  (* next member of the flow's park group, or -1 *)
  mutable g_side : int array;  (* side of the group the flow is in, or -1 *)
  mutable p_key : float array;  (* per port side: its open group's key *)
  mutable p_head : int array;  (* ... that group's head (in the heap) *)
  mutable p_last : int array;  (* ... its highest-ranked member *)
  mutable p_epoch : int array;  (* ... the call that opened it *)
  mutable epoch : int;
  mutable made : Prt.reservation array;  (* creation order *)
  mutable n_made : int;
  cell : float array;
      (* [Prt.step]'s instant in, [y] and [tm] out; then a group's key *)
  mutable busy : bool;
}

let dummy_res =
  { Prt.coflow = min_int; src = 0; dst = 0; start = 0.; setup = 0.; length = 0. }

let fresh_scratch () =
  {
    f_src = [||];
    f_dst = [||];
    f_rem = [||];
    f_fresh = [||];
    wk_time = [||];
    wk_flow = [||];
    wk_len = 0;
    g_next = [||];
    g_side = [||];
    p_key = [||];
    p_head = [||];
    p_last = [||];
    p_epoch = [||];
    epoch = 0;
    made = [||];
    n_made = 0;
    cell = [| 0.; 0.; 0. |];
    busy = false;
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* [a] in a fresh array of [n] cells, the new ones [fill] *)
let grow a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* room for [n] pending flows, and for as many heap entries (each flow
   has at most one) *)
let flows_ensure sc n =
  let cap = Array.length sc.f_src in
  if n > cap then begin
    let n = max 8 (max n (2 * cap)) in
    sc.f_src <- grow sc.f_src n 0;
    sc.f_dst <- grow sc.f_dst n 0;
    sc.f_rem <- grow sc.f_rem n 0.;
    sc.f_fresh <- grow sc.f_fresh n false;
    sc.wk_time <- grow sc.wk_time n 0.;
    sc.wk_flow <- grow sc.wk_flow n 0;
    sc.g_next <- grow sc.g_next n 0;
    sc.g_side <- grow sc.g_side n 0
  end

(* room for the group record of port side [q]; grown cells carry no
   call's epoch *)
let groups_ensure sc q =
  let cap = Array.length sc.p_key in
  if q >= cap then begin
    let n = max 16 (max (q + 1) (2 * cap)) in
    sc.p_key <- grow sc.p_key n 0.;
    sc.p_head <- grow sc.p_head n 0;
    sc.p_last <- grow sc.p_last n 0;
    sc.p_epoch <- grow sc.p_epoch n (-1)
  end

(* an exception can abandon the call mid-drain; clear every slot that
   might reference a reservation so the arena pins nothing *)
let scratch_abort sc =
  sc.wk_len <- 0;
  Array.fill sc.made 0 (Array.length sc.made) dummy_res;
  sc.n_made <- 0;
  sc.busy <- false

(* --- wake heap ---------------------------------------------------------

   Min-heap of flow wake-up times ordered by (time, consideration
   rank), so simultaneous wake-ups replay in the original reservation
   order. Each pending flow has at most one entry, so the arrays sized
   by [flows_ensure] never overflow. *)

let wk_before sc i j =
  sc.wk_time.(i) < sc.wk_time.(j)
  || (sc.wk_time.(i) = sc.wk_time.(j) && sc.wk_flow.(i) < sc.wk_flow.(j))

let wk_swap sc i j =
  let t = sc.wk_time.(i) in
  sc.wk_time.(i) <- sc.wk_time.(j);
  sc.wk_time.(j) <- t;
  let f = sc.wk_flow.(i) in
  sc.wk_flow.(i) <- sc.wk_flow.(j);
  sc.wk_flow.(j) <- f

(* wake flow [f] at the instant in [sc.cell.(k)] *)
let wk_push sc k f =
  sc.wk_time.(sc.wk_len) <- sc.cell.(k);
  sc.wk_flow.(sc.wk_len) <- f;
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

(* --- park groups ---------------------------------------------------------

   Flows blocked on one port until the same window stop wait in a park
   group: a chain in rank order whose head alone is in the wake heap,
   under the group's key. No member can reserve before the key (see
   [schedule]). Each port side's record describes its open group, the
   last one opened there; only the open group takes new members. *)

(* the record index of flow [f]'s port on [side] (0 input, 1 output) *)
let port_side sc f side =
  if side = 0 then 2 * sc.f_src.(f) else (2 * sc.f_dst.(f)) + 1

let heads_open sc q f = sc.p_epoch.(q) = sc.epoch && sc.p_head.(q) = f

(* [f] leaves the group it heads on [side]; the next member, if any,
   heads the rest from the key in [cell.(2)] *)
let group_leave sc f side =
  let q = port_side sc f side and m = sc.g_next.(f) in
  sc.g_side.(f) <- -1;
  if heads_open sc q f then
    if m >= 0 then begin
      sc.p_head.(q) <- m;
      sc.p_key.(q) <- sc.cell.(2)
    end
    else sc.p_epoch.(q) <- -1;
  if m >= 0 then wk_push sc 2 m

(* the port of the group [f] heads on [side] is busy until [cell.(0)]:
   the whole group waits there *)
let group_rekey sc f side =
  let q = port_side sc f side in
  if heads_open sc q f then sc.p_key.(q) <- sc.cell.(0);
  wk_push sc 0 f

(* [f]'s next chance, in [cell.(0)], is the stop of a window that blocks
   it on [side]: join the port's open group if that waits for the same
   instant and ends below [f], else open a new one *)
let group_join sc f side =
  let q = port_side sc f side in
  groups_ensure sc q;
  sc.g_side.(f) <- side;
  sc.g_next.(f) <- -1;
  if
    sc.p_epoch.(q) = sc.epoch
    && sc.p_key.(q) = sc.cell.(0)
    && sc.p_last.(q) < f
  then begin
    sc.g_next.(sc.p_last.(q)) <- f;
    sc.p_last.(q) <- f
  end
  else begin
    sc.p_epoch.(q) <- sc.epoch;
    sc.p_key.(q) <- sc.cell.(0);
    sc.p_head.(q) <- f;
    sc.p_last.(q) <- f;
    wk_push sc 0 f
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

(* MakeReservation (Algorithm 1 lines 13-23) for flow [f] at instant
   [t], both of whose ports [Prt.chance] found free with the next
   reservation start [tm]. Returns the reservation made, or
   [dummy_res]. The paper's guard is [lm < delta -> l = 0]; we also
   skip the boundary case [lm = setup], where the reservation would be
   pure reconfiguration transmitting nothing. [t] and [tm] are read
   off the cell, so they reach here unboxed. *)
let make_reservation sc prt ~coflow ~now ~delta ~established f =
  let t = sc.cell.(0) and tm = sc.cell.(1) in
  let src = sc.f_src.(f) and dst = sc.f_dst.(f) in
  let setup =
    if sc.f_fresh.(f) && t = now && established (src, dst) then 0. else delta
  in
  let lm = tm -. t in
  let ld = setup +. sc.f_rem.(f) in
  let l = ref (if lm <= setup then 0. else Float.min lm ld) in
  (* rounding of [t +. (tm -. t)] can overshoot [tm]; clamp by the
     measured overshoot (one step almost always lands the window at or
     before [tm] — a second only when the clamp itself rounds up) *)
  if !l = lm then
    while !l > 0. && t +. !l > tm do
      l := Float.min (!l -. (t +. !l -. tm)) (Float.pred !l)
    done;
  if !l > setup then begin
    let r = { Prt.coflow; src; dst; start = t; setup; length = !l } in
    Prt.reserve prt r;
    sc.f_rem.(f) <- ld -. !l;
    sc.f_fresh.(f) <- false;
    made_push sc r;
    r
  end
  else dummy_res

let no_circuit _ = false

(* The reservation loop is event-driven: a flow sleeps until its next
   chance to reserve, the first window stop on its own two ports at
   which both are free and the next start is more than delta away
   ([Prt.chance]). Every instant it skips is a certain failure: within
   one call the table only gains windows, so a port busy at an instant
   stays busy and a next start only moves nearer, and after [now] the
   setup is always delta. The instant it lands on is a stop the
   round-robin loop also visits, under the same (time, rank) key, and
   a wake that reserves nothing changes no state, so this replays the
   round-robin loop reservation for reservation (DESIGN.md, "PRT data
   structure & complexity"). After a reservation the search starts
   from the new window's stop; after a failed try at a free instant,
   from [tm].

   Flows that a sibling's window, opened at the instant they woke,
   blocks until their next chance park behind it in a group, and only
   the group's head is woken. Every parked key is a lower bound of the
   member's next chance, and members follow their head in rank order,
   so each is still tried wherever the round-robin loop would reserve
   for it (DESIGN.md, "Park groups"). *)
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
          let f = !n_pending in
          flows_ensure sc (f + 1);
          sc.f_src.(f) <- src;
          sc.f_dst.(f) <- dst;
          sc.f_rem.(f) <- remaining;
          sc.f_fresh.(f) <- true;
          sc.g_side.(f) <- -1;
          n_pending := f + 1
        end)
      entries;
    let n_pending = !n_pending in
    if obs then begin
      Obs.Registry.observe h_flows (float_of_int n_pending);
      Obs.Tracer.end_span ~cat:"core" "sunflow.candidates";
      Obs.Tracer.begin_span ~cat:"core" "sunflow.reserve"
    end;
    let cell = sc.cell in
    cell.(0) <- now;
    sc.epoch <- sc.epoch + 1;
    for f = 0 to n_pending - 1 do
      wk_push sc 0 f
    done;
    let coflow_id = coflow.Coflow.id in
    let n_wakes = ref 0 in
    while sc.wk_len > 0 do
      let t = sc.wk_time.(0) in
      let f = sc.wk_flow.(0) in
      wk_drop sc;
      incr n_wakes;
      let src = sc.f_src.(f) and dst = sc.f_dst.(f) in
      (* at [now] an established circuit may need no setup, so only a
         free port is asked for *)
      let gap = if t = now then 0. else delta in
      let side = sc.g_side.(f) in
      cell.(0) <- t;
      cell.(2) <- t;
      match Prt.step prt ~src ~dst ~gap cell with
      | Prt.Free ->
        let r =
          make_reservation sc prt ~coflow:coflow_id ~now ~delta ~established
            f
        in
        if side >= 0 then begin
          (* the rest cannot take the port before the new window's stop *)
          if r != dummy_res then cell.(2) <- Prt.stop r;
          group_leave sc f side
        end;
        if sc.f_rem.(f) > 0. then begin
          if r != dummy_res then cell.(0) <- Prt.stop r
          else if cell.(1) = infinity then
            (* Impossible: a free flow fails only against a start
               within delta (see the progress argument in the design
               doc), or a remainder lost to rounding against delta. *)
            invalid_arg "Sunflow.schedule: stuck with pending demand"
          else cell.(0) <- cell.(1);
          Prt.chance prt ~src ~dst ~gap:delta cell;
          wk_push sc 0 f
        end
      | Prt.Near ->
        if side >= 0 then group_leave sc f side;
        Prt.chance prt ~src ~dst ~gap cell;
        wk_push sc 0 f
      | (Prt.In_busy | Prt.Out_busy) as busy ->
        (* a window on side [on] holds [t] until [cell.(0)]; it opened
           at [t], a sibling's just now, if it starts at [t] *)
        let on = match busy with Prt.In_busy -> 0 | _ -> 1 in
        let opened_now = cell.(1) = t in
        if side >= 0 && side <> on then group_leave sc f side;
        cell.(2) <- cell.(0);
        Prt.chance prt ~src ~dst ~gap cell;
        if cell.(0) > cell.(2) || not (side = on || opened_now) then begin
          (* [f] goes alone; a group it heads on [on] waits for the stop *)
          if side = on then group_leave sc f side;
          wk_push sc 0 f
        end
        else if side = on then group_rekey sc f side
        else group_join sc f on
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
