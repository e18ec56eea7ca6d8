type port = In of int | Out of int

type reservation = {
  coflow : int;
  src : int;
  dst : int;
  start : float;
  setup : float;
  length : float;
}

let stop r = r.start +. r.length
let transmission r = r.length -. r.setup

(* --- instrumentation ------------------------------------------------- *)

type stats = {
  queries : int;
  scans : int;
  reservations : int;
  rollbacks : int;
}

(* The counters live on the Sunflow_obs metrics registry (which
   generalises the per-domain DLS-record + registry-mutex pattern
   these counters pioneered): each domain mutates its own cells with
   plain stores — no synchronisation on the hot path — and the
   registry folds the cells on snapshot. This type and the functions
   below are a façade kept for the bench harness and the tests;
   totals are bit-identical to the pre-registry implementation. A
   [stats] snapshot taken while other domains are mid-flight may lag
   their latest increments by a few, but totals read after the
   domains are joined are exact — [Domain.join] orders their writes
   before the read — which is what both the bench harness and the
   tests do.

   The counters are always on (they bypass [Sunflow_obs.Control]):
   the seed measured this cost on every hot path already, and the
   bench gates regressions against it. *)

module Registry = Sunflow_obs.Registry

let m_queries = Registry.counter "prt.queries"
let m_scans = Registry.counter "prt.scans"
let m_reservations = Registry.counter "prt.reservations"
let m_rollbacks = Registry.counter "prt.rollbacks"

(* The calling domain's four cells, fetched through one DLS read per
   public operation (as the seed fetched its one record) and then
   updated with plain stores. *)
type counters = {
  c_queries : Registry.counter_cell;
  c_scans : Registry.counter_cell;
  c_reservations : Registry.counter_cell;
  c_rollbacks : Registry.counter_cell;
}

let counters_key =
  Domain.DLS.new_key (fun () ->
      {
        c_queries = Registry.cell m_queries;
        c_scans = Registry.cell m_scans;
        c_reservations = Registry.cell m_reservations;
        c_rollbacks = Registry.cell m_rollbacks;
      })

let counters () = Domain.DLS.get counters_key

let stats () =
  {
    queries = Registry.counter_value m_queries;
    scans = Registry.counter_value m_scans;
    reservations = Registry.counter_value m_reservations;
    rollbacks = Registry.counter_value m_rollbacks;
  }

let reset_stats () =
  Registry.counter_reset m_queries;
  Registry.counter_reset m_scans;
  Registry.counter_reset m_reservations;
  Registry.counter_reset m_rollbacks

let pp_stats ppf s =
  Format.fprintf ppf "queries=%d scans=%d reservations=%d rollbacks=%d"
    s.queries s.scans s.reservations s.rollbacks

(* --- storage ---------------------------------------------------------- *)

(* Per-port reservations in a dynamic array sorted by start time, with
   the same windows' start times unboxed in a parallel float array: the
   key every per-slot search runs on, so a probe reads flat floats
   instead of chasing a pointer per step. Windows on one port never
   overlap beyond [time_tolerance], so start order is stop order up to
   sub-nanosecond rounding dust; the queries that need a window's stop
   read it off the record. Cells of [res] at and past [len] hold
   [dummy_res], so a slot never keeps a removed window reachable. *)
type slot = {
  mutable res : reservation array;  (* sorted by start *)
  mutable starts : float array;  (* [res.(i).start], in step with [res] *)
  mutable len : int;
}

(* Port slots are dense arrays indexed by port number, one per
   namespace, grown (doubling) by [reserve] on first use of a port.
   Cells of ports that never held a window share [empty_slot]. *)
type t = {
  mutable ins : slot array;
  mutable outs : slot array;
  (* ownership index: Coflow id -> the windows it currently holds, so a
     finished Coflow's reservations can be retired in O(own windows)
     without scanning the table *)
  owners : (int, reservation list ref) Hashtbl.t;
}

let create () = { ins = [||]; outs = [||]; owners = Hashtbl.create 64 }

let dummy_res =
  (* filler for vacated port-slot cells; [length = 0.] can never enter
     the table through [reserve], so it is distinguishable from any
     live window *)
  { coflow = min_int; src = 0; dst = 0; start = 0.; setup = 0.; length = 0. }

(* Shared read-only stand-in for ports that never held a window, and
   the filler of grown port arrays. [reserve] materialises a fresh slot
   where it finds this one, so it is never mutated. *)
let empty_slot = { res = [||]; starts = [||]; len = 0 }

(* the slot of port [p] in one namespace; a negative port or one past
   the array never held a window *)
let[@inline] slot_of (slots : slot array) p =
  if p >= 0 && p < Array.length slots then slots.(p) else empty_slot

let find_slot t = function
  | In i -> slot_of t.ins i
  | Out j -> slot_of t.outs j

(* --- binary searches --------------------------------------------------

   Each search counts its probes into the [scans] counter so the bench
   harness can report how much work the table did. *)

(* first index with [keys.(i) > x] among a slot's unboxed [starts],
   i.e. the successor position; [c] is the calling domain's counter
   record. Every probe is a flat float read. Inlined, so [chance]
   passes it an unboxed instant. *)
let[@inline] search_gt c (keys : float array) len (x : float) =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    c.c_scans.v <- c.c_scans.v + 1;
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* [start, stop) windows. Chained float sums put consecutive window
   boundaries within an ulp of each other, so an intersection below a
   nanosecond is rounding noise, not a double booking. *)
let time_tolerance = 1e-9

(* Whether window [w], met on a leftward walk through its slot, ends
   the walk for instant [x]: no window earlier in the slot can reach
   past [x]. One that did would start at or before [w] and stop after
   it, so it would overlap [w] by [stop w -. w.start] — the very float
   expression [overlaps] computes for that pair — and [reserve]
   forbids that beyond [time_tolerance]. Windows no longer than the
   tolerance, and those of the dust run (stops within the tolerance
   below [x]), end nothing: an earlier window may still cover [x]. *)
let[@inline] shields w x =
  let st = stop w in
  st <= x -. time_tolerance && st -. w.start > time_tolerance

(* --- the scheduler's wake query -----------------------------------------

   [chance] fuses Algorithm 1's port test (lines 15-16) with the
   blocked flow's retry (line 10) into one walk over the circuit's two
   port slots, a loop over [walk]; [step] exports one step of it, so
   the scheduler can see why a flow was blocked. The float input and
   outputs travel through the caller's flat [cell], [covering] takes
   the cell and [search_gt] is inlined, so without flambda nothing on
   the path is boxed. *)

(* index of a window at or left of [j] that contains [cell.(0)], or
   -1. In a table of (tolerance-)disjoint windows that is the
   instant's predecessor window, or one behind windows that do not
   [shield] the instant. *)
let covering c (s : slot) j (cell : float array) =
  let x = cell.(0) in
  let j = ref j and found = ref (-1) in
  while !found < 0 && !j >= 0 do
    c.c_scans.v <- c.c_scans.v + 1;
    let w = s.res.(!j) in
    if stop w > x then found := !j
    else if shields w x then j := -1
    else decr j
  done;
  !found

type step = Free | In_busy | Out_busy | Near

(* One step of the walk from [cell.(0)] (see [step] in the interface).
   A busy port moves the instant to its covering window's stop; a start
   within [gap] moves it to the stop of the window opening at [tm]
   (every instant before that stop is either covered by that window or
   sees [tm] nearer still). [cell.(1)] gets the start of the window
   whose stop the instant moved to, or [tm] when both ports are free.
   Uncounted as a query: its callers count one each. *)
let walk c (si : slot) (so : slot) ~gap (cell : float array) =
  let i = search_gt c si.starts si.len cell.(0) in
  let j = covering c si (i - 1) cell in
  if j >= 0 then begin
    cell.(1) <- si.starts.(j);
    cell.(0) <- stop si.res.(j);
    In_busy
  end
  else begin
    let o = search_gt c so.starts so.len cell.(0) in
    let j = covering c so (o - 1) cell in
    if j >= 0 then begin
      cell.(1) <- so.starts.(j);
      cell.(0) <- stop so.res.(j);
      Out_busy
    end
    else begin
      let next_in = if i < si.len then si.starts.(i) else infinity in
      let next_out = if o < so.len then so.starts.(o) else infinity in
      let tm = Float.min next_in next_out in
      cell.(1) <- tm;
      if tm -. cell.(0) <= gap then begin
        cell.(0) <-
          (if next_in <= next_out then stop si.res.(i) else stop so.res.(o));
        Near
      end
      else Free
    end
  end

let step t ~src ~dst ~gap (cell : float array) =
  let c = counters () in
  c.c_queries.v <- c.c_queries.v + 1;
  walk c (slot_of t.ins src) (slot_of t.outs dst) ~gap cell

(* Walk to the first instant [y] at which both ports are free and the
   next start [tm] on either is more than [gap] away. Each step lands
   on a window stop strictly later, so the walk ends. One query,
   whatever the steps. *)
let chance t ~src ~dst ~gap (cell : float array) =
  let c = counters () in
  c.c_queries.v <- c.c_queries.v + 1;
  let si = slot_of t.ins src and so = slot_of t.outs dst in
  while walk c si so ~gap cell != Free do
    ()
  done

(* windows of slot [s] starting at or before [r.start], from index [j]
   leftward: any stop strictly past [r.start] is a positive-measure
   intersection. The walk ends at a window that [shields] [r.start]. *)
let rec clean_left c (s : slot) r j =
  if j < 0 then true
  else begin
    c.c_scans.v <- c.c_scans.v + 1;
    let w = s.res.(j) in
    if stop w > r.start then false
    else shields w r.start || clean_left c s r (j - 1)
  end

(* [r] intersects no window of slot [s] with positive measure *)
let slot_clean c (s : slot) r =
  let k = search_gt c s.starts s.len r.start in
  (* windows starting after [r.start]: the first is the only candidate
     (later ones start even later) *)
  (k >= s.len || s.starts.(k) >= stop r) && clean_left c s r (k - 1)

(* true when [r] intersects no existing window on either of its ports
   with positive measure — stricter than [reserve]'s dust-tolerant
   admission, which accepts sub-[time_tolerance] rounding overlaps.
   The incremental engine's splice path needs the strict test: a
   stored window re-admitted against a {e fresh} neighbour can land a
   few ulps inside it, and while [reserve] would wave that through as
   dust, the validator's exact per-port disjointness would not. *)
let fits_exact t r =
  let c = counters () in
  c.c_queries.v <- c.c_queries.v + 1;
  slot_clean c (slot_of t.ins r.src) r && slot_clean c (slot_of t.outs r.dst) r

(* --- mutation --------------------------------------------------------- *)

let overlaps a b =
  Float.min (stop a) (stop b) -. Float.max a.start b.start > time_tolerance

let grow_cap n = max 8 (2 * n)

let reject_overlap side port r existing =
  invalid_arg
    (Format.asprintf
       "Prt.reserve: overlap on %s.%d: new [%g, %g) vs existing [%g, %g)" side
       port r.start (stop r) existing.start (stop existing))

(* [slots] extended (doubling, filled with [empty_slot]) to cover port
   [p] *)
let cover slots p =
  let n = Array.length slots in
  if p < n then slots
  else begin
    if p >= Sys.max_array_length then
      invalid_arg "Prt.reserve: port id too large";
    let cap = ref (grow_cap n) in
    while !cap <= p do
      cap := 2 * !cap
    done;
    let arr = Array.make (min !cap Sys.max_array_length) empty_slot in
    Array.blit slots 0 arr 0 n;
    arr
  end

(* the slot at port [p] of [slots] (already covering it), materialised
   on first use *)
let own_slot slots p =
  let s = slots.(p) in
  if s != empty_slot then s
  else begin
    let s = { res = [||]; starts = [||]; len = 0 } in
    slots.(p) <- s;
    s
  end

(* Insert [r] into the slot's start-sorted arrays, checking overlaps
   only against the neighbourhood of the insertion point: in a table of
   pairwise (tolerance-)disjoint windows, anything overlapping [r]
   beyond the tolerance lies in the contiguous run of windows whose
   span touches [r]'s — a couple of probes, not a full scan. [side] and
   [port] name the port in the overlap error. *)
let slot_insert c (s : slot) side port r =
  let k = search_gt c s.starts s.len r.start in
  (* left neighbours: windows starting at or before [r.start] reach
     into [r] only with stops above [r.start]. A window stopping at or
     before [r.start] ends the walk unless it is no longer than the
     tolerance: anything earlier that reached into [r] beyond the
     tolerance would overlap it by its full length (see [shields]). *)
  let j = ref (k - 1) in
  while !j >= 0 do
    c.c_scans.v <- c.c_scans.v + 1;
    let e = s.res.(!j) in
    if stop e > r.start then begin
      if overlaps e r then reject_overlap side port r e;
      decr j
    end
    else if stop e -. e.start > time_tolerance then j := -1
    else decr j
  done;
  (* right neighbours: windows starting inside [r)'s span *)
  let j = ref k in
  while !j < s.len do
    c.c_scans.v <- c.c_scans.v + 1;
    let e = s.res.(!j) in
    if e.start < stop r then begin
      if overlaps e r then reject_overlap side port r e;
      incr j
    end
    else j := s.len
  done;
  let cap = Array.length s.res in
  if s.len = cap then begin
    let cap' = grow_cap cap in
    let res = Array.make cap' dummy_res in
    Array.blit s.res 0 res 0 s.len;
    s.res <- res;
    let starts = Array.make cap' 0. in
    Array.blit s.starts 0 starts 0 s.len;
    s.starts <- starts
  end;
  Array.blit s.res k s.res (k + 1) (s.len - k);
  s.res.(k) <- r;
  Array.blit s.starts k s.starts (k + 1) (s.len - k);
  s.starts.(k) <- r.start;
  s.len <- s.len + 1;
  k

let slot_remove (s : slot) k =
  Array.blit s.res (k + 1) s.res k (s.len - k - 1);
  Array.blit s.starts (k + 1) s.starts k (s.len - k - 1);
  s.len <- s.len - 1;
  (* unpin the vacated cell *)
  s.res.(s.len) <- dummy_res

(* Window identity, field for field: what [remove] matches on. The
   same answer as polymorphic [=] (which also compares floats with
   IEEE [=]), without its generic traversal. *)
let same_window a b =
  a.coflow = b.coflow && a.src = b.src && a.dst = b.dst
  && a.start = b.start && a.setup = b.setup && a.length = b.length

let reserve t r =
  if r.length <= 0. then invalid_arg "Prt.reserve: non-positive length";
  if r.setup < 0. || r.setup > r.length then
    invalid_arg "Prt.reserve: setup outside [0, length]";
  if r.src < 0 || r.dst < 0 then invalid_arg "Prt.reserve: negative port";
  let c = counters () in
  t.ins <- cover t.ins r.src;
  t.outs <- cover t.outs r.dst;
  let s_in = own_slot t.ins r.src in
  let k_in = slot_insert c s_in "in" r.src r in
  (* the Out insert can still reject on its own overlap; undo the In
     insert so a failed reserve leaves the table exactly as it was *)
  (try ignore (slot_insert c (own_slot t.outs r.dst) "out" r.dst r : int)
   with e ->
     c.c_rollbacks.v <- c.c_rollbacks.v + 1;
     slot_remove s_in k_in;
     raise e);
  (match Hashtbl.find_opt t.owners r.coflow with
   | Some l -> l := r :: !l
   | None -> Hashtbl.add t.owners r.coflow (ref [ r ]));
  c.c_reservations.v <- c.c_reservations.v + 1

(* Re-admit a stored plan verbatim: all-or-nothing, and checked with
   [fits_exact]'s strict disjointness before any window lands. The
   check-all-then-reserve-all order matters: sibling windows of one
   plan may overlap each other by rounding dust (within
   [time_tolerance]), which [reserve] tolerates but [fits_exact] does
   not — checking each window against the table {e before} any sibling
   enters keeps the predicate equivalent to "the whole plan fits",
   where a per-window check-then-reserve interleaving would reject a
   plan whose dust-overlapping sibling was already admitted. *)
let splice_exact t rs =
  if List.for_all (fits_exact t) rs then begin
    List.iter (reserve t) rs;
    true
  end
  else false

(* --- removal ---------------------------------------------------------- *)

(* index of a window field-for-field equal to [r] in the slot's
   start-sorted array, or -1. Equal starts are contiguous, so only that
   run is probed. *)
let slot_find c (s : slot) r =
  let i = ref (search_gt c s.starts s.len r.start - 1) in
  let found = ref (-1) in
  while !found < 0 && !i >= 0 && s.starts.(!i) = r.start do
    c.c_scans.v <- c.c_scans.v + 1;
    if same_window s.res.(!i) r then found := !i else decr i
  done;
  !found

let owner_remove t r =
  match Hashtbl.find_opt t.owners r.coflow with
  | None -> ()
  | Some l ->
    let rec drop = function
      | [] -> []
      | x :: tl -> if same_window x r then tl else x :: drop tl
    in
    (match drop !l with
     | [] -> Hashtbl.remove t.owners r.coflow
     | l' -> l := l')

let remove t r =
  let c = counters () in
  c.c_queries.v <- c.c_queries.v + 1;
  let s_in = slot_of t.ins r.src in
  let k = slot_find c s_in r in
  if k < 0 then false
  else begin
    slot_remove s_in k;
    let s_out = slot_of t.outs r.dst in
    let k_out = slot_find c s_out r in
    assert (k_out >= 0);
    slot_remove s_out k_out;
    owner_remove t r;
    c.c_rollbacks.v <- c.c_rollbacks.v + 1;
    true
  end

let retract_coflow t id =
  match Hashtbl.find_opt t.owners id with
  | None -> 0
  | Some l ->
    let windows = !l in
    (* drop the bucket first so [remove]'s per-window owner upkeep is a
       no-op instead of O(|windows|) list surgery per window *)
    Hashtbl.remove t.owners id;
    List.iter (fun r -> ignore (remove t r : bool)) windows;
    List.length windows

(* --- traversal -------------------------------------------------------- *)

(* the slot's windows consed onto [acc], in start order *)
let slot_windows s acc =
  let acc = ref acc in
  for i = s.len - 1 downto 0 do
    acc := s.res.(i) :: !acc
  done;
  !acc

let port_reservations t p = slot_windows (find_slot t p) []

(* Field-wise orders: the same answers as polymorphic [compare] on the
   key tuples (whose floats compare as [Float.compare] does), without
   building a tuple per comparison. *)
let compare_circuits ((s1 : int), (d1 : int)) (s2, d2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c else Int.compare d1 d2

(* [(start, src, dst)] *)
let start_order a b =
  let c = Float.compare a.start b.start in
  if c <> 0 then c
  else
    let c = Int.compare a.src b.src in
    if c <> 0 then c else Int.compare a.dst b.dst

(* [(start, src, dst, coflow, setup, length)]: the full window
   identity, so equal-start dust twins, whose array order depends on
   insertion order, sort the same in every table holding them *)
let physical_order a b =
  let c = start_order a b in
  if c <> 0 then c
  else
    let c = Int.compare a.coflow b.coflow in
    if c <> 0 then c
    else
      let c = Float.compare a.setup b.setup in
      if c <> 0 then c else Float.compare a.length b.length

let all_reservations t =
  let acc = ref [] in
  for p = Array.length t.ins - 1 downto 0 do
    let s = t.ins.(p) in
    if s.len > 0 then acc := slot_windows s !acc
  done;
  List.sort start_order !acc

(* Stabbing and slice queries scan the input slots: every window has
   exactly one input port, so each is met once. Per slot, a binary
   search finds the instant, and a leftward walk from it collects the
   windows stopping past the instant until one [shields] it. *)

(* windows of slot [s] at or left of index [j] that stop past [x],
   consed onto [acc] *)
let rec cover_left c (s : slot) x j acc =
  if j < 0 then acc
  else begin
    c.c_scans.v <- c.c_scans.v + 1;
    let w = s.res.(j) in
    if stop w > x then cover_left c s x (j - 1) (w :: acc)
    else if shields w x then acc
    else cover_left c s x (j - 1) acc
  end

let covering_at t instant =
  let c = counters () in
  c.c_queries.v <- c.c_queries.v + 1;
  let acc = ref [] in
  for p = 0 to Array.length t.ins - 1 do
    let s = t.ins.(p) in
    if s.len > 0 then
      acc := cover_left c s instant (search_gt c s.starts s.len instant - 1) !acc
  done;
  !acc

let established_at t instant =
  covering_at t instant
  |> List.filter_map (fun r ->
         if r.start +. r.setup <= instant then Some (r.src, r.dst) else None)
  |> List.sort_uniq compare_circuits

let reservations_in t t0 t1 =
  let c = counters () in
  c.c_queries.v <- c.c_queries.v + 1;
  let acc = ref [] in
  for p = 0 to Array.length t.ins - 1 do
    let s = t.ins.(p) in
    if s.len > 0 then begin
      let k = search_gt c s.starts s.len t0 in
      (* windows opening inside the slice ([t0 < start < t1]) *)
      let j = ref k in
      while
        !j < s.len
        && begin
             c.c_scans.v <- c.c_scans.v + 1;
             s.starts.(!j) < t1
           end
      do
        acc := s.res.(!j) :: !acc;
        incr j
      done;
      (* and those starting at or before [t0] that reach past it *)
      acc := cover_left c s t0 (k - 1) !acc
    end
  done;
  List.sort physical_order !acc
