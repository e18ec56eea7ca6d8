(** The coflow-benchmark trace format.

    The paper's workload is a one-hour Facebook Hive/MapReduce trace
    distributed as [github.com/coflow/coflow-benchmark] in a simple
    text format, which this module reads and writes:

    {v
    <num_racks> <num_coflows>
    <id> <arrival_ms> <num_mappers> <rack>... <num_reducers> <rack>:<MB>...
    v}

    Each mapper rack sends an equal share of each reducer's total to
    that reducer; rack numbers double as switch port ids. The format
    stores only per-reducer totals, so writing a Coflow whose flows are
    uneven and re-reading it yields the evenly-split approximation
    (exact round-trip for shuffle-shaped Coflows); see {!to_string}.

    A user with the real trace file can load it directly; the synthetic
    generator ({!Synthetic}) produces traces in the same representation
    otherwise. *)

type t = { n_ports : int; coflows : Sunflow_core.Coflow.t list }

exception Parse_error of { line : int; message : string }

val parse : string -> t
(** Parse the format from a string, through the same streaming core
    as {!fold}, fed the string's lines. Raises {!Parse_error} with a
    1-based line number on malformed input (bad counts, rack out of
    range, non-positive size, negative arrival, a non-finite number
    such as [nan], [inf] or [1e400], duplicate Coflow id). Blank lines
    and lines starting with [#] are skipped. Faults are reported in
    file order: a header-count mismatch surfaces only once every line
    has been read (a shortfall) or at the first surplus line, so a
    malformed or duplicate line before that point is reported
    first. *)

val load : string -> t
(** {!parse} over a file, read one line at a time — never the whole
    file at once, and no [in_channel_length], so pipes work. The input
    channel is closed even when reading or parsing raises. Same
    results and {!Parse_error}s as {!parse} on the file's contents. *)

val fold :
  ?on_header:(n_ports:int -> n_coflows:int -> unit) ->
  in_channel ->
  init:'a ->
  f:('a -> Sunflow_core.Coflow.t -> 'a) ->
  'a
(** Stream the format from a channel, folding [f] over Coflows in file
    order without ever materialising the list — the serving loop's
    reader, and it works on non-seekable inputs (pipes, stdin), where
    a whole-file read could not. [on_header] fires once
    with the header's declared counts before the first Coflow. The
    header count is still enforced (a shortfall is detected at EOF, a
    surplus at the first extra line), but duplicate Coflow ids are
    {e not} — a dup-id check needs every id ever seen, which is exactly
    the unbounded state a streaming consumer exists to avoid; callers
    that need it (like {!load}) layer it on top. Raises {!Parse_error}
    as {!parse} does. Does not close the channel. *)

val reader :
  ?on_header:(n_ports:int -> n_coflows:int -> unit) ->
  in_channel ->
  unit ->
  Sunflow_core.Coflow.t option
(** The pull form of {!fold}: parses the header immediately (calling
    [on_header], and raising {!Parse_error} on a malformed one), then
    returns a generator yielding one Coflow per call, [None] at a
    clean EOF, and raising {!Parse_error} lazily at the offending
    line otherwise. This is the shape the serving loop consumes
    ([Sunflow_serve.run]'s [next]); same checks and caveats as
    {!fold}. Does not close the channel. *)

val to_string : t -> string
(** Serialise. Senders become the mapper list; each receiver's column
    sum becomes its reducer total (in decimal MB).

    Arrivals (decimal ms) and reducer totals are written with full
    precision: the emitted literal is chosen so that re-parsing it
    reproduces the in-memory arrival and per-receiver column sums
    bit-for-bit whenever the value has an exact decimal preimage
    under the parser's arithmetic — which every value that itself
    came from a trace file does. (An arrival synthesised in code with
    no exact [ms /. 1e3] preimage degrades to the nearest
    representable value, within one ulp.)

    Because the reducer-total format keeps no per-mapper breakdown, a
    [to_string] / {!parse} round trip redistributes each reducer's
    bytes {e evenly} across the Coflow's mappers: a Coflow where mapper
    0 sends 9 MB and mapper 1 sends 1 MB to the same reducer comes back
    as 5 MB from each. Totals per reducer (and so per Coflow) are
    preserved at full precision; the per-flow split is only exact for
    Coflows that were already even (the shuffle shape the benchmark
    trace encodes). This per-reducer column-sum granularity is
    inherent to the coflow-benchmark format, not a parser choice. *)

val save : string -> t -> unit
(** Write {!to_string} to a file. The channel is closed even if the
    write fails partway. *)

val total_bytes : t -> float
val n_coflows : t -> int
