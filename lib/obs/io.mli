(** Leak-proof file writing, shared by every obs exporter, the CLI
    and the bench harness (the bug class PR 1 fixed in
    [Trace.load]/[Trace.save]: an exception between [open_out] and
    [close_out] leaked the descriptor and could drop buffered
    output). *)

val write_file : string -> string -> unit
(** [write_file path contents] opens [path] for writing, writes
    [contents] and closes it even when the write raises. *)
