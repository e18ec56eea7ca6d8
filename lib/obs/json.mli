(** A minimal JSON reader and the two spellings the project's
    hand-rolled emitters share (no dependency on a JSON library; this
    parser keeps the emitters honest). Shared by the obs tests, the
    bench checker and {!Chrome_trace.validate}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error msg] pinpoints the offset
    of the first syntax error. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing key or non-object. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    double quote, backslash, newline and tab get their short escapes,
    every other byte below 0x20 a [\u00XX] escape (so carriage return
    is [\u000d]), and all other bytes, UTF-8 included, pass through. *)

val float : float -> string
(** A JSON number for a finite [x] ([%.9g]), [null] otherwise. *)
