(** Tables keyed by Coflow ids (any [int]): the engines' id lookups,
    without polymorphic hashing or comparison. *)

include Hashtbl.S with type key = int
