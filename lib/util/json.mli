(** Minimal JSON emitter, so benchmark artifacts and fault reports need
    no external JSON dependency. Non-finite floats serialise as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Float of float
  | Str of string
      (** emitted escaped: quote, backslash, [\n], [\r] and [\t] get
          their short escapes, every other control byte [\u00XX] *)
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Indented by two spaces per level, with a trailing newline. *)

val to_compact : t -> string
(** On one line, with no space around separators and no trailing
    newline. *)

val to_lines : t list -> string
(** An array with one compact element per line, each indented by two
    spaces, and a trailing newline; ["[]\n"] when empty, so a report
    can be diffed against an empty baseline line by line. *)

val write : string -> t -> unit
