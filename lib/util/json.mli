(** Minimal JSON emitter, so benchmark artifacts and fault reports need
    no external JSON dependency. Non-finite floats serialise as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): quote,
    backslash, [\n], [\r] and [\t] get their short escapes, every other
    control byte [\u00XX]. *)

val to_string : t -> string
(** Indented by two spaces per level, with a trailing newline. *)

val write : string -> t -> unit
