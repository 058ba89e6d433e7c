(** Typed corruption and fault reporting for the PM structures.

    Before this module, a damaged pool surfaced as a bare [Failure] (or
    an [assert false]) somewhere inside recovery — indistinguishable
    from an implementation bug and carrying no coordinates. Every
    corruption the recovery, fsck and scrub paths can encounter is now
    described by a {!t}: {e where} in the pool ({!site}), {e what} was
    found ([detail]), and — when identifiable — {e which keys} are
    affected.

    The same vocabulary describes fsck's verdicts: a {!finding} is a
    site plus the {!action} taken on it, and an fsck/scrub run returns a
    list of findings partitioned into repaired / quarantined / detected
    (DESIGN.md §15 gives the decision table). *)

(** Pool coordinates of a corruption. Classes are carried as strings
    ("leaf", "val8", …) so this module stays a leaf of the dependency
    graph. *)
type site =
  | Root_block of { off : int }
      (** the root block's scalars: magic, kh word, class list heads *)
  | Chunk_meta of { cls : string; chunk : int }
      (** a chunk prologue (its PNext chain pointer) *)
  | Leaf_slot of { chunk : int; idx : int; leaf : int }
  | Value_slot of { cls : string; chunk : int; idx : int; obj : int }
  | Log_slot of { slot : int; off : int }  (** one recycle-log slot *)
  | Pool_line of { line : int }
      (** a 64-byte line attributable to no finer structure (free space,
          allocation padding, unmounted regions) *)

type t = { site : site; detail : string; keys : string list }

exception Error of t

val error : ?keys:string list -> site -> ('a, unit, string, 'b) format4 -> 'a
(** [error site fmt …] raises {!Error} with a formatted detail. *)

val pp_site : Format.formatter -> site -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 fsck findings} *)

type action =
  | Repaired  (** provably safe fix applied; no data lost *)
  | Quarantined
      (** the damaged object(s) were excised and durably freed; the
          affected keys — as far as they are knowable — are reported *)
  | Detected
      (** reported but not fixable in place (unmountable root, media
          that rejects the repair write) *)

type finding = {
  f_site : site;
  f_action : action;
  f_detail : string;
  f_keys : string list;
      (** affected keys as read from the (possibly damaged) image — a
          best-effort superset identification, empty when unreadable *)
  f_capacity : int;
      (** upper bound on the number of keys this finding can account
          for, including unidentifiable ones: 1 for a single slot, up to
          56 for a whole chunk, 0 for key-less sites. The fault sweep's
          oracle matches divergent keys against reported keys first and
          residual capacity second (a corrupted key byte makes the true
          key unknowable, so exact-name matching cannot be required). *)
}

val action_name : action -> string
val pp_finding : Format.formatter -> finding -> unit

val partition : finding list -> finding list * finding list * finding list
(** [(repaired, quarantined, detected)]. *)
