(** Character cursor over one line of assembly text, shared by the
    guest (x86lite) and host (alphalite) parsers. All positions are
    1-based columns, for error reporting. *)

(** Raised by every lexing helper on malformed input: (column, message).
    The parsers catch it per line and attach the line number. *)
exception Error of int * string

(** [error col fmt ...] raises {!Error} with a formatted message. *)
val error : int -> ('a, unit, string, 'b) format4 -> 'a

type t

val make : string -> t

(** Current 1-based column. *)
val col : t -> int

val peek : t -> char option

val advance : t -> unit

val skip_ws : t -> unit

val is_ident_start : char -> bool

(** Reads an identifier: letters, digits, ['_'] and ['.'], not
    starting with a digit. Raises {!Error} if none starts here. *)
val ident : t -> string

(** Does a numeric literal (digit or sign) start here? *)
val at_number : t -> bool

(** Reads an integer literal: decimal or [0x]/[0o]/[0b] prefixed, with
    an optional sign. Raises {!Error} on malformed literals. *)
val number : t -> int

(** [expect c ch] consumes exactly [ch] or raises {!Error}. *)
val expect : t -> char -> unit

(** [eat c ch] consumes [ch] if present; returns whether it did. *)
val eat : t -> char -> bool

(** Requires only whitespace to remain on the line. *)
val finish : t -> unit
