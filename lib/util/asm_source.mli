(** Assembly source text, shared by the guest (x86lite) and host
    (alphalite) assemblers: located errors, comments, [label:]
    definitions, label and absolute branch targets, and the
    single-instruction and whole-program drivers. Each ISA supplies its
    instruction grammar as a function over a {!Cursor.t}; the two syntaxes
    differ only in the parameters of {!syntax}. *)

(** A parse error, pointing at the offending token (1-based). *)
type error = { line : int; col : int; msg : string }

(** ["line L, column C: MSG"]. *)
val pp_error : Format.formatter -> error -> unit

(** What the two ISAs' source syntaxes differ in. [';'] and ["//"]
    start a comment in both. *)
type syntax = {
  hash_comments : bool;  (** ['#'] starts a comment (host text uses it for literals) *)
  max_target : int;  (** largest absolute branch target *)
}

(** One parsed instruction: complete, or a branch on the label [name]
    used at column [col], built by [mk] from the label's value. *)
type 'i item = Insn of 'i | Label_use of string * int * (int -> 'i)

(** [find name_of all name]: the first element of [all] called [name]. *)
val find : ('a -> string) -> 'a array -> string -> 'a option

(** [branch syntax c mk] lexes a branch target after optional blanks: an
    identifier is a label use, a number an absolute target in
    [0, syntax.max_target] given to [mk]. Raises {!Cursor.Error}. *)
val branch : syntax -> Cursor.t -> (int -> 'i) -> 'i item

(** [insn syntax body text] parses one instruction with [body], which
    must consume the whole line. A label use is an error: there is no
    program to resolve it in. *)
val insn : syntax -> (Cursor.t -> 'i item) -> string -> ('i, error) result

(** [program syntax ?define body text] parses a program line by line.
    A line is optional leading [name:] definitions, then optionally a
    body that [body] parses to an instruction or, for a directive, to
    [None]. [define col name] sees each definition after the
    duplicate-label check and may reject it by raising {!Cursor.Error}.
    The first label use without a definition, in source order, is an
    error, and so is a program without instructions.

    Returns the instructions in source order and, for each defined
    label, the index of the instruction it precedes (the instruction
    count for a label after the last one). *)
val program :
  syntax ->
  ?define:(int -> string -> unit) ->
  (Cursor.t -> 'i item option) ->
  string ->
  ('i item array * (string -> int), error) result
