(** Textual assembler for alphalite: the exact inverse of {!Pretty}.

    Alpha assembly style — [op ra, rb|#lit, rc] operate format,
    [mnem ra, disp(rb)] memory format — extended with [label:]
    definitions (labels name instruction indices), label branch
    targets, and [;]/[//] comments. Comments, labels, branch targets
    and errors come from {!Mda_util.Asm_source}, shared with the guest
    assembler; this module adds the alphalite grammar. *)

(** A parse error, pointing at the offending token (1-based). *)
type error = Mda_util.Asm_source.error = { line : int; col : int; msg : string }

val pp_error : Format.formatter -> error -> unit

(** Parse a single instruction (no labels; branch targets must be
    absolute instruction indices). [parse (pretty i) = Ok i] for every
    encodable instruction. *)
val insn : string -> (Isa.insn, error) result

(** Parse a whole code sequence; labels resolve to instruction
    indices. *)
val program : string -> (Isa.insn array, error) result
