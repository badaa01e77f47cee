(** Textual assembler for x86lite: the exact inverse of {!Pretty}.

    Accepts the AT&T-flavoured syntax the pretty printer emits —
    source operand first, [%]-prefixed registers, [$]-prefixed
    immediates, [b]/[w]/[l]/[q] size suffixes — extended with
    [label:] definitions, label branch targets, a [.base] directive,
    and [#]/[;]/[//] comments. Comments, labels, branch targets and
    errors come from {!Mda_util.Asm_source}, shared with the host
    assembler; this module adds the x86lite grammar and [.base]. *)

(** A parse error, pointing at the offending token (1-based). *)
type error = Mda_util.Asm_source.error = { line : int; col : int; msg : string }

val pp_error : Format.formatter -> error -> unit

(** Parse a single instruction (no labels; branch targets must be
    absolute addresses). [parse (pretty i) = Ok i] for every
    encodable instruction. *)
val insn : string -> (Isa.insn, error) result

(** Parse and assemble a whole program. Labels are resolved to
    absolute guest addresses by {!Asm.assemble}; [?base] (default
    0x1000) may instead be set in the source with [.base ADDR] before
    any code. *)
val program : ?base:int -> string -> (Asm.program, error) result
