(** AT&T-flavoured pretty printer for x86lite. *)

val pp_operand : Format.formatter -> Isa.operand -> unit

val pp_insn : Format.formatter -> Isa.insn -> unit

val insn_to_string : Isa.insn -> string

(** Disassembly listing of an assembled program, one line per
    instruction with its guest address. *)
val pp_program : Format.formatter -> Asm.program -> unit
