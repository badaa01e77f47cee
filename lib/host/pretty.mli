(** Alpha-assembly-style pretty printer for alphalite. *)

val pp_operand : Format.formatter -> Isa.operand -> unit

val pp_insn : Format.formatter -> Isa.insn -> unit

val insn_to_string : Isa.insn -> string
