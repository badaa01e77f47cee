(* Pretty printer for alphalite, in Alpha assembly style. *)

open Isa

(* Signed hex literal: %#x would render a negative int as its 63-bit
   two's complement, which {!Parse} could never read back. *)
let pp_hex fmt v =
  if v < 0 then Format.fprintf fmt "-%#x" (-v) else Format.fprintf fmt "%#x" v

let pp_operand fmt = function
  | Rb r -> Format.pp_print_string fmt (reg_name r)
  | Lit v -> Format.fprintf fmt "#%d" v

let pp_mem fmt mnemonic ra rb disp =
  Format.fprintf fmt "%s %s, %d(%s)" mnemonic (reg_name ra) disp (reg_name rb)

let pp_insn fmt = function
  | Ldbu { ra; rb; disp } -> pp_mem fmt "ldbu" ra rb disp
  | Ldwu { ra; rb; disp } -> pp_mem fmt "ldwu" ra rb disp
  | Ldl { ra; rb; disp } -> pp_mem fmt "ldl" ra rb disp
  | Ldq { ra; rb; disp } -> pp_mem fmt "ldq" ra rb disp
  | Ldq_u { ra; rb; disp } -> pp_mem fmt "ldq_u" ra rb disp
  | Stb { ra; rb; disp } -> pp_mem fmt "stb" ra rb disp
  | Stw { ra; rb; disp } -> pp_mem fmt "stw" ra rb disp
  | Stl { ra; rb; disp } -> pp_mem fmt "stl" ra rb disp
  | Stq { ra; rb; disp } -> pp_mem fmt "stq" ra rb disp
  | Stq_u { ra; rb; disp } -> pp_mem fmt "stq_u" ra rb disp
  | Lda { ra; rb; disp } -> pp_mem fmt "lda" ra rb disp
  | Ldah { ra; rb; disp } -> pp_mem fmt "ldah" ra rb disp
  | Opr { op; ra; rb; rc } ->
    Format.fprintf fmt "%s %s, %a, %s" (oper_name op) (reg_name ra) pp_operand rb
      (reg_name rc)
  | Bytem { op; width; high; ra; rb; rc } ->
    Format.fprintf fmt "%s%s%s %s, %a, %s" (bytemanip_name op) (width_letter width)
      (if high then "h" else "l")
      (reg_name ra) pp_operand rb (reg_name rc)
  | Br { ra; target } ->
    if ra = r31 then Format.fprintf fmt "br %a" pp_hex target
    else Format.fprintf fmt "br %s, %a" (reg_name ra) pp_hex target
  | Bcond { cond; ra; target } ->
    Format.fprintf fmt "%s %s, %a" (bcond_name cond) (reg_name ra) pp_hex target
  | Jmp { ra; rb } -> Format.fprintf fmt "jmp %s, (%s)" (reg_name ra) (reg_name rb)
  | Monitor (Next_guest g) -> Format.fprintf fmt "monitor next_guest=%a" pp_hex g
  | Monitor (Dyn_guest r) -> Format.fprintf fmt "monitor dyn_guest=%s" (reg_name r)
  | Monitor Prog_halt -> Format.pp_print_string fmt "monitor halt"
  | Nop -> Format.pp_print_string fmt "nop"

let insn_to_string i = Format.asprintf "%a" pp_insn i
