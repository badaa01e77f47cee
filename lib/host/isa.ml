(* alphalite: the host instruction set.

   A model of the Alpha AXP ISA restricted to what a DBT back end needs,
   keeping the parts the paper's mechanisms depend on with their real
   semantics:

   - strict natural alignment on ldwu/ldl/ldq/stw/stl/stq — a misaligned
     effective address raises an alignment trap (the machine simulator
     delivers it to the registered handler, modelling the OS signal path);
   - the unaligned-access idiom: ldq_u / stq_u plus the EXT/INS/MSK byte
     manipulation instructions, exactly as in the Alpha Architecture
     Handbook, so the paper's Figure-2/Figure-5 MDA code sequences can be
     emitted verbatim;
   - conditional branches and an explicit [Monitor] pseudo-instruction
     standing for the trampoline back to the BT runtime at block exits
     (real DBTs use a jump to a stub; the effect — control returns to the
     translator with the next guest PC — is identical).

   Register conventions used by the translator (documented here because
   the MDA sequences and the patcher both rely on them):
     R0..R7    guest EAX..EDI
     R10,R11   last Cmp/Test operands (for conditional branches)
     R12       last Cmp/Test difference (zero/sign tests)
     R13..R16  translator scratch
     R21..R28  MDA-sequence temporaries (as in the paper: "register 21-30
               of Alpha are used as temporal registers in BT")
     R31       hardwired zero *)

type reg = int (* 0..31; R31 reads as zero and ignores writes *)

let num_regs = 32

let r31 = 31

let check_reg r =
  if r < 0 || r >= num_regs then invalid_arg (Printf.sprintf "Host.Isa.check_reg: %d" r)

let reg_name r =
  check_reg r;
  if r = 31 then "zero" else Printf.sprintf "r%d" r

(* Memory access width for the aligned loads/stores. *)
type mem_size = M1 | M2 | M4 | M8

(* Integer operate instructions (register/register-or-literal). *)
type oper =
  | Addq | Subq | Mulq
  | Addl (* 32-bit add, result sign-extended: doubles as the paper's
            "addl r31, x, x" longword sign-extension idiom *)
  | Subl
  | And | Bis | Xor
  | Sll | Srl | Sra
  | Cmpeq | Cmplt | Cmple | Cmpult | Cmpule
  | Sextb | Sextw (* sign-extend byte/word of operand b into rc *)

let all_opers =
  [| Addq; Subq; Mulq; Addl; Subl; And; Bis; Xor; Sll; Srl; Sra;
     Cmpeq; Cmplt; Cmple; Cmpult; Cmpule; Sextb; Sextw |]

let oper_name = function
  | Addq -> "addq" | Subq -> "subq" | Mulq -> "mulq"
  | Addl -> "addl" | Subl -> "subl"
  | And -> "and" | Bis -> "bis" | Xor -> "xor"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
  | Cmpeq -> "cmpeq" | Cmplt -> "cmplt" | Cmple -> "cmple"
  | Cmpult -> "cmpult" | Cmpule -> "cmpule"
  | Sextb -> "sextb" | Sextw -> "sextw"

(* Byte-manipulation group: EXTxL/EXTxH, INSxL/INSxH, MSKxL/MSKxH where
   x is the field width (2, 4 or 8 bytes). *)
type bytemanip = Ext | Ins | Msk

let bytemanip_name = function Ext -> "ext" | Ins -> "ins" | Msk -> "msk"

let width_letter = function
  | 2 -> "w" | 4 -> "l" | 8 -> "q"
  | n -> invalid_arg (Printf.sprintf "Host.Isa.width_letter: %d" n)

(* Second operand of operate-format instructions: register or an 8-bit
   literal (as on real Alpha). *)
type operand = Rb of reg | Lit of int

(* Branch conditions on a register value. *)
type bcond = Beq | Bne | Blt | Ble | Bgt | Bge

let all_bconds = [| Beq; Bne; Blt; Ble; Bgt; Bge |]

let bcond_name = function
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt"
  | Ble -> "ble" | Bgt -> "bgt" | Bge -> "bge"

(* Why translated code hands control back to the BT runtime. *)
type exit_kind =
  | Next_guest of int (* continue at this static guest address *)
  | Dyn_guest of reg (* continue at the guest address held in a register *)
  | Prog_halt (* guest executed Halt *)

type insn =
  (* memory format; effective address = R[rb] + disp *)
  | Ldbu of { ra : reg; rb : reg; disp : int }
  | Ldwu of { ra : reg; rb : reg; disp : int } (* requires 2-alignment *)
  | Ldl of { ra : reg; rb : reg; disp : int } (* 4-alignment; sign-extends *)
  | Ldq of { ra : reg; rb : reg; disp : int } (* 8-alignment *)
  | Ldq_u of { ra : reg; rb : reg; disp : int } (* never traps: addr & ~7 *)
  | Stb of { ra : reg; rb : reg; disp : int }
  | Stw of { ra : reg; rb : reg; disp : int }
  | Stl of { ra : reg; rb : reg; disp : int }
  | Stq of { ra : reg; rb : reg; disp : int }
  | Stq_u of { ra : reg; rb : reg; disp : int }
  | Lda of { ra : reg; rb : reg; disp : int } (* ra <- R[rb] + disp *)
  | Ldah of { ra : reg; rb : reg; disp : int } (* ra <- R[rb] + disp*65536 *)
  (* operate format *)
  | Opr of { op : oper; ra : reg; rb : operand; rc : reg }
  | Bytem of { op : bytemanip; width : int; high : bool; ra : reg; rb : operand; rc : reg }
  (* control; branch targets are absolute host code-cache addresses *)
  | Br of { ra : reg; target : int } (* ra <- return addr (r31 to discard) *)
  | Bcond of { cond : bcond; ra : reg; target : int }
  | Jmp of { ra : reg; rb : reg } (* indirect jump through R[rb] *)
  | Monitor of exit_kind
  | Nop

(* Width/direction of an access that is subject to the host's alignment
   restriction; Ldq_u / Stq_u and byte accesses never trap. *)
let alignment_requirement = function
  | Ldwu _ -> Some (`Load, 2)
  | Ldl _ -> Some (`Load, 4)
  | Ldq _ -> Some (`Load, 8)
  | Stw _ -> Some (`Store, 2)
  | Stl _ -> Some (`Store, 4)
  | Stq _ -> Some (`Store, 8)
  | _ -> None

(* --- packed instruction keys -------------------------------------------- *)

let oper_code = function
  | Addq -> 0 | Subq -> 1 | Mulq -> 2 | Addl -> 3 | Subl -> 4
  | And -> 5 | Bis -> 6 | Xor -> 7 | Sll -> 8 | Srl -> 9 | Sra -> 10
  | Cmpeq -> 11 | Cmplt -> 12 | Cmple -> 13 | Cmpult -> 14 | Cmpule -> 15
  | Sextb -> 16 | Sextw -> 17
[@@ocamlformat "disable"]

let bytemanip_code = function Ext -> 0 | Ins -> 1 | Msk -> 2

let bcond_code = function Beq -> 0 | Bne -> 1 | Blt -> 2 | Ble -> 3 | Bgt -> 4 | Bge -> 5

(* 9 bits: registers 0..31, literals 256+v for v in 0..255. *)
let pack_operand = function
  | Rb r -> if r land -32 = 0 then r else -1
  | Lit v -> if v >= 0 && v <= 255 then 256 + v else -1

(* Memory format, [mtag] numbering the constructor (0..11 in
   declaration order). *)
let pack_mem mtag ra rb disp =
  if (ra lor rb) land -32 <> 0 || disp < -32768 || disp > 32767 then -1
  else (((((((mtag * 32) + ra) * 32) + rb) * 131072) + (disp + 32768)) * 16) + 1

let pack_lda ra rb disp = pack_mem 10 ra rb disp

let pack_ldah ra rb disp = pack_mem 11 ra rb disp

let pack_opr op ra rb rc =
  let rbc = pack_operand rb in
  if rbc < 0 || (ra lor rc) land -32 <> 0 then -1
  else ((((((oper_code op * 32) + ra) * 512) + rbc) * 32) + rc) * 16

(* [pack_opr] with the second operand known to be a register / a
   literal — the key without an [operand] value in hand. *)
let pack_opr_r op ra rb rc =
  if (ra lor rb lor rc) land -32 <> 0 then -1
  else ((((((oper_code op * 32) + ra) * 512) + rb) * 32) + rc) * 16

let pack_opr_l op ra v rc =
  if v land -256 <> 0 || (ra lor rc) land -32 <> 0 then -1
  else ((((((oper_code op * 32) + ra) * 512) + (256 + v)) * 32) + rc) * 16

let pack_bytem op ~width ~high ra rb rc =
  let rbc = pack_operand rb in
  if rbc < 0 || (ra lor rc) land -32 <> 0 || width land -16 <> 0 then -1
  else
    (((((((((bytemanip_code op * 16) + width) * 2) + Bool.to_int high) * 32 + ra)
        * 512
       + rbc)
        * 32)
     + rc)
       * 16)
    + 2

let pack_next_guest t = if t < 0 then -1 else (t * 4 * 16) + 3

let pack_dyn_guest r = if r land -32 <> 0 then -1 else (((r * 4) + 1) * 16) + 3

let pack_halt = (2 * 16) + 3

let pack_br ra target =
  if target < 0 || ra land -32 <> 0 then -1 else (((target * 32) + ra) * 16) + 4

let pack_bcond cond ra target =
  if target < 0 || ra land -32 <> 0 then -1
  else (((((target * 8) + bcond_code cond) * 32) + ra) * 16) + 5

(* Injective over the packable subset: the low 4 bits tag the
   constructor family, the rest pack the fields, each checked against
   its expected range (so two distinct packable instructions can never
   share a key, and anything out of range gets -1 instead of a
   colliding key). *)
let pack insn =
  match insn with
  | Ldbu { ra; rb; disp } -> pack_mem 0 ra rb disp
  | Ldwu { ra; rb; disp } -> pack_mem 1 ra rb disp
  | Ldl { ra; rb; disp } -> pack_mem 2 ra rb disp
  | Ldq { ra; rb; disp } -> pack_mem 3 ra rb disp
  | Ldq_u { ra; rb; disp } -> pack_mem 4 ra rb disp
  | Stb { ra; rb; disp } -> pack_mem 5 ra rb disp
  | Stw { ra; rb; disp } -> pack_mem 6 ra rb disp
  | Stl { ra; rb; disp } -> pack_mem 7 ra rb disp
  | Stq { ra; rb; disp } -> pack_mem 8 ra rb disp
  | Stq_u { ra; rb; disp } -> pack_mem 9 ra rb disp
  | Lda { ra; rb; disp } -> pack_mem 10 ra rb disp
  | Ldah { ra; rb; disp } -> pack_mem 11 ra rb disp
  | Opr { op; ra; rb; rc } -> pack_opr op ra rb rc
  | Bytem { op; width; high; ra; rb; rc } -> pack_bytem op ~width ~high ra rb rc
  | Monitor (Next_guest t) -> pack_next_guest t
  | Monitor (Dyn_guest r) -> pack_dyn_guest r
  | Monitor Prog_halt -> pack_halt
  | Br { ra; target } -> pack_br ra target
  | Bcond { cond; ra; target } -> pack_bcond cond ra target
  | Jmp { ra; rb } -> if (ra lor rb) land -32 <> 0 then -1 else (((ra * 32) + rb) * 16) + 6
  | Nop -> 7

(* Registers conventionally reserved for the BT runtime. *)
let tmp_regs = [| 21; 22; 23; 24; 25; 26; 27; 28 |]

(* Registers no translated code may ever write: they belong to neither
   the guest mapping (R0..R7), the flag convention (R10..R12), the
   translator scratch set (R13..R16), the MDA temporaries (R21..R28)
   nor the zero register. The translation validator treats a write to
   any of these as a clobber-discipline violation. *)
let reserved_regs = [| 8; 9; 17; 18; 19; 20; 29; 30 |]

let is_reserved_reg r = Array.exists (fun x -> x = r) reserved_regs

let cmp_a = 10

and cmp_b = 11

and cmp_diff = 12

let scratch0 = 13

and scratch1 = 14

and scratch2 = 15

and scratch3 = 16
