(* Textual assembler for x86lite: the exact inverse of {!Pretty}.

   The grammar is the AT&T-flavoured surface syntax the pretty printer
   emits (source operand first, %-prefixed registers, $-prefixed
   immediates, hex branch targets), extended with labels and a `.base`
   directive so whole workloads can be written by hand:

     # comment ('#', ';' and '//' all start comments)
     .base 0x1000
     loop:
       movl $64, %edi
       addl $-1, %edi
       movw 0x3(%esi), %ax   ; sizes: b/w/l/q
       jne loop              ; targets: label or absolute address
       hlt

   Errors are values carrying the 1-based line and column of the
   offending token, so `mdabench asm` can point at it. Comments, labels,
   branch targets and errors are {!Mda_util.Asm_source}'s; this module
   keeps the operand grammar, the mnemonic dispatch and `.base`. *)

open Isa
module C = Mda_util.Cursor
module S = Mda_util.Asm_source

type error = S.error = { line : int; col : int; msg : string }

let pp_error = S.pp_error

let syntax = { S.hash_comments = true; max_target = 0xFFFF_FFFF }

(* --- token-level helpers ------------------------------------------------ *)

(* "%eax" etc.; [reg_name] includes the '%'. *)
let reg c =
  let start = C.col c in
  C.expect c '%';
  let name = C.ident c in
  match S.find reg_name all_regs ("%" ^ name) with
  | Some r -> r
  | None -> C.error start "unknown register %%%s" name

let imm32 c =
  let start = C.col c in
  C.expect c '$';
  let v = C.number c in
  if v < -0x8000_0000 || v > 0xFFFF_FFFF then
    C.error start "immediate %d does not fit in 32 bits" v;
  Int32.of_int v

let check_disp start v =
  if v < -0x8000_0000 || v > 0x7FFF_FFFF then
    C.error start "displacement %d does not fit in 32 bits" v
  else v

let scale c =
  let start = C.col c in
  match C.number c with
  | (1 | 2 | 4 | 8) as s -> s
  | s -> C.error start "scale must be 1, 2, 4 or 8 (got %d)" s

(* disp, d(%b), (%b), d(%b,%i,s), d(,%i,s), (,%i,s) ... *)
let addr c =
  let start = C.col c in
  let disp = if C.at_number c then check_disp start (C.number c) else 0 in
  if not (C.eat c '(') then
    if C.col c = start then C.error start "expected an address operand"
    else { base = None; index = None; disp }
  else begin
    let base = if C.eat c ',' then None else Some (reg c) in
    let index =
      match base with
      | None ->
        (* "(," already consumed: an index is mandatory *)
        let i = reg c in
        C.expect c ',';
        Some (i, scale c)
      | Some _ ->
        if C.eat c ',' then begin
          let i = reg c in
          C.expect c ',';
          Some (i, scale c)
        end
        else None
    in
    C.expect c ')';
    { base; index; disp }
  end

(* The three operand shapes, told apart by their first character. *)
type op_kind = O_reg of reg | O_imm of int32 | O_addr of addr

let operand c =
  match C.peek c with
  | Some '%' -> O_reg (reg c)
  | Some '$' -> O_imm (imm32 c)
  | Some ('(' | '0' .. '9' | '-' | '+') -> O_addr (addr c)
  | Some ch -> C.error (C.col c) "expected an operand, found '%c'" ch
  | None -> C.error (C.col c) "expected an operand at end of line"

let src_dst c =
  C.skip_ws c;
  let src = operand c in
  C.skip_ws c;
  C.expect c ',';
  C.skip_ws c;
  let dst = operand c in
  (src, dst)

let reg_or_imm col = function
  | O_reg r -> Reg r
  | O_imm i -> Imm i
  | O_addr _ -> C.error col "memory operand not allowed here"

(* --- mnemonic dispatch -------------------------------------------------- *)

let size_of_suffix = function
  | 'b' -> Some S1
  | 'w' -> Some S2
  | 'l' -> Some S4
  | 'q' -> Some S8
  | _ -> None

(* movX / movsX families: dispatch on operand shapes. *)
let mov c mcol ~signed ~size ~suffixed =
  let src, dst = src_dst c in
  match (src, dst, signed) with
  | O_addr src, O_reg dst, _ -> S.Insn (Load { dst; src; size; signed })
  | O_reg src, O_addr dst, false -> S.Insn (Store { src; dst; size })
  | O_reg _, O_addr _, true -> C.error mcol "movs is a load; stores are never sign-extended"
  | O_imm imm, O_reg dst, false ->
    if suffixed <> 'l' then C.error mcol "immediate moves are always movl"
    else S.Insn (Mov_imm { dst; imm })
  | O_reg src, O_reg dst, false ->
    if suffixed <> 'l' then C.error mcol "register moves are always movl"
    else S.Insn (Mov_reg { dst; src })
  | _ -> C.error mcol "unsupported mov operand combination"

(* <binop><suffix>: register ALU op (suffix l, destination register) or
   memory read-modify-write (destination address). *)
let alu c mcol op ~suffix =
  let src, dst = src_dst c in
  match dst with
  | O_reg dst ->
    if suffix <> 'l' then C.error mcol "register ALU ops are 32-bit; use the 'l' suffix"
    else S.Insn (Binop { op; dst; src = reg_or_imm mcol src })
  | O_addr dst ->
    if not (rmw_op_ok op) then
      C.error mcol "%s cannot target memory (only add/sub/and/or/xor can)" (binop_name op)
    else begin
      let size =
        match size_of_suffix suffix with
        | Some S8 | None -> C.error mcol "memory RMW sizes are b, w or l"
        | Some s -> s
      in
      S.Insn (Rmw { op; dst; src = reg_or_imm mcol src; size })
    end
  | O_imm _ -> C.error mcol "destination must be a register or an address"

let unary_reg c mk =
  C.skip_ws c;
  let r = reg c in
  S.Insn (mk r)

let two_op c mk =
  (* cmp/test print "op b, a": source operand first. *)
  let b, a = src_dst c in
  let mcol = C.col c in
  match a with
  | O_reg a -> S.Insn (mk a (reg_or_imm mcol b))
  | _ -> C.error mcol "second operand must be a register"

let insn_body c =
  C.skip_ws c;
  let mcol = C.col c in
  let m = C.ident c in
  let n = String.length m in
  let stem = String.sub m 0 (n - 1) in
  let last = m.[n - 1] in
  match m with
  | "ret" -> S.Insn Ret
  | "nop" -> S.Insn Nop
  | "hlt" -> S.Insn Halt
  | "jmp" -> S.branch syntax c (fun t -> Jmp t)
  | "call" -> S.branch syntax c (fun t -> Call t)
  | "pushl" -> unary_reg c (fun r -> Push r)
  | "popl" -> unary_reg c (fun r -> Pop r)
  | "cmpl" -> two_op c (fun a b -> Cmp { a; b })
  | "testl" -> two_op c (fun a b -> Test { a; b })
  | "leal" ->
    let src, dst = src_dst c in
    (match (src, dst) with
    | O_addr src, O_reg dst -> S.Insn (Lea { dst; src })
    | _ -> C.error mcol "lea takes an address and a destination register")
  | _ -> (
    (* j<cond> *)
    match
      if n > 1 && m.[0] = 'j' then S.find cond_name all_conds (String.sub m 1 (n - 1)) else None
    with
    | Some cond -> S.branch syntax c (fun target -> Jcc { cond; target })
    | None -> (
      (* mov<size> / movs<size> *)
      let movlike signed =
        match size_of_suffix last with
        | Some size -> mov c mcol ~signed ~size ~suffixed:last
        | None -> C.error mcol "unknown mnemonic %S" m
      in
      if stem = "mov" then movlike false
      else if stem = "movs" then movlike true
      else
        (* <binop><size> *)
        match S.find binop_name all_binops stem with
        | Some op when size_of_suffix last <> None -> alu c mcol op ~suffix:last
        | _ -> C.error mcol "unknown mnemonic %S" m))

(* --- programs ------------------------------------------------------------ *)

let insn = S.insn syntax insn_body

(* The rest of a program line: an instruction, or the `.base N`
   directive, which must precede every label and instruction. Labels
   resolve to byte addresses through {!Asm}: instruction [k] is bound to
   label [at.(k)], and a branch to a label preceding instruction [k]
   targets [at.(k)]. *)
let program ?base text =
  let base = ref base and saw_code = ref false in
  let define col name =
    if name = ".base" then C.error col ".base is a directive, not a label";
    saw_code := true
  in
  let line c =
    let dcol = C.col c in
    if C.peek c = Some '.' then begin
      let d = C.ident c in
      if d <> ".base" then C.error dcol "unknown directive %S" d;
      if !saw_code then C.error dcol ".base must precede all code";
      if !base <> None then C.error dcol "duplicate .base directive";
      C.skip_ws c;
      let v = C.number c in
      if v < 0 || v > 0xFFFF_FFFF then C.error dcol "base address %d out of range" v;
      base := Some v;
      None
    end
    else begin
      saw_code := true;
      Some (insn_body c)
    end
  in
  S.program syntax ~define line text
  |> Result.map (fun (items, index) ->
         let b = Asm.create () in
         let at = Array.init (Array.length items + 1) (fun _ -> Asm.fresh_label b) in
         Array.iteri
           (fun k item ->
             Asm.bind b at.(k);
             match item with
             | S.Insn ((Jmp _ | Jcc _ | Call _) as i) -> Asm.branch_abs b i
             | S.Insn i -> Asm.insn b i
             | S.Label_use (l, _, mk) -> (
               let l = at.(index l) in
               match mk 0 with
               | Jmp _ -> Asm.jmp b l
               | Jcc { cond; _ } -> Asm.jcc b cond l
               | Call _ -> Asm.call b l
               | _ -> assert false))
           items;
         Asm.bind b at.(Array.length items);
         Asm.assemble ?base:!base b)
