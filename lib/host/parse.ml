(* Textual assembler for alphalite: the exact inverse of {!Pretty}.

   Alpha assembly style:

     ; comment (';' and "//" start comments; '#' is literal syntax)
     loop:
       ldq_u r21, 7(r3)
       extql r21, r3, r21
       addq r21, #1, r21
       bne r12, loop
       monitor halt

   Labels name instruction indices (host "pcs" are code-cache slot
   numbers, not byte addresses). Errors carry the 1-based line and
   column of the offending token. Comments, labels, branch targets and
   errors are {!Mda_util.Asm_source}'s; this module keeps the operand
   grammar and the mnemonic dispatch. *)

open Isa
module C = Mda_util.Cursor
module S = Mda_util.Asm_source

type error = S.error = { line : int; col : int; msg : string }

let pp_error = S.pp_error

(* '#' introduces literals ("addq r1, #8, r2"), so unlike the guest
   syntax it cannot start a comment here. *)
let syntax = { S.hash_comments = false; max_target = max_int }

(* --- token-level helpers ------------------------------------------------ *)

(* "zero" or "rN"; [reg_name] prints r31 as "zero", but accept both. *)
let reg_of_name start name =
  if name = "zero" then r31
  else begin
    let n = String.length name in
    if n < 2 || name.[0] <> 'r' then C.error start "unknown register %S" name
    else
      match int_of_string_opt (String.sub name 1 (n - 1)) with
      | Some r when r >= 0 && r < num_regs -> r
      | _ -> C.error start "unknown register %S" name
  end

let reg c =
  let start = C.col c in
  reg_of_name start (C.ident c)

let comma c =
  C.skip_ws c;
  C.expect c ',';
  C.skip_ws c

(* Register or "#lit" 8-bit literal. *)
let operand c =
  if C.eat c '#' then begin
    let start = C.col c in
    let v = C.number c in
    if v < 0 || v > 0xFF then C.error start "literal %d does not fit in 8 bits" v;
    Lit v
  end
  else Rb (reg c)

let mem_disp c =
  C.skip_ws c;
  let start = C.col c in
  let disp = if C.at_number c then C.number c else 0 in
  if disp < -0x8000 || disp > 0x7FFF then
    C.error start "displacement %d does not fit in 16 bits" disp;
  C.expect c '(';
  let rb = reg c in
  C.expect c ')';
  (disp, rb)

(* --- mnemonic dispatch -------------------------------------------------- *)

let mem_table =
  [ ("ldbu", fun ra rb disp -> Ldbu { ra; rb; disp });
    ("ldwu", fun ra rb disp -> Ldwu { ra; rb; disp });
    ("ldl", fun ra rb disp -> Ldl { ra; rb; disp });
    ("ldq", fun ra rb disp -> Ldq { ra; rb; disp });
    ("ldq_u", fun ra rb disp -> Ldq_u { ra; rb; disp });
    ("stb", fun ra rb disp -> Stb { ra; rb; disp });
    ("stw", fun ra rb disp -> Stw { ra; rb; disp });
    ("stl", fun ra rb disp -> Stl { ra; rb; disp });
    ("stq", fun ra rb disp -> Stq { ra; rb; disp });
    ("stq_u", fun ra rb disp -> Stq_u { ra; rb; disp });
    ("lda", fun ra rb disp -> Lda { ra; rb; disp });
    ("ldah", fun ra rb disp -> Ldah { ra; rb; disp }) ]

(* extwl / inslh / mskqh ... : group + width letter + l/h. *)
let find_bytem name =
  if String.length name <> 5 then None
  else
    let group =
      match String.sub name 0 3 with
      | "ext" -> Some Ext
      | "ins" -> Some Ins
      | "msk" -> Some Msk
      | _ -> None
    in
    let width = match name.[3] with 'w' -> Some 2 | 'l' -> Some 4 | 'q' -> Some 8 | _ -> None in
    let high = match name.[4] with 'l' -> Some false | 'h' -> Some true | _ -> None in
    match (group, width, high) with
    | Some op, Some width, Some high -> Some (op, width, high)
    | _ -> None

let monitor c mcol =
  C.skip_ws c;
  let kcol = C.col c in
  match C.ident c with
  | "halt" -> Monitor Prog_halt
  | "next_guest" ->
    C.expect c '=';
    let vcol = C.col c in
    let v = C.number c in
    if v < 0 || v > 0xFF_FFFF then C.error vcol "guest address %d does not fit in 24 bits" v;
    Monitor (Next_guest v)
  | "dyn_guest" ->
    C.expect c '=';
    Monitor (Dyn_guest (reg c))
  | k -> C.error kcol "unknown monitor kind %S (after column %d)" k mcol

let insn_body c =
  C.skip_ws c;
  let mcol = C.col c in
  let m = C.ident c in
  match m with
  | "nop" -> S.Insn Nop
  | "monitor" -> S.Insn (monitor c mcol)
  | "jmp" ->
    C.skip_ws c;
    let ra = reg c in
    comma c;
    C.expect c '(';
    let rb = reg c in
    C.expect c ')';
    S.Insn (Jmp { ra; rb })
  | "br" -> (
    C.skip_ws c;
    (* "br target" (ra = zero) or "br ra, target"; an identifier is a
       register only when a comma follows — else it is a label, even
       one spelled like "r5loop". *)
    let br ra target = Br { ra; target } in
    if C.at_number c then S.branch syntax c (br r31)
    else begin
      let start = C.col c in
      let name = C.ident c in
      C.skip_ws c;
      if C.eat c ',' then S.branch syntax c (br (reg_of_name start name))
      else S.Label_use (name, start, br r31)
    end)
  | _ -> (
    match List.assoc_opt m mem_table with
    | Some mk ->
      C.skip_ws c;
      let ra = reg c in
      comma c;
      let disp, rb = mem_disp c in
      S.Insn (mk ra rb disp)
    | None -> (
      match S.find bcond_name all_bconds m with
      | Some cond ->
        C.skip_ws c;
        let ra = reg c in
        comma c;
        S.branch syntax c (fun target -> Bcond { cond; ra; target })
      | None -> (
        match find_bytem m with
        | Some (op, width, high) ->
          C.skip_ws c;
          let ra = reg c in
          comma c;
          let rb = operand c in
          comma c;
          let rc = reg c in
          S.Insn (Bytem { op; width; high; ra; rb; rc })
        | None -> (
          match S.find oper_name all_opers m with
          | Some op ->
            C.skip_ws c;
            let ra = reg c in
            comma c;
            let rb = operand c in
            comma c;
            let rc = reg c in
            S.Insn (Opr { op; ra; rb; rc })
          | None -> C.error mcol "unknown mnemonic %S" m))))

(* --- programs ------------------------------------------------------------ *)

let insn = S.insn syntax insn_body

(* Labels resolve to the index of the instruction they precede. *)
let program text =
  S.program syntax (fun c -> Some (insn_body c)) text
  |> Result.map (fun (items, index) ->
         Array.map (function S.Insn i -> i | S.Label_use (l, _, mk) -> mk (index l)) items)
