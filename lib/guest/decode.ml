(* Binary decoder for x86lite; inverse of {!Encode}.

   The translator's front end decodes instructions straight out of
   simulated guest memory when discovering basic blocks, so decoding
   errors are reported as values (not exceptions) and carry the faulting
   offset. *)

open Isa

type error = { offset : int; reason : string }

let pp_error fmt { offset; reason } =
  Format.fprintf fmt "decode error at +%d: %s" offset reason

exception Fail of string

let u8 bytes pos =
  if pos >= Bytes.length bytes then raise (Fail "truncated instruction")
  else Char.code (Bytes.get bytes pos)

let i32 bytes pos =
  let b i = u8 bytes (pos + i) in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  (* sign-extend from 32 bits *)
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let u32 bytes pos =
  let b i = u8 bytes (pos + i) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let size bytes pos =
  let c = u8 bytes pos in
  if c > 3 then raise (Fail (Printf.sprintf "bad size code %d" c)) else Encode.size_of_code c

let reg bytes pos =
  let v = u8 bytes pos in
  if v > 7 then raise (Fail (Printf.sprintf "bad register %d" v)) else reg_of_index v

let addr bytes pos =
  let flags = u8 bytes pos in
  if flags land lnot 0x0F <> 0 then raise (Fail (Printf.sprintf "bad addr flags %#x" flags));
  (* canonicality: scale bits are meaningful only with an index; the
     encoder never sets them otherwise, and accepting them would give
     one addressing mode two encodings *)
  if flags land 2 = 0 && (flags lsr 2) land 3 <> 0 then
    raise (Fail (Printf.sprintf "non-canonical addr flags %#x (scale without index)" flags));
  let pos = pos + 1 in
  let base, pos = if flags land 1 <> 0 then (Some (reg bytes pos), pos + 1) else (None, pos) in
  let index, pos =
    if flags land 2 <> 0 then begin
      let r = reg bytes pos in
      let scale = 1 lsl ((flags lsr 2) land 3) in
      (Some (r, scale), pos + 1)
    end
    else (None, pos)
  in
  let disp = i32 bytes pos in
  ({ base; index; disp }, pos + 4)

let operand bytes pos =
  match u8 bytes pos with
  | 0 -> (Reg (reg bytes (pos + 1)), pos + 2)
  | 1 -> (Imm (Int32.of_int (i32 bytes (pos + 1))), pos + 5)
  | t -> raise (Fail (Printf.sprintf "bad operand tag %d" t))

(* [decode bytes ~pos] returns the instruction at [pos] and the position
   just past it. *)
let decode bytes ~pos =
  try
    let op = u8 bytes pos in
    let ok insn next = Ok (insn, next) in
    match op with
    | 0x01 ->
      let b1 = u8 bytes (pos + 1) in
      if b1 land lnot 0x0F <> 0 then raise (Fail (Printf.sprintf "bad load byte %#x" b1));
      let dst = reg_of_index (b1 land 7) in
      let signed = b1 land 0x08 <> 0 in
      let size = size bytes (pos + 2) in
      let src, next = addr bytes (pos + 3) in
      ok (Load { dst; src; size; signed }) next
    | 0x02 ->
      let src = reg bytes (pos + 1) in
      let size = size bytes (pos + 2) in
      let dst, next = addr bytes (pos + 3) in
      ok (Store { src; dst; size }) next
    | 0x03 ->
      let dst = reg bytes (pos + 1) in
      ok (Mov_imm { dst; imm = Int32.of_int (i32 bytes (pos + 2)) }) (pos + 6)
    | 0x04 -> ok (Mov_reg { dst = reg bytes (pos + 1); src = reg bytes (pos + 2) }) (pos + 3)
    | 0x05 ->
      let opi = u8 bytes (pos + 1) in
      if opi > 8 then raise (Fail (Printf.sprintf "bad binop %d" opi));
      let dst = reg bytes (pos + 2) in
      let src, next = operand bytes (pos + 3) in
      ok (Binop { op = binop_of_index opi; dst; src }) next
    | 0x06 ->
      let a = reg bytes (pos + 1) in
      let b, next = operand bytes (pos + 2) in
      ok (Cmp { a; b }) next
    | 0x07 ->
      let a = reg bytes (pos + 1) in
      let b, next = operand bytes (pos + 2) in
      ok (Test { a; b }) next
    | 0x08 ->
      let dst = reg bytes (pos + 1) in
      let src, next = addr bytes (pos + 2) in
      ok (Lea { dst; src }) next
    | 0x11 ->
      let opi = u8 bytes (pos + 1) in
      if opi > 8 then raise (Fail (Printf.sprintf "bad rmw op %d" opi));
      let op = binop_of_index opi in
      if not (rmw_op_ok op) then raise (Fail (Printf.sprintf "illegal rmw op %d" opi));
      let size = size bytes (pos + 2) in
      if size = S8 then raise (Fail "no 8-byte RMW in 32-bit x86");
      let src, next = operand bytes (pos + 3) in
      let dst, next = addr bytes next in
      ok (Rmw { op; dst; src; size }) next
    | 0x09 -> ok (Push (reg bytes (pos + 1))) (pos + 2)
    | 0x0A -> ok (Pop (reg bytes (pos + 1))) (pos + 2)
    | 0x0B -> ok (Jmp (u32 bytes (pos + 1))) (pos + 5)
    | 0x0C ->
      let c = u8 bytes (pos + 1) in
      if c > 7 then raise (Fail (Printf.sprintf "bad cond %d" c));
      ok (Jcc { cond = cond_of_index c; target = u32 bytes (pos + 2) }) (pos + 6)
    | 0x0D -> ok (Call (u32 bytes (pos + 1))) (pos + 5)
    | 0x0E -> ok Ret (pos + 1)
    | 0x0F -> ok Nop (pos + 1)
    | 0x10 -> ok Halt (pos + 1)
    | op -> raise (Fail (Printf.sprintf "bad opcode %#x" op))
  with Fail reason -> Error { offset = pos; reason }

(* Decode a full image into an instruction list with their offsets. *)
let decode_all bytes =
  let rec go pos acc =
    if pos >= Bytes.length bytes then Ok (List.rev acc)
    else
      match decode bytes ~pos with
      | Ok (insn, next) -> go next ((pos, insn) :: acc)
      | Error e -> Error e
  in
  go 0 []
