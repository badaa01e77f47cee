(* Pure value semantics for alphalite operate-format instructions.

   Kept separate from the machine executor so that tests can check the
   byte-manipulation instructions against a byte-by-byte reference model,
   and so the MDA code sequences can be validated without spinning up a
   full machine. Semantics follow the Alpha Architecture Handbook.

   The host CPU's hot path calls [oper_rf]/[bytemanip_rf], which read
   their operands from a register file and write the result back. An
   int64 crossing a module boundary is boxed, and nothing is inlined
   across modules, so the executor must not call [oper] itself: the
   [_rf] forms inline the one definition here and keep every value
   unboxed. For the same reason nothing below calls into [Bits]. *)

(* Shifts defined for any amount (|n| >= 64 yields 0); negative amounts
   shift the other way. *)
let[@inline] u64_shift_left v n =
  if n >= 64 || n <= -64 then 0L
  else if n >= 0 then Int64.shift_left v n
  else Int64.shift_right_logical v (-n)

let[@inline] u64_shift_right v n = u64_shift_left v (-n)

(* Sign-extend the low [bits] bits of [v]. *)
let[@inline] sext bits v = Int64.shift_right (Int64.shift_left v (64 - bits)) (64 - bits)

(* --- operate instructions ------------------------------------------- *)

let[@inline] oper (op : Isa.oper) (a : int64) (b : int64) : int64 =
  match op with
  | Addq -> Int64.add a b
  | Subq -> Int64.sub a b
  | Mulq -> Int64.mul a b
  | Addl -> sext 32 (Int64.add a b)
  | Subl -> sext 32 (Int64.sub a b)
  | And -> Int64.logand a b
  | Bis -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Sll -> Int64.shift_left a (Int64.to_int b land 63)
  | Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | Cmpeq -> if Int64.equal a b then 1L else 0L
  | Cmplt -> if Int64.compare a b < 0 then 1L else 0L
  | Cmple -> if Int64.compare a b <= 0 then 1L else 0L
  | Cmpult -> if Int64.unsigned_compare a b < 0 then 1L else 0L
  | Cmpule -> if Int64.unsigned_compare a b <= 0 then 1L else 0L
  | Sextb -> sext 8 b
  | Sextw -> sext 16 b

(* --- byte manipulation ------------------------------------------------
   [width] is the field width in bytes (2, 4 or 8); [b] supplies the byte
   offset within a quadword in its low three bits (normally the unaligned
   effective address). *)

let bad_width width =
  invalid_arg (Printf.sprintf "Semantics: bad byte-manipulation width %d" width)

let[@inline] check_width width =
  if width <> 2 && width <> 4 && width <> 8 then bad_width width

let[@inline] field_mask width =
  if width = 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * width)) 1L

let[@inline] offset b = Int64.to_int b land 7

(* EXTxL: bytes of the quad [a] starting at offset, zero-extended into the
   low [width] bytes. *)
let[@inline] ext_low ~width a b =
  check_width width;
  Int64.logand (u64_shift_right a (8 * offset b)) (field_mask width)

(* EXTxH: the continuation bytes from the next quad, positioned to be
   OR-ed with [ext_low]'s result; 0 when the access does not cross. *)
let[@inline] ext_high ~width a b =
  check_width width;
  let o = offset b in
  if o = 0 then 0L else Int64.logand (u64_shift_left a (64 - (8 * o))) (field_mask width)

(* INSxL: the low [width] bytes of [a] shifted into position [offset]
   within a quad. *)
let[@inline] ins_low ~width a b =
  check_width width;
  u64_shift_left (Int64.logand a (field_mask width)) (8 * offset b)

(* INSxH: the bytes of [a] that spill into the following quad. *)
let[@inline] ins_high ~width a b =
  check_width width;
  let o = offset b in
  if o = 0 then 0L else u64_shift_right (Int64.logand a (field_mask width)) (64 - (8 * o))

(* MSKxL: clear the field's bytes that fall inside this quad (the
   shift drops those beyond it). *)
let[@inline] msk_low ~width a b =
  check_width width;
  Int64.logand a (Int64.lognot (u64_shift_left (field_mask width) (8 * offset b)))

(* MSKxH: clear the field's bytes that spilled into the following quad:
   the low [o + width - 8] bytes, at most 7. *)
let[@inline] msk_high ~width a b =
  check_width width;
  let spill = offset b + width - 8 in
  if spill <= 0 then a
  else Int64.logand a (Int64.lognot (Int64.sub (Int64.shift_left 1L (8 * spill)) 1L))

let[@inline] bytemanip (op : Isa.bytemanip) ~width ~high a b =
  match (op, high) with
  | Isa.Ext, false -> ext_low ~width a b
  | Isa.Ext, true -> ext_high ~width a b
  | Isa.Ins, false -> ins_low ~width a b
  | Isa.Ins, true -> ins_high ~width a b
  | Isa.Msk, false -> msk_low ~width a b
  | Isa.Msk, true -> msk_high ~width a b

(* --- register-file forms --------------------------------------------- *)

external rf_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external rf_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let oper_rf op rf ~a ~b ~dst =
  rf_set rf (dst lsl 3) (oper op (rf_get rf (a lsl 3)) (rf_get rf (b lsl 3)))

let bytemanip_rf op ~width ~high rf ~a ~b ~dst =
  rf_set rf (dst lsl 3)
    (bytemanip op ~width ~high (rf_get rf (a lsl 3)) (rf_get rf (b lsl 3)))
