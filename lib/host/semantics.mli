(** Pure value semantics of alphalite operate-format instructions,
    following the Alpha Architecture Handbook. Kept separate from the
    machine executor so tests can check the byte-manipulation group
    against byte-level reference models. *)

(** Semantics of an operate instruction on operand values. *)
val oper : Isa.oper -> int64 -> int64 -> int64

(** EXTxL: bytes of quad [a] from offset [b mod 8], zero-extended into
    the low [width] bytes. *)
val ext_low : width:int -> int64 -> int64 -> int64

(** EXTxH: the continuation bytes from the following quad, positioned to
    OR with {!ext_low}'s result; 0 when the access does not cross. *)
val ext_high : width:int -> int64 -> int64 -> int64

(** INSxL: low [width] bytes of [a] shifted to byte offset [b mod 8]. *)
val ins_low : width:int -> int64 -> int64 -> int64

(** INSxH: the bytes of [a] that spill into the following quad. *)
val ins_high : width:int -> int64 -> int64 -> int64

(** MSKxL: [a] with the field's in-quad bytes cleared. *)
val msk_low : width:int -> int64 -> int64 -> int64

(** MSKxH: [a] with the field's spill-over bytes cleared. *)
val msk_high : width:int -> int64 -> int64 -> int64

(** Dispatch over the six byte-manipulation forms. *)
val bytemanip : Isa.bytemanip -> width:int -> high:bool -> int64 -> int64 -> int64

(** {2 Register-file forms}

    A register file is a [Bytes.t] of native-endian 64-bit slots; slot
    [i] starts at byte [8 * i]. These read operand slots [a] and [b],
    apply {!oper}/{!bytemanip}, and write the result to slot [dst],
    without boxing an int64 on the way: the host CPU's execute loop
    calls them. Slot indices are not bounds-checked. *)

val oper_rf : Isa.oper -> Bytes.t -> a:int -> b:int -> dst:int -> unit

val bytemanip_rf :
  Isa.bytemanip -> width:int -> high:bool -> Bytes.t -> a:int -> b:int -> dst:int -> unit
