(** Binary encoder for x86lite (see the format summary in the
    implementation). Guest programs are stored in simulated memory in
    this encoding and decoded back by the translator front end. *)

(** The size of a size code of the encoding (0..3 ↦ 1/2/4/8 bytes).
    Raises [Invalid_argument] on other codes. *)
val size_of_code : int -> Isa.size

(** Encode one instruction to bytes. *)
val encode : Isa.insn -> Bytes.t

(** Byte length of an instruction's encoding. *)
val insn_length : Isa.insn -> int

(** [encode_program insns] encodes a whole sequence; returns the image
    and the byte offset of each instruction within it. *)
val encode_program : Isa.insn array -> Bytes.t * int array
