(** The alignment-congruence abstract domain: what is known about a
    guest register or derived address, as a congruence [value ≡ offset
    (mod stride)] with a power-of-two stride — equivalently, its known
    low bits. Powers of two make every operation sound under x86's
    mod-2^32 address arithmetic and carry exactly the information
    alignment classification needs.

    The lattice has finite height (strides only shrink along joins), so
    fixpoints terminate without widening; {!widen} coincides with
    {!join}. Exact × exact transfer delegates to
    {!Mda_bt.Interp.binop_result}, so the abstract semantics agree with
    the interpreter by construction. *)

type t =
  | Bot  (** unreachable: no concrete value *)
  | Exact of int64  (** exactly this value (interpreter convention) *)
  | Congr of { stride : int; offset : int }
      (** value ≡ offset (mod stride); stride a power of two in
          [1, 2^32], 0 ≤ offset < stride. Stride 1 is Top. *)

val bot : t

val top : t

val const : int64 -> t

val const_int : int -> t

(** [congr ~stride ~offset] with validation; offset is normalized mod
    stride. Raises [Invalid_argument] on non-power-of-two strides. *)
val congr : stride:int -> offset:int -> t

(** Known low bits as [(bits, value)]; exact values expose their full
    unsigned 32-bit pattern. Raises on [Bot]. *)
val low_bits : t -> int * int

val equal : t -> t -> bool

(** Concretization membership: does concrete [v] satisfy the abstract
    value? *)
val mem : int64 -> t -> bool

(** Partial order: [leq a b] iff γ(a) ⊆ γ(b). *)
val leq : t -> t -> bool

val join : t -> t -> t

(** Coincides with {!join}: the lattice has finite height, so widening
    is unnecessary for termination. *)
val widen : t -> t -> t

(** Raw 64-bit addition (effective-address arithmetic: the interpreter
    sums in full, truncating once at the end). *)
val add : t -> t -> t

(** Raw multiplication by a non-negative constant (address scale). *)
val mul_const : t -> int -> t

(** Final address truncation to the unsigned 32-bit pattern — the
    interpreter's effective-address convention (the full sum of base,
    scaled index and displacement, mod 2^32). *)
val low32 : t -> t

(** Longword sign-extension canonicalization (Lea). *)
val sext32 : t -> t

(** Abstract x86lite ALU, agreeing with
    {!Mda_bt.Interp.binop_result}. *)
val transfer : Mda_guest.Isa.binop -> t -> t -> t

(** Alignment verdict for a [width]-byte access at an address described
    by [t]. [Align_aligned] / [Align_misaligned] are emitted only when
    the low log2(width) bits are fully known. *)
val classify : width:int -> t -> Mda_bt.Mechanism.align_class

val pp : Format.formatter -> t -> unit
