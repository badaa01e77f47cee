(* The alignment-congruence abstract domain.

   One abstract value describes what is known about a 64-bit guest
   register (interpreter value convention) or a derived address:

   - [Bot]:   unreachable (no concrete value).
   - [Exact]: exactly this value.
   - [Congr { stride; offset }]: value ≡ offset (mod stride), with
     [stride] a power of two in [1, 2^32] and 0 ≤ offset < stride.
     Stride 1 is Top (nothing known); stride 2^32 pins the full
     unsigned 32-bit pattern.

   Restricting strides to powers of two makes every operation sound
   under x86's mod-2^32 address arithmetic (a power-of-two stride
   divides 2^32, so wrap-around preserves the congruence) and keeps
   exactly the information alignment classification needs: the low
   bits of the effective address. The lattice has finite height
   (strides only shrink along joins, by at least a factor of two), so
   the dataflow fixpoint terminates without widening; [widen] is
   provided for the standard interface and coincides with [join].

   Exact × exact transfer delegates to {!Mda_bt.Interp.binop_result},
   so the abstract semantics agree with the interpreter by
   construction. *)

type t =
  | Bot
  | Exact of int64
  | Congr of { stride : int; offset : int }

let bot = Bot

let top = Congr { stride = 1; offset = 0 }

let const v = Exact v

let const_int v = Exact (Int64.of_int v)

let max_stride = 1 lsl 32

(* Trailing zeros of a positive int, capped at 32. *)
let tz v =
  let rec go v n = if n >= 32 || v land 1 = 1 then n else go (v lsr 1) (n + 1) in
  if v = 0 then 32 else go v 0

let is_pow2 s = s > 0 && s land (s - 1) = 0

(* Smart constructor: value ≡ offset (mod 2^bits), 0 ≤ bits ≤ 32. *)
let of_low ~bits ~value =
  let bits = max 0 (min 32 bits) in
  let stride = 1 lsl bits in
  Congr { stride; offset = value land (stride - 1) }

let congr ~stride ~offset =
  if not (is_pow2 stride && stride <= max_stride) then
    invalid_arg (Printf.sprintf "Congruence.congr: stride %d" stride);
  Congr { stride; offset = offset land (stride - 1) }

(* Known low bits: (how many, their value). Exact values expose their
   full unsigned 32-bit pattern (alignment never needs more). *)
let low_bits = function
  | Bot -> invalid_arg "Congruence.low_bits: Bot"
  | Exact v -> (32, Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  | Congr { stride; offset } -> (tz stride, offset)

let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Exact x, Exact y -> Int64.equal x y
  | Congr a, Congr b -> a.stride = b.stride && a.offset = b.offset
  | _ -> false

(* Concretization membership: does concrete value [v] satisfy [t]? *)
let mem v = function
  | Bot -> false
  | Exact w -> Int64.equal v w
  | Congr { stride; offset } ->
    Int64.to_int (Int64.logand v (Int64.of_int (stride - 1))) = offset

(* Partial order: a ⊑ b iff γ(a) ⊆ γ(b). *)
let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Exact x, Exact y -> Int64.equal x y
  | Exact x, (Congr _ as c) -> mem x c
  | Congr _, Exact _ -> false
  | Congr a, Congr b -> b.stride <= a.stride && a.offset land (b.stride - 1) = b.offset

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Exact x, Exact y when Int64.equal x y -> a
  | _ ->
    let ba, va = low_bits a and bb, vb = low_bits b in
    let common = min ba bb in
    let agree = tz (va lxor vb) in
    of_low ~bits:(min common agree) ~value:va

(* Finite-height lattice: widening is not needed for termination, so it
   coincides with join (kept as a distinct entry point so the dataflow
   engine and its tests speak the standard vocabulary). *)
let widen = join

(* --- transfer functions ------------------------------------------------ *)

(* Trailing zeros of an offset known to [cap] bits: an all-zero known
   region admits at least [cap] factors of two, possibly more — report
   33 (above any cap sum we take a min with). *)
let tz_off v = if v = 0 then 33 else tz v

(* Raw 64-bit addition (no 32-bit canonicalization): used for effective
   addresses, which the interpreter sums in full before one final
   mod-2^32 truncation. Low-bits knowledge is identical either way. *)
let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Exact x, Exact y -> Exact (Int64.add x y)
  | _ ->
    let ba, va = low_bits a and bb, vb = low_bits b in
    of_low ~bits:(min ba bb) ~value:(va + vb)

(* Raw multiplication by a small non-negative constant (address scale). *)
let mul_const a c =
  match a with
  | Bot -> Bot
  | Exact x -> Exact (Int64.mul x (Int64.of_int c))
  | _ ->
    let ba, va = low_bits a in
    of_low ~bits:(min 32 (ba + tz c)) ~value:(va * c)

(* Final address truncation: ea = value mod 2^32, as a non-negative
   int64 — exactly the interpreter's effective-address convention. A
   power-of-two stride divides 2^32, so congruences pass through. *)
let low32 = function
  | Bot -> Bot
  | Exact v -> Exact (Int64.logand v 0xFFFFFFFFL)
  | Congr _ as c -> c

(* Longword canonicalization (Lea's sign-extension): low 32 bits are
   untouched, so only exact values change representation. *)
let sext32 = function
  | Bot -> Bot
  | Exact v -> Exact (Mda_util.Bits.sign_extend ~size:4 v)
  | Congr _ as c -> c

(* Abstract x86lite ALU, agreeing with the interpreter: the exact×exact
   case *is* the interpreter's semantics; otherwise sound low-bits
   reasoning per operation. *)
let transfer (op : Mda_guest.Isa.binop) a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Exact x, Exact y -> Exact (Mda_bt.Interp.binop_result op x y)
  | _ -> begin
    let ba, va = low_bits a and bb, vb = low_bits b in
    match op with
    | Add -> of_low ~bits:(min ba bb) ~value:(va + vb)
    | Sub -> of_low ~bits:(min ba bb) ~value:(va - vb)
    | And ->
      (* beyond the shorter operand's window, a known-zero bit of the
         longer operand still forces a zero result — this is what proves
         pointers aligned after an [and $-4] mask *)
      let bl = min ba bb and bh, vh = if ba <= bb then (bb, vb) else (ba, va) in
      let rec forced p = if p >= bh || (vh lsr p) land 1 = 1 then p else forced (p + 1) in
      of_low ~bits:(forced bl) ~value:(va land vb)
    | Or ->
      (* dually, a known-one bit forces a one ([or $1] proves
         misalignment) *)
      let bl = min ba bb and bh, vh = if ba <= bb then (bb, vb) else (ba, va) in
      let rec forced p = if p >= bh || (vh lsr p) land 1 = 0 then p else forced (p + 1) in
      of_low ~bits:(forced bl) ~value:(va lor vb)
    | Xor -> of_low ~bits:(min ba bb) ~value:(va lxor vb)
    | Imul ->
      (* v·w ≡ va·vb (mod 2^t): the cross terms carry at least
         min(bb + tz va, ba + tz vb, ba + bb) factors of two. *)
      let bits = min (min (bb + tz_off va) (ba + tz_off vb)) (ba + bb) in
      of_low ~bits ~value:(va * vb)
    | Shl -> begin
      match b with
      | Exact k ->
        let k = Int64.to_int k land 31 in
        of_low ~bits:(ba + k) ~value:(va lsl k)
      | _ ->
        (* unknown shift count k ≥ 0: v·2^k stays ≡ 0 (mod gcd of the
           known-zero low bits of v) *)
        of_low ~bits:(min (tz_off va) ba) ~value:0
    end
    | Shr | Sar -> begin
      (* bits k..ba-1 of the operand's 32-bit pattern become bits
         0..ba-1-k of the result (ba ≤ 32, so no sign-fill interferes) *)
      match b with
      | Exact k ->
        let k = Int64.to_int k land 31 in
        of_low ~bits:(ba - k) ~value:(va lsr k)
      | _ -> top
    end
  end

(* --- alignment classification ------------------------------------------ *)

(* Verdict for a [width]-byte access at an address described by [t].
   Sound by construction: [Align_aligned] / [Align_misaligned] are
   emitted only when the low log2(width) bits are fully known. *)
let classify ~width t =
  let open Mda_bt.Mechanism in
  if width = 1 then Align_aligned
  else
    match t with
    | Bot -> Align_unknown (* unreachable access: commit to nothing *)
    | _ ->
      let bits, value = low_bits t in
      if 1 lsl bits < width then Align_unknown
      else if value land (width - 1) = 0 then Align_aligned
      else Align_misaligned

let pp fmt = function
  | Bot -> Format.pp_print_string fmt "⊥"
  | Exact v -> Format.fprintf fmt "=%Ld" v
  | Congr { stride = 1; _ } -> Format.pp_print_string fmt "⊤"
  | Congr { stride; offset } -> Format.fprintf fmt "≡%d (mod %d)" offset stride
