(** Aggregate statistics of one benchmark run under one mechanism.
    [cycles] is the simulated-runtime metric every figure is built
    from. *)

(** Why the run ended. [Fuel_exhausted] is the runaway-code guard
    firing: the run is cut short with this reason surfaced in the
    statistics rather than aborting the simulation. [Aot_miss] is an
    AOT run dispatching to a guest block the static translation never
    emitted — the soundness failure of ahead-of-time discovery,
    surfaced rather than silently interpreted around. *)
type stop_reason = Halted | Fuel_exhausted | Insn_limit | Aot_miss of { guest_addr : int }

val stop_reason_to_string : stop_reason -> string

type t = {
  mechanism : string;
  stop : stop_reason;  (** why the run ended *)
  cycles : int64;
  guest_insns : int64;
      (** dynamic guest instructions; the translated-code share is
          estimated from the average expansion ratio (chained execution
          never returns to the dispatcher to be counted exactly) *)
  interp_insns : int64; (** executed by the phase-1 interpreter *)
  host_insns : int64; (** host instructions retired by translated code *)
  memrefs : int64; (** interpreter-observed guest data references *)
  mdas : int64; (** of which misaligned *)
  traps : int64; (** misalignment exceptions in translated code *)
  patches : int; (** slots rewritten by the trap handler *)
  translations : int;
  retranslations : int;
  rearrangements : int;
  chains : int;
  evictions : int; (** blocks evicted from a bounded code cache *)
  patch_faults : int; (** patch attempts refused by an injected fault *)
  degraded : int; (** sites permanently degraded to OS-style fixup *)
  blocks : int;
  code_len : int; (** code-cache size, in host instructions *)
  icache_misses : int; (** L1 I-cache misses (the code-locality signal
                           behind Figure 11) *)
  dcache_misses : int;
}

val pp : Format.formatter -> t -> unit

(** One numeric field of [t]: its [to_kv] key and an int64 view of it
    ([wide] is true for the fields that are int64 in [t]). *)
type field = { name : string; wide : bool; get : t -> int64; set : t -> int64 -> t }

(** The numeric field with this [to_kv] key (each is declared once, in
    [to_kv] order); raises [Invalid_argument] if there is none. *)
val field : string -> field

(** All numeric fields zero. *)
val zero : mechanism:string -> stop:stop_reason -> t

(** Field-wise sum of the numeric fields; [mechanism] and [stop] come
    from the first argument. *)
val add : t -> t -> t

(** Stable key=value serialization for the persistent result cache.
    [of_kv (to_kv t) = Ok t]; unknown pairs are ignored, missing or
    malformed fields yield [Error]. *)

val format_version : int

val to_kv : t -> (string * string) list

val of_kv : (string * string) list -> (t, string) result
