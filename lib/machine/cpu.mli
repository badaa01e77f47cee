(** The alphalite host CPU.

    Executes translated code straight out of the BT's code cache, charges
    cycles per the cost model and cache hierarchy, and delivers
    misaligned-access traps to the registered handler — the simulated
    OS trap/signal path. *)

(** Why [run] returned. *)
type exit_reason =
  | Exit_next_guest of int
  | Exit_dyn_guest of int (** guest address read from the register *)
  | Exit_halt

(** Handler verdict for a misalignment trap: [Emulate] — the CPU
    performs the access byte-wise on the handler's behalf (OS fixup) and
    continues after the instruction; [Retry] — the handler rewrote the
    code cache, re-fetch the same pc. *)
type trap_action = Emulate | Retry

(** Unrecoverable simulation error (e.g. an unhandled trap). *)
exception Fatal of string

exception Out_of_fuel

type t = {
  rf : Bytes.t;
      (** the register file: 34 native-endian int64 slots (see
          {!Mda_host.Semantics.oper_rf}) — r0..r31, then a literal-operand
          slot and a sink slot that absorbs writes to r31, so slot 31 is
          never written. Use {!get}/{!set}. *)
  mem : Memory.t;
  hier : Hierarchy.t;
  cost : Cost_model.t;
  code_base : int; (** simulated address of code-cache slot 0 *)
  mutable cycles : int;
  mutable insns : int;
  mutable mem_ops : int;
  mutable align_traps : int;
  mutable handler : (pc:int -> addr:int -> Mda_host.Isa.insn -> trap_action) option;
}

val create :
  ?code_base:int -> mem:Memory.t -> hier:Hierarchy.t -> cost:Cost_model.t -> unit -> t

(** Register the misalignment handler (the BT runtime's entry point). *)
val set_handler : t -> (pc:int -> addr:int -> Mda_host.Isa.insn -> trap_action) -> unit

(** Architectural register access; R31 is hardwired to zero. Raises
    [Invalid_argument] for a register outside 0..31. *)
val get : t -> Mda_host.Isa.reg -> int64

val set : t -> Mda_host.Isa.reg -> int64 -> unit

(** Add stall/overhead cycles (used by the BT runtime to charge
    translation, patching, etc.). *)
val charge : t -> int -> unit

(** The simulated clock: cycles retired so far. Trace timestamps read
    this — never wall clock — which keeps traces deterministic and
    replayable. *)
val now : t -> int64

(** [run t ~src ~code_of ~len_of ~entry ~fuel] executes from code-cache
    index [entry] until a [Monitor] instruction, returning the exit
    reason and the index of the [Monitor] that fired (the chaining
    site). Instructions come from the array [code_of src], valid below
    [len_of src]; a pc outside that raises
    [Fatal "code-cache fetch out of range: <pc>"]. The handler may patch
    the array or replace it (the code cache grows), so [run] reads both
    accessors on entry and again after every handler call — pass static
    functions, not closures, to keep the loop allocation-free. [fuel]
    bounds the instruction count ({!Out_of_fuel} beyond it); traps
    without a handler raise {!Fatal}. The register fields of the fetched
    instructions are trusted to be 0..31, as the translator and the
    host parser guarantee: the execute loop does not check them. *)
val run :
  t ->
  src:'s ->
  code_of:('s -> Mda_host.Isa.insn array) ->
  len_of:('s -> int) ->
  entry:int ->
  fuel:int ->
  exit_reason * int
