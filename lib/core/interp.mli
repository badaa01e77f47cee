(** The guest (x86lite) interpreter — phase 1 of the two-phase
    translator, and, in [Native] mode, a stand-in for running the binary
    on real X86 hardware (Table I, Figure 1).

    Guest architectural state lives inside the host CPU's register file
    using the translator's register convention, making the
    interpreter↔translated-code context switch free and keeping the two
    execution engines comparable: differential tests require identical
    final state from both. The guest ISA permits MDAs, so the
    interpreter never traps — it reports every access to an
    {!observer}; in [Native] mode a misaligned access pays the hardware
    split-access penalty instead.

    {!run_block} allocates nothing per guest instruction or per block:
    its observer receives each access as plain ints and bools.
    {!exec_block} is a thin adapter over it for callers that want a
    {!mem_event} record per access. *)

type mode =
  | Interpreted of { profile : bool }
      (** BT phase 1; [profile] charges light-instrumentation cost *)
  | Native (** direct execution on an MDA-tolerant x86 machine *)

(** One data-memory reference, as seen by the profiler. *)
type mem_event = {
  guest_addr : int; (** static instruction address *)
  ea : int; (** effective address *)
  size : int;
  aligned : bool;
  kind : [ `Load | `Store ];
}

type outcome = Fallthrough of int | Halted

exception Guest_fault of string

(** The observer of every data reference: the static instruction
    address, the effective address, the width in bytes, whether it is a
    store, and whether it is naturally aligned. A load–modify–write
    reports a load and then a store at the same address. *)
type observer = guest_addr:int -> ea:int -> size:int -> store:bool -> aligned:bool -> unit

(** [run_block cpu mode block observe] executes [block] once against the
    CPU's registers and memory and returns the guest address control
    goes to next, or {!halted}. Per access it charges the split-access or
    profiling cost, calls [observe], counts the memory op and charges the
    cache hierarchy, in that order, before touching memory: an access
    outside memory raises [Memory.Out_of_bounds] with that bookkeeping
    done and no register written. Raises {!Guest_fault} if the block
    ends without a control transfer. *)
val run_block : Mda_machine.Cpu.t -> mode -> Block.t -> observer -> int

(** {!run_block}'s result after a [Halt]. Guest addresses are never
    negative. *)
val halted : int

(** {!run_block} with each access reported to [on_mem] as a
    {!mem_event}. *)
val exec_block :
  Mda_machine.Cpu.t -> mode -> Block.t -> on_mem:(mem_event -> unit) -> outcome

(** Pieces of the semantics exposed for testing. *)

(** Does the condition hold over the CPU's current flag state (R10-R12)? *)
val cond_holds : Mda_machine.Cpu.t -> Mda_guest.Isa.cond -> bool

(** 32-bit ALU semantics (results follow the longword convention). *)
val binop_result : Mda_guest.Isa.binop -> int64 -> int64 -> int64
