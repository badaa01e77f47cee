(** Seeded mutation harness for the translation validator: derives
    semantic mutants of every live host instruction in a code cache
    (opcode/operand/displacement flips, byte-manipulation width and
    half corruption, dropped MSK steps, branch condition/target flips),
    applies each in place, and requires {!Validator.check_block} of the
    owning block to reject it. The cache is restored — instruction and
    patch counter — after every trial.

    Surviving mutants are reported, never silently dropped. *)

type survivor = {
  pc : int;
  block_start : int; (** guest block whose validation missed it *)
  original : string;
  mutant : string;
}

type outcome = {
  total : int; (** mutants attempted *)
  killed : int;
  survivors : survivor list;
  pcs_covered : int; (** distinct host pcs mutated *)
}

val kill_ratio : outcome -> float

(** All semantic mutants of one instruction (empty for [Nop]/[Jmp]). *)
val mutants_of : Mda_host.Isa.insn -> Mda_host.Isa.insn list

(** Run the sweep over every live block and patched-in sequence.
    [block_of start] re-decodes the guest block at [start];
    [max_mutants] bounds the sampled pool (default 400). *)
val run :
  cache:Mda_bt.Code_cache.t ->
  block_of:(int -> Mda_bt.Block.t option) ->
  ?seed:int ->
  ?max_mutants:int ->
  unit ->
  outcome

val pp_outcome : Format.formatter -> outcome -> unit
