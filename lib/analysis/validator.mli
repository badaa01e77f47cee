(** Translation validation: a symbolic evaluator for translated
    (alphalite) host code and one for (x86lite) guest blocks, plus an
    equivalence checker proving every translated block in a code cache
    computes the same final guest-visible state — mapped registers
    R0..R7, the lazy-flag convention registers R10..R12, byte-granular
    memory effects, and the block exit — as the guest block it came
    from, across every translation policy shape ([Normal],
    [Seq_always], [Multi]) and handler-patched out-of-line sequence.

    Three host-code lint passes ride on the same symbolic walk:
    trap-freedom of every MDA path, scratch-register clobber discipline
    (reserved registers never written; out-of-line sequences stay
    within {!Mda_host.Mda_seq.clobbers}), and patch-slot resumability
    (the symbolic state at each site's resume pc is the same whether
    the slot holds the plain access or an MDA sequence).

    Addresses of statically unknown alignment are handled by lazy
    residue case-splitting: the comparison forks eight ways on an
    address root's low three bits exactly when a walk needs them. *)

type violation = {
  block_start : int; (** guest address of the offending block *)
  host_pc : int option;
  kind : string;
      (** ["equivalence"], ["path-match"], ["trap"], ["clobber"],
          ["resume"], ["budget"] or ["walk"] *)
  detail : string;
}

type report = {
  violations : violation list;
  blocks_checked : int;
  paths_checked : int; (** host/guest path pairs compared *)
  envs_checked : int; (** residue assignments explored *)
  sites_checked : int; (** patch sites proven resumable *)
  seqs_checked : int; (** out-of-line MDA sequences linted *)
}

(** No proven violation: every violation is a ["budget"] bail-out,
    which only says the block was too large to check exhaustively —
    reported, but not failing the check. *)
val ok : report -> bool

(** Number of soft ["budget"] bail-outs carried by the report — the
    residue cases or split depths the checker gave up on. Surfaced as a
    summary line by [mdabench verify] so proof coverage is visible. *)
val budget_bailouts : report -> int

(** Strict success: no violation at all, not even a budget bail-out.
    This is the acceptance bar for peephole rules — a rule whose proof
    bailed out is not a theorem and is rejected. *)
val proves : report -> bool

val pp_violation : Format.formatter -> violation -> unit

(** Prints the [*_checked] counters in both the success and the failure
    case, then each violation. *)
val pp_report : Format.formatter -> report -> unit

(** Validate one translated block (a no-op report if [block]'s start
    has no live translation in [cache]). *)
val check_block : cache:Mda_bt.Code_cache.t -> block:Mda_bt.Block.t -> report

(** Prove a peephole rewrite rule: starting from a fully symbolic
    register file and empty store, [pattern] and [replacement] must
    compute identical values for {e all} 32 registers (temporaries
    included) and identical byte-granular memory effects, for every
    address residue case. Both sequences must be straight-line; control
    flow is reported as a ["walk"] violation. Accept a rule only under
    {!proves} — a budget bail-out means the equivalence was not
    established. *)
val check_rewrite :
  pattern:Mda_host.Isa.insn list -> replacement:Mda_host.Isa.insn list -> report

(** Validate every live block in the cache. [block_of start] re-decodes
    the guest block at [start] (typically [Block.discover] against the
    guest memory); returning [None] is itself reported as a
    violation. *)
val run :
  cache:Mda_bt.Code_cache.t -> block_of:(int -> Mda_bt.Block.t option) -> report
