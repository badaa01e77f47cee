(** Alignment-congruence dataflow analysis over x86lite programs.

    A translation-time abstract interpretation: basic blocks are
    discovered from the entry point exactly as the translator discovers
    them, a register file of {!Congruence} values is propagated to a
    fixpoint over the CFG, and every static memory operand is
    classified from the abstract effective address reaching it.

    Two engines share the transfer functions. [Intraprocedural] is the
    original call-string-free supergraph (every Ret's out-state flows
    to every call fall-through; any undecodable region or budget
    overflow degrades every verdict), kept as the comparison baseline.
    [Interprocedural] — the default — discovers the call graph,
    analyzes each function in its own context with call-site-joined
    entry environments, may-define register summaries, and an ESP
    displacement analysis that lets balanced callees restore the
    caller's exact stack pointer at return sites; completeness is per
    function, so one undecodable region only silences its own
    function's verdicts.

    Needs the program image only — no profile, no execution — which is
    what distinguishes the resulting [Static_analysis] and [Aot]
    mechanisms from the paper's profile-guided ones. *)

type mode = Interprocedural | Intraprocedural

val mode_name : mode -> string

(** One classified static memory operand. *)
type site = {
  addr : int;  (** static guest instruction address *)
  width : int;
  kind : [ `Load | `Store | `Both ];  (** [`Both]: read-modify-write *)
  ea : Congruence.t;
      (** join of the abstract effective addresses over all paths *)
  cls : Mda_bt.Mechanism.align_class;
}

(** Per-function result of the interprocedural engine. *)
type fn = {
  fn_entry : int;
  fn_blocks : int;  (** basic blocks analyzed in this function *)
  fn_complete : bool;
  fn_calls : int;  (** static call sites targeting this function *)
  fn_returns : bool;  (** a Ret was reached *)
  fn_esp_delta : int option;
      (** caller-visible ESP change across a call ([Some 0] =
          balanced); [None] when unknown or never returning *)
}

type t = {
  entry : int;
  mode : mode;
  sites : (int, site) Hashtbl.t;
  blocks : int;  (** basic blocks discovered *)
  iterations : int;  (** block visits until the fixpoint *)
  complete : bool;
      (** every function (intraprocedurally: the whole supergraph)
          decoded within budget *)
  functions : fn list;
      (** by entry address; empty in [Intraprocedural] mode *)
  overflow : (int * int) option;
      (** [Some (fn_entry, blocks_seen)] when the block budget — not
          undecodable code — stopped discovery, and where it hit *)
}

(** Analyze the program whose image is in [mem], entered at [entry].
    [max_blocks] (default 65536) bounds CFG discovery. *)
val analyze : ?max_blocks:int -> ?mode:mode -> Mda_machine.Memory.t -> entry:int -> t

(** Verdict for the static memory operand at guest address [addr];
    addresses the analysis never saw are [Align_unknown]. *)
val classify : t -> int -> Mda_bt.Mechanism.align_class

val iter_sites : t -> (site -> unit) -> unit

(** All sites in guest-address order. *)
val sites_sorted : t -> site list

(** Static census [(aligned, misaligned, unknown)] over all sites. *)
val census : t -> int * int * int

(** Package the verdicts for {!Mda_bt.Mechanism.Static_analysis} and
    {!Mda_bt.Mechanism.Aot}. Unknown sites are omitted (absence means
    unknown); per-function incompleteness is already folded into each
    site's class, so only the affected function's sites are silenced. *)
val summary : t -> Mda_bt.Mechanism.sa_summary

val pp_site : Format.formatter -> site -> unit
