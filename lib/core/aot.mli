(** Ahead-of-time translation of a whole guest image.

    Discovers every basic block reachable from the program entry over
    the static CFG (direct jumps and branches, call targets, call
    fall-throughs; x86lite's only indirect transfer is Ret, which the
    well-bracketed contract sends to a call fall-through the walk
    already visits), translates each exactly once with the same
    per-site policies {!Mechanism.Static_analysis} uses, and
    pre-chains every static block exit. The result is an immutable
    pre-populated {!Code_cache} that {!Runtime} executes with
    translation disabled under the {!Mechanism.Aot} mechanism; a
    runtime dispatch miss is surfaced as {!Run_stats.Aot_miss}. *)

(** Static translation statistics. *)
type stats = {
  blocks : int;  (** guest blocks discovered and translated *)
  guest_insns : int;  (** static guest instructions covered *)
  host_insns : int;  (** host instructions emitted (cache footprint) *)
  chains : int;  (** block exits pre-chained into direct branches *)
}

(** Translate the whole image reachable from [entry] in [mem].
    [max_blocks] (default 65536) bounds discovery. [?rules] applies the
    validator-proved peephole tier to every emitted translation (see
    {!Translate.translate}). Fails — rather than emitting a partial
    cache — on undecodable reachable code or budget exhaustion. *)
val translate_image :
  ?max_blocks:int ->
  ?rules:Mda_host.Peephole.active ->
  summary:Mechanism.sa_summary ->
  unknown:Mechanism.sa_policy ->
  Mda_machine.Memory.t ->
  entry:int ->
  (Code_cache.t * stats, string) result
