(* The MDA handling mechanisms under evaluation (paper Sections III–IV,
   Table II).

   Each value selects how the translator treats guest memory operations
   and what the misalignment exception handler does:

   - [Direct] (QEMU): every non-byte memory op becomes an MDA code
     sequence at first translation; traps never occur.
   - [Static_profiling] (FX!32): sites that misaligned during a prior
     train-input run get MDA sequences; anything else that traps is fixed
     up by the OS handler, every single time.
   - [Dynamic_profiling] (IA-32 EL): phase-1 interpretation profiles
     alignment up to [threshold] executions per block; translation then
     plants MDA sequences at observed sites. Later MDAs trap to the OS
     fixup handler forever.
   - [Exception_handling] (this paper): translate everything as aligned;
     the handler patches a faulting slot into a branch to a freshly
     generated MDA sequence on its *first* trap. With [rearrange], a
     patched block is rebuilt with the sequences inline at its next entry
     to restore I-cache locality (Figure 6).
   - [Dpeh]: dynamic profiling at a low threshold + exception-handler
     patching for the leftovers (Figure 4); optional block
     [retranslate]-after-N-traps (Figure 7) and [multiversion] code for
     sites with mixed alignment behaviour (Figure 8).
   - [Static_analysis]: a sixth, purely static point in the design
     space (not in the paper): an alignment-congruence dataflow
     analysis over the guest binary (see {!Mda_analysis.Dataflow})
     proves, before any execution, that a memory operand is always
     aligned, always misaligned, or unknown. Proven-misaligned sites
     get MDA sequences, proven-aligned sites plain ops, and unknown
     sites follow a configurable policy: emit the sequence defensively
     ([Sa_seq], never traps) or translate aligned and let the
     exception handler patch first-trap sites ([Sa_fallback], the
     EH treatment).
   - [Aot]: the fully static endpoint of that axis: the whole guest
     image is translated ahead of time (see {!Mda_bt.Aot}) using the
     same analysis verdicts and per-site policies as [Static_analysis],
     into an immutable pre-populated code cache the runtime executes
     with translation (and handler patching) disabled. A dispatch miss
     at runtime is a hard error ([Run_stats.Aot_miss]) — the soundness
     check that static discovery was complete — and unknown sites
     under [Sa_fallback] are fixed up by the OS on every trap, since
     the cache may not be patched. *)

(* Verdict of the static alignment analysis for one memory operand
   (keyed by static guest instruction address). [Align_aligned] and
   [Align_misaligned] are *proofs* over every execution; [Align_unknown]
   is the analysis declining to commit. *)
type align_class = Align_aligned | Align_misaligned | Align_unknown

let align_class_name = function
  | Align_aligned -> "aligned"
  | Align_misaligned -> "misaligned"
  | Align_unknown -> "unknown"

(* What the translator does with operands the analysis could not
   classify. *)
type sa_policy =
  | Sa_seq (* direct method on unknowns: inline the MDA sequence *)
  | Sa_fallback (* EH on unknowns: plain op, handler patches on first trap *)

(* Immutable product of the static analysis, in the same shape as
   {!Profile.summary}: guest instruction address -> verdict. Sites
   absent from the map are [Align_unknown]. *)
type sa_summary = { classes : (int, align_class) Hashtbl.t }

let sa_classify summary addr =
  match Hashtbl.find_opt summary.classes addr with
  | Some c -> c
  | None -> Align_unknown

type t =
  | Direct
  | Static_profiling of Profile.summary
  | Dynamic_profiling of { threshold : int }
  | Exception_handling of { rearrange : bool }
  | Dpeh of { threshold : int; retranslate : int option; multiversion : bool }
  | Static_analysis of { summary : sa_summary; unknown : sa_policy }
  | Aot of { summary : sa_summary; unknown : sa_policy }

let name = function
  | Direct -> "direct"
  | Static_profiling _ -> "static-profiling"
  | Dynamic_profiling { threshold } -> Printf.sprintf "dynamic-profiling(th=%d)" threshold
  | Exception_handling { rearrange } ->
    if rearrange then "exception-handling+rearrange" else "exception-handling"
  | Dpeh { threshold; retranslate; multiversion } ->
    Printf.sprintf "dpeh(th=%d%s%s)" threshold
      (match retranslate with Some r -> Printf.sprintf ",retrans=%d" r | None -> "")
      (if multiversion then ",mv" else "")
  | Static_analysis { unknown; _ } ->
    Printf.sprintf "static-analysis(unknown=%s)"
      (match unknown with Sa_seq -> "seq" | Sa_fallback -> "eh")
  | Aot { unknown; _ } ->
    Printf.sprintf "aot(unknown=%s)"
      (match unknown with Sa_seq -> "seq" | Sa_fallback -> "eh")

(* DigitalBridge's default heating threshold: every mechanism that lives
   inside the two-phase framework interprets a block this many times
   before translating it (the knob Figure 10 sweeps). *)
let default_heating = 50

(* Phase-1 (interpreted) executions before a block is translated. All
   mechanisms are evaluated inside the same two-phase DigitalBridge
   framework (paper Section V-B), so all share the system's heating
   threshold; they differ only in the MDA translation policy and in
   whether phase 1 carries alignment-profiling instrumentation. *)
let heating_threshold = function
  | Direct | Static_profiling _ | Exception_handling _ | Static_analysis _ ->
    default_heating
  | Dynamic_profiling { threshold } -> threshold
  | Dpeh { threshold; _ } -> threshold
  | Aot _ -> 0 (* no phase 1: every block is already translated *)

(* Does phase 1 carry alignment-profiling instrumentation? *)
let profiles_alignment = function
  | Dynamic_profiling _ | Dpeh _ -> true
  | Direct | Static_profiling _ | Exception_handling _ | Static_analysis _ | Aot _ ->
    false

(* Does the misalignment handler patch the code cache (Retry), or is the
   access fixed up by the OS on every occurrence (Emulate)? The AOT
   cache is immutable, so even the Sa_fallback policy must emulate. *)
let patches_on_trap = function
  | Exception_handling _ | Dpeh _ | Static_analysis { unknown = Sa_fallback; _ } -> true
  | Direct | Static_profiling _ | Dynamic_profiling _
  | Static_analysis { unknown = Sa_seq; _ } | Aot _ -> false

(* Is runtime translation disabled (the code cache pre-populated and
   immutable)? *)
let is_static = function
  | Aot _ -> true
  | Direct | Static_profiling _ | Dynamic_profiling _ | Exception_handling _
  | Dpeh _ | Static_analysis _ -> false
