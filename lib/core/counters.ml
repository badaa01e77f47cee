(* The runtime's counter registry.

   Every statistic the runtime accumulates is declared exactly once in
   [all] — id, stable name, one-line description — and stored in one
   table, so {!Run_stats}, the observability sinks (lib/obs) and any
   future consumer read the same source of truth instead of a scatter
   of ad-hoc mutable fields. Names are part of the trace/CLI surface:
   renaming one is a schema change. *)

type id =
  | Guest_insns
  | Interp_insns
  | Memrefs
  | Mdas
  | Translations
  | Retranslations
  | Rearrangements
  | Chains
  | Handler_patches
  | Translated_guest_len
  | Translated_host_len
  | Evictions
  | Patch_faults
  | Degrades
  | Peephole_hits
  | Peephole_saved
  | Validator_bailouts
  | Restarts
  | Demotions
  | Admission_rejects
  | Admission_defers

(* Declared once; [index] mirrors the order. *)
let all =
  [ (Guest_insns, "guest_insns", "dynamic guest instructions (interpreted, exactly counted)");
    (Interp_insns, "interp_insns", "guest instructions executed by the phase-1 interpreter");
    (Memrefs, "memrefs", "guest data references observed by the interpreter");
    (Mdas, "mdas", "of which misaligned");
    (Translations, "translations", "block translations (including rebuilds)");
    (Retranslations, "retranslations", "blocks invalidated and re-profiled");
    (Rearrangements, "rearrangements", "blocks rebuilt with patched sequences inline");
    (Chains, "chains", "block exits linked directly to their target");
    (Handler_patches, "handler_patches", "faulting slots rewritten by the trap handler");
    (Translated_guest_len, "translated_guest_len",
     "sum of guest lengths over translations (expansion-ratio numerator)");
    (Translated_host_len, "translated_host_len",
     "sum of host lengths over translations (expansion-ratio denominator)");
    (Evictions, "evictions", "blocks evicted from a bounded code cache");
    (Patch_faults, "patch_faults", "patch attempts refused by an injected fault");
    (Degrades, "degrades", "sites permanently degraded to OS-style fixup");
    (Peephole_hits, "peephole_hits",
     "peephole rule applications over emitted host code (static, per translation)");
    (Peephole_saved, "peephole_saved",
     "modelled cycles shaved per translation by peephole rewrites (static)");
    (Validator_bailouts, "validator_bailouts",
     "symbolic-validator budget bail-outs observed by verification consumers");
    (Restarts, "restarts", "sessions restarted by the serving supervisor");
    (Demotions, "demotions", "tenants demoted to OS-fixup-only by the trap-storm detector");
    (Admission_rejects, "admission_rejects",
     "session submissions rejected by admission control (run queue full)");
    (Admission_defers, "admission_defers",
     "session submissions deferred to the bounded run queue") ]

let[@inline] index = function
  | Guest_insns -> 0
  | Interp_insns -> 1
  | Memrefs -> 2
  | Mdas -> 3
  | Translations -> 4
  | Retranslations -> 5
  | Rearrangements -> 6
  | Chains -> 7
  | Handler_patches -> 8
  | Translated_guest_len -> 9
  | Translated_host_len -> 10
  | Evictions -> 11
  | Patch_faults -> 12
  | Degrades -> 13
  | Peephole_hits -> 14
  | Peephole_saved -> 15
  | Validator_bailouts -> 16
  | Restarts -> 17
  | Demotions -> 18
  | Admission_rejects -> 19
  | Admission_defers -> 20

let size = List.length all

let () = assert (List.length (List.sort_uniq compare (List.map (fun (i, _, _) -> index i) all)) = size)

(* Plain ints: 63 bits outlast any simulated run, and an int bump on the
   interpreter's per-access path allocates nothing. [get] widens for the
   readers whose fields are int64. *)
type t = int array

let create () : t = Array.make size 0

let geti (t : t) id = t.(index id)

let get (t : t) id = Int64.of_int (geti t id)

let addi (t : t) id v =
  let i = index id in
  t.(i) <- t.(i) + v

let incr (t : t) id = addi t id 1

let to_alist (t : t) = List.map (fun (id, n, _) -> (n, get t id)) all

let pp fmt (t : t) =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (id, n, _) ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt "%-22s %Ld" n (get t id))
    all;
  Format.fprintf fmt "@]"
