(* Aggregate statistics of one benchmark run under one mechanism.
   [cycles] is the simulated-runtime metric every figure of the paper is
   built from; the rest feed the tables and sanity checks. *)

(* Why the run ended. [Fuel_exhausted] is the runaway-code guard firing:
   the run is cut short but its statistics are still reported (with this
   reason surfaced) instead of the whole simulation aborting.
   [Aot_miss] is an AOT run dispatching to a guest block the static
   translation never emitted — the hard soundness failure of
   ahead-of-time discovery, surfaced rather than silently interpreted
   around. *)
type stop_reason = Halted | Fuel_exhausted | Insn_limit | Aot_miss of { guest_addr : int }

let stop_reason_to_string = function
  | Halted -> "halt"
  | Fuel_exhausted -> "fuel-exhausted"
  | Insn_limit -> "insn-limit"
  | Aot_miss { guest_addr } -> Printf.sprintf "aot-miss:%#x" guest_addr

let stop_reason_of_string = function
  | "halt" -> Ok Halted
  | "fuel-exhausted" -> Ok Fuel_exhausted
  | "insn-limit" -> Ok Insn_limit
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "aot-miss" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some guest_addr -> Ok (Aot_miss { guest_addr })
      | None -> Error (Printf.sprintf "malformed aot-miss address %S" rest))
    | _ -> Error (Printf.sprintf "unknown stop reason %S" s))

type t = {
  mechanism : string;
  stop : stop_reason; (* why the run ended *)
  cycles : int64;
  guest_insns : int64; (* dynamic guest instructions (interpreted + translated) *)
  interp_insns : int64; (* of which executed by the phase-1 interpreter *)
  host_insns : int64; (* host instructions retired by translated code *)
  memrefs : int64; (* ground-truth guest data references seen by the interpreter *)
  mdas : int64; (* of which misaligned (interpreter-observed) *)
  traps : int64; (* misalignment exceptions taken in translated code *)
  patches : int; (* code-cache slots rewritten by the handler *)
  translations : int;
  retranslations : int;
  rearrangements : int;
  chains : int;
  evictions : int; (* blocks evicted from a bounded code cache *)
  patch_faults : int; (* patch attempts refused by an injected fault *)
  degraded : int; (* sites permanently degraded to OS-style fixup *)
  blocks : int; (* distinct guest blocks discovered *)
  code_len : int; (* code-cache size, in host instructions *)
  icache_misses : int; (* L1 I-cache misses (code-locality signal) *)
  dcache_misses : int;
}

(* The numeric fields, declared once. Every serializer, accumulator and
   replay check below (and in lib/server and lib/obs) is derived from
   this table, so a new statistic is one row here plus its field in [t]
   and in [zero].
   Values pass through as int64; [wide] marks the fields that are int64
   in [t] (the rest are int). *)
type field = { name : string; wide : bool; get : t -> int64; set : t -> int64 -> t }

let i64 name get set = { name; wide = true; get; set }

let int name get set =
  { name; wide = false; get = (fun t -> Int64.of_int (get t));
    set = (fun t v -> set t (Int64.to_int v)) }

(* Row order is the [to_kv] order, and so part of the on-disk format. *)
let fields =
  [ i64 "cycles" (fun t -> t.cycles) (fun t cycles -> { t with cycles });
    i64 "guest_insns" (fun t -> t.guest_insns) (fun t guest_insns -> { t with guest_insns });
    i64 "interp_insns" (fun t -> t.interp_insns) (fun t interp_insns -> { t with interp_insns });
    i64 "host_insns" (fun t -> t.host_insns) (fun t host_insns -> { t with host_insns });
    i64 "memrefs" (fun t -> t.memrefs) (fun t memrefs -> { t with memrefs });
    i64 "mdas" (fun t -> t.mdas) (fun t mdas -> { t with mdas });
    i64 "traps" (fun t -> t.traps) (fun t traps -> { t with traps });
    int "patches" (fun t -> t.patches) (fun t patches -> { t with patches });
    int "translations" (fun t -> t.translations) (fun t translations -> { t with translations });
    int "retranslations" (fun t -> t.retranslations) (fun t retranslations ->
        { t with retranslations });
    int "rearrangements" (fun t -> t.rearrangements) (fun t rearrangements ->
        { t with rearrangements });
    int "chains" (fun t -> t.chains) (fun t chains -> { t with chains });
    int "evictions" (fun t -> t.evictions) (fun t evictions -> { t with evictions });
    int "patch_faults" (fun t -> t.patch_faults) (fun t patch_faults -> { t with patch_faults });
    int "degraded" (fun t -> t.degraded) (fun t degraded -> { t with degraded });
    int "blocks" (fun t -> t.blocks) (fun t blocks -> { t with blocks });
    int "code_len" (fun t -> t.code_len) (fun t code_len -> { t with code_len });
    int "icache_misses" (fun t -> t.icache_misses) (fun t icache_misses ->
        { t with icache_misses });
    int "dcache_misses" (fun t -> t.dcache_misses) (fun t dcache_misses ->
        { t with dcache_misses }) ]

let field name =
  match List.find_opt (fun f -> f.name = name) fields with
  | Some f -> f
  | None -> invalid_arg ("Run_stats.field: no field " ^ name)

let zero ~mechanism ~stop =
  { mechanism; stop; cycles = 0L; guest_insns = 0L; interp_insns = 0L; host_insns = 0L;
    memrefs = 0L; mdas = 0L; traps = 0L; patches = 0; translations = 0; retranslations = 0;
    rearrangements = 0; chains = 0; evictions = 0; patch_faults = 0; degraded = 0;
    blocks = 0; code_len = 0; icache_misses = 0; dcache_misses = 0 }

let add a b =
  List.fold_left (fun t f -> f.set t (Int64.add (f.get a) (f.get b))) a fields

(* Stable key=value serialization, the persistent result cache's on-disk
   format. Field order is part of the format; bump the [format_version]
   when it changes so stale cache entries are rejected, not misparsed. *)

(* v4: the stop-reason value space grew ("aot-miss:<addr>"); older
   readers must reject rather than misparse entries a newer writer
   produced. *)
let format_version = 4

let to_kv t =
  ("mechanism", t.mechanism)
  :: ("stop", stop_reason_to_string t.stop)
  :: List.map (fun f -> (f.name, Int64.to_string (f.get t))) fields

(* Pure-result parser: every failure mode — missing key, garbled value,
   unknown stop reason — is an [Error], never an escaping exception, so
   a consumer (the result cache's corrupted-entry contract in
   particular) can map any parse problem to a miss without a catch-all. *)
let of_kv kvs =
  let ( let* ) = Result.bind in
  let lookup k =
    match List.assoc_opt k kvs with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" k)
  in
  let number f =
    let* v = lookup f.name in
    let n =
      if f.wide then Int64.of_string_opt v else Option.map Int64.of_int (int_of_string_opt v)
    in
    match n with
    | Some n -> Ok n
    | None ->
      Error
        (Printf.sprintf "field %S: malformed %s %S" f.name (if f.wide then "int64" else "int") v)
  in
  let* mechanism = lookup "mechanism" in
  let* stop = Result.bind (lookup "stop") stop_reason_of_string in
  List.fold_left
    (fun acc f ->
      let* t = acc in
      let* n = number f in
      Ok (f.set t n))
    (Ok (zero ~mechanism ~stop))
    fields

let pp fmt t =
  Format.fprintf fmt
    "@[<v>mechanism        %s@,cycles           %s@,guest insns      %s@,\
     interp insns     %s@,host insns       %s@,memrefs (interp) %s@,\
     MDAs (interp)    %s@,align traps      %s@,patches          %d@,\
     translations     %d@,retranslations   %d@,rearrangements   %d@,\
     chains           %d@,evictions        %d@,patch faults     %d@,\
     degraded sites   %d@,blocks           %d@,code cache insns %d@]"
    t.mechanism
    (Mda_util.Stats.with_commas t.cycles)
    (Mda_util.Stats.with_commas t.guest_insns)
    (Mda_util.Stats.with_commas t.interp_insns)
    (Mda_util.Stats.with_commas t.host_insns)
    (Mda_util.Stats.with_commas t.memrefs)
    (Mda_util.Stats.with_commas t.mdas)
    (Mda_util.Stats.with_commas t.traps)
    t.patches t.translations t.retranslations t.rearrangements t.chains t.evictions
    t.patch_faults t.degraded t.blocks t.code_len;
  Format.fprintf fmt "@.icache misses    %d@.dcache misses    %d" t.icache_misses
    t.dcache_misses;
  Format.fprintf fmt "@.stopped          %s" (stop_reason_to_string t.stop)
