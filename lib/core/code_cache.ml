(* The translated-code cache.

   Holds host (alphalite) instructions in a growable store, plus the side
   tables a patching DBT needs:

   - [sites]: host pc → description of the guest memory operation that
     produced the instruction there. The misalignment exception handler
     consults this to regenerate the access as an MDA code sequence
     (paper Section IV: "Obtain and analyse the instruction that incurs
     misalignment exception…").
   - block records: per guest block, its current entry point, the pcs of
     direct branches other blocks have chained to it, patch/trap
     accounting for the rearrangement and retranslation policies.

   Patching rewrites one slot — the simulated equivalent of overwriting a
   32-bit instruction word in a real code cache. *)

module H = Mda_host.Isa

(* What the trap handler must know to regenerate a faulting access.
   [base]/[disp] name *live host state* at the faulting pc (address
   registers are untouched by the patch), so the MDA sequence emitted
   out-of-line computes the same effective address. *)
type site = {
  guest_addr : int;
  block_start : int;
  op : Mda_host.Mda_seq.mem_op;
}

type block_rec = {
  start : int; (* guest address *)
  mutable entry : int option; (* host entry pc of the current translation *)
  mutable host_range : (int * int) option; (* [lo, hi) of latest translation *)
  mutable execs : int; (* phase-1 (interpreted) executions *)
  mutable traps : int; (* misalignment exceptions taken in translated code *)
  mutable patched : (int, unit) Hashtbl.t; (* guest addrs patched by the handler *)
  mutable known_mda : (int, unit) Hashtbl.t; (* profile ∪ patched: best knowledge *)
  mutable in_chains : int list; (* host pcs of Br insns chained to [entry] *)
  mutable dirty_rearrange : bool; (* rebuild inline at next entry *)
  mutable want_retrans : bool; (* invalidate + reprofile at next entry *)
  mutable retrans_count : int;
  mutable seq_insns : int; (* out-of-line MDA-sequence insns patched in for this block *)
  mutable last_used : int; (* dispatch tick, for LRU eviction of a bounded cache *)
}

type t = {
  mutable code : H.insn array;
  mutable len : int;
  sites : (int, site) Hashtbl.t;
  blocks : (int, block_rec) Hashtbl.t;
  mutable patches : int; (* statistics: slots rewritten *)
}

let create ?(initial = 4096) () =
  { code = Array.make initial H.Nop;
    len = 0;
    sites = Hashtbl.create 512;
    blocks = Hashtbl.create 128;
    patches = 0 }

let length t = t.len

let code t = t.code

(* Full cache flush: drop all translated code, sites and block records
   but keep the backing store (real DBTs reserve the cache once and
   flush in place). [Hashtbl.clear] rather than [reset] so the bucket
   arrays keep their grown size across flush/refill cycles. *)
let flush t =
  t.len <- 0;
  Hashtbl.clear t.sites;
  Hashtbl.clear t.blocks

let ensure t extra =
  if t.len + extra > Array.length t.code then begin
    let cap = ref (Array.length t.code) in
    while t.len + extra > !cap do
      cap := !cap * 2
    done;
    let code = Array.make !cap H.Nop in
    Array.blit t.code 0 code 0 t.len;
    t.code <- code
  end

(* Direct-emission support for the single-pass translator: it writes a
   block straight into the backing store past [len], then publishes the
   new length with one store once the block has resolved. [reserve]
   only grows capacity — the whole old array is copied, because the
   unpublished tail may already hold the block being emitted. An
   abandoned (error) block needs no undo: it was never published. *)
let reserve t n =
  if n > Array.length t.code then begin
    let cap = ref (max 16 (Array.length t.code)) in
    while n > !cap do
      cap := !cap * 2
    done;
    let code = Array.make !cap H.Nop in
    Array.blit t.code 0 code 0 (Array.length t.code);
    t.code <- code
  end

let publish t n =
  if n < t.len || n > Array.length t.code then
    invalid_arg (Printf.sprintf "Code_cache.publish: bad length %d" n);
  t.len <- n

(* Append instructions; returns the pc of the first one. *)
let emit t insns =
  let n = List.length insns in
  ensure t n;
  let start = t.len in
  List.iteri (fun i insn -> t.code.(start + i) <- insn) insns;
  t.len <- start + n;
  start

let fetch t pc =
  if pc < 0 || pc >= t.len then
    raise (Mda_machine.Cpu.Fatal (Printf.sprintf "code-cache fetch out of range: %d" pc));
  t.code.(pc)

let patch t pc insn =
  if pc < 0 || pc >= t.len then
    invalid_arg (Printf.sprintf "Code_cache.patch: pc %d out of range" pc);
  t.code.(pc) <- insn;
  t.patches <- t.patches + 1

let insn_at t pc = if pc >= 0 && pc < t.len then Some t.code.(pc) else None

let register_site t ~pc site = Hashtbl.replace t.sites pc site

let find_site t pc = Hashtbl.find_opt t.sites pc

let remove_sites_in t (lo, hi) =
  for pc = lo to hi - 1 do
    Hashtbl.remove t.sites pc
  done

(* --- block records ----------------------------------------------------- *)

let block t start =
  match Hashtbl.find_opt t.blocks start with
  | Some b -> b
  | None ->
    let b =
      { start;
        entry = None;
        host_range = None;
        execs = 0;
        traps = 0;
        patched = Hashtbl.create 4;
        known_mda = Hashtbl.create 4;
        in_chains = [];
        dirty_rearrange = false;
        want_retrans = false;
        retrans_count = 0;
        seq_insns = 0;
        last_used = 0 }
    in
    Hashtbl.replace t.blocks start b;
    b

let find_block t start = Hashtbl.find_opt t.blocks start

(* Invalidate a block's translation: unlink every chained branch back to a
   monitor exit (so callers fall back to the BT runtime), drop its sites,
   clear its entry. The stale code itself is abandoned in place, as real
   code caches do until a flush. *)
let invalidate t b ~(repatch : int -> H.insn) =
  List.iter (fun pc -> patch t pc (repatch pc)) b.in_chains;
  b.in_chains <- [];
  (match b.host_range with Some r -> remove_sites_in t r | None -> ());
  b.entry <- None;
  b.host_range <- None;
  b.dirty_rearrange <- false;
  b.seq_insns <- 0

let iter_blocks t f = Hashtbl.iter (fun _ b -> f b) t.blocks

let num_blocks t = Hashtbl.length t.blocks

(* --- live occupancy (for a bounded cache) ------------------------------ *)

(* The store itself is append-only (stale code is abandoned in place until
   a flush), so a capacity bound is enforced against *live* occupancy:
   every currently-translated block's host range plus the out-of-line MDA
   sequences patched in for it. *)
let block_live_insns (b : block_rec) =
  (match b.host_range with Some (lo, hi) -> hi - lo | None -> 0) + b.seq_insns

let live_insns t =
  let total = ref 0 in
  iter_blocks t (fun b -> if b.entry <> None then total := !total + block_live_insns b);
  !total

(* The one LRU eviction rule: the least-recently-dispatched live block
   that [eligible] admits, ties broken by guest address so eviction
   order is deterministic. *)
let lru_victim t ~eligible =
  let best = ref None in
  iter_blocks t (fun b ->
      if b.entry <> None && eligible b then
        match !best with
        | Some v when (v.last_used, v.start) <= (b.last_used, b.start) -> ()
        | _ -> best := Some b);
  !best

(* --- iteration hooks for cache-wide analyses --------------------------- *)

(* Live (currently translated) blocks in deterministic guest-address
   order, so cache-wide walks — the translation validator, the mutation
   harness — report in a stable order independent of hashing. *)
let blocks_sorted t =
  let out = ref [] in
  iter_blocks t (fun b -> if b.entry <> None then out := b :: !out);
  List.sort (fun a b -> compare a.start b.start) !out

(* Every recorded chain edge as (host pc of the Br slot, entry it must
   branch to, guest start of the target block). A cache walker needs
   this to tell a chained block exit from a local or patch branch. *)
let chain_exits t =
  let out = ref [] in
  iter_blocks t (fun b ->
      match b.entry with
      | Some entry -> List.iter (fun at -> out := (at, entry, b.start) :: !out) b.in_chains
      | None -> ());
  List.sort compare !out

(* [owner_of t pc] is the live block whose host range contains [pc], if
   any — the block a cache-resident instruction belongs to. *)
let owner_of t pc =
  let found = ref None in
  iter_blocks t (fun b ->
      match b.host_range with
      | Some (lo, hi) when pc >= lo && pc < hi && b.entry <> None -> found := Some b
      | _ -> ());
  !found
