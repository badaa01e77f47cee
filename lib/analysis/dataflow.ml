(* Alignment-congruence dataflow analysis over x86lite programs.

   Abstract interpretation of the guest binary before any execution:
   blocks are discovered from the entry point exactly as the translator
   discovers them ({!Mda_bt.Block.discover}), a register file of
   {!Congruence} values is propagated to a fixpoint over the CFG, and
   every static memory operand is classified [Align_aligned] /
   [Align_misaligned] / [Align_unknown] from the abstract effective
   address it is reached with.

   Two engines share the transfer functions:

   - [Intraprocedural] is the original call-string-free supergraph: the
     state after any Ret flows to every call fall-through discovered in
     the program, and any undecodable region or budget overflow poisons
     the whole verdict. Kept as the baseline the interprocedural census
     is compared against.

   - [Interprocedural] (the default) discovers the call graph (program
     entry plus every direct Call target — x86lite's only indirect
     transfer is Ret, so there are no jump tables to resolve; the
     bounded Congr-index machinery the domain would support is vacuous
     here) and analyzes each function in its own context with
     call-site-sensitive summaries:

     * the callee's entry environment is the join over its call sites;
     * each function summarizes which registers it may define
       (transitively through its callees), so registers a callee
       provably leaves alone keep the caller's value across the call;
     * ESP is tracked through push/pop/call frames by a parallel
       offset analysis (a flat lattice of "esp displacement from
       function entry"), so a balanced callee restores the caller's
       *exact* pre-call ESP at the return site instead of joining every
       function's return-time ESP into one congruence — this is what
       lets stack slots classify across calls;
     * completeness is per function: an undecodable region or a blown
       block budget degrades only the verdicts of the function that
       contains it. Its callers model the call as an opaque
       clobber-everything-and-return, which extends the soundness
       contract below: undecodable code is assumed to behave like a
       well-bracketed opaque call (it may write any register and any
       memory, but control continues at the site the static CFG says).

   Soundness contract (the property test_analysis checks with qcheck):
   for any decodable program whose indirect control flow is
   well-bracketed — every Ret returns to the fall-through of some Call,
   the only indirect transfers x86lite has — a site classified
   [Align_aligned] never observes a misaligned effective address in the
   interpreter, and a site classified [Align_misaligned] never observes
   an aligned one. Programs that corrupt return addresses fall outside
   the contract; even then the Static_analysis and Aot mechanisms stay
   *correct* (a wrongly "aligned" operand traps and is fixed up or
   patched at runtime), they merely lose the static speed-up.

   Memory is not modelled — loaded values are Top — which is what makes
   the analysis a *translation-time* pass: it needs the program image
   only, no profile and no execution. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module C = Congruence
module Bt = Mda_bt

type cls = Bt.Mechanism.align_class

type mode = Interprocedural | Intraprocedural

let mode_name = function
  | Interprocedural -> "interprocedural"
  | Intraprocedural -> "intraprocedural"

(* One classified static memory operand. [ea] is the join of the
   abstract effective addresses over every path reaching the
   instruction. *)
type site = {
  addr : int; (* static guest instruction address *)
  width : int;
  kind : [ `Load | `Store | `Both ]; (* Both: Rmw's two halves *)
  ea : C.t;
  cls : cls;
}

(* Per-function result of the interprocedural engine. *)
type fn = {
  fn_entry : int;
  fn_blocks : int; (* basic blocks analyzed in this function's context *)
  fn_complete : bool;
  fn_calls : int; (* static call sites targeting this function *)
  fn_returns : bool; (* a Ret was reached *)
  fn_esp_delta : int option;
      (* caller-visible ESP change across a call (0 = balanced);
         None when unknown or the function never returns *)
}

type t = {
  entry : int;
  mode : mode;
  sites : (int, site) Hashtbl.t;
  blocks : int; (* basic blocks discovered *)
  iterations : int; (* block visits until the fixpoint *)
  complete : bool; (* every function (or, intraprocedurally, the whole
                      supergraph) decoded within budget *)
  functions : fn list; (* by entry address; empty intraprocedurally *)
  overflow : (int * int) option;
      (* [Some (fn_entry, blocks_seen)] when the block budget — not
         undecodable code — stopped discovery, and where *)
}

(* --- abstract register file -------------------------------------------- *)

let num_regs = Array.length GI.all_regs

let esp_idx = GI.reg_index GI.ESP

let rf_top () = Array.make num_regs C.top

let rf_copy = Array.copy

(* Join [src] into [dst]; returns whether [dst] grew. *)
let rf_join_into ~dst ~src =
  let changed = ref false in
  for i = 0 to num_regs - 1 do
    let j = C.join dst.(i) src.(i) in
    if not (C.equal j dst.(i)) then begin
      dst.(i) <- j;
      changed := true
    end
  done;
  !changed

let get st r = st.(GI.reg_index r)

let set st r v = st.(GI.reg_index r) <- v

(* --- transfer ----------------------------------------------------------- *)

let operand st = function
  | GI.Reg r -> get st r
  | GI.Imm i -> C.const (Int64.of_int (Int32.to_int i))

(* Abstract effective address: base + index*scale + disp, summed in
   full and truncated once, mod 2^32, as the interpreter computes it. *)
let eff st ({ base; index; disp } : GI.addr) =
  let b = match base with Some r -> get st r | None -> C.const 0L in
  let i =
    match index with
    | Some (r, scale) -> C.mul_const (get st r) scale
    | None -> C.const 0L
  in
  C.low32 (C.add (C.add b i) (C.const_int disp))

let bump_esp st delta =
  set st GI.ESP (C.low32 (C.add (get st GI.ESP) (C.const_int delta)))

(* Abstract state update of one instruction (memory operands are
   observed separately by the classification pass). Mirrors
   {!Mda_bt.Interp.run_block}; anything whose result the domain cannot
   express havocs exactly {!GI.defs}. *)
let step st (insn : GI.insn) =
  match insn with
  | GI.Load { dst; _ } -> set st dst C.top (* loaded values are unmodelled *)
  | GI.Store _ -> ()
  | GI.Mov_imm { dst; imm } -> set st dst (C.const (Int64.of_int (Int32.to_int imm)))
  | GI.Mov_reg { dst; src } -> set st dst (get st src)
  | GI.Binop { op; dst; src } -> set st dst (C.transfer op (get st dst) (operand st src))
  | GI.Cmp _ | GI.Test _ -> ()
  | GI.Lea { dst; src } -> set st dst (C.sext32 (eff st src))
  | GI.Rmw _ -> ()
  | GI.Push _ -> bump_esp st (-4)
  | GI.Pop dst ->
    set st dst C.top;
    bump_esp st 4
  | GI.Call _ -> bump_esp st (-4)
  | GI.Ret -> bump_esp st 4
  | GI.Jmp _ | GI.Jcc _ | GI.Nop | GI.Halt -> ()

(* Effective address of the instruction's data access(es), in the
   *pre*-state. x86lite's stack operations address through ESP. *)
let access_ea st (insn : GI.insn) =
  match insn with
  | GI.Load { src; size; _ } -> Some (eff st src, GI.size_bytes size, `Load)
  | GI.Store { dst; size; _ } -> Some (eff st dst, GI.size_bytes size, `Store)
  | GI.Rmw { dst; size; _ } -> Some (eff st dst, GI.size_bytes size, `Both)
  | GI.Push _ | GI.Call _ ->
    Some (C.low32 (C.add (get st GI.ESP) (C.const_int (-4))), 4, `Store)
  | GI.Pop _ | GI.Ret -> Some (C.low32 (get st GI.ESP), 4, `Load)
  | _ -> None

(* --- ESP-offset lattice (interprocedural) ------------------------------- *)

(* ESP displacement from function entry, as a flat lattice. [Oknown d]
   means every path to this point moved ESP by exactly [d] bytes since
   the function was entered — the relational fact the congruence domain
   cannot express, and the one that lets a return site restore the
   caller's exact ESP: a balanced callee reaches its Ret at offset 0
   and leaves at [Oknown 4] (the return-address pop). *)
type off = Obot | Oknown of int | Otop

let off_join a b =
  match (a, b) with
  | Obot, x | x, Obot -> x
  | Oknown i, Oknown j when i = j -> a
  | _ -> Otop

let off_add o d = match o with Oknown k -> Oknown (k + d) | o -> o

(* Offset transfer of one non-call instruction. Anything that writes
   ESP non-incrementally severs the displacement. *)
let off_step o (insn : GI.insn) =
  match insn with
  | GI.Push _ -> off_add o (-4)
  | GI.Pop dst -> if dst = GI.ESP then Otop else off_add o 4
  | GI.Ret -> off_add o 4
  | GI.Binop { op = GI.Add; dst = GI.ESP; src = GI.Imm i } ->
    off_add o (Int32.to_int i)
  | GI.Binop { op = GI.Sub; dst = GI.ESP; src = GI.Imm i } ->
    off_add o (-Int32.to_int i)
  | GI.Binop { dst = GI.ESP; _ }
  | GI.Mov_imm { dst = GI.ESP; _ }
  | GI.Mov_reg { dst = GI.ESP; _ }
  | GI.Lea { dst = GI.ESP; _ }
  | GI.Load { dst = GI.ESP; _ } -> Otop
  | _ -> o

(* --- intraprocedural (supergraph) engine -------------------------------- *)

type engine = {
  mem : Mda_machine.Memory.t;
  entry0 : int;
  block_cache : (int, Bt.Block.t) Hashtbl.t;
  in_states : (int, C.t array) Hashtbl.t; (* block start -> entry state *)
  ret_sites : (int, unit) Hashtbl.t; (* call fall-through addresses *)
  ret_blocks : (int, unit) Hashtbl.t; (* blocks ending in Ret *)
  mutable queue : int list;
  mutable queued : (int, unit) Hashtbl.t;
  max_blocks : int;
  mutable broken : bool; (* undecodable reachable code / budget blown *)
  mutable ov : (int * int) option; (* budget overflow: (entry, blocks seen) *)
  mutable visits : int;
}

let enqueue e b =
  if not (Hashtbl.mem e.queued b) then begin
    Hashtbl.replace e.queued b ();
    e.queue <- b :: e.queue
  end

let dequeue e =
  match e.queue with
  | [] -> None
  | b :: rest ->
    e.queue <- rest;
    Hashtbl.remove e.queued b;
    Some b

let block_at e pc =
  match Hashtbl.find_opt e.block_cache pc with
  | Some b -> Some b
  | None ->
    if Hashtbl.length e.block_cache >= e.max_blocks then begin
      e.broken <- true;
      if e.ov = None then e.ov <- Some (e.entry0, Hashtbl.length e.block_cache);
      None
    end
    else begin
      match Bt.Block.discover e.mem ~pc with
      | Ok b ->
        Hashtbl.replace e.block_cache pc b;
        Some b
      | Error _ ->
        e.broken <- true;
        None
    end

(* Propagate [st] to the entry of block [target]. *)
let flow e ~target st =
  match Hashtbl.find_opt e.in_states target with
  | None ->
    Hashtbl.replace e.in_states target (rf_copy st);
    enqueue e target
  | Some cur -> if rf_join_into ~dst:cur ~src:st then enqueue e target

(* Run the whole block's transfer from [st0] (copied); returns the
   out-state and the terminator with its position. *)
let run_block block st0 =
  let st = rf_copy st0 in
  let n = Array.length block.Bt.Block.insns in
  for i = 0 to n - 2 do
    step st block.Bt.Block.insns.(i)
  done;
  let last = block.Bt.Block.insns.(n - 1) in
  (st, last)

let successors e block st (last : GI.insn) =
  match last with
  | GI.Jmp t ->
    step st last;
    [ (t, st) ]
  | GI.Jcc { target; _ } ->
    step st last;
    [ (target, st); (block.Bt.Block.next, st) ]
  | GI.Call t ->
    step st last;
    let ret_site = block.Bt.Block.next in
    if not (Hashtbl.mem e.ret_sites ret_site) then begin
      Hashtbl.replace e.ret_sites ret_site ();
      (* the new return site must receive every Ret's out-state *)
      Hashtbl.iter (fun b () -> enqueue e b) e.ret_blocks
    end;
    [ (t, st) ]
  | GI.Ret ->
    step st last;
    Hashtbl.replace e.ret_blocks block.Bt.Block.start ();
    Hashtbl.fold (fun site () acc -> (site, st) :: acc) e.ret_sites []
  | GI.Halt -> []
  | _ ->
    (* Block.discover only terminates blocks at control transfers *)
    assert false

let analyze_intra ~max_blocks mem ~entry =
  let e =
    { mem;
      entry0 = entry;
      block_cache = Hashtbl.create 256;
      in_states = Hashtbl.create 256;
      ret_sites = Hashtbl.create 32;
      ret_blocks = Hashtbl.create 32;
      queue = [];
      queued = Hashtbl.create 256;
      max_blocks;
      broken = false;
      ov = None;
      visits = 0 }
  in
  Hashtbl.replace e.in_states entry (rf_top ());
  enqueue e entry;
  (* Fixpoint: finite lattice height bounds the visit count; the
     visit budget is a pure safety net. *)
  let max_visits = 64 * max_blocks in
  let rec loop () =
    match dequeue e with
    | None -> ()
    | Some pc ->
      e.visits <- e.visits + 1;
      if e.visits > max_visits then e.broken <- true
      else begin
        (match (block_at e pc, Hashtbl.find_opt e.in_states pc) with
        | Some block, Some st0 ->
          let st, last = run_block block st0 in
          List.iter (fun (target, st) -> flow e ~target (rf_copy st)) (successors e block st last)
        | _ -> ());
        loop ()
      end
  in
  loop ();
  (* Classification pass over the converged states: join the abstract
     effective address each memory operand is reached with. *)
  let eas : (int, C.t * int * [ `Load | `Store | `Both ]) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun pc st0 ->
      match Hashtbl.find_opt e.block_cache pc with
      | None -> ()
      | Some block ->
        let st = rf_copy st0 in
        Array.iteri
          (fun i insn ->
            (match access_ea st insn with
            | Some (ea, width, kind) ->
              let addr = block.Bt.Block.addrs.(i) in
              let ea, kind =
                match Hashtbl.find_opt eas addr with
                | Some (prev, _, pk) -> (C.join prev ea, if pk = kind then pk else `Both)
                | None -> (ea, kind)
              in
              Hashtbl.replace eas addr (ea, width, kind)
            | None -> ());
            step st insn)
          block.Bt.Block.insns)
    e.in_states;
  let sites = Hashtbl.create (Hashtbl.length eas) in
  Hashtbl.iter
    (fun addr (ea, width, kind) ->
      let cls =
        if e.broken then Bt.Mechanism.Align_unknown else C.classify ~width ea
      in
      Hashtbl.replace sites addr { addr; width; kind; ea; cls })
    eas;
  { entry;
    mode = Intraprocedural;
    sites;
    blocks = Hashtbl.length e.block_cache;
    iterations = e.visits;
    complete = not e.broken;
    functions = [];
    overflow = e.ov }

(* --- interprocedural engine --------------------------------------------- *)

(* Per-block state in one function's context: congruence register file
   plus the ESP displacement from the function's entry. *)
type istate = { irf : C.t array; mutable ioff : off }

type ifn = {
  f_entry : int;
  f_states : (int, istate) Hashtbl.t; (* block start -> in-state *)
  f_blocks : (int, unit) Hashtbl.t; (* blocks seen in this context *)
  mutable f_ret_out : C.t array option; (* join of post-Ret register files *)
  mutable f_delta : off; (* ESP offset after a Ret (join over all Rets) *)
  mutable f_maydef : int; (* bitmask of registers possibly written,
                             including transitively through callees *)
  mutable f_complete : bool;
  mutable f_callers : (int * int) list; (* (caller fn entry, caller block) *)
}

type iengine = {
  imem : Mda_machine.Memory.t;
  icache : (int, Bt.Block.t) Hashtbl.t; (* global decode cache *)
  ifns : (int, ifn) Hashtbl.t;
  mutable iqueue : (int * int) list; (* (function entry, block start) *)
  iqueued : (int * int, unit) Hashtbl.t;
  imax_blocks : int;
  mutable ioverflow : (int * int) option;
  mutable ivisits : int;
  mutable iaborted : bool; (* visit-budget safety net fired *)
}

let all_regs_mask = (1 lsl num_regs) - 1

let ienqueue e key =
  if not (Hashtbl.mem e.iqueued key) then begin
    Hashtbl.replace e.iqueued key ();
    e.iqueue <- key :: e.iqueue
  end

let idequeue e =
  match e.iqueue with
  | [] -> None
  | key :: rest ->
    e.iqueue <- rest;
    Hashtbl.remove e.iqueued key;
    Some key

let get_fn e entry =
  match Hashtbl.find_opt e.ifns entry with
  | Some f -> f
  | None ->
    let f =
      { f_entry = entry;
        f_states = Hashtbl.create 16;
        f_blocks = Hashtbl.create 16;
        f_ret_out = None;
        f_delta = Obot;
        f_maydef = 0;
        f_complete = true;
        f_callers = [] }
    in
    Hashtbl.replace e.ifns entry f;
    f

(* A summary component of [fn] changed: every call site targeting it
   must re-propagate its return-site state. *)
let notify e fn = List.iter (fun key -> ienqueue e key) fn.f_callers

let mark_incomplete e fn =
  if fn.f_complete then begin
    fn.f_complete <- false;
    notify e fn
  end

let iblock_at e fn pc =
  match Hashtbl.find_opt e.icache pc with
  | Some b -> Some b
  | None ->
    if Hashtbl.length e.icache >= e.imax_blocks then begin
      if e.ioverflow = None then
        e.ioverflow <- Some (fn.f_entry, Hashtbl.length fn.f_blocks);
      mark_incomplete e fn;
      None
    end
    else begin
      match Bt.Block.discover e.imem ~pc with
      | Ok b ->
        Hashtbl.replace e.icache pc b;
        Some b
      | Error _ ->
        mark_incomplete e fn;
        None
    end

(* Propagate (rf, off) to block [target] in [fn]'s context. *)
let iflow e fn ~target rf off =
  match Hashtbl.find_opt fn.f_states target with
  | None ->
    Hashtbl.replace fn.f_states target { irf = rf_copy rf; ioff = off };
    ienqueue e (fn.f_entry, target)
  | Some cur ->
    let grew_rf = rf_join_into ~dst:cur.irf ~src:rf in
    let o = off_join cur.ioff off in
    let grew_off = o <> cur.ioff in
    cur.ioff <- o;
    if grew_rf || grew_off then ienqueue e (fn.f_entry, target)

let maydef_union fn bits =
  let m = fn.f_maydef lor bits in
  if m <> fn.f_maydef then begin
    fn.f_maydef <- m;
    true
  end
  else false

(* Handle a Call terminator in [fn]: seed/grow the callee's entry
   environment, and propagate to the return site through the callee's
   summary. [rf]/[off] are the post-push state (ESP already -4). *)
let icall e fn ~call_block ~ret_site ~target rf off =
  let callee = get_fn e target in
  let key = (fn.f_entry, call_block) in
  if not (List.mem key callee.f_callers) then
    callee.f_callers <- key :: callee.f_callers;
  (* callee entry environment: join over call sites, displacement 0 *)
  iflow e callee ~target rf (Oknown 0);
  (* summary composition: whatever the callee may write, so may we *)
  let bits = if callee.f_complete then callee.f_maydef else all_regs_mask in
  if maydef_union fn bits then notify e fn;
  (* return-site state through the callee's summary *)
  if not callee.f_complete then
    (* opaque call: clobbers everything, but control does return *)
    iflow e fn ~target:ret_site (rf_top ()) Otop
  else
    match callee.f_ret_out with
    | None -> () (* no return path known yet; a Ret will re-wake us *)
    | Some ro ->
      let rrf = Array.make num_regs C.top in
      for i = 0 to num_regs - 1 do
        if i = esp_idx then
          rrf.(i) <-
            (match callee.f_delta with
            | Oknown d -> C.low32 (C.add rf.(esp_idx) (C.const_int d))
            | Obot | Otop -> C.top)
        else if callee.f_maydef land (1 lsl i) <> 0 then rrf.(i) <- ro.(i)
        else rrf.(i) <- rf.(i)
      done;
      let roff =
        match callee.f_delta with Oknown d -> off_add off d | Obot | Otop -> Otop
      in
      iflow e fn ~target:ret_site rrf roff

let ivisit e fn pc =
  match Hashtbl.find_opt fn.f_states pc with
  | None -> ()
  | Some st0 -> begin
    match iblock_at e fn pc with
    | None -> ()
    | Some block ->
      if not (Hashtbl.mem fn.f_blocks pc) then begin
        Hashtbl.replace fn.f_blocks pc ();
        (* this block's own register defs enter the function summary *)
        let bits =
          Array.fold_left
            (fun acc insn ->
              List.fold_left
                (fun acc r -> acc lor (1 lsl GI.reg_index r))
                acc (GI.defs insn))
            0 block.Bt.Block.insns
        in
        if maydef_union fn bits then notify e fn
      end;
      let rf = rf_copy st0.irf in
      let off = ref st0.ioff in
      let n = Array.length block.Bt.Block.insns in
      for i = 0 to n - 2 do
        let insn = block.Bt.Block.insns.(i) in
        step rf insn;
        off := off_step !off insn
      done;
      let last = block.Bt.Block.insns.(n - 1) in
      (match last with
      | GI.Jmp t -> iflow e fn ~target:t rf !off
      | GI.Jcc { target; _ } ->
        iflow e fn ~target rf !off;
        iflow e fn ~target:block.Bt.Block.next rf !off
      | GI.Call t ->
        step rf last;
        icall e fn ~call_block:pc ~ret_site:block.Bt.Block.next ~target:t rf
          (off_add !off (-4))
      | GI.Ret ->
        step rf last;
        let roff = off_add !off 4 in
        let grew_ro =
          match fn.f_ret_out with
          | None ->
            fn.f_ret_out <- Some (rf_copy rf);
            true
          | Some cur -> rf_join_into ~dst:cur ~src:rf
        in
        let d = off_join fn.f_delta roff in
        let grew_d = d <> fn.f_delta in
        fn.f_delta <- d;
        if grew_ro || grew_d then notify e fn
      | GI.Halt -> ()
      | _ ->
        (* Block.discover only terminates blocks at control transfers *)
        assert false)
  end

let analyze_inter ~max_blocks mem ~entry =
  let e =
    { imem = mem;
      icache = Hashtbl.create 256;
      ifns = Hashtbl.create 16;
      iqueue = [];
      iqueued = Hashtbl.create 256;
      imax_blocks = max_blocks;
      ioverflow = None;
      ivisits = 0;
      iaborted = false }
  in
  let fn0 = get_fn e entry in
  Hashtbl.replace fn0.f_states entry { irf = rf_top (); ioff = Oknown 0 };
  ienqueue e (entry, entry);
  (* Fixpoint: finite lattice height bounds the visit count; the
     visit budget is a pure safety net. *)
  let max_visits = 64 * max_blocks in
  let rec loop () =
    match idequeue e with
    | None -> ()
    | Some (fentry, pc) ->
      e.ivisits <- e.ivisits + 1;
      if e.ivisits > max_visits then e.iaborted <- true
      else begin
        ivisit e (Hashtbl.find e.ifns fentry) pc;
        loop ()
      end
  in
  loop ();
  (* Classification pass over the converged states of every function
     context. A site inside an incomplete function degrades to unknown
     (its in-states may be missing paths through the unexplored
     region); sites in complete functions keep their verdicts — the
     per-function degradation the supergraph engine cannot offer. *)
  let eas : (int, C.t * int * [ `Load | `Store | `Both ]) Hashtbl.t = Hashtbl.create 256 in
  let tainted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ fn ->
      Hashtbl.iter
        (fun pc st0 ->
          match Hashtbl.find_opt e.icache pc with
          | None -> ()
          | Some block ->
            let rf = rf_copy st0.irf in
            Array.iteri
              (fun i insn ->
                (match access_ea rf insn with
                | Some (ea, width, kind) ->
                  let addr = block.Bt.Block.addrs.(i) in
                  if not fn.f_complete then Hashtbl.replace tainted addr ();
                  let ea, kind =
                    match Hashtbl.find_opt eas addr with
                    | Some (prev, _, pk) -> (C.join prev ea, if pk = kind then pk else `Both)
                    | None -> (ea, kind)
                  in
                  Hashtbl.replace eas addr (ea, width, kind)
                | None -> ());
                step rf insn)
              block.Bt.Block.insns)
        fn.f_states)
    e.ifns;
  let sites = Hashtbl.create (Hashtbl.length eas) in
  Hashtbl.iter
    (fun addr (ea, width, kind) ->
      let cls =
        if e.iaborted || Hashtbl.mem tainted addr then Bt.Mechanism.Align_unknown
        else C.classify ~width ea
      in
      Hashtbl.replace sites addr { addr; width; kind; ea; cls })
    eas;
  let functions =
    Hashtbl.fold
      (fun _ f acc ->
        { fn_entry = f.f_entry;
          fn_blocks = Hashtbl.length f.f_blocks;
          fn_complete = f.f_complete && not e.iaborted;
          fn_calls = List.length f.f_callers;
          fn_returns = f.f_ret_out <> None;
          fn_esp_delta =
            (match f.f_delta with Oknown d -> Some (d - 4) | Obot | Otop -> None) }
        :: acc)
      e.ifns []
    |> List.sort (fun a b -> compare a.fn_entry b.fn_entry)
  in
  { entry;
    mode = Interprocedural;
    sites;
    blocks = Hashtbl.length e.icache;
    iterations = e.ivisits;
    complete = (not e.iaborted) && List.for_all (fun f -> f.fn_complete) functions;
    functions;
    overflow = e.ioverflow }

let analyze ?(max_blocks = 65536) ?(mode = Interprocedural) mem ~entry =
  match mode with
  | Interprocedural -> analyze_inter ~max_blocks mem ~entry
  | Intraprocedural -> analyze_intra ~max_blocks mem ~entry

(* --- results ------------------------------------------------------------ *)

let classify t addr =
  match Hashtbl.find_opt t.sites addr with
  | Some s -> s.cls
  | None -> Bt.Mechanism.Align_unknown

let iter_sites t f = Hashtbl.iter (fun _ s -> f s) t.sites

let sites_sorted t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sites []
  |> List.sort (fun a b -> compare a.addr b.addr)

(* Static census: how many memory-operand instructions land in each
   class. *)
let census t =
  let al = ref 0 and mis = ref 0 and unk = ref 0 in
  iter_sites t (fun s ->
      match s.cls with
      | Bt.Mechanism.Align_aligned -> incr al
      | Bt.Mechanism.Align_misaligned -> incr mis
      | Bt.Mechanism.Align_unknown -> incr unk);
  (!al, !mis, !unk)

(* Package the verdicts for the translator ({!Mda_bt.Mechanism}'s
   [Static_analysis] and [Aot] mechanisms). Unknown sites are left out —
   absence already means unknown — so the summary stays proof-only.
   Per-function completeness is already folded into each site's class,
   so an incomplete *function* only silences its own sites; only the
   visit-budget safety net (which degrades everything) empties the
   summary outright. *)
let summary t =
  let classes = Hashtbl.create 256 in
  iter_sites t (fun s ->
      match s.cls with
      | Bt.Mechanism.Align_unknown -> ()
      | c -> Hashtbl.replace classes s.addr c);
  { Bt.Mechanism.classes }

let pp_site fmt s =
  Format.fprintf fmt "%#x: %s width=%d ea=%a -> %s" s.addr
    (match s.kind with `Load -> "load" | `Store -> "store" | `Both -> "rmw")
    s.width C.pp s.ea
    (Bt.Mechanism.align_class_name s.cls)
