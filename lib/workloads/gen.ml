(* Synthetic guest-program generator.

   The paper's mechanisms are sensitive only to the dynamic stream of
   memory references: which static instruction executes, how often, and
   whether its effective address is aligned at each execution. This
   module synthesizes x86lite programs that reproduce a prescribed
   stream, organized as the paper's workloads are: hot loops whose bodies
   contain memory-reference instructions ("sites").

   Each site reads a pointer from an aligned 4-byte cell in the data
   segment and accesses through it:

       movl  cell_s, %ebx          ; aligned pointer fetch
       movl  disp(%ebx), %eax      ; the site (load or store, 2/4/8 bytes)
       [ leal stride(%ebx), %ebx   ; only for striding (mixed) sites
         movl %ebx, cell_s ]

   Alignment behaviour is therefore controlled by *data*, exactly as in
   real programs, and is invisible to the translator except through
   execution:

   - the cell's initial value decides alignment per input set
     (train vs. ref: the Table-IV effect);
   - a mid-run "phase switch" block nudges cells by +2 after a group's
     onset point, creating MDAs that begin only after the profiling
     window (the Table-III / Figure-10 effect) — crucially, the *same*
     static block keeps executing across the switch;
   - a striding site alternates alignment with a period set by
     (width, stride) (the Figure-8/14/15 mixed sites).

   Groups also carry filler arithmetic ("bloat") so that benchmarks have
   realistic instruction-cache footprints — without it, every synthetic
   program would fit one I-cache way and the paper's code-locality
   effects (Figure 11) could not appear. *)

module G = Mda_guest
module GI = Mda_guest.Isa
module Machine = Mda_machine

type behavior =
  | Aligned (* never misaligns *)
  | Misaligned (* misaligned from the first execution, on every input *)
  | Late of { onset : int } (* misaligns after [onset] block executions *)
  | Input_dep (* aligned on train input, misaligned on ref *)
  | Mixed of { period : int } (* misaligned (period-1)/period of the time *)
  | Rare of { period : int } (* misaligned 1/period of the time (power of 2) *)

type mem_mix = Loads_only | Alternate | Stores_only

type group = {
  label : string;
  sites : int; (* static memory-reference instructions *)
  execs : int; (* body-block executions *)
  width : int; (* 2, 4 or 8 bytes *)
  mix : mem_mix; (* which sites are stores *)
  behavior : behavior;
  bloat : int; (* filler ALU instructions per body block *)
  lib : bool; (* code lives in the shared-library region (Section II) *)
  via_call : bool; (* the loop body invokes its sites as a function
                      (call/ret + stack traffic), as real code does *)
}

type input = Train | Ref

(* One site's placement in the data segment. *)
type site_layout = {
  cell : int; (* address of the pointer cell *)
  region : int; (* base address of the target region *)
  disp : int; (* static displacement used by the access *)
  is_store : bool;
}

type plan = {
  groups : (group * site_layout list) list;
  mutable cursor : int; (* data-segment allocation cursor *)
}

let align_up v a = (v + a - 1) land lnot (a - 1)

(* Allocate data-segment space for one group's sites. *)
(* A striding (mixed) site advances by width/period per execution, so its
   offsets cycle through [period] residues with exactly one aligned:
   misaligned fraction = (period-1)/period. [period] must divide [width]. *)
let mixed_stride ~width ~period =
  if period < 2 || width mod period <> 0 then
    invalid_arg
      (Printf.sprintf "Gen.mixed_stride: period %d must divide width %d" period width);
  width / period

let layout_group plan (g : group) =
  let stride =
    match g.behavior with
    | Mixed { period } -> mixed_stride ~width:g.width ~period
    | _ -> 0
  in
  let region_len = align_up (16 + g.width + (g.execs * stride) + 64) 8 in
  let sites =
    List.init g.sites (fun i ->
        let cell = plan.cursor in
        plan.cursor <- plan.cursor + 4;
        let region = align_up plan.cursor 8 in
        plan.cursor <- region + region_len;
        { cell;
          region;
          disp = 8 * (i mod 4); (* multiple of 8: never changes alignment *)
          is_store =
            (match g.mix with
            | Loads_only -> false
            | Stores_only -> true
            | Alternate -> i mod 2 = 1) })
  in
  (stride, sites)

(* Initial pointer offset (relative to the 8-aligned region base) for a
   site of [g] under [input]. *)
let initial_offset (g : group) (input : input) =
  match g.behavior with
  | Aligned -> 0
  | Misaligned -> 2 (* misaligns every width in {2,4,8} *)
  | Late _ -> 0 (* the guest's phase switch adds 2 *)
  | Input_dep -> ( match input with Train -> 0 | Ref -> 2)
  | Mixed _ -> 0
  | Rare _ -> 0 (* guest code nudges the pointer 1-in-period times *)

(* Write the initial pointer cells for one group. *)
let init_group mem (g : group) sites input =
  List.iter
    (fun s ->
      let v = s.region + initial_offset g input in
      Machine.Memory.write mem ~addr:s.cell ~size:4 (Int64.of_int v))
    sites

(* --- code generation --------------------------------------------------

   Register budget inside group code:
     EAX data, EBX pointer, EBP filler accumulator,
     ECX inner loop counter, EDX phase flag.
   ESI/EDI are free for benchmark-level glue. *)

let emit_site asm (g : group) stride (s : site_layout) =
  let open G.Asm in
  (* pointer fetch (aligned) *)
  load asm ~dst:GI.EBX ~src:(GI.addr_abs s.cell) ~size:GI.S4 ();
  (match g.behavior with
  | Rare { period } ->
    (* Misalign the pointer when the loop counter's low bits are zero —
       exactly once per [period] executions (period a power of two) —
       using branch-free arithmetic, as real address computations do:
         esi = ((((ecx & (p-1)) - 1) >>u 31) << 1)   ; 2 iff low bits = 0
         ebx += esi
       Branch-free matters: the access below must remain a *single*
       static instruction whose alignment is data-dependent, so that
       patching it affects every subsequent execution. *)
    mov asm GI.ESI GI.ECX;
    binop asm GI.And GI.ESI (GI.Imm (Int32.of_int (period - 1)));
    binop asm GI.Sub GI.ESI (GI.Imm 1l);
    binop asm GI.Shr GI.ESI (GI.Imm 31l);
    binop asm GI.Shl GI.ESI (GI.Imm 1l);
    binop asm GI.Add GI.EBX (GI.Reg GI.ESI)
  | _ -> ());
  let size = GI.size_of_bytes g.width in
  if s.is_store then store asm ~src:GI.EAX ~dst:(GI.addr_base ~disp:s.disp GI.EBX) ~size ()
  else load asm ~dst:GI.EAX ~src:(GI.addr_base ~disp:s.disp GI.EBX) ~size ();
  if stride > 0 then begin
    (* advance the pointer; regions are sized so it never escapes *)
    lea asm GI.EBX (GI.addr_base ~disp:stride GI.EBX);
    store asm ~src:GI.EBX ~dst:(GI.addr_abs s.cell) ~size:GI.S4 ()
  end

let emit_bloat asm n =
  let open G.Asm in
  for k = 0 to n - 1 do
    match k mod 4 with
    | 0 -> binop asm GI.Add GI.EBP (GI.Imm 3l)
    | 1 -> binop asm GI.Xor GI.EBP (GI.Reg GI.EAX)
    | 2 -> binop asm GI.Shl GI.EBP (GI.Imm 1l)
    | _ -> binop asm GI.Sub GI.EBP (GI.Imm 1l)
  done

(* Emit one group's code: a loop whose body block contains the sites,
   with the Late phase-switch harness when needed. *)
let emit_group asm (g : group) stride sites =
  let open G.Asm in
  if g.execs > 0 then begin
    let body = fresh_label asm in
    let done_ = fresh_label asm in
    match g.behavior with
    | Late { onset } when onset > 0 && onset < g.execs ->
      movi asm GI.EDX 1; (* phase flag: 1 = aligned phase pending switch *)
      movi asm GI.ECX onset;
      jmp asm body;
      bind asm body;
      List.iter (emit_site asm g stride) sites;
      emit_bloat asm g.bloat;
      addi asm GI.ECX (-1);
      cmpi asm GI.ECX 0;
      jcc asm GI.Gt body;
      (* inner loop done: either switch to phase 2 or finish *)
      cmpi asm GI.EDX 0;
      jcc asm GI.Eq done_;
      movi asm GI.EDX 0;
      (* the phase switch: nudge every pointer cell to a misaligned
         address; all accesses here are themselves aligned *)
      List.iter
        (fun s ->
          load asm ~dst:GI.EBX ~src:(GI.addr_abs s.cell) ~size:GI.S4 ();
          addi asm GI.EBX 2;
          store asm ~src:GI.EBX ~dst:(GI.addr_abs s.cell) ~size:GI.S4 ())
        sites;
      movi asm GI.ECX (g.execs - onset);
      jmp asm body;
      bind asm done_
    | _ when g.via_call ->
      (* the body calls a local function containing the sites *)
      let fn = fresh_label asm in
      movi asm GI.ECX g.execs;
      jmp asm body;
      bind asm fn;
      List.iter (emit_site asm g stride) sites;
      ret asm;
      bind asm body;
      call asm fn;
      emit_bloat asm g.bloat;
      addi asm GI.ECX (-1);
      cmpi asm GI.ECX 0;
      jcc asm GI.Gt body;
      bind asm done_
    | _ ->
      movi asm GI.ECX g.execs;
      jmp asm body;
      bind asm body;
      List.iter (emit_site asm g stride) sites;
      emit_bloat asm g.bloat;
      addi asm GI.ECX (-1);
      cmpi asm GI.ECX 0;
      jcc asm GI.Gt body;
      bind asm done_
  end

(* --- expected reference counts (ground truth for tests) --------------- *)

(* Per-site dynamic counts for one full run. *)
let site_counts (g : group) input =
  let stride_refs = match g.behavior with Mixed _ -> 1 | _ -> 0 in
  let refs_per_exec = 2 + stride_refs in
  let total_refs = g.execs * refs_per_exec in
  let mdas =
    match g.behavior with
    | Aligned -> 0
    | Misaligned -> g.execs
    | Late { onset } -> if onset >= g.execs then 0 else g.execs - onset
    | Input_dep -> ( match input with Train -> 0 | Ref -> g.execs)
    | Mixed { period } ->
      (* offsets cycle 0, s, 2s, … over [period]; exactly one is 0 mod width *)
      g.execs * (period - 1) / period
    | Rare { period } ->
      (* ECX counts g.execs down to 1; low bits are zero once per period *)
      g.execs / period
  in
  (total_refs, mdas)

let group_counts (g : group) input =
  let refs, mdas = site_counts g input in
  (* the Late phase switch touches every cell twice, once, all aligned *)
  let switch_refs =
    match g.behavior with
    | Late { onset } when onset > 0 && onset < g.execs -> 2
    | _ -> 0
  in
  (* a via_call body pushes a return address and pops it: two aligned
     stack references per execution, independent of the site count *)
  let call_refs = if g.via_call then 2 * g.execs else 0 in
  (((refs + switch_refs) * g.sites) + call_refs, mdas * g.sites)

(* --- whole-program assembly ------------------------------------------- *)

type program = {
  asm_program : G.Asm.program;
  init : Machine.Memory.t -> unit;
  entry : int;
  expected_refs : int;
  expected_mdas : int;
  groups : (group * site_layout list) list;
  lib_boundary : int option;
      (* guest address where shared-library code starts ([lib] groups are
         laid out after all application groups); [None] if no lib code *)
}

(* Build a complete program from [groups] for [input]. Layout starts at
   [Mda_bt.Layout.data_base]. *)
let build ?(base = Mda_bt.Layout.guest_code_base) ~input groups =
  let plan = { groups = []; cursor = Mda_bt.Layout.data_base } in
  let asm = G.Asm.create () in
  G.Asm.movi asm GI.ESP Mda_bt.Layout.stack_top;
  G.Asm.movi asm GI.EBP 0;
  (* application code first, shared-library code after a marker label *)
  let app_groups = List.filter (fun g -> not g.lib) groups in
  let lib_groups = List.filter (fun g -> g.lib) groups in
  let emit g =
    let stride, sites = layout_group plan g in
    emit_group asm g stride sites;
    (g, sites)
  in
  let placed_app = List.map emit app_groups in
  let lib_label =
    if lib_groups = [] then None else Some (G.Asm.def_label asm)
  in
  let placed_lib = List.map emit lib_groups in
  let placed = placed_app @ placed_lib in
  G.Asm.halt asm;
  if plan.cursor >= Mda_bt.Layout.data_limit then
    invalid_arg
      (Printf.sprintf "Gen.build: data segment overflow (%#x)" plan.cursor);
  let asm_program = G.Asm.assemble ~base asm in
  let init mem =
    Machine.Memory.load_image mem ~addr:base asm_program.G.Asm.image;
    List.iter (fun (g, sites) -> init_group mem g sites input) placed
  in
  let expected_refs, expected_mdas =
    List.fold_left
      (fun (r, m) g ->
        let gr, gm = group_counts g input in
        (r + gr, m + gm))
      (0, 0) groups
  in
  let lib_boundary =
    Option.map (fun l -> G.Asm.addr_of_label asm_program l) lib_label
  in
  { asm_program; init; entry = base; expected_refs; expected_mdas; groups = placed;
    lib_boundary }

let load p =
  let mem = Machine.Memory.create ~size_bytes:Mda_bt.Layout.mem_size in
  p.init mem;
  (p.entry, mem)
