(* A retranslation-flush microbenchmark: the workload of the flush-policy
   ablation.

   The Table-I workloads run their loops sequentially, so by the time a
   late-onset block triggers retranslation its neighbours are already
   dead and flushing them is free. The flush policy matters when *live*
   hot code shares the cache with the retranslated block — the common
   case in real programs — so this program keeps it live: an outer loop
   interleaving several hot aligned blocks with pointer-based accesses
   whose alignment degrades in phases (triggering one retranslation per
   phase). Under the Dynamo policy every phase change throws away the
   hot blocks too, which must then re-heat through the interpreter and
   be retranslated.

   Per body iteration: 2 references per pointer cell (the aligned S4
   pointer load and the S8 access through it) and 2 per hot block (load
   and store). The program runs [phases + 1] phases of
   [iters_per_phase] iterations; during phase p, the first p groups of
   4 pointers are misaligned. Each phase switch adds 8 aligned
   references (4 pointer loads and stores). *)

module GA = Mda_guest.Asm
module GI = Mda_guest.Isa
module Layout = Mda_bt.Layout

let phase_counts = [ 1; 2; 4; 8 ]

let prefix = "flush.phases-"

let name phases = prefix ^ string_of_int phases

let phases_of_name s =
  if String.starts_with ~prefix s then List.find_opt (fun p -> name p = s) phase_counts
  else None

let iters_per_phase = 1500

let hot_blocks = 8

let expected_refs ~phases =
  let per_iter = (2 * 4 * phases) + (2 * hot_blocks) in
  ((phases + 1) * iters_per_phase * per_iter) + (8 * phases)

(* phase p runs with 4p misaligned pointers: 4 * (0 + 1 + ... + phases) *)
let expected_mdas ~phases = iters_per_phase * 2 * phases * (phases + 1)

let row ~phases =
  let mdas = expected_mdas ~phases in
  { Spec.name = name phases;
    suite = Spec.Int2000;
    nmi = 4 * phases;
    mdas = float_of_int mdas;
    ratio = float_of_int mdas /. float_of_int (expected_refs ~phases) }

let program ~phases ~input:_ =
  let data = Layout.data_base in
  (* [phases] groups of 4 pointer cells; phase switch k misaligns group
     k's pointers, so each phase exposes 4 *new* trapping sites — enough
     to trip retranslate-after-4 once per phase *)
  let cells = Array.init (4 * phases) (fun i -> data + (8 * i)) in
  let arena = data + 1024 in
  let asm = GA.create () in
  GA.movi asm GI.ESP Layout.stack_top;
  GA.movi asm GI.EDX phases; (* remaining phase switches *)
  GA.movi asm GI.EDI data; (* next cell group to misalign *)
  GA.movi asm GI.ECX iters_per_phase;
  let body = GA.fresh_label asm in
  let done_ = GA.fresh_label asm in
  GA.jmp asm body;
  GA.bind asm body;
  Array.iter
    (fun cell ->
      GA.load asm ~dst:GI.EBX ~src:(GI.addr_abs cell) ~size:GI.S4 ();
      GA.load asm ~dst:GI.EAX ~src:(GI.addr_base GI.EBX) ~size:GI.S8 ())
    cells;
  (* hot aligned work, in [hot_blocks] distinct blocks *)
  for k = 0 to hot_blocks - 1 do
    let next = GA.fresh_label asm in
    GA.jmp asm next;
    GA.bind asm next;
    GA.load asm ~dst:GI.ESI ~src:(GI.addr_abs (arena + 64 + (8 * k))) ~size:GI.S4 ();
    GA.binop asm GI.Add GI.ESI (GI.Imm 1l);
    GA.store asm ~src:GI.ESI ~dst:(GI.addr_abs (arena + 64 + (8 * k))) ~size:GI.S4 ();
    GA.binop asm GI.Xor GI.EBP (GI.Reg GI.ESI);
    GA.binop asm GI.Add GI.EBP (GI.Imm 3l)
  done;
  GA.addi asm GI.ECX (-1);
  GA.cmpi asm GI.ECX 0;
  GA.jcc asm GI.Gt body;
  (* phase end: misalign the next group's pointers and go again *)
  GA.cmpi asm GI.EDX 0;
  GA.jcc asm GI.Eq done_;
  GA.addi asm GI.EDX (-1);
  for j = 0 to 3 do
    GA.load asm ~dst:GI.EBX ~src:(GI.addr_base ~disp:(8 * j) GI.EDI) ~size:GI.S4 ();
    GA.addi asm GI.EBX 2;
    GA.store asm ~src:GI.EBX ~dst:(GI.addr_base ~disp:(8 * j) GI.EDI) ~size:GI.S4 ()
  done;
  GA.addi asm GI.EDI 32;
  GA.movi asm GI.ECX iters_per_phase;
  GA.jmp asm body;
  GA.bind asm done_;
  GA.halt asm;
  let base = Layout.guest_code_base in
  let asm_program = GA.assemble ~base asm in
  let init mem =
    Mda_machine.Memory.load_image mem ~addr:base asm_program.GA.image;
    Array.iteri
      (fun i cell ->
        Mda_machine.Memory.write mem ~addr:cell ~size:4 (Int64.of_int (arena + (16 * i))))
      cells
  in
  { Gen.asm_program;
    init;
    entry = base;
    expected_refs = expected_refs ~phases;
    expected_mdas = expected_mdas ~phases;
    groups = [];
    lib_boundary = None }
