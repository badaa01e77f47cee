(* Model-based property tests: the cache against a naive LRU reference
   model, the memoised hierarchy against plain caches, simulated memory
   against a plain byte-array model, and the workload generator's layout
   invariants. *)

module Machine = Mda_machine
module W = Mda_workloads

(* --- cache vs reference LRU model -------------------------------------- *)

(* Reference: per set, an ordered list of tags (MRU first). *)
module Ref_cache = struct
  type t = { sets : int list array; assoc : int; line_bits : int; set_bits : int }

  let create ~sets ~assoc ~line_bits =
    { sets = Array.make sets []; assoc; line_bits; set_bits =
        (let rec lg n = if n <= 1 then 0 else 1 + lg (n / 2) in lg sets) }

  let access t addr =
    let line = addr lsr t.line_bits in
    let set = line land ((1 lsl t.set_bits) - 1) in
    let tag = line lsr t.set_bits in
    let ways = t.sets.(set) in
    let hit = List.mem tag ways in
    let ways' = tag :: List.filter (fun w -> w <> tag) ways in
    t.sets.(set) <- (if List.length ways' > t.assoc then List.filteri (fun i _ -> i < t.assoc) ways' else ways');
    hit
end

(* 512 bytes of 32-byte lines: 16 sets direct-mapped, 8 two-way, 4
   four-way. The two-way case keeps its original name. *)
let prop_cache_matches_model assoc =
  let name =
    if assoc = 2 then "cache behaves as LRU reference model"
    else Printf.sprintf "cache behaves as LRU reference model (assoc %d)" assoc
  in
  QCheck.Test.make ~name ~count:200
    QCheck.(list_of_size Gen.(int_range 1 400) (int_bound 4095))
    (fun addrs ->
      let c = Machine.Cache.create ~size_bytes:512 ~assoc ~line_bytes:32 in
      let m = Ref_cache.create ~sets:(16 / assoc) ~assoc ~line_bits:5 in
      List.for_all (fun a -> Machine.Cache.access c a = Ref_cache.access m a) addrs)

(* --- memoised hierarchy vs plain caches ------------------------------------ *)

(* The hierarchy's last-line memos skip lookups; the reference does every
   lookup on three plain caches of the same geometry. A small geometry
   (8-set 2-way L1s of 16-byte lines over a 32-set direct-mapped L2 of
   32-byte lines) and a 2 KiB address range make repeats, conflicts and
   straddles common. *)
let small_geometry =
  { Machine.Cost_model.l1_size = 256;
    l1_assoc = 2;
    l1_line = 16;
    l2_size = 1024;
    l2_assoc = 1;
    l2_line = 32 }

type hier_op =
  | Code of int
  | Data of int * int (* addr, size *)
  | Invalidate

let gen_hier_op =
  let open QCheck.Gen in
  let addr = int_bound 2047 in
  (* the last few bytes of a line, so wider accesses straddle *)
  let near_end =
    map2 (fun line k -> (16 * line) + 16 - k) (int_bound 127) (int_range 1 7)
  in
  frequency
    [ (6, map (fun a -> Code a) addr);
      (* runs of sequential fetches, as straight-line code makes *)
      (2, map (fun a -> Code (a land lnot 3)) (int_bound 255));
      ( 4,
        map2
          (fun a size -> Data (a, size))
          (oneof [ addr; near_end ])
          (oneofl [ 1; 2; 4; 8 ]) );
      (1, return Invalidate) ]

let print_hier_op = function
  | Code a -> Printf.sprintf "code %d" a
  | Data (a, size) -> Printf.sprintf "data %d/%d" a size
  | Invalidate -> "invalidate"

let prop_hierarchy_matches_plain_caches =
  QCheck.Test.make ~name:"memoised hierarchy matches plain caches" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 300) (make ~print:print_hier_op gen_hier_op))
    (fun ops ->
      let cost = Machine.Cost_model.default and g = small_geometry in
      let h = Machine.Hierarchy.create ~geometry:g cost in
      let l1 () =
        Machine.Cache.create ~size_bytes:g.l1_size ~assoc:g.l1_assoc ~line_bytes:g.l1_line
      in
      let l1i = l1 () and l1d = l1 () in
      let l2 =
        Machine.Cache.create ~size_bytes:g.l2_size ~assoc:g.l2_assoc ~line_bytes:g.l2_line
      in
      let through l1 addr =
        if Machine.Cache.access l1 addr then 0
        else if Machine.Cache.access l2 addr then cost.l1_miss
        else cost.l2_miss
      in
      let stalls_agree =
        List.for_all
          (fun op ->
            match op with
            | Code addr -> Machine.Hierarchy.access_code h ~addr = through l1i addr
            | Data (addr, size) ->
              let last = (addr + size - 1) land lnot (g.l1_line - 1) in
              let expect =
                through l1d addr + if last <= addr then 0 else through l1d last
              in
              Machine.Hierarchy.access_data h ~addr ~size = expect
            | Invalidate ->
              Machine.Hierarchy.invalidate_code h;
              Machine.Cache.invalidate_all l1i;
              true)
          ops
      in
      let stats = Machine.Cache.stats in
      stalls_agree
      && stats h.l1i = stats l1i
      && stats h.l1d = stats l1d
      && stats h.l2 = stats l2)

(* --- memory vs byte-array model ------------------------------------------ *)

type mem_op =
  | W8 of int * int
  | W of int * int * int64 (* size, addr, value *)
  | R of int * int

(* Several 4 KiB pages plus a partial one, so accesses straddle page
   boundaries and run off the end. Addresses are biased to within 8
   bytes of every page boundary and of both ends of memory. *)
let model_size = (3 * 4096) + 100

let gen_mem_op =
  let open QCheck.Gen in
  let edge = oneofl [ 0; 4096; 2 * 4096; 3 * 4096; model_size ] in
  let addr =
    frequency
      [ (1, int_bound (model_size - 1));
        (3, map2 ( + ) edge (int_range (-8) 8)) ]
  in
  oneof
    [ map2 (fun a v -> W8 (a, v)) addr (int_bound 255);
      (let* size = oneofl [ 1; 2; 4; 8 ] in
       let* a = addr and* v = ui64 in
       return (W (size, a, v)));
      (let* size = oneofl [ 1; 2; 4; 8 ] in
       let* a = addr in
       return (R (size, a))) ]

(* Every op returns its read value, or [None] when it is rejected:
   [Out_of_bounds] from memory, [Invalid_argument] from [Bytes]. Both
   must agree op by op, and the final contents must be equal. *)
let prop_memory_matches_bytes =
  QCheck.Test.make ~name:"memory behaves as plain byte array" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 100) (make gen_mem_op))
    (fun ops ->
      let m = Machine.Memory.create ~size_bytes:model_size in
      let b = Bytes.make model_size '\000' in
      let mem f = try Some (f ()) with Machine.Memory.Out_of_bounds _ -> None in
      let model f = try Some (f ()) with Invalid_argument _ -> None in
      List.for_all
        (fun op ->
          match op with
          | W8 (a, v) ->
            mem (fun () -> Machine.Memory.write_u8 m a v; 0L)
            = model (fun () -> Bytes.set b a (Char.chr v); 0L)
          | W (size, a, v) ->
            mem (fun () -> Machine.Memory.write m ~addr:a ~size v; 0L)
            = model (fun () ->
                  (match size with
                  | 1 -> Bytes.set b a (Char.chr (Int64.to_int v land 0xFF))
                  | 2 -> Bytes.set_uint16_le b a (Int64.to_int v land 0xFFFF)
                  | 4 -> Bytes.set_int32_le b a (Int64.to_int32 v)
                  | _ -> Bytes.set_int64_le b a v);
                  0L)
          | R (size, a) ->
            mem (fun () -> Machine.Memory.read m ~addr:a ~size)
            = model (fun () ->
                  match size with
                  | 1 -> Int64.of_int (Char.code (Bytes.get b a))
                  | 2 -> Int64.of_int (Bytes.get_uint16_le b a)
                  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b a)) 0xFFFFFFFFL
                  | _ -> Bytes.get_int64_le b a))
        ops
      && Bytes.equal (Machine.Memory.raw m) b)

(* --- workload layout invariants -------------------------------------------- *)

(* Every benchmark's data layout must have disjoint site cells/regions,
   all inside the data segment. *)
let test_layout_disjoint () =
  List.iter
    (fun name ->
      let w = W.Workload.instantiate ~scale:0.1 name in
      let intervals = ref [] in
      List.iter
        (fun ((g : W.Gen.group), sites) ->
          List.iter
            (fun (s : W.Gen.site_layout) ->
              intervals := (s.cell, s.cell + 4) :: !intervals;
              (* conservative region extent: what a striding site can reach *)
              let extent =
                match g.behavior with
                | W.Gen.Mixed { period } ->
                  (g.execs * W.Gen.mixed_stride ~width:g.width ~period) + g.width + 16
                | _ -> g.width + 16
              in
              intervals := (s.region, s.region + extent) :: !intervals)
            sites)
        w.W.Workload.program.W.Gen.groups;
      let sorted = List.sort compare !intervals in
      let rec check = function
        | (_, e1) :: ((s2, _) :: _ as rest) ->
          if e1 > s2 then Alcotest.failf "%s: overlapping layout (%d > %d)" name e1 s2;
          check rest
        | _ -> ()
      in
      check sorted;
      List.iter
        (fun (s, e) ->
          if s < Mda_bt.Layout.data_base || e > Mda_bt.Layout.data_limit then
            Alcotest.failf "%s: layout outside data segment" name)
        sorted)
    W.Spec.selected_names

(* Group count math: group_counts must equal the sum of site_counts plus
   switch traffic, for every behaviour. *)
let test_group_counts_consistent () =
  let mk behavior execs =
    { W.Gen.label = "t";
      sites = 3;
      execs;
      width = 4;
      mix = W.Gen.Alternate;
      behavior;
      bloat = 0;
      lib = false;
      via_call = false }
  in
  List.iter
    (fun (behavior, execs, expect_mdas_per_site) ->
      let g = mk behavior execs in
      let _, mdas = W.Gen.group_counts g W.Gen.Ref in
      Alcotest.(check int)
        (Printf.sprintf "mdas for %d execs" execs)
        (3 * expect_mdas_per_site) mdas)
    [ (W.Gen.Aligned, 100, 0);
      (W.Gen.Misaligned, 100, 100);
      (W.Gen.Late { onset = 30 }, 100, 70);
      (W.Gen.Late { onset = 200 }, 100, 0);
      (W.Gen.Input_dep, 100, 100);
      (W.Gen.Mixed { period = 2 }, 100, 50);
      (W.Gen.Mixed { period = 4 }, 100, 75);
      (W.Gen.Rare { period = 4 }, 100, 25) ];
  (* train input: input-dependent sites are aligned *)
  let _, mdas = W.Gen.group_counts (mk W.Gen.Input_dep 100) W.Gen.Train in
  Alcotest.(check int) "train input: no MDAs" 0 mdas

let test_mixed_stride_validation () =
  Alcotest.(check int) "w4 p2" 2 (W.Gen.mixed_stride ~width:4 ~period:2);
  Alcotest.(check int) "w8 p4" 2 (W.Gen.mixed_stride ~width:8 ~period:4);
  Alcotest.check_raises "p3 invalid"
    (Invalid_argument "Gen.mixed_stride: period 3 must divide width 4") (fun () ->
      ignore (W.Gen.mixed_stride ~width:4 ~period:3))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    (List.map prop_cache_matches_model [ 1; 2; 4 ]
    @ [ prop_hierarchy_matches_plain_caches; prop_memory_matches_bytes ])

let suite =
  [ ("models", qcheck_cases);
    ( "workload.layout",
      [ Alcotest.test_case "disjoint data layout" `Quick test_layout_disjoint;
        Alcotest.test_case "group count math" `Quick test_group_counts_consistent;
        Alcotest.test_case "mixed stride validation" `Quick test_mixed_stride_validation ] ) ]
