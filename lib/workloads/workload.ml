(* Benchmark instantiation: Table-I rows + traits → a concrete guest
   program (via {!Gen}) plus its data-segment initializer.

   The compilation splits the benchmark's MDA volume (ratio × total_refs)
   across behaviour groups according to the traits, slices every group
   into hot loops of at most [sites_per_block] memory sites (the paper's
   "most MDAs occur in hot loops"), and pads the remaining reference
   volume with aligned traffic so the measured MDA ratio reproduces the
   paper's column. *)

let sites_per_block = 6

type t = {
  name : string;
  row : Spec.row;
  traits : Spec.traits;
  input : Gen.input;
  scale : float;
  program : Gen.program;
}

(* Split a group into loops of at most [sites_per_block] sites. *)
let chunk (g : Gen.group) =
  if g.sites <= sites_per_block then [ g ]
  else begin
    let rec go remaining idx acc =
      if remaining <= 0 then List.rev acc
      else begin
        let n = min sites_per_block remaining in
        let g' = { g with Gen.sites = n; label = Printf.sprintf "%s.%d" g.Gen.label idx } in
        go (remaining - n) (idx + 1) (g' :: acc)
      end
    in
    go g.Gen.sites 0 []
  end

(* Effective MDA ratio: rows printed as 0.00% still have MDAs; give them
   a tiny but non-zero share so their NMI materializes. *)
let effective_ratio (row : Spec.row) =
  if row.ratio > 0.0 then row.ratio else if row.mdas > 0.0 then 2e-6 else 0.0

let mixed_behavior : Spec.mixed_class -> Gen.behavior = function
  | Spec.Lt_half -> Gen.Rare { period = 4 } (* 25% misaligned *)
  | Spec.Eq_half -> Gen.Mixed { period = 2 } (* 50% *)
  | Spec.Gt_half -> Gen.Mixed { period = 4 } (* 75% *)

(* MDAs produced per site execution for a behaviour (ref input). *)
let mda_per_exec = function
  | Gen.Misaligned | Gen.Input_dep -> 1.0
  | Gen.Mixed { period } -> float_of_int (period - 1) /. float_of_int period
  | Gen.Rare { period } -> 1.0 /. float_of_int period
  | Gen.Aligned -> 0.0
  | Gen.Late _ -> 1.0 (* post-onset executions *)

(* Build the group list for a benchmark. *)
let undetectable_onset = Spec.undetectable

let plan_groups (row : Spec.row) (tr : Spec.traits) ~scale =
  (* when the paper attributes a benchmark's MDAs to shared libraries
     (lib_frac >= 0.5), all of its MDA-producing code — including the
     late-onset and mixed groups — lives in the library region *)
  let lib_all = tr.Spec.lib_frac >= 0.5 in
  let total_refs = int_of_float (float_of_int tr.total_refs *. scale) in
  let ratio = effective_ratio row in
  let mda_vol = float_of_int total_refs *. ratio in
  let groups = ref [] in
  let add g = if g.Gen.sites > 0 && g.Gen.execs > 0 then groups := g :: !groups in
  (* 0. heavy rare-MDA sites: hot code misaligning once per period *)
  let heavy_mdas = ref 0.0 in
  (match tr.heavy_rare with
  | Some (sites, execs, period) ->
    let execs = max period (int_of_float (float_of_int execs *. scale)) in
    heavy_mdas := float_of_int (sites * (execs / period));
    add
      { Gen.label = "heavyrare";
        sites;
        execs;
        width = tr.width;
        mix = Gen.Loads_only;
        behavior = Gen.Rare { period };
        bloat = tr.bloat;
        lib = lib_all;
        via_call = false }
  | None -> ());
  (* 1. late-onset groups *)
  let late_sites_total = ref 0 in
  List.iteri
    (fun i (frac, onset) ->
      let vol = frac *. mda_vol in
      if vol >= 1.0 then begin
        let sites = max 1 (min 6 (int_of_float (vol /. 700.))) in
        late_sites_total := !late_sites_total + sites;
        let post = int_of_float (vol /. float_of_int sites) in
        add
          { Gen.label = Printf.sprintf "late%d" i;
            sites;
            execs = onset + post;
            width = tr.width;
            mix = Gen.Alternate;
            behavior = Gen.Late { onset };
            bloat = tr.bloat;
            lib = lib_all;
        via_call = false }
      end)
    tr.late;
  (* 1b. small late-onset tail (Table III's low-order entries) *)
  let tail = float_of_int tr.late_tail_mdas *. scale in
  if tail >= 2.0 then begin
    late_sites_total := !late_sites_total + 1;
    add
      { Gen.label = "latetail";
        sites = 1;
        execs = undetectable_onset + int_of_float tail;
        width = tr.width;
        mix = Gen.Alternate;
        behavior = Gen.Late { onset = undetectable_onset };
        bloat = tr.bloat;
        lib = lib_all;
        via_call = false }
  end;
  (* 2. input-dependent group *)
  let input_sites = ref 0 in
  let input_vol = tr.input_frac *. mda_vol in
  if input_vol >= 1.0 then begin
    let sites = max 1 (min 8 (int_of_float (input_vol /. 150.))) in
    input_sites := sites;
    add
      { Gen.label = "inputdep";
        sites;
        (* at least 60 executions so the block crosses the heating
           threshold even in heavily scaled runs *)
        execs = max 60 (int_of_float (input_vol /. float_of_int sites));
        width = tr.width;
        mix = Gen.Alternate;
        behavior = Gen.Input_dep;
        bloat = tr.bloat;
        lib = lib_all;
        via_call = false }
  end;
  (* 3. mixed groups (Figure 15 classes) *)
  let mixed_sites_total = ref 0 in
  let mixed_vol_total = ref 0.0 in
  List.iter
    (fun (cls, site_frac) ->
      let sites = int_of_float (ceil (site_frac *. float_of_int tr.mda_sites)) in
      if sites > 0 then begin
        let behavior = mixed_behavior cls in
        (* mixed sites live in hot loops (paper Section IV-D observes that
           hot-loop MDAs follow address patterns), so they get an
           over-proportional share of the MDA volume *)
        let vol = 4.0 *. mda_vol *. float_of_int sites /. float_of_int tr.mda_sites in
        let vol = Float.min vol (0.25 *. mda_vol) in
        let per = mda_per_exec behavior in
        let period =
          match behavior with Gen.Mixed { period } | Gen.Rare { period } -> period | _ -> 1
        in
        let execs = max 4 (int_of_float (vol /. float_of_int sites /. per)) in
        (* multiple of the period: the site's measured ratio is then
           exactly the class value *)
        let execs = (execs + period - 1) / period * period in
        mixed_sites_total := !mixed_sites_total + sites;
        mixed_vol_total := !mixed_vol_total +. (float_of_int (sites * execs) *. per);
        add
          { Gen.label =
              (match cls with
              | Spec.Lt_half -> "mixed-lt"
              | Spec.Eq_half -> "mixed-eq"
              | Spec.Gt_half -> "mixed-gt");
            sites;
            execs;
            width = tr.width;
            (* store sequences are long enough for the two-version check
               to pay off; the paper's multi-version wins come from such
               sites *)
            mix = Gen.Stores_only;
            behavior;
            bloat = tr.bloat;
            lib = lib_all;
        via_call = false }
      end)
    tr.mixed;
  (* 4. always-misaligned remainder *)
  let late_vol = List.fold_left (fun a (f, _) -> a +. (f *. mda_vol)) 0.0 tr.late in
  (* 4a. warm-up group: MDAs that begin only after ~20 iterations of data
     initialization (Figure 10: why TH=10 is insufficient) *)
  let tail_vol = if tail >= 2.0 then tail else 0.0 in
  let pre_always = mda_vol -. late_vol -. tail_vol -. input_vol -. !mixed_vol_total -. !heavy_mdas in
  let pre_always = Float.max 0.0 pre_always in
  let warmup_vol = Float.min (float_of_int tr.warmup_mdas *. scale) (0.5 *. pre_always) in
  let warmup_onset = 20 in
  if warmup_vol >= 4.0 then
    add
      { Gen.label = "warmup";
        sites = 1;
        execs = warmup_onset + int_of_float warmup_vol;
        width = tr.width;
        mix = Gen.Alternate;
        behavior = Gen.Late { onset = warmup_onset };
        bloat = tr.bloat;
        lib = lib_all;
        via_call = false };
  let always_vol = pre_always -. Float.max 0.0 warmup_vol in
  let always_sites =
    max 1 (tr.mda_sites - !late_sites_total - !input_sites - !mixed_sites_total)
  in
  (* keep per-site executions at a sensible minimum: a heavily scaled-down
     run uses fewer static sites rather than 1-execution sites, which
     would overshoot the MDA ratio *)
  let always_sites = max 1 (min always_sites (int_of_float (always_vol /. 4.))) in
  (* split the always-misaligned volume between application code and the
     shared-library region (Section II) *)
  let lib_vol = tr.lib_frac *. always_vol in
  let app_vol = always_vol -. lib_vol in
  let add_always label vol lib =
    if vol >= 1.0 then begin
      let frac = vol /. Float.max 1.0 always_vol in
      let sites = max 1 (int_of_float (float_of_int always_sites *. frac)) in
      add
        { Gen.label;
          sites;
          execs = max 1 (int_of_float (vol /. float_of_int sites));
          width = tr.width;
          mix = Gen.Alternate;
          behavior = Gen.Misaligned;
          bloat = tr.bloat;
          lib;
          via_call = false }
    end
  in
  add_always "always" app_vol false;
  add_always "libalways" lib_vol true;
  (* 5. aligned filler to reach the target reference volume *)
  let groups_so_far = List.concat_map chunk (List.rev !groups) in
  let refs_so_far =
    List.fold_left
      (fun acc g ->
        let refs, _ = Gen.group_counts g Gen.Ref in
        acc + refs)
      0 groups_so_far
  in
  let deficit = total_refs - refs_so_far in
  (* Filler loops are the benchmark's really hot kernels: single-site
     blocks with execution counts far above any Figure-10 threshold, so
     that — as on real SPEC, where hot blocks run 10⁸ times — even
     TH=5000 interprets only a small fraction of the total work. *)
  let filler =
    if deficit > 4 * tr.filler_sites then
      List.init tr.filler_sites (fun i ->
          let via_call = i mod 2 = 0 in
          (* a called kernel performs 4 references per iteration (site +
             pointer + call/ret stack traffic), a plain one 2 *)
          let refs_per_exec = if via_call then 4 else 2 in
          { Gen.label = Printf.sprintf "aligned%d" i;
            sites = 1;
            execs = deficit / tr.filler_sites / refs_per_exec;
            width = tr.width;
            mix = (if i mod 2 = 1 then Gen.Stores_only else Gen.Loads_only);
            behavior = Gen.Aligned;
            bloat = max 2 (tr.bloat / 3);
            lib = false;
            (* every other hot kernel sits behind a call, like real code *)
            via_call })
    else []
  in
  groups_so_far @ filler

(* [`Aligned_opt] models recompiling the benchmark with the compiler's
   data-alignment enforcement (paper Figure 1): every access becomes
   aligned, at the cost of padded data structures and alignment fill code
   (a little extra work per loop). The binary differs — this variant is
   only meaningful for native-x86 runs, not for BT profiles. *)
type variant = Default | Aligned_opt

let apply_variant variant groups =
  match variant with
  | Default -> groups
  | Aligned_opt ->
    List.mapi
      (fun i (g : Gen.group) ->
        (* every access aligned; the compiler padding/fill shows up as a
           little extra work in some loops (one ALU op in every fourth
           loop) *)
        { g with
          Gen.behavior = Gen.Aligned;
          bloat = (g.Gen.bloat + if i mod 4 = 0 then 1 else 0) })
      groups

(* A workload whose shape is fixed by its source — a hand-assembled
   microbenchmark or a hand-written assembly file: scale and variant do
   not apply. *)
let fixed ~input name row program =
  { name; row; traits = Spec.default_traits; input; scale = 1.0; program }

let instantiate ?(scale = 1.0) ?(input = Gen.Ref) ?(variant = Default) name =
  if String.equal name Stackbench.name then
    fixed ~input name Stackbench.row (Stackbench.program ~input)
  else
    match Flushbench.phases_of_name name with
    | Some phases ->
      fixed ~input name (Flushbench.row ~phases) (Flushbench.program ~phases ~input)
    | None when Asmfile.is_asm_name name ->
      (* the row is measured, not predicted *)
      let program, row = Asmfile.load name in
      fixed ~input name row program
    | None ->
      let row = Spec.find name in
      let traits = Spec.traits_of name in
      let groups = apply_variant variant (plan_groups row traits ~scale) in
      let program = Gen.build ~input groups in
      { name; row; traits; input; scale; program }

(* Only a library share lays groups out as library code (see
   [plan_groups]), so a selected benchmark without one has no boundary
   and needs no program synthesized to say so. *)
let lib_boundary ?scale name =
  if Spec.is_selected name && (Spec.traits_of name).Spec.lib_frac = 0.0 then None
  else (instantiate ?scale name).program.Gen.lib_boundary

(* Fresh, initialized memory for a run of this workload. *)
let fresh_memory t = snd (Gen.load t.program)

let entry t = t.program.Gen.entry

(* Paper-faithful metadata for reporting. *)
let paper_row t = t.row

let expected_refs t = t.program.Gen.expected_refs

let expected_mdas t = t.program.Gen.expected_mdas
