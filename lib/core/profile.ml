(* MDA profiling state.

   Shared by the two-phase interpreter (dynamic profiling), the static
   profiling mechanism (where a full train-input run produces a
   [summary]), and the Figure-15 analysis of per-instruction alignment
   bias. Keys are static guest instruction addresses. *)

type site = {
  mutable refs : int; (* dynamic memory references by this instruction *)
  mutable mdas : int; (* of which misaligned *)
}

type t = { sites : (int, site) Hashtbl.t }

let create () = { sites = Hashtbl.create 256 }

(* [Hashtbl.find], not [find_opt]: [record] runs once per interpreted
   access and must not allocate an option. *)
let site t addr =
  match Hashtbl.find t.sites addr with
  | s -> s
  | exception Not_found ->
    let s = { refs = 0; mdas = 0 } in
    Hashtbl.replace t.sites addr s;
    s

let record t ~guest_addr ~aligned =
  let s = site t guest_addr in
  s.refs <- s.refs + 1;
  if not aligned then s.mdas <- s.mdas + 1

let find t addr = Hashtbl.find_opt t.sites addr

(* Has this instruction ever performed an MDA? The paper's dynamic
   profiling "generate[s] MDA code sequence for a memory access
   instruction if the instruction has performed MDA once during the
   profiling stage". *)
let is_mda_site t addr =
  match find t addr with Some s -> s.mdas > 0 | None -> false

let mda_ratio t addr =
  match find t addr with
  | Some s when s.refs > 0 -> float_of_int s.mdas /. float_of_int s.refs
  | _ -> 0.0

(* Totals over the whole profile. *)
let totals t =
  Hashtbl.fold (fun _ s (refs, mdas) -> (refs + s.refs, mdas + s.mdas)) t.sites (0, 0)

(* Number of static instructions that performed at least one MDA — the
   paper's NMI column in Table I. *)
let nmi t = Hashtbl.fold (fun _ s acc -> if s.mdas > 0 then acc + 1 else acc) t.sites 0

(* Figure 15 classification of MDA instructions by misaligned ratio. *)
type bias_class = Lt_half | Eq_half | Gt_half | Always

let classify_site s =
  if s.mdas = s.refs then Always
  else begin
    let r = float_of_int s.mdas /. float_of_int s.refs in
    if r < 0.45 then Lt_half else if r > 0.55 then Gt_half else Eq_half
  end

let bias_histogram t =
  let lt = ref 0 and eq = ref 0 and gt = ref 0 and always = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      if s.mdas > 0 then
        match classify_site s with
        | Lt_half -> incr lt
        | Eq_half -> incr eq
        | Gt_half -> incr gt
        | Always -> incr always)
    t.sites;
  (!lt, !eq, !gt, !always)

(* Immutable snapshot of the MDA sites, used as a static profile: the
   FX!32-style mechanism translates exactly these sites into MDA
   sequences on subsequent (ref-input) runs. *)
type summary = { mda_sites : (int, unit) Hashtbl.t }

let summarize t =
  let mda_sites = Hashtbl.create 64 in
  Hashtbl.iter (fun addr s -> if s.mdas > 0 then Hashtbl.replace mda_sites addr ()) t.sites;
  { mda_sites }

let summary_mem summary addr = Hashtbl.mem summary.mda_sites addr

let summary_size summary = Hashtbl.length summary.mda_sites

let empty_summary () = { mda_sites = Hashtbl.create 1 }

let iter_sites t f = Hashtbl.iter (fun addr s -> f addr s) t.sites
