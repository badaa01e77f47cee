(* What every workload provides, and the check tally that feeds
   [attempted]/[failed]. *)

type ctx = {
  seed : int;
  seconds : float;  (** time budget of the timed rounds *)
  tmp : string;  (** scratch directory inside the working directory *)
}

type checks = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let checks () = { attempted = 0; failed = 0; problems = [] }

(* A committed file of the repository, by its path from the root: from
   the working directory (the root, under [dune exec]) or through the
   dune workspace root. *)
let repo_file rel =
  if Sys.file_exists rel then rel
  else match Sys.getenv_opt "DUNE_SOURCEROOT" with Some root -> Filename.concat root rel | None -> rel

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let max_problems = 20

(* Count one checked output; [msg] says what went wrong when [ok] is
   false. *)
let check c ok msg =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.problems < max_problems then c.problems <- c.problems @ [ Lazy.force msg ]
  end

(* The end-to-end figures of one measured run. *)
type e2e = {
  setup : Measure.stat;
  rounds : Measure.rounds;
  ops_per_s : Measure.stat;
}

type workload = {
  name : string;
  layers : Schema.decl list;  (** the per-layer metrics this workload owns *)
  measure : ctx -> checks -> e2e;
      (** set up, warm up, then timed rounds over [ctx.seconds] *)
  trace : ctx -> checks -> (string * Measure.stat) list;
      (** set up, untraced and traced passes: the owned per-layer
          metrics by name, [trace_overhead] among them *)
}

let trace_overhead name = "bench.trace_overhead_pct." ^ name

let overhead_decl name = { Schema.name = trace_overhead name; unit = "%"; better = Schema.Lower }

(* Traced against untraced wall time of the same work, in percent. *)
let overhead_pct ~traced ~untraced = Measure.single (100. *. ((traced /. untraced) -. 1.))
