(* Code-path parity of the mechanism registry (Mda_mech.Mech_spec).

   Every mechanism configuration is written once, in the registry, and
   every runner prepares through it. These contract tests pin what must
   not drift when a path is rewritten: the labels round-trip, the CLI
   and the harness compute the same run for the same label, the chaos
   and tenant subjects prepare the same mechanism, and the result-cache
   keys of every spec stay byte-identical. *)

module Bt = Mda_bt
module H = Mda_harness
module Spec = Mda_mech.Mech_spec

let test_labels_round_trip () =
  let round_trip family parse print table =
    List.iter
      (fun (label, v) ->
        Alcotest.(check bool) (family ^ " " ^ label) true (parse label = Ok v && print v = label))
      table
  in
  round_trip "run" Spec.parse_run Spec.print_run Spec.run_labels;
  round_trip "stress" Spec.parse_stress Spec.print_stress Spec.stress_labels;
  Alcotest.(check bool) "unknown label rejected" true
    (Result.is_error (Spec.parse_run "eh-rearrange"))

(* [mdabench run BENCH -m LABEL] prints exactly the statistics the
   harness computes for the cell of that label, and for every Mech label
   the footer of [mdabench trace BENCH -m LABEL --out F] records them
   too: the run behind run/trace/hot is the cell's run. *)
let test_cli_matches_cell () =
  let scale = 0.05 in
  let cli cmd label =
    let out = Filename.temp_file "mda_registry" ".txt" in
    Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
    let rc = Sys.command (Printf.sprintf "%s %s 2>/dev/null" Test_cli.exe (cmd out)) in
    Alcotest.(check int) (label ^ " exits 0") 0 rc;
    Test_cli.slurp out
  in
  let cell kind bench = (H.Cell.compute (H.Cell.make ~scale kind bench)).H.Cell.stats in
  let pp = Format.asprintf "%a@." Bt.Run_stats.pp in
  List.iter
    (fun (label, kind) ->
      let printed =
        cli
          (fun out -> Printf.sprintf "run 164.gzip -m %s --scale %g > %s" label scale out)
          ("run -m " ^ label)
      in
      Alcotest.(check string) ("run -m " ^ label ^ " == Cell.compute")
        (pp (cell kind "164.gzip")) printed;
      match kind with
      | Spec.Interp _ -> ()
      | Spec.Mech _ ->
        let jsonl =
          cli
            (fun out ->
              Printf.sprintf "trace 410.bwaves -m %s --scale %g --out %s >/dev/null" label
                scale out)
            ("trace -m " ^ label)
        in
        let footer =
          match Mda_obs.Trace.of_jsonl jsonl with
          | Ok f -> pp f.Mda_obs.Trace.stats
          | Error e -> Alcotest.failf "trace -m %s: %s" label e
        in
        Alcotest.(check string) ("trace -m " ^ label ^ " footer == Cell.compute")
          (pp (cell kind "410.bwaves")) footer)
    Spec.run_labels

(* Tenant 0's code window starts where a chaos plan's program does, so
   the same groups build the same program under both subjects. *)
let test_chaos_and_tenant_subjects_agree () =
  let ts = List.hd (Mda_server.Tenants.derive ~storm:[ 0 ] ~seed:11L ~tenants:1 ()) in
  let chaos = Mda_fault.Chaos.subject_of_groups ~name:"parity" ts.Mda_server.Tenants.groups in
  let tenant = Mda_server.Tenants.subject ts in
  List.iter
    (fun (label, spec) ->
      let name s = Bt.Mechanism.name (Spec.prepare s spec).Spec.mechanism in
      Alcotest.(check string) ("stress " ^ label) (name chaos) (name tenant);
      if label <> "aot" then
        Alcotest.(check string) ("Tenants.mechanism_of " ^ label) (name chaos)
          (Bt.Mechanism.name (Mda_server.Tenants.mechanism_of ts label)))
    Spec.stress_labels

(* Result-cache keys as the registry's predecessor wrote them; [aot] has
   no predecessor key and pins the new one. *)
let parent_keys =
  [ ("direct", "mech:direct");
    ("static", "mech:static-profiling(train)");
    ("dynamic", "mech:dynamic(th=50)");
    ("eh", "mech:eh(rearrange=false)");
    ("eh+rearrange", "mech:eh(rearrange=true)");
    ("dpeh", "mech:dpeh(th=50,retrans=4,mv=true)");
    ("sa", "mech:sa(unknown=eh)");
    ("sa-seq", "mech:sa(unknown=seq)");
    ("aot", "mech:aot(unknown=seq)");
    ("interp", "interp");
    ("native", "native") ]

let stress_keys =
  [ ("direct", "mech:direct");
    ("static-profiling", "mech:static-profiling(train)");
    ("dynamic-profiling", "mech:dynamic(th=3)");
    ("eh", "mech:eh(rearrange=true)");
    ("dpeh", "mech:dpeh(th=2,retrans=2,mv=true)");
    ("sa", "mech:sa(unknown=eh)");
    ("sa-seq", "mech:sa(unknown=seq)");
    ("aot", "mech:aot(unknown=eh)") ]

(* cell-v4: the kind strings above are unchanged; only the trap-cost
   field left the key *)
let key kind =
  "cell-v4 bench=164.gzip scale=0x1.999999999999ap-5 input=ref variant=default kind=" ^ kind
  ^ " chain=true cap=unbounded rules=none"

let test_describe_unchanged () =
  let check label kind expected =
    Alcotest.(check string) label (key expected)
      (H.Cell.describe (H.Cell.make ~scale:0.05 kind "164.gzip"))
  in
  List.iter (fun (label, kind) -> check label kind (List.assoc label parent_keys)) Spec.run_labels;
  List.iter
    (fun (label, spec) -> check label (Spec.Mech spec) (List.assoc label stress_keys))
    Spec.stress_labels;
  check "dpeh_plain" (Spec.Mech H.Experiment.dpeh_plain_spec)
    "mech:dpeh(th=50,retrans=none,mv=false)"

(* The flush policy is part of a cell's key, but only a [Full_flush]
   cell names it: the block-granularity key is the pinned one above. *)
let test_flush_policy_keys () =
  let cell flush_policy = H.Cell.mech ~scale:0.05 ~flush_policy Spec.Direct "164.gzip" in
  let block = H.Cell.describe (cell Bt.Runtime.Block_granularity) in
  Alcotest.(check string) "block key is the default key" (key "mech:direct") block;
  Alcotest.(check bool) "full-flush key differs" true
    (block <> H.Cell.describe (cell Bt.Runtime.Full_flush))

let suite =
  [ ( "registry",
      [ Alcotest.test_case "labels round-trip" `Quick test_labels_round_trip;
        Alcotest.test_case "CLI run == Cell.compute for every run label" `Quick
          test_cli_matches_cell;
        Alcotest.test_case "chaos and tenant subjects prepare alike" `Quick
          test_chaos_and_tenant_subjects_agree;
        Alcotest.test_case "Cell.describe keys unchanged" `Quick test_describe_unchanged;
        Alcotest.test_case "flush policy splits the key" `Quick test_flush_policy_keys ] ) ]
