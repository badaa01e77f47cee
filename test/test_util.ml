(* Unit and property tests for Mda_util: PRNG, statistics, tables, bits. *)

open Mda_util

(* A repository file, found whether the suite runs from the dune
   sandbox (_build/default/test, where the deps are materialised one
   level up) or via [dune exec] (from the workspace root). *)
let find_file rel =
  let root =
    try Sys.getenv "DUNE_SOURCEROOT" with Not_found -> Filename.concat ".." ".."
  in
  let candidates = [ Filename.concat ".." rel; rel; Filename.concat root rel ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "cannot locate %s from %s" rel (Sys.getcwd ())

(* The committed peephole rule file. *)
let committed_rules = find_file "rules/pr8.rules"

let slurp path = In_channel.with_open_bin path In_channel.input_all

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_u64 a) (Rng.next_u64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 7L in
  let _ = Rng.next_u64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Rng.next_u64 a) (Rng.next_u64 b);
  let _ = Rng.next_u64 a in
  (* advancing [a] must not affect [b] *)
  let va = Rng.next_u64 a and vb = Rng.next_u64 b in
  Alcotest.(check bool) "streams diverge after extra draw" true (va <> vb)

let test_rng_split_differs () =
  let a = Rng.create 1L in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.next_u64 a) in
  let ys = List.init 16 (fun _ -> Rng.next_u64 b) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_rng_of_string_stable () =
  let a = Rng.of_string "164.gzip" and b = Rng.of_string "164.gzip" in
  Alcotest.(check int64) "string seed stable" (Rng.next_u64 a) (Rng.next_u64 b);
  let c = Rng.of_string "175.vpr" in
  Alcotest.(check bool) "different names, different seed" true
    (Rng.next_u64 b <> Rng.next_u64 c)

let test_rng_int_bounds () =
  let r = Rng.create 99L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_in_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 10_000 do
    let v = Rng.int_in r (-3) 9 in
    if v < -3 || v > 9 then Alcotest.failf "Rng.int_in out of bounds: %d" v
  done

let test_rng_float_range () =
  let r = Rng.create 12L in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "Rng.float out of range: %f" v
  done

let test_rng_bool_bias () =
  let r = Rng.create 2024L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool r 0.25 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bool(0.25) frequency near 0.25" true
    (frac > 0.23 && frac < 0.27)

let test_rng_weighted () =
  let r = Rng.create 3L in
  let counts = [| 0; 0; 0 |] in
  for _ = 1 to 30_000 do
    let i = Rng.weighted r [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "weighted ordering" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0))

let test_rng_shuffle_permutation () =
  let r = Rng.create 8L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_invalid_args () =
  let r = Rng.create 0L in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty choice" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice r [||]))

(* --- Stats ----------------------------------------------------------- *)

let test_mean () = check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_geomean () =
  check_float "geomean of (2,8)" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check_float "geomean singleton" 5.0 (Stats.geomean [ 5.0 ])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "geomean 0"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stddev () =
  check_float "stddev [2;4;4;4;5;5;7;9]" 2.138089935299395
    (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ]);
  check_float "stddev singleton" 0.0 (Stats.stddev [ 3.0 ])

let test_percentile () =
  check_float "median" 2.5 (Stats.percentile 50.0 [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "p0" 1.0 (Stats.percentile 0.0 [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "p100" 4.0 (Stats.percentile 100.0 [ 1.0; 2.0; 3.0; 4.0 ])

let test_pct_change () =
  check_float "+10%" 10.0 (Stats.pct_change ~baseline:100.0 ~value:110.0);
  check_float "-25%" (-25.0) (Stats.pct_change ~baseline:100.0 ~value:75.0)

let test_speedup_pct () =
  (* runtime halved = 100% speedup *)
  check_float "2x" 100.0 (Stats.speedup_pct ~baseline:100.0 ~value:50.0)

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.0 ] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_sci_notation () =
  Alcotest.(check string) "small" "406" (Stats.sci_notation 406.0);
  Alcotest.(check string) "large" "3.22E+09" (Stats.sci_notation 3.22e9)

let test_with_commas () =
  Alcotest.(check string) "plain" "1,234,567" (Stats.with_commas 1234567L);
  Alcotest.(check string) "negative" "-1,000" (Stats.with_commas (-1000L));
  Alcotest.(check string) "short" "42" (Stats.with_commas 42L)

(* --- Tabular ---------------------------------------------------------- *)

let test_tabular_render () =
  let t = Tabular.create [| Tabular.col "name"; Tabular.col ~align:Tabular.Right "n" |] in
  Tabular.add_row t [| "gzip"; "12" |];
  Tabular.add_row t [| "bwaves"; "3" |];
  let out = Tabular.render t in
  Alcotest.(check bool) "header present" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  (* right-aligned numeric column *)
  Alcotest.(check bool) "right alignment" true
    (String.exists (fun _ -> true) out)

let test_tabular_row_mismatch () =
  let t = Tabular.create [| Tabular.col "a"; Tabular.col "b" |] in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Tabular.add_row: expected 2 cells, got 1") (fun () ->
      Tabular.add_row t [| "x" |])

let test_tabular_csv_escaping () =
  let t = Tabular.create [| Tabular.col "a" |] in
  Tabular.add_row t [| "x,y" |];
  Tabular.add_row t [| "say \"hi\"" |];
  let csv = Tabular.to_csv t in
  Alcotest.(check string) "csv" "a\n\"x,y\"\n\"say \"\"hi\"\"\"\n" csv

let test_tabular_rows_order () =
  let t = Tabular.create [| Tabular.col "a" |] in
  Tabular.add_row t [| "1" |];
  Tabular.add_row t [| "2" |];
  Alcotest.(check (list (array string))) "insertion order"
    [ [| "1" |]; [| "2" |] ] (Tabular.rows t)

(* --- Bits ------------------------------------------------------------- *)

let test_mask_of_size () =
  Alcotest.(check int64) "1" 0xFFL (Bits.mask_of_size 1);
  Alcotest.(check int64) "2" 0xFFFFL (Bits.mask_of_size 2);
  Alcotest.(check int64) "4" 0xFFFFFFFFL (Bits.mask_of_size 4);
  Alcotest.(check int64) "8" (-1L) (Bits.mask_of_size 8)

let test_sign_extend () =
  Alcotest.(check int64) "byte -1" (-1L) (Bits.sign_extend ~size:1 0xFFL);
  Alcotest.(check int64) "byte 127" 127L (Bits.sign_extend ~size:1 0x7FL);
  Alcotest.(check int64) "word -2" (-2L) (Bits.sign_extend ~size:2 0xFFFEL);
  Alcotest.(check int64) "long min" (-2147483648L) (Bits.sign_extend ~size:4 0x80000000L);
  Alcotest.(check int64) "quad id" 0x1234_5678_9ABC_DEF0L
    (Bits.sign_extend ~size:8 0x1234_5678_9ABC_DEF0L)

let test_alignment () =
  Alcotest.(check bool) "byte always" true (Bits.is_aligned ~size:1 3L);
  Alcotest.(check bool) "word at 2" true (Bits.is_aligned ~size:2 2L);
  Alcotest.(check bool) "word at 3" false (Bits.is_aligned ~size:2 3L);
  Alcotest.(check bool) "long at 4" true (Bits.is_aligned ~size:4 4L);
  Alcotest.(check bool) "long at 2" false (Bits.is_aligned ~size:4 2L);
  Alcotest.(check bool) "quad at 8" true (Bits.is_aligned ~size:8 8L);
  Alcotest.(check bool) "quad at 4" false (Bits.is_aligned ~size:8 4L)

let test_align_up_down () =
  Alcotest.(check int64) "down" 8L (Bits.align_down ~size:8 15L);
  Alcotest.(check int64) "up" 16L (Bits.align_up ~size:8 9L);
  Alcotest.(check int64) "up exact" 16L (Bits.align_up ~size:8 16L)

let test_byte_roundtrip () =
  let v = 0x1122_3344_5566_7788L in
  let bytes = List.init 8 (Bits.byte_of v) in
  Alcotest.(check int64) "of_bytes . byte_of = id" v (Bits.of_bytes bytes)

let test_popcount () =
  Alcotest.(check int) "0" 0 (Bits.popcount 0L);
  Alcotest.(check int) "-1" 64 (Bits.popcount (-1L));
  Alcotest.(check int) "0xF0" 4 (Bits.popcount 0xF0L)

(* --- Timing ----------------------------------------------------------- *)

(* A fake monotonic clock advancing [step] ns per reading keeps the
   measurement logic deterministic under test. *)
let fake_clock step =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t step;
    !t

let test_timing_median () =
  check_float "odd" 2. (Timing.median [| 3.; 1.; 2. |]);
  check_float "even" 2.5 (Timing.median [| 4.; 1.; 2.; 3. |]);
  check_float "singleton" 7. (Timing.median [| 7. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Timing.median: empty sample")
    (fun () -> ignore (Timing.median [||]))

let test_timing_measure () =
  (* 1 ms per clock reading, zero quota: each round does exactly one
     repetition and observes exactly 1 ms. *)
  let calls = ref 0 in
  let s = Timing.measure ~now:(fake_clock 1_000_000L) ~rounds:3 ~min_ns:0L (fun () -> incr calls) in
  Alcotest.(check int) "rounds" 3 s.Timing.rounds;
  Alcotest.(check int) "one rep per round under zero quota" 3 s.Timing.total_reps;
  Alcotest.(check int) "thunk called once per rep" 3 !calls;
  check_float "best" 1e6 s.Timing.best_ns;
  check_float "median" 1e6 s.Timing.median_ns;
  Alcotest.(check bool) "best <= median" true (s.Timing.best_ns <= s.Timing.median_ns);
  check_float "per_sec at median" 1e3 (Timing.per_sec ~count:1 s)

let test_timing_measure_quota () =
  (* 1 ms per reading, 10 ms quota: each round repeats until the clock
     shows >= 10 ms, i.e. exactly 10 repetitions of 1 ms each. *)
  let s = Timing.measure ~now:(fake_clock 1_000_000L) ~rounds:4 ~min_ns:10_000_000L (fun () -> ()) in
  Alcotest.(check int) "reps fill the quota" 40 s.Timing.total_reps;
  check_float "per-rep average" 1e6 s.Timing.median_ns

let test_timing_measure_args () =
  let now = fake_clock 1L in
  Alcotest.check_raises "rounds < 1"
    (Invalid_argument "Timing.measure: rounds must be >= 1") (fun () ->
      ignore (Timing.measure ~now ~rounds:0 (fun () -> ())));
  Alcotest.check_raises "negative min_ns"
    (Invalid_argument "Timing.measure: negative min_ns") (fun () ->
      ignore (Timing.measure ~now ~min_ns:(-1L) (fun () -> ())))

let test_timing_measure_pair () =
  (* Zero quota: one rep per round, so the call order must strictly
     alternate f,g,f,g,... — the whole point of paired measurement. *)
  let order = ref [] in
  let fs, gs =
    Timing.measure_pair ~now:(fake_clock 1_000_000L) ~rounds:3 ~min_ns:0L
      (fun () -> order := `F :: !order)
      (fun () -> order := `G :: !order)
  in
  Alcotest.(check bool) "strict interleaving" true
    (List.rev !order = [ `F; `G; `F; `G; `F; `G ]);
  Alcotest.(check int) "f rounds" 3 fs.Timing.rounds;
  Alcotest.(check int) "g rounds" 3 gs.Timing.rounds;
  Alcotest.(check int) "f reps" 3 fs.Timing.total_reps;
  Alcotest.(check int) "g reps" 3 gs.Timing.total_reps

(* --- qcheck properties ------------------------------------------------ *)

let prop_truncate_idempotent =
  QCheck.Test.make ~name:"Bits.truncate idempotent" ~count:500
    QCheck.(pair (oneofl [ 1; 2; 4; 8 ]) int64)
    (fun (size, v) -> Bits.truncate ~size (Bits.truncate ~size v) = Bits.truncate ~size v)

let prop_sign_extend_preserves_low_bits =
  QCheck.Test.make ~name:"Bits.sign_extend preserves low bits" ~count:500
    QCheck.(pair (oneofl [ 1; 2; 4; 8 ]) int64)
    (fun (size, v) ->
      Bits.truncate ~size (Bits.sign_extend ~size v) = Bits.truncate ~size v)

let prop_align_down_le =
  QCheck.Test.make ~name:"Bits.align_down <= addr (non-negative)" ~count:500
    QCheck.(pair (oneofl [ 1; 2; 4; 8 ]) (map Int64.of_int small_nat))
    (fun (size, addr) ->
      let d = Bits.align_down ~size addr in
      d <= addr && Bits.is_aligned ~size d)

let prop_geomean_between_min_max =
  QCheck.Test.make ~name:"Stats.geomean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.001 1000.0))
    (fun xs ->
      let g = Stats.geomean xs in
      let lo, hi = Stats.min_max xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int_in stays in range" ~count:500
    QCheck.(triple int64 small_signed_int small_nat)
    (fun (seed, lo, span) ->
      let r = Rng.create seed in
      let v = Rng.int_in r lo (lo + span) in
      v >= lo && v <= lo + span)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_truncate_idempotent;
      prop_sign_extend_preserves_low_bits;
      prop_align_down_le;
      prop_geomean_between_min_max;
      prop_rng_int_in_range ]

let suite =
  [ ( "util.rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
        Alcotest.test_case "split differs" `Quick test_rng_split_differs;
        Alcotest.test_case "of_string stable" `Quick test_rng_of_string_stable;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
        Alcotest.test_case "weighted" `Quick test_rng_weighted;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "invalid args" `Quick test_rng_invalid_args ] );
    ( "util.stats",
      [ Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "geomean rejects <=0" `Quick test_geomean_rejects_nonpositive;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "pct_change" `Quick test_pct_change;
        Alcotest.test_case "speedup_pct" `Quick test_speedup_pct;
        Alcotest.test_case "min_max" `Quick test_min_max;
        Alcotest.test_case "sci_notation" `Quick test_sci_notation;
        Alcotest.test_case "with_commas" `Quick test_with_commas ] );
    ( "util.tabular",
      [ Alcotest.test_case "render" `Quick test_tabular_render;
        Alcotest.test_case "row arity mismatch" `Quick test_tabular_row_mismatch;
        Alcotest.test_case "csv escaping" `Quick test_tabular_csv_escaping;
        Alcotest.test_case "row order" `Quick test_tabular_rows_order ] );
    ( "util.bits",
      [ Alcotest.test_case "mask_of_size" `Quick test_mask_of_size;
        Alcotest.test_case "sign_extend" `Quick test_sign_extend;
        Alcotest.test_case "alignment" `Quick test_alignment;
        Alcotest.test_case "align up/down" `Quick test_align_up_down;
        Alcotest.test_case "byte roundtrip" `Quick test_byte_roundtrip;
        Alcotest.test_case "popcount" `Quick test_popcount ] );
    ( "util.timing",
      [ Alcotest.test_case "median" `Quick test_timing_median;
        Alcotest.test_case "measure (fake clock)" `Quick test_timing_measure;
        Alcotest.test_case "measure fills quota" `Quick test_timing_measure_quota;
        Alcotest.test_case "argument validation" `Quick test_timing_measure_args;
        Alcotest.test_case "measure_pair interleaves rounds" `Quick
          test_timing_measure_pair ] );
    ("util.properties", qcheck_cases) ]
