(* Repetition-based wall-clock measurement over a caller-supplied
   monotonic clock.

   Not [Unix.gettimeofday]: it follows wall-clock adjustments (NTP
   slew, manual steps), so a clock jump mid-measurement would silently
   corrupt a benchmark figure. This helper takes the clock as a
   parameter — a [unit -> int64] returning monotonic nanoseconds, e.g.
   Bechamel's [Monotonic_clock.now] — keeping this library
   dependency-free and the measurement logic testable against a fake
   clock.

   Measurement shape: [rounds] independent rounds; each round repeats
   the thunk until at least [min_ns] have elapsed (always at least
   once) and yields an average ns-per-rep. The sample reports the best
   and median of the per-round figures — the median is what a benchmark
   should record (robust to a slow outlier round), the best
   bounds the true cost from above least loosely. *)

type sample = {
  best_ns : float; (* fastest round's ns per repetition *)
  median_ns : float; (* median round's ns per repetition *)
  rounds : int;
  total_reps : int; (* repetitions summed over all rounds *)
}

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Timing.median: empty sample";
  let s = Array.copy a in
  Array.sort compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* One round: repeat [f] until [min_ns] have elapsed (at least once);
   returns (average ns per repetition, repetitions). *)
let round ~now ~min_ns f =
  let t0 = now () in
  let reps = ref 0 in
  let elapsed = ref 0L in
  (* do-while: at least one repetition even under a zero quota *)
  let continue = ref true in
  while !continue do
    f ();
    incr reps;
    elapsed := Int64.sub (now ()) t0;
    if Int64.compare !elapsed min_ns >= 0 then continue := false
  done;
  (Int64.to_float !elapsed /. float_of_int !reps, !reps)

let check_args ~rounds ~min_ns =
  if rounds < 1 then invalid_arg "Timing.measure: rounds must be >= 1";
  if Int64.compare min_ns 0L < 0 then invalid_arg "Timing.measure: negative min_ns"

let sample_of per_rep total_reps =
  { best_ns = Array.fold_left min per_rep.(0) per_rep;
    median_ns = median per_rep;
    rounds = Array.length per_rep;
    total_reps }

let measure ~now ?(rounds = 5) ?(min_ns = 100_000_000L) f =
  check_args ~rounds ~min_ns;
  let per_rep = Array.make rounds 0. in
  let total_reps = ref 0 in
  for r = 0 to rounds - 1 do
    let ns, reps = round ~now ~min_ns f in
    per_rep.(r) <- ns;
    total_reps := !total_reps + reps
  done;
  sample_of per_rep !total_reps

(* Interleaved A/B measurement: one round of [f], then one of [g],
   [rounds] times over. Back-to-back [measure] calls put any machine
   slowdown wholly on whichever side ran during it, which makes a
   *ratio* of the two samples noisy even when each sample looks fine;
   alternating rounds spreads drift over both sides, so comparative
   figures (e.g. a speedup gate) should come from this. *)
let measure_pair ~now ?(rounds = 5) ?(min_ns = 100_000_000L) f g =
  check_args ~rounds ~min_ns;
  let fa = Array.make rounds 0. and ga = Array.make rounds 0. in
  let f_reps = ref 0 and g_reps = ref 0 in
  for r = 0 to rounds - 1 do
    let nf, rf = round ~now ~min_ns f in
    fa.(r) <- nf;
    f_reps := !f_reps + rf;
    let ng, rg = round ~now ~min_ns g in
    ga.(r) <- ng;
    g_reps := !g_reps + rg
  done;
  (sample_of fa !f_reps, sample_of ga !g_reps)

(* Items per second when one repetition processes [count] items, at the
   sample's median rate. *)
let per_sec ~count (s : sample) =
  if s.median_ns <= 0. then 0. else float_of_int count *. 1e9 /. s.median_ns
