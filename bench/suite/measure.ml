(* Timing discipline shared by every workload: the monotonic clock, one
   timed call through Mda_util.Timing, repeated set-ups, and the round
   loop — an untimed warm-up, a Gc.compact, then timed rounds until the
   time budget is spent (never fewer than [min_rounds]), summarised as
   median and quartiles with the sample count. *)

let min_rounds = 3

let now = Monotonic_clock.now

let now_ns () = Int64.to_int (now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Seconds taken by one call of [f], and [f]'s result. *)
let timed f =
  let r = ref None in
  let s = Mda_util.Timing.measure ~now ~rounds:1 ~min_ns:0L (fun () -> r := Some (f ())) in
  (Option.get !r, s.Mda_util.Timing.median_ns /. 1e9)

type stat = { median : float; q1 : float; q3 : float; samples : int }

(* Quartiles by the exclusive method (what Python's
   statistics.quantiles(xs, n=4) returns); a single sample is its own
   quartiles. *)
let stat_of xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.stat_of: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  let quartile i =
    if n = 1 then s.(0)
    else
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
  in
  { median = Mda_util.Timing.median s; q1 = quartile 1; q3 = quartile 3; samples = n }

let single v = { median = v; q1 = v; q3 = v; samples = 1 }

(* [count] items per [s] seconds; the quartiles swap sides. *)
let rate count s =
  let c = float_of_int count in
  { median = c /. s.median; q1 = c /. s.q3; q3 = c /. s.q1; samples = s.samples }

(* Peak major-heap size of this process so far, in MiB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* Minor-heap words allocated while [f] runs, with [f]'s result. *)
let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* [setups k f] runs the set-up [f] [k] times, each after a compaction,
   and returns the last product with the median set-up time. *)
let setups k f =
  let last = ref None in
  let samples =
    Array.init k (fun _ ->
        Gc.compact ();
        let r, s = timed f in
        last := Some r;
        s)
  in
  (Option.get !last, stat_of samples)

(* A round is a fixed sequence of parts, each timed on its own. The
   round's time is summarised part by part: the median of the whole is
   the sum of every part's median over the rounds (the quartiles
   likewise), so a burst of machine noise that slows one part of one
   round is discarded instead of slowing that round's total. *)
let total (rounds : float array array) =
  let parts = Array.length rounds.(0) in
  let per_part = Array.init parts (fun p -> stat_of (Array.map (fun r -> r.(p)) rounds)) in
  let sum f = Array.fold_left (fun a s -> a +. f s) 0. per_part in
  { median = sum (fun s -> s.median);
    q1 = sum (fun s -> s.q1);
    q3 = sum (fun s -> s.q3);
    samples = Array.length rounds }

(* [k] rounds of [a] and of [b] alternated (a, b, a, b, ...), so that a
   drift in machine speed lands on both; each returns the seconds of
   its parts, and each side is summarised by [total]. *)
let interleaved k a b =
  let ra = Array.make k [||] and rb = Array.make k [||] in
  for i = 0 to k - 1 do
    Gc.full_major ();
    ra.(i) <- a ();
    Gc.full_major ();
    rb.(i) <- b ()
  done;
  (total ra, total rb)

type rounds = {
  wall : stat;  (** one round, by [total] *)
  peak_heap_mb : float;  (** after set-up, warm-up and the first [min_rounds] rounds *)
}

(* [rounds ~warmup ~seconds round] runs the untimed [warmup], compacts
   the heap, then repeats [round] — which returns the seconds of each of
   its parts — until [seconds] have passed and at least [min_rounds]
   rounds exist. Each round starts after a full major collection, so no
   round pays for its predecessor's garbage. The peak heap is read after
   a fixed number of rounds, so a run that fits more rounds in its
   budget does not report a higher peak. *)
let rounds ~warmup ~seconds round =
  warmup ();
  Gc.compact ();
  let t0 = now_ns () in
  let acc = ref [] and n = ref 0 and peak = ref 0. in
  while !n < min_rounds || seconds_since t0 < seconds do
    Gc.full_major ();
    acc := round () :: !acc;
    incr n;
    if !n = min_rounds then peak := peak_heap_mb ()
  done;
  { wall = total (Array.of_list (List.rev !acc)); peak_heap_mb = !peak }
