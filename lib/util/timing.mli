(** Repetition-based wall-clock measurement over a caller-supplied
    monotonic clock ([unit -> int64] nanoseconds, e.g. Bechamel's
    [Monotonic_clock.now]). Not [Unix.gettimeofday], which follows
    wall-clock adjustments and would corrupt a benchmark figure on a
    clock step. *)

type sample = {
  best_ns : float;  (** fastest round's ns per repetition *)
  median_ns : float;  (** median round's ns per repetition *)
  rounds : int;
  total_reps : int;  (** repetitions summed over all rounds *)
}

(** Median of a non-empty array (mean of the two middle elements when
    even-sized). Raises [Invalid_argument] on empty input. *)
val median : float array -> float

(** [measure ~now f] runs [rounds] (default 5) independent rounds; each
    repeats [f] until at least [min_ns] (default 0.1 s) have elapsed on
    [now] — always at least once — and yields an average ns-per-rep.
    Record [median_ns]; it is robust to a slow outlier round. Raises
    [Invalid_argument] when [rounds < 1] or [min_ns < 0]. *)
val measure :
  now:(unit -> int64) -> ?rounds:int -> ?min_ns:int64 -> (unit -> unit) -> sample

(** [measure_pair ~now f g] measures [f] and [g] in interleaved rounds
    (one round of [f], then one of [g], [rounds] times over) and
    returns their samples in order. Two back-to-back {!measure} calls
    credit any machine slowdown entirely to whichever side ran during
    it; interleaving spreads drift over both, so comparative figures —
    a speedup, a regression gate — should come from this. *)
val measure_pair :
  now:(unit -> int64) ->
  ?rounds:int ->
  ?min_ns:int64 ->
  (unit -> unit) ->
  (unit -> unit) ->
  sample * sample

(** Items per second when one repetition processes [count] items, at
    the sample's median rate. *)
val per_sec : count:int -> sample -> float
