(** Plan-then-execute layer: experiments plan by prefetching their whole
    cell list (dedup → persistent-cache lookup → parallel compute), then
    pull individual memoized results while rendering. Sharing one [t]
    across experiments dedups identical cells between them. *)

type t

(** [create ~jobs ~cache ()]: [jobs <= 1] (the default) computes
    sequentially in-process; no [cache] means every cell is simulated
    fresh each process. [?timeout] bounds each cell's wall clock in the
    worker pool (see {!Pool.map}; ignored when [jobs <= 1]).
    [?capacity] bounds the translator's code cache (live host insns) for
    every [Mech] cell that does not already carry its own bound — interp
    cells, having no code cache, pass through untouched. *)
val create :
  ?jobs:int -> ?timeout:float -> ?capacity:int -> ?cache:Result_cache.t -> unit -> t

val jobs : t -> int

type counters = {
  computed : int;  (** simulated, here or in a worker *)
  cache_hits : int;  (** served from the persistent cache *)
  memo_hits : int;  (** deduped against an earlier request this process *)
  failed : int;  (** worker failures (recomputed inline on access) *)
}

(** [diff_counters after before] — per-experiment deltas for the timing
    report. *)
val diff_counters : counters -> counters -> counters

val counters : t -> counters

(** Worker-side failures recorded by {!prefetch}, oldest first. Failed
    cells are not memoized: {!get} recomputes them inline so the caller
    sees the real exception. *)
val failures : t -> (Cell.t * string) list

val prefetch : t -> Cell.t list -> unit

val get : t -> Cell.t -> Cell.result

val stats : t -> Cell.t -> Mda_bt.Run_stats.t

val cycles : t -> Cell.t -> float

val sites : t -> Cell.t -> Cell.site array
