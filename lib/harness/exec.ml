(* Plan-then-execute layer over {!Cell}, {!Pool} and {!Result_cache}.

   Experiments *plan* by handing their whole cell list to [prefetch]
   (which dedups, consults the persistent cache, and fans the remainder
   out over the worker pool), then *execute* by pulling individual
   results with [get] — by then every cell is memoized, so table
   construction stays sequential and deterministic whatever the worker
   count. Sharing one [t] across experiments (as [mdabench all] does)
   dedups identical cells between them: the second experiment's prefetch
   sees the first one's memo entries.

   A cell that failed in a worker is *not* memoized as a failure: [get]
   recomputes it inline so the caller sees the real exception, not a
   stringly copy. *)

type counters = {
  computed : int; (* simulated, here or in a worker *)
  cache_hits : int; (* served from the persistent cache *)
  memo_hits : int; (* deduped against an earlier request this process *)
  failed : int; (* worker failures (recomputed inline on access) *)
}

let zero_counters = { computed = 0; cache_hits = 0; memo_hits = 0; failed = 0 }

let diff_counters a b =
  { computed = a.computed - b.computed;
    cache_hits = a.cache_hits - b.cache_hits;
    memo_hits = a.memo_hits - b.memo_hits;
    failed = a.failed - b.failed }

type t = {
  jobs : int;
  timeout : float option; (* per-cell wall-clock bound in the pool *)
  capacity : int option; (* bounded code cache applied to every Mech cell *)
  cache : Result_cache.t option;
  memo : (string, Cell.result) Hashtbl.t; (* keyed by Cell.describe *)
  mutable counters : counters;
  mutable failures : (Cell.t * string) list;
}

let create ?(jobs = 1) ?timeout ?capacity ?cache () =
  { jobs = max 1 jobs;
    timeout;
    capacity;
    cache;
    memo = Hashtbl.create 256;
    counters = zero_counters;
    failures = [] }

(* The capacity override rewrites Mech cells on the way in — one knob
   bounds every experiment's translator without threading a parameter
   through all sixteen runners. Interp cells (the ground-truth oracle)
   have no code cache and pass through untouched, so e.g. table1's
   results cannot move under a bound. *)
let apply_capacity t (cell : Cell.t) =
  match (t.capacity, cell.kind) with
  | Some _, Mda_mech.Mech_spec.Mech _ when cell.capacity = None ->
    { cell with capacity = t.capacity }
  | _ -> cell

let counters t = t.counters

let failures t = List.rev t.failures

let bump t f = t.counters <- f t.counters

let memo_add t cell r = Hashtbl.replace t.memo (Cell.describe cell) r

let cache_find t cell =
  match t.cache with
  | None -> None
  | Some c ->
    (match Result_cache.find c cell with
    | Some r ->
      bump t (fun c -> { c with cache_hits = c.cache_hits + 1 });
      Some r
    | None -> None)

let cache_store t cell r =
  match t.cache with None -> () | Some c -> Result_cache.store c cell r

let prefetch t cells =
  let cells = List.map (apply_capacity t) cells in
  (* dedup while preserving order; count every repeat as a memo hit *)
  let seen = Hashtbl.create (List.length cells) in
  let todo =
    List.filter
      (fun cell ->
        let k = Cell.describe cell in
        if Hashtbl.mem seen k || Hashtbl.mem t.memo k then begin
          bump t (fun c -> { c with memo_hits = c.memo_hits + 1 });
          false
        end
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      cells
  in
  let todo =
    List.filter
      (fun cell ->
        match cache_find t cell with
        | Some r ->
          memo_add t cell r;
          false
        | None -> true)
      todo
  in
  if todo <> [] then begin
    let results =
      Pool.map ?timeout:t.timeout ~jobs:t.jobs ~f:(fun cell -> Cell.compute cell) todo
    in
    List.iteri
      (fun i cell ->
        match results.(i) with
        | Ok r ->
          bump t (fun c -> { c with computed = c.computed + 1 });
          memo_add t cell r;
          cache_store t cell r
        | Error e ->
          bump t (fun c -> { c with failed = c.failed + 1 });
          t.failures <- (cell, e) :: t.failures)
      todo
  end

let get t cell =
  let cell = apply_capacity t cell in
  match Hashtbl.find_opt t.memo (Cell.describe cell) with
  | Some r -> r
  | None ->
    let r =
      match cache_find t cell with
      | Some r -> r
      | None ->
        let r = Cell.compute cell in
        bump t (fun c -> { c with computed = c.computed + 1 });
        cache_store t cell r;
        r
    in
    memo_add t cell r;
    r

let stats t cell = (get t cell).Cell.stats

let cycles t cell = Int64.to_float (stats t cell).Mda_bt.Run_stats.cycles

let sites t cell = (get t cell).Cell.sites
