(* Set-associative cache simulator with LRU replacement.

   Used to model the evaluation machine's hierarchy (Alpha ES40: split
   64 KB 2-way L1 caches, 2 MB direct-mapped L2) so that the code-locality
   effects the paper attributes to exception-handler patching vs. code
   rearrangement (Figure 11) show up in cycle counts. *)

type t = {
  line_bits : int; (* log2 of line size *)
  set_bits : int; (* log2 of number of sets *)
  assoc : int;
  tags : int array; (* sets * assoc; -1 = invalid *)
  lru : int array; (* per-way timestamps; empty when direct-mapped *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let log2_exact name v =
  if v <= 0 || v land (v - 1) <> 0 then
    invalid_arg (Printf.sprintf "Cache.create: %s (%d) must be a power of two" name v);
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go v 0

let create ~size_bytes ~assoc ~line_bytes =
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  let line_bits = log2_exact "line_bytes" line_bytes in
  let lines = size_bytes / line_bytes in
  if lines <= 0 || lines mod assoc <> 0 then
    invalid_arg "Cache.create: size/line/assoc mismatch";
  let sets = lines / assoc in
  let set_bits = log2_exact "sets" sets in
  { line_bits;
    set_bits;
    assoc;
    tags = Array.make (sets * assoc) (-1);
    (* a direct-mapped set's victim is always its one way, so it keeps
       no stamps *)
    lru = (if assoc = 1 then [||] else Array.make (sets * assoc) 0);
    tick = 0;
    hits = 0;
    misses = 0 }

let sets t = 1 lsl t.set_bits

let line_bits t = t.line_bits

(* [access t addr] touches the line containing [addr]; returns [true] on
   hit. On miss the line is filled, evicting the LRU way. *)
let access t addr =
  let line = addr lsr t.line_bits in
  let set = line land ((1 lsl t.set_bits) - 1) in
  let tag = line lsr t.set_bits in
  if t.assoc = 1 then
    if t.tags.(set) = tag then begin
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.tags.(set) <- tag;
      t.misses <- t.misses + 1;
      false
    end
  else begin
    t.tick <- t.tick + 1;
    let base = set * t.assoc in
    let hit_way = ref (-1) in
    for w = 0 to t.assoc - 1 do
      if t.tags.(base + w) = tag then hit_way := w
    done;
    if !hit_way >= 0 then begin
      t.lru.(base + !hit_way) <- t.tick;
      t.hits <- t.hits + 1;
      true
    end
    else begin
      (* evict least-recently-used way *)
      let victim = ref 0 in
      for w = 1 to t.assoc - 1 do
        if t.lru.(base + w) < t.lru.(base + !victim) then victim := w
      done;
      t.tags.(base + !victim) <- tag;
      t.lru.(base + !victim) <- t.tick;
      t.misses <- t.misses + 1;
      false
    end
  end

(* A hit the caller knows of without a lookup: the line it touched last
   in this cache, touched again. That line is already its set's most
   recent, so leaving its stamp alone keeps every set's LRU order. *)
let record_hit t = t.hits <- t.hits + 1

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0

let stats t = (t.hits, t.misses)
