(* Two-level cache hierarchy with cycle accounting.

   Every simulated memory touch (data access or instruction fetch) goes
   through here; the return value is the number of *stall* cycles to add
   on top of the instruction's base cost.

   Each L1 remembers the line it touched last. Touching that line again
   is a hit without a lookup: only [access_code] touches L1I and only
   [access_data] touches L1D, so the remembered line is still its set's
   most recent — present, and already first in LRU order. Skipping its
   stamp update leaves every set's order as it was, and a hit never
   reaches L2. [invalidate_code] forgets the L1I line with the lines
   themselves. *)

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  cost : Cost_model.t;
  l1_bits : int; (* log2 of the L1 line size *)
  mutable code_line : int; (* the line L1I touched last, or -1 *)
  mutable data_line : int; (* the line L1D touched last, or -1 *)
}

let create ?(geometry = Cost_model.es40_caches) cost =
  (* lines of two bytes or more keep [addr lsr l1_bits] clear of the -1
     that means "no line" *)
  if geometry.l1_line < 2 then invalid_arg "Hierarchy.create: L1 lines under 2 bytes";
  let l1i =
    Cache.create ~size_bytes:geometry.l1_size ~assoc:geometry.l1_assoc
      ~line_bytes:geometry.l1_line
  in
  { l1i;
    l1d = Cache.create ~size_bytes:geometry.l1_size ~assoc:geometry.l1_assoc
            ~line_bytes:geometry.l1_line;
    l2 = Cache.create ~size_bytes:geometry.l2_size ~assoc:geometry.l2_assoc
           ~line_bytes:geometry.l2_line;
    cost;
    l1_bits = Cache.line_bits l1i;
    code_line = -1;
    data_line = -1 }

let access_through t l1 addr =
  if Cache.access l1 addr then 0
  else if Cache.access t.l2 addr then t.cost.Cost_model.l1_miss
  else t.cost.Cost_model.l2_miss

let touch_data t addr =
  let line = addr lsr t.l1_bits in
  if line = t.data_line then begin
    Cache.record_hit t.l1d;
    0
  end
  else begin
    t.data_line <- line;
    access_through t t.l1d addr
  end

(* [access_data t ~addr ~size] charges for every cache line the access
   touches — a line-crossing (misaligned) access costs two line lookups,
   which is how the native-x86 split-access penalty arises. The second
   line is the one holding the access's last byte; its base lies past
   [addr] exactly when the access crosses. *)
let access_data t ~addr ~size =
  let first = touch_data t addr in
  let last = (addr + size - 1) land lnot ((1 lsl t.l1_bits) - 1) in
  if last <= addr then first else first + touch_data t last

let access_code t ~addr =
  let line = addr lsr t.l1_bits in
  if line = t.code_line then begin
    Cache.record_hit t.l1i;
    0
  end
  else begin
    t.code_line <- line;
    access_through t t.l1i addr
  end

let invalidate_code t =
  Cache.invalidate_all t.l1i;
  t.code_line <- -1
