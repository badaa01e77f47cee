(* Two-level cache hierarchy with cycle accounting.

   Every simulated memory touch (data access or instruction fetch) goes
   through here; the return value is the number of *stall* cycles to add
   on top of the instruction's base cost. *)

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  cost : Cost_model.t;
}

let create ?(geometry = Cost_model.es40_caches) cost =
  { l1i = Cache.create ~size_bytes:geometry.l1_size ~assoc:geometry.l1_assoc
            ~line_bytes:geometry.l1_line;
    l1d = Cache.create ~size_bytes:geometry.l1_size ~assoc:geometry.l1_assoc
            ~line_bytes:geometry.l1_line;
    l2 = Cache.create ~size_bytes:geometry.l2_size ~assoc:geometry.l2_assoc
           ~line_bytes:geometry.l2_line;
    cost }

let access_through t l1 addr =
  if Cache.access l1 addr then 0
  else if Cache.access t.l2 addr then t.cost.Cost_model.l1_miss
  else t.cost.Cost_model.l2_miss

(* [access_data t ~addr ~size] charges for every cache line the access
   touches — a line-crossing (misaligned) access costs two line lookups,
   which is how the native-x86 split-access penalty arises. The second
   line is the one holding the access's last byte; its base lies past
   [addr] exactly when the access crosses. *)
let access_data t ~addr ~size =
  let first = access_through t t.l1d addr in
  let last = (addr + size - 1) land lnot (Cache.line_bytes t.l1d - 1) in
  if last <= addr then first else first + access_through t t.l1d last

let access_code t ~addr = access_through t t.l1i addr

let invalidate_code t = Cache.invalidate_all t.l1i
