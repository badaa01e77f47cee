(* Byte-addressable simulated memory, held as a sparse page table.

   Storage is alignment-agnostic — whether a misaligned access traps is an
   ISA property, enforced by the executing CPU (the x86lite guest allows
   MDAs; alphalite raises alignment traps for non-byte aligned ops).
   Little-endian, like both X86 and Alpha.

   The address space is cut into 4 KiB pages. Every full page starts as
   the one shared, never-written [zero_page]; the first store to a page
   swaps in a private copy. A fresh 8 MiB guest therefore costs one
   2048-entry array, not an 8 MiB memset — a loaded tenant image touches
   two pages. A partial last page (size not a page multiple) is private
   from the start and exactly as long as the memory it covers, so every
   page's [Bytes.length] ends where memory does.

   [read] and [write] are inlined into [load_rf] and [store_rf], which
   move a value between memory and a register-file slot (see
   Mda_host.Semantics) so the host CPU's loads and stores box nothing. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

type t = { size : int; pages : Bytes.t array }

exception Out_of_bounds of { addr : int; size : int; limit : int }

let () =
  Printexc.register_printer (function
    | Out_of_bounds { addr; size; limit } ->
      Some
        (Printf.sprintf
           "guest memory access out of bounds: %d byte(s) at %#x (memory ends at %#x)" size
           addr limit)
    | _ -> None)

let create ~size_bytes =
  if size_bytes <= 0 then invalid_arg "Memory.create: non-positive size";
  let n = (size_bytes + page_mask) lsr page_bits in
  let pages = Array.make n zero_page in
  let tail = size_bytes land page_mask in
  if tail <> 0 then pages.(n - 1) <- Bytes.make tail '\000';
  { size = size_bytes; pages }

let size t = t.size

let check t addr size =
  if addr < 0 || size < 0 || addr + size > t.size then
    raise (Out_of_bounds { addr; size; limit = t.size })

(* The page holding [addr]; [addr] must be in bounds. *)
let page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

(* The page holding [addr], made private on the first store to it. *)
let writable t addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages i p;
    p
  end

let get_u8 t addr = Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let set_u8 t addr v =
  Bytes.unsafe_set (writable t addr) (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

let read_u8 t addr =
  check t addr 1;
  get_u8 t addr

let write_u8 t addr v =
  check t addr 1;
  set_u8 t addr v

(* Accesses that straddle a page boundary, byte by byte: exact, and rare
   enough that speed does not matter. *)
let read_straddle t addr size =
  let v = ref 0L in
  for i = size - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 t (addr + i)))
  done;
  !v

let write_straddle t addr size v =
  for i = 0 to size - 1 do
    set_u8 t (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

(* Unchecked native-endian page accessors: [check] and the in-page
   guards below already bound every use. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* [read t ~addr ~size] returns the little-endian value of [size] bytes
   (1/2/4/8), zero-extended into an int64. An access that fits in its
   page is one direct page index. *)
let[@inline] read t ~addr ~size =
  check t addr size;
  let off = addr land page_mask in
  match size with
  | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get (page t addr) off))
  | 2 when off <= page_size - 2 ->
    let v = get16 (page t addr) off in
    Int64.of_int (if Sys.big_endian then swap16 v else v)
  | 4 when off <= page_size - 4 ->
    let v = get32 (page t addr) off in
    Int64.logand (Int64.of_int32 (if Sys.big_endian then swap32 v else v)) 0xFFFFFFFFL
  | 8 when off <= page_size - 8 ->
    let v = get64 (page t addr) off in
    if Sys.big_endian then swap64 v else v
  | 2 | 4 | 8 -> read_straddle t addr size
  | n -> invalid_arg (Printf.sprintf "Memory.read: size %d" n)

let[@inline] write t ~addr ~size v =
  check t addr size;
  let off = addr land page_mask in
  match size with
  | 1 -> Bytes.unsafe_set (writable t addr) off (Char.unsafe_chr (Int64.to_int v land 0xFF))
  | 2 when off <= page_size - 2 ->
    let v = Int64.to_int v land 0xFFFF in
    set16 (writable t addr) off (if Sys.big_endian then swap16 v else v)
  | 4 when off <= page_size - 4 ->
    let v = Int64.to_int32 v in
    set32 (writable t addr) off (if Sys.big_endian then swap32 v else v)
  | 8 when off <= page_size - 8 ->
    set64 (writable t addr) off (if Sys.big_endian then swap64 v else v)
  | 2 | 4 | 8 -> write_straddle t addr size v
  | n -> invalid_arg (Printf.sprintf "Memory.write: size %d" n)

(* Register-file slot [i] is the native-endian int64 at byte [8 * i]. *)
let load_rf t ~addr ~size rf ~dst = set64 rf (dst lsl 3) (read t ~addr ~size)

let store_rf t ~addr ~size rf ~src = write t ~addr ~size (get64 rf (src lsl 3))

(* Read-only view of the page holding [addr], for in-place decoding:
   byte [i] of the result is guest byte [addr land lnot page_mask + i]. *)
let page_at t addr =
  check t addr 1;
  page t addr

(* A materialised flat copy of the whole memory: O(size). *)
let raw t =
  let out = Bytes.make t.size '\000' in
  Array.iteri
    (fun i p -> if p != zero_page then Bytes.blit p 0 out (i lsl page_bits) (Bytes.length p))
    t.pages;
  out

let all_zero p =
  let n = Bytes.length p in
  let rec words i =
    if i + 8 > n then bytes i else Bytes.get_int64_ne p i = 0L && words (i + 8)
  and bytes i = i >= n || (Bytes.unsafe_get p i = '\000' && bytes (i + 1)) in
  words 0

(* Fold the size, then the index and bytes of every page holding a
   non-zero byte: a private page that is all zeros digests like the
   zero page, so equal contents give equal digests. *)
let digest t =
  let b = Buffer.create 256 in
  Buffer.add_int64_le b (Int64.of_int t.size);
  Array.iteri
    (fun i p ->
      if p != zero_page && not (all_zero p) then begin
        Buffer.add_int64_le b (Int64.of_int i);
        Buffer.add_string b (Digest.bytes p)
      end)
    t.pages;
  Digest.string (Buffer.contents b)

(* Load a byte image (e.g. an encoded guest program) at [addr]. *)
let load_image t ~addr image =
  let len = Bytes.length image in
  check t addr len;
  let rec go src =
    if src < len then begin
      let a = addr + src in
      let off = a land page_mask in
      let n = min (len - src) (page_size - off) in
      Bytes.blit image src (writable t a) off n;
      go (src + n)
    end
  in
  go 0
