(** Byte-addressable simulated memory, little-endian.

    Storage is alignment-agnostic: whether a misaligned access traps is
    an ISA property enforced by the executing CPU, not by memory.

    Memory is a sparse table of {!page_size}-byte pages. Every page
    starts as one shared, immutable zero page and becomes private on
    its first store, so {!create} costs one page-table array, not a
    memset of the whole size. Pages are invisible to {!read} and
    {!write}: an access that straddles a page boundary is exact. The
    zero page is recognised by physical equality, so a [t] must not
    cross [Marshal] (an unmarshalled zero page would be shared and
    writable). *)

type t

exception Out_of_bounds of { addr : int; size : int; limit : int }
(** Raised by every accessor for an access outside [\[0, size)].
    [Printexc.to_string] renders it as a one-line diagnostic. *)

(** Page size in bytes (4 KiB). *)
val page_size : int

(** Fresh zeroed memory. Raises on non-positive sizes. *)
val create : size_bytes:int -> t

val size : t -> int

val read_u8 : t -> int -> int

val write_u8 : t -> int -> int -> unit

(** [read t ~addr ~size] is the little-endian value of [size] bytes
    (1/2/4/8), zero-extended. Any byte alignment is accepted. *)
val read : t -> addr:int -> size:int -> int64

val write : t -> addr:int -> size:int -> int64 -> unit

(** [load_rf t ~addr ~size rf ~dst] is {!read} into slot [dst] of the
    register file [rf] (native-endian int64 slots, slot [i] at byte
    [8 * i]; see {!Mda_host.Semantics.oper_rf}); [store_rf] is {!write}
    of slot [src]. Neither boxes the value. *)
val load_rf : t -> addr:int -> size:int -> Bytes.t -> dst:int -> unit

val store_rf : t -> addr:int -> size:int -> Bytes.t -> src:int -> unit

(** [page_at t addr] is the page holding guest byte [addr], for
    in-place decoding: byte [i] of it is guest byte
    [addr - addr mod page_size + i]. It ends at the page end or at the
    end of memory, whichever comes first. Treat as read-only: it may be
    the shared zero page. Raises [Out_of_bounds] outside memory. *)
val page_at : t -> int -> Bytes.t

(** A materialised flat copy of the whole memory: O(size) time and
    space. Prefer {!digest} to compare memories. *)
val raw : t -> Bytes.t

(** MD5 over the size and the index and bytes of every page that holds
    a non-zero byte. Canonical: memories with equal size and contents
    have equal digests, however their pages came to be private. *)
val digest : t -> Digest.t

(** Copy a byte image (e.g. an encoded guest program) to [addr]. *)
val load_image : t -> addr:int -> Bytes.t -> unit
