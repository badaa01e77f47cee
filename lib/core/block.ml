(* Guest basic-block discovery.

   DigitalBridge executes and translates at basic-block granularity
   (Section V-B); a block runs from a join-free entry point to the first
   control transfer. Instructions are decoded straight out of simulated
   memory, where the encoded guest image was loaded. *)

module G = Mda_guest

type t = {
  start : int; (* guest address of the first instruction *)
  insns : G.Isa.insn array;
  addrs : int array; (* guest address of each instruction *)
  next : int; (* guest address immediately after the block *)
}

type error =
  | Decode_failed of G.Decode.error
  | Too_long of { start : int; limit : int }

let pp_error fmt = function
  | Decode_failed e -> G.Decode.pp_error fmt e
  | Too_long { start; limit } ->
    Format.fprintf fmt "block at %#x exceeds %d instructions without a branch" start
      limit

(* Instructions are decoded straight from the page holding them, in
   page-relative positions. An encoding that runs into the end of a page
   that is not the end of memory is redecoded from a small copied window
   spanning the boundary ([window] exceeds the longest x86lite encoding,
   15 bytes). Addresses and error offsets come out absolute. *)
let window = 32

let truncated pos =
  Error (Decode_failed { G.Decode.offset = pos; reason = "truncated instruction" })

let decode_window mem pos =
  let n = min window (Mda_machine.Memory.size mem - pos) in
  let w = Bytes.init n (fun i -> Char.chr (Mda_machine.Memory.read_u8 mem (pos + i))) in
  match G.Decode.decode w ~pos:0 with
  | Ok (insn, next) -> Ok (insn, pos + next)
  | Error e -> Error { e with G.Decode.offset = pos }

let found pc acc_i acc_a next =
  Ok
    { start = pc;
      insns = Array.of_list (List.rev acc_i);
      addrs = Array.of_list (List.rev acc_a);
      next }

(* [discover mem ~pc] decodes the basic block starting at guest address
   [pc]. [max_insns] guards against runaway decoding through data. *)
let discover ?(max_insns = 4096) mem ~pc =
  let size = Mda_machine.Memory.size mem in
  (* decode on from offset [off] of [page], which holds guest bytes
     [base, base + Bytes.length page) *)
  let rec scan page base off acc_i acc_a n =
    let limit = Bytes.length page in
    if n >= max_insns then Error (Too_long { start = pc; limit = max_insns })
    else if off >= limit then
      if base + off >= size then truncated (base + off) else enter (base + off) acc_i acc_a n
    else
      match G.Decode.decode page ~pos:off with
      | Ok (insn, next) ->
        let acc_i = insn :: acc_i and acc_a = (base + off) :: acc_a in
        if G.Isa.is_block_end insn then found pc acc_i acc_a (base + next)
        else scan page base next acc_i acc_a (n + 1)
      | Error e when off + window <= limit || base + limit >= size ->
        Error (Decode_failed { e with G.Decode.offset = base + off })
      | Error _ -> (
        match decode_window mem (base + off) with
        | Error e -> Error (Decode_failed e)
        | Ok (insn, next) ->
          let acc_i = insn :: acc_i and acc_a = (base + off) :: acc_a in
          if G.Isa.is_block_end insn then found pc acc_i acc_a next
          else enter next acc_i acc_a (n + 1))
  (* go on at guest address [pos], inside memory, from its page *)
  and enter pos acc_i acc_a n =
    let off = pos land (Mda_machine.Memory.page_size - 1) in
    scan (Mda_machine.Memory.page_at mem pos) (pos - off) off acc_i acc_a n
  in
  if pc < 0 || pc >= size then truncated pc else enter pc [] [] 0

let length t = Array.length t.insns

(* Guest address of the instruction following instruction [i] — the
   return address for a call ending the block, or the fall-through of a
   conditional branch. *)
let addr_after t i = if i + 1 < Array.length t.addrs then t.addrs.(i + 1) else t.next

(* Static memory-reference instructions of the block, with their guest
   addresses: what the profiler keys on. *)
let mem_sites t =
  let out = ref [] in
  Array.iteri
    (fun i insn ->
      match G.Isa.memory_access insn with
      | Some (kind, size) -> out := (t.addrs.(i), kind, size) :: !out
      | None -> ())
    t.insns;
  List.rev !out
