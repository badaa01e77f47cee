(** Binary decoder for x86lite; inverse of {!Encode}.

    The translator decodes instructions directly out of simulated guest
    memory when discovering basic blocks, so errors are values carrying
    the faulting offset. *)

type error = { offset : int; reason : string }

val pp_error : Format.formatter -> error -> unit

(** [decode bytes ~pos] decodes the instruction at byte position [pos];
    on success returns it with the position just past it. *)
val decode : Bytes.t -> pos:int -> (Isa.insn * int, error) result

(** Decode a whole image into [(offset, instruction)] pairs. *)
val decode_all : Bytes.t -> ((int * Isa.insn) list, error) result
