(** Persistent content-addressed result cache: one inspectable text file
    per computed {!Cell}, keyed by a digest of the cell's canonical
    description plus a code-version stamp (digest of the running
    executable). Corrupted, truncated or stale entries degrade to a
    miss; unwritable directories degrade to a cache that never hits. *)

type t

val default_dir : string
(** ["_mdabench_cache"] *)

(** Open (creating the directory if needed) a cache rooted at [dir]. *)
val create : ?dir:string -> unit -> t

(** The cell's content address (hex digest, includes the code-version
    stamp). *)
val key : Cell.t -> string

val path : t -> Cell.t -> string

val find : t -> Cell.t -> Cell.result option

(** Atomic (temp file + rename); write failures are swallowed — a cache
    that cannot be written is a slow cache, not an error. *)
val store : t -> Cell.t -> Cell.result -> unit

(** Serialization, exposed for the cache tests. [of_string] returns
    [Error] — never an escaping exception — on any malformed input:
    truncation, garbled values, a stale header, or another cell's
    entry. *)

val to_string : Cell.t -> Cell.result -> string

val of_string : Cell.t -> string -> (Cell.result, string) result
