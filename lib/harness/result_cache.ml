(* Persistent content-addressed result cache.

   One file per cell under the cache directory (default
   [_mdabench_cache/]), named by the MD5 digest of the cell's canonical
   description plus a code-version stamp (a digest of the running
   executable), so results survive across invocations but never across a
   code change that could alter them.

   The on-disk format is the stable key=value text of
   {!Mda_bt.Run_stats} plus the profile-site dump — deliberately not
   [Marshal], so entries are inspectable and a format mismatch degrades
   to a miss. Any read problem whatsoever (truncation, corruption, stale
   header, unparsable field) makes [find] return [None] and the cell is
   recomputed; writes go through a temp file + rename so a crashed run
   never leaves a half-written entry under its final name. *)

module Bt = Mda_bt

let default_dir = "_mdabench_cache"

type t = { dir : string }

let header = Printf.sprintf "mdabench-cache v%d" Bt.Run_stats.format_version

(* Code-version stamp: any rebuild that changes the binary invalidates
   every entry it would otherwise reuse. *)
let version_stamp =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with _ -> "unversioned")

let create ?(dir = default_dir) () =
  (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  { dir }

let key cell =
  Digest.to_hex
    (Digest.string (Cell.describe cell ^ "\n" ^ Lazy.force version_stamp))

let path t cell = Filename.concat t.dir (key cell ^ ".cell")

(* --- serialization ----------------------------------------------------- *)

let to_string cell (r : Cell.result) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf ("cell " ^ Cell.describe cell ^ "\n");
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%s\n" k v))
    (Bt.Run_stats.to_kv r.Cell.stats);
  Buffer.add_string buf (Printf.sprintf "sites %d\n" (Array.length r.Cell.sites));
  Array.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "%d %d %d\n" s.Cell.addr s.refs s.mdas))
    r.Cell.sites;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* Pure-result parser: every way an entry can be bad — truncation,
   garbled values, a stale header, a different cell's entry under a
   colliding name — is an [Error], never an escaping exception.
   [find] used to paper over this with [with _ -> None], which also
   swallowed genuinely unexpected exceptions; now only the named I/O
   failures are mapped to a miss. *)
let of_string cell text =
  let ( let* ) = Result.bind in
  let expect what = Error ("expected " ^ what) in
  let lines = String.split_on_char '\n' text in
  match lines with
  | h :: c :: rest ->
    if h <> header then expect "header"
    else if c <> "cell " ^ Cell.describe cell then expect "matching cell description"
    else
      let rec split_kv acc = function
        | [] -> expect "sites line"
        | line :: rest ->
          (match String.index_opt line '=' with
          | Some i ->
            split_kv
              ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
              :: acc)
              rest
          | None -> Ok (List.rev acc, line :: rest))
      in
      let* kvs, rest = split_kv [] rest in
      let* stats = Bt.Run_stats.of_kv kvs in
      let* nsites, rest =
        match rest with
        | line :: rest when String.length line > 6 && String.sub line 0 6 = "sites " -> (
          match int_of_string_opt (String.sub line 6 (String.length line - 6)) with
          | Some n when n >= 0 -> Ok (n, rest)
          | _ -> expect "site count")
        | _ -> expect "sites line"
      in
      let sites = Array.make nsites { Cell.addr = 0; refs = 0; mdas = 0 } in
      let rec read_sites i = function
        | rest when i = nsites -> Ok rest
        | line :: rest -> (
          match
            match String.split_on_char ' ' line with
            | [ a; r; m ] -> (
              match (int_of_string_opt a, int_of_string_opt r, int_of_string_opt m) with
              | Some addr, Some refs, Some mdas -> Some { Cell.addr; refs; mdas }
              | _ -> None)
            | _ -> None
          with
          | Some s ->
            sites.(i) <- s;
            read_sites (i + 1) rest
          | None -> expect "site triple")
        | [] -> expect "site triple"
      in
      let* rest = read_sites 0 rest in
      (match rest with
      | "end" :: _ -> Ok { Cell.stats; sites }
      | _ -> expect "end marker")
  | _ -> expect "header"

(* --- store / find ------------------------------------------------------ *)

(* Advisory lock serializing writers across processes: two concurrent
   mdabench invocations storing into the same directory take turns, so
   the tmp-write + rename of one entry can never interleave with (or
   clobber the tmp file of) another writer's. Readers never lock — the
   rename is atomic, so [find] sees either the old entry or the new one,
   and any torn state degrades to a miss. The lock lives in a dedicated
   [.lock] file so locking never touches entry files themselves. *)

let lock_attempts = 8
let lock_backoff_cap = 0.05 (* seconds *)

(* Contention and signal interruptions are transient: retry a
   non-blocking acquisition with exponential backoff (1ms doubling,
   capped at [lock_backoff_cap]) before falling back to one blocking
   acquisition that out-waits any well-behaved sibling writer. A single
   blocking [F_LOCK] used to be the whole story, and one EINTR — e.g. a
   pool worker's SIGCHLD arriving while the parent stores — made the
   writer silently proceed unlocked, able to interleave with the lock
   holder. Only a non-transient failure (an unlockable filesystem)
   still degrades to an unlocked write: a slow cache, not an error. *)
let acquire_lock fd =
  let sleep d = try ignore (Unix.select [] [] [] d) with Unix.Unix_error _ -> () in
  let rec blocking retries =
    match Unix.lockf fd Unix.F_LOCK 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) when retries > 0 ->
      blocking (retries - 1)
    | exception Unix.Unix_error _ -> false
  in
  let rec attempt n delay =
    if n >= lock_attempts then blocking lock_attempts
    else
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES | Unix.EINTR), _, _) ->
        sleep delay;
        attempt (n + 1) (Float.min (delay *. 2.) lock_backoff_cap)
      | exception Unix.Unix_error _ -> false
  in
  attempt 0 0.001

let with_write_lock t f =
  let lock_path = Filename.concat t.dir ".lock" in
  match Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error _ -> f () (* unlockable dir: still try the write *)
  | fd ->
    let locked = acquire_lock fd in
    Fun.protect
      ~finally:(fun () ->
        (try if locked then Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      f

let store t cell r =
  try
    with_write_lock t @@ fun () ->
    let final = path t cell in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ()) (Hashtbl.hash (Sys.time ()))
    in
    let oc = open_out tmp in
    output_string oc (to_string cell r);
    close_out oc;
    Sys.rename tmp final
  with Sys_error _ | Unix.Unix_error _ -> ()
(* a cache that cannot be written is a slow cache, not an error *)

let find t cell =
  let file = path t cell in
  match
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    of_string cell text
  with
  | Ok r -> Some r
  | Error _ -> None (* corrupt/stale entry: recompute *)
  | exception (Sys_error _ | End_of_file | Unix.Unix_error _) -> None
