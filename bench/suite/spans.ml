(* In-memory spans for the traced runs: (name, start, end, parent),
   recorded by the suite around its calls into each layer and reduced to
   per-name self-times once the traced pass ends. A span's self-time is
   its duration minus the durations of its direct children. Storage is
   flat int arrays (nanoseconds, name ids, parent indices), so recording
   allocates only when the arrays grow. *)

type t = {
  mutable names : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable len : int;
  mutable open_ : int;  (* innermost open span, -1 at top level *)
  labels : (string, int) Hashtbl.t;
  mutable label_list : string list;  (* by id, newest first *)
}

let create () =
  let cap = 1024 in
  { names = Array.make cap 0;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    parents = Array.make cap (-1);
    len = 0;
    open_ = -1;
    labels = Hashtbl.create 16;
    label_list = [] }

let label t name =
  match Hashtbl.find_opt t.labels name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.labels in
    Hashtbl.add t.labels name id;
    t.label_list <- name :: t.label_list;
    id

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names 0;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1)

(* A finished span under [parent]; returns its index. *)
let add t ~name ~start ~stop ~parent =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.parents.(i) <- parent;
  t.len <- i + 1;
  i

(* Open a span under the innermost open one; [leave] closes it. *)
let enter t name =
  let i = add t ~name ~start:(Measure.now_ns ()) ~stop:0 ~parent:t.open_ in
  t.open_ <- i;
  i

let leave t i =
  t.stops.(i) <- Measure.now_ns ();
  t.open_ <- t.parents.(i)

(* Rename a span once the work it covered has been classified. *)
let rename t i name = t.names.(i) <- name

let within t name f =
  let i = enter t (label t name) in
  Fun.protect ~finally:(fun () -> leave t i) f

(* Self-time in seconds summed per span name, in first-use order. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.stops.(i) - t.starts.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stops.(i) - t.starts.(i))
  done;
  let by_name = Array.make (Hashtbl.length t.labels) 0 in
  Array.iteri (fun i s -> by_name.(t.names.(i)) <- by_name.(t.names.(i)) + s) self;
  List.rev_map
    (fun name -> (name, float_of_int by_name.(Hashtbl.find t.labels name) /. 1e9))
    t.label_list

(* Number of spans recorded under [name]. *)
let count t name =
  match Hashtbl.find_opt t.labels name with
  | None -> 0
  | Some id ->
    let n = ref 0 in
    for i = 0 to t.len - 1 do
      if t.names.(i) = id then incr n
    done;
    !n
