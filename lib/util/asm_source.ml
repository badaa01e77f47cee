(* Assembly source text, shared by the guest (x86lite) and host
   (alphalite) assemblers: located errors, comments, label definitions
   and uses, branch targets, and the single-instruction and whole-program
   drivers. Each ISA supplies only its instruction grammar. *)

module C = Cursor

type error = { line : int; col : int; msg : string }

let pp_error fmt { line; col; msg } = Format.fprintf fmt "line %d, column %d: %s" line col msg

type syntax = { hash_comments : bool; max_target : int }

type 'i item = Insn of 'i | Label_use of string * int * (int -> 'i)

let find name_of all name = Array.find_opt (fun x -> name_of x = name) all

let branch syntax c mk =
  C.skip_ws c;
  let start = C.col c in
  if C.at_number c then begin
    let v = C.number c in
    if v < 0 || v > syntax.max_target then C.error start "branch target %d out of range" v;
    Insn (mk v)
  end
  else
    match C.peek c with
    | Some ch when C.is_ident_start ch -> Label_use (C.ident c, start, mk)
    | _ -> C.error start "expected a label or an absolute target"

let strip_comment syntax line =
  let n = String.length line in
  let rec cut i =
    if i >= n then line
    else
      match line.[i] with
      | ';' -> String.sub line 0 i
      | '#' when syntax.hash_comments -> String.sub line 0 i
      | '/' when i + 1 < n && line.[i + 1] = '/' -> String.sub line 0 i
      | _ -> cut (i + 1)
  in
  cut 0

let is_blank s = String.for_all (fun ch -> ch = ' ' || ch = '\t' || ch = '\r') s

let fail line col fmt = Printf.ksprintf (fun msg -> Error { line; col; msg }) fmt

let insn syntax body text =
  let text = strip_comment syntax text in
  if is_blank text then fail 1 1 "expected an instruction"
  else
    let c = C.make text in
    try
      match body c with
      | Insn i ->
        C.finish c;
        Ok i
      | Label_use (l, col, _) -> fail 1 col "label %S cannot be resolved outside a program" l
    with C.Error (col, msg) -> Error { line = 1; col; msg }

(* Leading `name:` definitions, each handed to [define]; returns a cursor
   at the rest of the line, or [None] if nothing follows them. An
   identifier without ':' is a mnemonic: the cursor cannot rewind, so the
   line is re-lexed up to its column. *)
let rec labels c text define =
  C.skip_ws c;
  match C.peek c with
  | Some ch when C.is_ident_start ch ->
    let start = C.col c in
    let name = C.ident c in
    if C.eat c ':' then begin
      define start name;
      labels c text define
    end
    else begin
      let c = C.make text in
      while C.col c < start do
        C.advance c
      done;
      Some c
    end
  | Some _ -> Some c
  | None -> None

let program syntax ?(define = fun _ _ -> ()) body text =
  let defined : (string, int * int) Hashtbl.t = Hashtbl.create 16 (* name -> line, index *) in
  let items = ref [] (* reversed *) and count = ref 0 in
  let uses = ref [] (* reversed: name, line, column *) in
  let exception Stop of error in
  let stop line col fmt = Printf.ksprintf (fun msg -> raise (Stop { line; col; msg })) fmt in
  let lines = String.split_on_char '\n' text in
  try
    List.iteri
      (fun i raw ->
        let line = i + 1 in
        let text = strip_comment syntax raw in
        let def col name =
          (match Hashtbl.find_opt defined name with
          | Some (dl, _) -> C.error col "label %S already defined on line %d" name dl
          | None -> ());
          define col name;
          Hashtbl.replace defined name (line, !count)
        in
        let add item =
          (match item with
          | Label_use (l, col, _) -> uses := (l, line, col) :: !uses
          | Insn _ -> ());
          items := item :: !items;
          incr count
        in
        if not (is_blank text) then
          try
            match labels (C.make text) text def with
            | None -> ()
            | Some c ->
              let item = body c in
              C.finish c;
              Option.iter add item
          with C.Error (col, msg) -> stop line col "%s" msg)
      lines;
    List.iter
      (fun (l, line, col) ->
        if not (Hashtbl.mem defined l) then stop line col "undefined label %S" l)
      (List.rev !uses);
    if !count = 0 then stop (max 1 (List.length lines)) 1 "program has no instructions";
    Ok (Array.of_list (List.rev !items), fun l -> snd (Hashtbl.find defined l))
  with Stop e -> Error e
