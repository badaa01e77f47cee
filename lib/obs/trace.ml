(* Structured tracing over the runtime's [on_event] hook.

   A sink timestamps every BT event with the *simulated* cycle counter
   (never wall clock), so a trace is a deterministic, replayable record
   of a run. Sinks are either unbounded (for files and replay, where
   completeness is an invariant) or bounded rings (for always-on
   flight-recorder use, where memory is; the drop count is kept).

   The JSONL surface is versioned and stable: one flat JSON object per
   line, integer and string values only, with a "t" discriminator —
   "header" (schema version, run identity), "ev" (one event: "c" =
   cycle timestamp, "k" = kind, then the event's fields under the names
   of the runtime constructors), and "end" (the run's final
   {!Mda_bt.Run_stats} as its stable key=value pairs). Replaying a
   trace reconstructs the run's [Run_stats.t] exactly: the
   event-derived counters (translations, retranslations,
   rearrangements, chains, patches, traps) are recomputed from the
   event lines and must agree with the recorded footer — which turns
   the event stream itself into a tested invariant. *)

module Bt = Mda_bt
module Machine = Mda_machine

(* v2 added the fault-injection event kinds (evict, patch-fault,
   degrade) and the matching Run_stats footer fields. v3 adds the
   optional session tag ("s") on event lines, stamped by the serving
   layer's scheduler so one trace can interleave many sessions; the
   cycle stamp of a tagged event reads that session's own simulated
   clock. Older traces are rejected with a regenerate message, never
   half-read. *)
let schema_version = 3

type record = { cycles : int64; sid : int option; ev : Bt.Runtime.event }

(* --- sink --------------------------------------------------------------- *)

type t = {
  capacity : int option; (* None = unbounded *)
  q : record Queue.t;
  mutable dropped : int;
  mutable clock : unit -> int64;
  mutable tag : int option; (* session id stamped on subsequent events *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | _ -> ());
  { capacity; q = Queue.create (); dropped = 0; clock = (fun () -> 0L); tag = None }

let set_clock t clock = t.clock <- clock

let set_tag t sid = t.tag <- sid

let attach t (rt : Bt.Runtime.t) = set_clock t (fun () -> Machine.Cpu.now rt.Bt.Runtime.cpu)

let push t ev =
  (match t.capacity with
  | Some c when Queue.length t.q >= c ->
    ignore (Queue.pop t.q);
    t.dropped <- t.dropped + 1
  | _ -> ());
  Queue.push { cycles = t.clock (); sid = t.tag; ev } t.q

(* The [config.on_event] hook for this sink. *)
let hook t = push t

let records t = List.of_seq (Queue.to_seq t.q)

let length t = Queue.length t.q

let dropped t = t.dropped

(* --- JSON encoding ------------------------------------------------------ *)

(* Minimal writer/parser for the flat objects of this schema: string
   keys, integer or string values, no nesting. Hand-rolled so the
   library adds no dependency the container might lack. *)

let json_escape b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

type jvalue = Jint of int64 | Jstr of string

let obj_to_string fields =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      json_escape b k;
      Buffer.add_string b "\":";
      match v with
      | Jint n -> Buffer.add_string b (Int64.to_string n)
      | Jstr s ->
        Buffer.add_char b '"';
        json_escape b s;
        Buffer.add_char b '"')
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

exception Parse_error of string

let parse_obj line =
  let n = String.length line in
  let pos = ref 0 in
  let bad msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () = while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done in
  let expect c =
    skip_ws ();
    if !pos >= n || line.[!pos] <> c then bad (Printf.sprintf "expected %C" c);
    incr pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      match line.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        if !pos + 1 >= n then bad "truncated escape";
        (match line.[!pos + 1] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          if !pos + 5 >= n then bad "truncated \\u escape";
          let code =
            try int_of_string ("0x" ^ String.sub line (!pos + 2) 4)
            with Failure _ -> bad "malformed \\u escape"
          in
          if code > 0xff then bad "non-latin \\u escape unsupported";
          Buffer.add_char b (Char.chr code);
          pos := !pos + 4
        | c -> bad (Printf.sprintf "unknown escape \\%c" c));
        pos := !pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_int () =
    let start = !pos in
    if !pos < n && line.[!pos] = '-' then incr pos;
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do incr pos done;
    if !pos = start then bad "expected a value";
    match Int64.of_string_opt (String.sub line start (!pos - start)) with
    | Some v -> v
    | None -> bad "malformed integer"
  in
  expect '{';
  skip_ws ();
  let fields = ref [] in
  if !pos < n && line.[!pos] = '}' then incr pos
  else begin
    let rec go () =
      let k = (skip_ws (); parse_string ()) in
      expect ':';
      skip_ws ();
      let v = if !pos < n && line.[!pos] = '"' then Jstr (parse_string ()) else Jint (parse_int ()) in
      fields := (k, v) :: !fields;
      skip_ws ();
      if !pos < n && line.[!pos] = ',' then begin incr pos; go () end
      else expect '}'
    in
    go ()
  end;
  skip_ws ();
  if !pos <> n then bad "trailing input";
  List.rev !fields

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" k))

let ifield fields k =
  match field fields k with
  | Jint v -> Int64.to_int v
  | Jstr _ -> raise (Parse_error (Printf.sprintf "field %S: expected integer" k))

let sfield fields k =
  match field fields k with
  | Jstr v -> v
  | Jint _ -> raise (Parse_error (Printf.sprintf "field %S: expected string" k))

(* --- event <-> JSON ----------------------------------------------------- *)

let event_fields (ev : Bt.Runtime.event) =
  match ev with
  | Ev_translate { block; entry; host_len } ->
    [ ("block", block); ("entry", entry); ("host_len", host_len) ]
  | Ev_trap { host_pc; guest_addr; ea } ->
    [ ("host_pc", host_pc); ("guest_addr", guest_addr); ("ea", ea) ]
  | Ev_patch { host_pc; guest_addr; seq_at } ->
    [ ("host_pc", host_pc); ("guest_addr", guest_addr); ("seq_at", seq_at) ]
  | Ev_os_fixup { host_pc; guest_addr; ea } ->
    [ ("host_pc", host_pc); ("guest_addr", guest_addr); ("ea", ea) ]
  | Ev_chain { at; target_block } -> [ ("at", at); ("target_block", target_block) ]
  | Ev_rearrange { block; entry } -> [ ("block", block); ("entry", entry) ]
  | Ev_retranslate { block } -> [ ("block", block) ]
  | Ev_evict { block; freed } -> [ ("block", block); ("freed", freed) ]
  | Ev_patch_fault { host_pc; guest_addr; attempt } ->
    [ ("host_pc", host_pc); ("guest_addr", guest_addr); ("attempt", attempt) ]
  | Ev_degrade { guest_addr; attempts } ->
    [ ("guest_addr", guest_addr); ("attempts", attempts) ]

let record_to_json { cycles; sid; ev } =
  obj_to_string
    (("t", Jstr "ev") :: ("c", Jint cycles)
    :: ((match sid with Some s -> [ ("s", Jint (Int64.of_int s)) ] | None -> [])
       @ ("k", Jstr (Bt.Runtime.event_kind ev))
         :: List.map (fun (k, v) -> (k, Jint (Int64.of_int v))) (event_fields ev)))

let event_of_fields fields : Bt.Runtime.event =
  let i = ifield fields in
  match sfield fields "k" with
  | "translate" ->
    Ev_translate { block = i "block"; entry = i "entry"; host_len = i "host_len" }
  | "trap" -> Ev_trap { host_pc = i "host_pc"; guest_addr = i "guest_addr"; ea = i "ea" }
  | "patch" ->
    Ev_patch { host_pc = i "host_pc"; guest_addr = i "guest_addr"; seq_at = i "seq_at" }
  | "os-fixup" ->
    Ev_os_fixup { host_pc = i "host_pc"; guest_addr = i "guest_addr"; ea = i "ea" }
  | "chain" -> Ev_chain { at = i "at"; target_block = i "target_block" }
  | "rearrange" -> Ev_rearrange { block = i "block"; entry = i "entry" }
  | "retranslate" -> Ev_retranslate { block = i "block" }
  | "evict" -> Ev_evict { block = i "block"; freed = i "freed" }
  | "patch-fault" ->
    Ev_patch_fault { host_pc = i "host_pc"; guest_addr = i "guest_addr"; attempt = i "attempt" }
  | "degrade" -> Ev_degrade { guest_addr = i "guest_addr"; attempts = i "attempts" }
  | k -> raise (Parse_error (Printf.sprintf "unknown event kind %S" k))

let record_of_fields fields =
  { cycles = (match field fields "c" with
             | Jint v -> v
             | Jstr _ -> raise (Parse_error "field \"c\": expected integer"));
    sid =
      (match List.assoc_opt "s" fields with
      | None -> None
      | Some (Jint v) -> Some (Int64.to_int v)
      | Some (Jstr _) -> raise (Parse_error "field \"s\": expected integer"));
    ev = event_of_fields fields }

(* --- whole-trace serialization ------------------------------------------ *)

type file = {
  version : int;
  mechanism : string;
  bench : string;
  scale : string; (* lossless %h rendering, kept as text *)
  events : record list;
  stats : Bt.Run_stats.t;
}

let header_json ~mechanism ~bench ~scale ~events ~dropped =
  obj_to_string
    [ ("t", Jstr "header");
      ("schema", Jstr "mdabench-trace");
      ("version", Jint (Int64.of_int schema_version));
      ("mechanism", Jstr mechanism);
      ("bench", Jstr bench);
      ("scale", Jstr (Printf.sprintf "%h" scale));
      ("events", Jint (Int64.of_int events));
      ("dropped", Jint (Int64.of_int dropped)) ]

let footer_json stats =
  obj_to_string (("t", Jstr "end") :: List.map (fun (k, v) -> (k, Jstr v)) (Bt.Run_stats.to_kv stats))

let to_jsonl ~mechanism ~bench ~scale ~stats t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (header_json ~mechanism ~bench ~scale ~events:(length t) ~dropped:t.dropped);
  Buffer.add_char b '\n';
  Queue.iter
    (fun r ->
      Buffer.add_string b (record_to_json r);
      Buffer.add_char b '\n')
    t.q;
  Buffer.add_string b (footer_json stats);
  Buffer.add_char b '\n';
  Buffer.contents b

let of_jsonl text =
  try
    let lines =
      String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
    in
    match lines with
    | [] -> Error "empty trace"
    | header :: rest ->
      let hf = parse_obj header in
      if sfield hf "t" <> "header" then raise (Parse_error "first line is not a header");
      if sfield hf "schema" <> "mdabench-trace" then raise (Parse_error "not an mdabench trace");
      let version = ifield hf "version" in
      if version <> schema_version then
        raise
          (Parse_error
             (Printf.sprintf
                "unsupported schema version %d (this build reads v%d); regenerate the \
                 trace with this mdabench"
                version schema_version));
      if ifield hf "dropped" <> 0 then
        raise (Parse_error "trace is incomplete (ring buffer dropped events)");
      let rec go acc = function
        | [] -> raise (Parse_error "missing end line")
        | [ last ] ->
          let ff = parse_obj last in
          if sfield ff "t" <> "end" then raise (Parse_error "last line is not the end record");
          let kvs =
            List.filter_map
              (fun (k, v) ->
                match (k, v) with "t", _ -> None | k, Jstr s -> Some (k, s) | _, Jint _ -> None)
              ff
          in
          let stats =
            match Bt.Run_stats.of_kv kvs with
            | Ok s -> s
            | Error e -> raise (Parse_error ("end record: " ^ e))
          in
          (List.rev acc, stats)
        | line :: rest ->
          let f = parse_obj line in
          if sfield f "t" <> "ev" then raise (Parse_error "expected an event line");
          go (record_of_fields f :: acc) rest
      in
      let events, stats = go [] rest in
      if ifield hf "events" <> List.length events then
        raise (Parse_error "event count disagrees with header");
      Ok
        { version;
          mechanism = sfield hf "mechanism";
          bench = sfield hf "bench";
          scale = sfield hf "scale";
          events;
          stats }
  with Parse_error e -> Error e

(* --- replay ------------------------------------------------------------- *)

(* The footer fields the event stream determines, each with the events
   it counts. *)
let derived_fields =
  let open Bt.Runtime in
  List.map
    (fun (name, p) -> (Bt.Run_stats.field name, p))
    [ ("translations", function Ev_translate _ -> true | _ -> false);
      ("retranslations", function Ev_retranslate _ -> true | _ -> false);
      ("rearrangements", function Ev_rearrange _ -> true | _ -> false);
      ("chains", function Ev_chain _ -> true | _ -> false);
      ("patches", function Ev_patch _ -> true | _ -> false);
      ("evictions", function Ev_evict _ -> true | _ -> false);
      ("patch_faults", function Ev_patch_fault _ -> true | _ -> false);
      ("degraded", function Ev_degrade _ -> true | _ -> false);
      ("traps", function Ev_trap _ | Ev_os_fixup _ -> true | _ -> false) ]

(* Check the run's [Run_stats.t] against the trace: every counter the
   event stream determines is recounted from the events; everything else
   (cycle totals, instruction counts, cache geometry) is the footer's.
   The recount must agree with the recorded stats exactly, or the trace
   does not describe the run it claims to. *)
let replay (f : file) =
  let diffs =
    List.filter_map
      (fun ((stat : Bt.Run_stats.field), p) ->
        let got = List.length (List.filter (fun r -> p r.ev) f.events) in
        let want = stat.get f.stats in
        if Int64.of_int got = want then None
        else Some (Printf.sprintf "%s: events say %d, stats say %Ld" stat.name got want))
      derived_fields
  in
  if diffs = [] then Ok f.stats
  else Error ("replay mismatch: " ^ String.concat "; " diffs)

(* --- filtering ---------------------------------------------------------- *)

let kind_names =
  [ "translate"; "trap"; "patch"; "os-fixup"; "chain"; "rearrange"; "retranslate";
    "evict"; "patch-fault"; "degrade" ]

let filter kinds records =
  List.filter (fun r -> List.mem (Bt.Runtime.event_kind r.ev) kinds) records

let pp_record fmt { cycles; sid; ev } =
  match sid with
  | None -> Format.fprintf fmt "%12Ld  %a" cycles Bt.Runtime.pp_event ev
  | Some s -> Format.fprintf fmt "%12Ld  s%-4d %a" cycles s Bt.Runtime.pp_event ev
