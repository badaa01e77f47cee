(* The suite's one result schema (versioned), its reader, the
   BENCHMARK.json reader, and the comparison of two result files
   against the bounds BENCHMARK.json fixes. *)

let version = 1

let schema_id = "mda-bench-suite"

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Ok Lower
  | "higher" -> Ok Higher
  | s -> Error ("unknown direction " ^ s)

(* A metric name as BENCHMARK.json allows it: a letter or digit, then
   at most 63 more of [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

(* What a metric is, independent of any measurement. *)
type decl = { name : string; unit : string; better : better }

type metric = { decl : decl; stat : Measure.stat }

(* The end-to-end metrics every workload reports. *)
let setup_s = { name = "setup_s"; unit = "s"; better = Lower }

let wall_s = { name = "wall_s"; unit = "s"; better = Lower }

let ops_per_s = { name = "ops_per_s"; unit = "1/s"; better = Higher }

let peak_heap_mb = { name = "peak_heap_mb"; unit = "MiB"; better = Lower }

let end_to_end = [ setup_s; wall_s; ops_per_s; peak_heap_mb ]

type workload_result = {
  workload : string;
  attempted : int;
  failed : int;
  problems : string list;  (** one line per failed check, first few only *)
  end_to_end : metric list;
  per_layer : metric list;
}

type t = { seed : int; seconds : float; trace : bool; workloads : workload_result list }

let fail_frac w = if w.attempted = 0 then 1. else float_of_int w.failed /. float_of_int w.attempted

let find_metric name ms = List.find_opt (fun m -> m.decl.name = name) ms

(* --- writer ------------------------------------------------------------- *)

let metric_json m =
  let s = m.stat in
  ( m.decl.name,
    Json.Object
      [ ("unit", Json.String m.decl.unit);
        ("better", Json.String (better_to_string m.decl.better));
        ("median", Json.Number s.Measure.median);
        ("q1", Json.Number s.Measure.q1);
        ("q3", Json.Number s.Measure.q3);
        ("samples", Json.Number (float_of_int s.Measure.samples)) ] )

let workload_json w =
  Json.Object
    [ ("name", Json.String w.workload);
      ("attempted", Json.Number (float_of_int w.attempted));
      ("failed", Json.Number (float_of_int w.failed));
      ("fail_frac", Json.Number (fail_frac w));
      ("problems", Json.Array (List.map (fun p -> Json.String p) w.problems));
      ("end_to_end", Json.Object (List.map metric_json w.end_to_end));
      ("per_layer", Json.Object (List.map metric_json w.per_layer)) ]

let to_json r =
  Json.Object
    [ ("schema", Json.String schema_id);
      ("version", Json.Number (float_of_int version));
      ("seed", Json.Number (float_of_int r.seed));
      ("seconds", Json.Number r.seconds);
      ("trace", Json.Bool r.trace);
      ("workloads", Json.Array (List.map workload_json r.workloads)) ]

let to_string r = Json.to_string ~indent:true (to_json r) ^ "\n"

(* --- reader ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let field k j =
  match Json.member k j with Some v -> Ok v | None -> Error ("missing field " ^ k)

let num k j =
  match field k j with Ok (Json.Number f) -> Ok f | Ok _ -> Error (k ^ ": not a number") | Error e -> Error e

let str k j =
  match field k j with Ok (Json.String s) -> Ok s | Ok _ -> Error (k ^ ": not a string") | Error e -> Error e

let int_field k j =
  let* f = num k j in
  if Float.is_integer f then Ok (int_of_float f) else Error (k ^ ": not an integer")

let all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let metric_of_json (name, j) =
  let* unit = str "unit" j in
  let* b = str "better" j in
  let* better = better_of_string b in
  let* median = num "median" j in
  let* q1 = num "q1" j in
  let* q3 = num "q3" j in
  let* samples = int_field "samples" j in
  if not (valid_name name) then Error ("invalid metric name " ^ name)
  else Ok { decl = { name; unit; better }; stat = { Measure.median; q1; q3; samples } }

let metrics_of k j =
  match field k j with
  | Ok (Json.Object kvs) -> all metric_of_json kvs
  | Ok _ -> Error (k ^ ": not an object")
  | Error e -> Error e

let workload_of_json j =
  let* workload = str "name" j in
  let* attempted = int_field "attempted" j in
  let* failed = int_field "failed" j in
  let* problems =
    match field "problems" j with
    | Ok (Json.Array l) ->
      all (function Json.String s -> Ok s | _ -> Error "problems: not a string") l
    | Ok _ -> Error "problems: not an array"
    | Error e -> Error e
  in
  let* end_to_end = metrics_of "end_to_end" j in
  let* per_layer = metrics_of "per_layer" j in
  Ok { workload; attempted; failed; problems; end_to_end; per_layer }

let of_string s =
  let* j = Json.of_string s in
  let* id = str "schema" j in
  let* v = int_field "version" j in
  if id <> schema_id then Error ("not a " ^ schema_id ^ " result")
  else if v <> version then
    Error (Printf.sprintf "result schema version %d, this reader knows %d" v version)
  else
    let* seed = int_field "seed" j in
    let* seconds = num "seconds" j in
    let* trace =
      match field "trace" j with
      | Ok (Json.Bool b) -> Ok b
      | Ok _ -> Error "trace: not a boolean"
      | Error e -> Error e
    in
    let* workloads =
      match field "workloads" j with
      | Ok (Json.Array l) -> all workload_of_json l
      | Ok _ -> Error "workloads: not an array"
      | Error e -> Error e
    in
    Ok { seed; seconds; trace; workloads }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

let load path =
  let* s = read_file path in
  Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)

(* --- BENCHMARK.json ----------------------------------------------------- *)

type bound_decl = { d : decl; bound : float option }

type spec = { workload_names : string list; e2e : bound_decl list; layers : bound_decl list }

let load_spec path =
  let* s = read_file path in
  let* j = Result.map_error (fun e -> path ^ ": " ^ e) (Json.of_string s) in
  let entries k =
    match field k j with
    | Ok (Json.Array l) -> Ok l
    | Ok _ -> Error (k ^ ": not an array")
    | Error e -> Error e
  in
  let decl_of j =
    let* name = str "name" j in
    let* unit = str "unit" j in
    let* b = str "better" j in
    let* better = better_of_string b in
    let bound = match num "bound" j with Ok f -> Some f | Error _ -> None in
    Ok { d = { name; unit; better }; bound }
  in
  let* ws = entries "workloads" in
  let* workloads = all (str "name") ws in
  let* e2e = entries "end_to_end" in
  let* e2e = all decl_of e2e in
  let* layers = entries "per_layer" in
  let* layers = all decl_of layers in
  Ok { workload_names = workloads; e2e; layers }

(* --- comparison --------------------------------------------------------- *)

(* How much worse [b] is than [a], as a share of [a] (negative: better). *)
let worsening better ~a ~b =
  if a = 0. then (if b = a then 0. else Float.infinity)
  else match better with Lower -> (b -. a) /. Float.abs a | Higher -> (a -. b) /. Float.abs a

(* Set-up times of a few tens of milliseconds (most of it first-touch
   page faults on fresh 8 MiB guest images) swing by more than any
   share bound between single runs, so a set-up that grew by less than
   this is never out of bound. *)
let setup_floor_s = 0.05

(* One line per (workload, end-to-end metric) and the verdict: [Ok
   lines] when every metric of [b] is within its bound of [a] (for
   [setup_s], or within [setup_floor_s]), and no workload fails a
   larger share of its checks; [Error lines] otherwise. *)
let compare ~spec a b =
  let bad = ref false in
  let lines = ref [] in
  let line fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  line "%-17s %-14s %14s %14s %8s %6s  %s" "workload" "metric" "A median" "B median" "worse"
    "bound" "verdict";
  let find r wname = List.find_opt (fun w -> w.workload = wname) r.workloads in
  let present = List.filter (fun n -> find a n <> None || find b n <> None) spec.workload_names in
  if present = [] then bad := true;
  List.iter
    (fun wname ->
      let find r = find r wname in
      match (find a, find b) with
      | None, _ | _, None ->
        bad := true;
        line "%-17s missing from %s" wname (if find a = None then "A" else "B")
      | Some wa, Some wb ->
        List.iter
          (fun { d; bound } ->
            let bound = Option.value bound ~default:0. in
            match (find_metric d.name wa.end_to_end, find_metric d.name wb.end_to_end) with
            | Some ma, Some mb ->
              let a = ma.stat.Measure.median and b = mb.stat.Measure.median in
              let w = worsening d.better ~a ~b in
              let ok = w <= bound || (d.name = setup_s.name && b -. a <= setup_floor_s) in
              if not ok then bad := true;
              line "%-17s %-14s %14.6g %14.6g %+7.1f%% %5.0f%%  %s" wname d.name a b (100. *. w)
                (100. *. bound)
                (if ok then "ok" else "OUT OF BOUND")
            | _ ->
              bad := true;
              line "%-17s %-14s missing" wname d.name)
          spec.e2e;
        let fa = fail_frac wa and fb = fail_frac wb in
        let ok = fb <= fa in
        if not ok then bad := true;
        line "%-17s %-14s %14.6g %14.6g %8s %6s  %s" wname "fail_frac" fa fb "" "0"
          (if ok then "ok" else "OUT OF BOUND"))
    present;
  let lines = List.rev !lines in
  if !bad then Error lines else Ok lines

(* --- the one-line summary a run ends with ---------------------------------- *)

(* [{"correct", "attempted", "failed", "metrics"}] over [results]. With
   [trace], every per-layer metric BENCHMARK.json lists, gathered from
   all workloads (each owns its names). Otherwise the end-to-end
   metrics: under their own names when one workload ran, and as
   [<metric>.<workload>] when several did, since each of them reports
   every end-to-end metric. A listed metric nobody measured is an
   error. *)
let summary_line ~spec ~trace results =
  let attempted = List.fold_left (fun n w -> n + w.attempted) 0 results in
  let failed = List.fold_left (fun n w -> n + w.failed) 0 results in
  (* (key in the summary, metric name, where to find it) *)
  let wanted =
    if trace then
      let pool = List.concat_map (fun w -> w.per_layer) results in
      List.map (fun { d; _ } -> (d.name, d.name, pool)) spec.layers
    else
      match results with
      | [ w ] -> List.map (fun { d; _ } -> (d.name, d.name, w.end_to_end)) spec.e2e
      | _ ->
        List.concat_map
          (fun w ->
            List.map (fun { d; _ } -> (d.name ^ "." ^ w.workload, d.name, w.end_to_end)) spec.e2e)
          results
  in
  let missing = ref [] in
  let metrics =
    List.filter_map
      (fun (key, name, pool) ->
        match find_metric name pool with
        | Some m ->
          Some
            ( key,
              Json.Object
                [ ("value", Json.Number m.stat.Measure.median); ("unit", Json.String m.decl.unit) ]
            )
        | None ->
          missing := key :: !missing;
          None)
      wanted
  in
  let line =
    Json.to_string
      (Json.Object
         [ ("correct", Json.Bool (failed = 0 && !missing = []));
           ("attempted", Json.Number (float_of_int (max 1 attempted)));
           ("failed", Json.Number (float_of_int failed));
           ("metrics", Json.Object metrics) ])
  in
  (line, List.rev !missing)
