module Rng = Mda_util.Rng
module Srv = Mda_server

type session = {
  s_tid : int;
  s_arrival : int;
  s_crash_at : int option;
  s_first_fuel : int option;
}

type t = {
  id : int;
  seed : int64;
  tenants : int;
  noisy : int list;
  storm : int option;
  sessions : session list;
  capacity : int option;
  max_live : int;
  queue_limit : int;
  slice_fuel : int;
  storm_window : int;
  storm_traps : int;
  backoff_cap : int;
  max_restarts : int;
}

let random ~rng ~id =
  let seed = Rng.next_u64 rng in
  let tenants = Rng.int_in rng 2 4 in
  let storm = if Rng.bool rng 0.5 then Some (Rng.int rng tenants) else None in
  let noisy =
    List.filter
      (fun tid -> Some tid <> storm && Rng.bool rng 0.3)
      (List.init tenants Fun.id)
  in
  let sessions =
    List.concat_map
      (fun tid ->
        List.init
          (Rng.int_in rng 1 3)
          (fun _ ->
            {
              s_tid = tid;
              s_arrival = Rng.int_in rng 0 6;
              s_crash_at =
                (if Rng.bool rng 0.25 then Some (Rng.int_in rng 3 40) else None);
              s_first_fuel =
                (if Rng.bool rng 0.15 then Some (Rng.int_in rng 30 80) else None);
            }))
      (List.init tenants Fun.id)
  in
  (* storm plans leave the cache unbounded: neighbour throughput is
     then attributable to the storm alone, which is what the battery's
     10%-of-isolated-baseline check is about. Non-storm plans usually
     bound the cache tightly enough to force noisy-neighbour eviction. *)
  let capacity =
    match storm with
    | Some _ -> None
    | None -> if Rng.bool rng 0.7 then Some (Rng.int_in rng 300 900) else None
  in
  {
    id;
    seed;
    tenants;
    noisy;
    storm;
    sessions;
    capacity;
    max_live = Rng.int_in rng 2 4;
    queue_limit = List.length sessions;
    slice_fuel = Rng.int_in rng 16 64;
    storm_window = Rng.int_in rng 4 8;
    storm_traps = Rng.int_in rng 30 80;
    backoff_cap = Rng.int_in rng 2 8;
    max_restarts = 3;
  }

let describe t =
  let cap = match t.capacity with None -> "unbounded" | Some c -> string_of_int c in
  Printf.sprintf
    "mt-plan %d seed=0x%Lx tenants=%d%s%s sessions=%d cap=%s live=%d slice=%d storm>%d/%dr backoff<=%d"
    t.id t.seed t.tenants
    (match t.storm with None -> "" | Some s -> Printf.sprintf " storm=t%d" s)
    (match t.noisy with
    | [] -> ""
    | l -> " noisy=" ^ String.concat "," (List.map (fun i -> "t" ^ string_of_int i) l))
    (List.length t.sessions)
    cap t.max_live t.slice_fuel t.storm_traps t.storm_window t.backoff_cap

let scheduler_config t =
  {
    Srv.Scheduler.capacity = t.capacity;
    max_live = t.max_live;
    queue_limit = t.queue_limit;
    slice_fuel = t.slice_fuel;
    translation_quota = None;
    storm_window = t.storm_window;
    storm_traps = t.storm_traps;
    backoff_cap = t.backoff_cap;
    max_restarts = t.max_restarts;
  }

let tenant_specs t =
  Srv.Tenants.derive ~noisy:t.noisy
    ~storm:(match t.storm with None -> [] | Some s -> [ s ])
    ~seed:t.seed ~tenants:t.tenants ()
