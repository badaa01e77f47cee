module Bt = Mda_bt
module Machine = Mda_machine

type fault =
  | Crash_injected
  | Fuel_exhausted
  | Guest_limit
  | Aot_miss of int
  | Error of string

let fault_to_string = function
  | Crash_injected -> "injected crash"
  | Fuel_exhausted -> "fuel exhausted"
  | Guest_limit -> "guest instruction limit"
  | Aot_miss pc -> Printf.sprintf "AOT dispatch miss at %#x" pc
  | Error msg -> msg

type status = Running | Degraded | Halted | Faulted of fault

type t = {
  sid : int;
  tid : int;
  rt : Bt.Runtime.t;
  entry : int;
  mutable pc : int;
  mutable status : status;
  mutable dispatches : int;
  mutable hits : int;
  mutable crash_at : int option;
}

let create ?cache ?crash_at ~sid ~tid ~config ~mem ~entry () =
  let rt = Bt.Runtime.create ~config ?cache ~mem () in
  Bt.Runtime.install_handler rt;
  {
    sid;
    tid;
    rt;
    entry;
    pc = entry;
    status = Running;
    dispatches = 0;
    hits = 0;
    crash_at;
  }

let running_status t =
  if t.rt.Bt.Runtime.os_fixup_only then Degraded else Running

let step t ~fuel =
  if fuel < 1 then invalid_arg "Session.step: fuel must be >= 1";
  (match t.status with
  | Halted | Faulted _ -> ()
  | Running | Degraded ->
    let left = ref fuel in
    let continue = ref true in
    while !continue && !left > 0 do
      (match t.crash_at with
      | Some at when t.dispatches >= at ->
        t.crash_at <- None;
        t.status <- Faulted Crash_injected;
        continue := false
      | _ ->
        if
          Bt.Runtime.total_guest_insns t.rt
          >= t.rt.Bt.Runtime.config.Bt.Runtime.max_guest_insns
        then begin
          t.status <- Faulted Guest_limit;
          continue := false
        end
        else begin
          (* a dispatch that finds a live translation is a cache hit —
             per-session accounting the shared-cache report aggregates *)
          (match Bt.Code_cache.find_block t.rt.Bt.Runtime.cache t.pc with
          | Some b when b.Bt.Code_cache.entry <> None -> t.hits <- t.hits + 1
          | _ -> ());
          match Bt.Runtime.step t.rt t.pc with
          | `Continue next ->
            t.pc <- next;
            t.dispatches <- t.dispatches + 1;
            decr left
          | `Halt ->
            t.dispatches <- t.dispatches + 1;
            t.status <- Halted;
            continue := false
          | `Aot_miss g ->
            t.status <- Faulted (Aot_miss g);
            continue := false
          | exception Machine.Cpu.Out_of_fuel ->
            t.status <- Faulted Fuel_exhausted;
            continue := false
          | exception Bt.Runtime.Runtime_error msg ->
            t.status <- Faulted (Error msg);
            continue := false
          | exception Machine.Cpu.Fatal msg ->
            t.status <- Faulted (Error msg);
            continue := false
          (* a wild guest access faults this session only, never the
             scheduler running every other tenant *)
          | exception (Machine.Memory.Out_of_bounds _ as e) ->
            t.status <- Faulted (Error (Printexc.to_string e));
            continue := false
        end)
    done;
    (match t.status with
    | Running | Degraded -> t.status <- running_status t
    | _ -> ()));
  t.status

let demote t =
  Bt.Runtime.set_os_fixup_only t.rt true;
  match t.status with Running -> t.status <- Degraded | _ -> ()

let stats t =
  let stop =
    match t.status with
    | Halted -> Bt.Run_stats.Halted
    | Faulted Fuel_exhausted -> Bt.Run_stats.Fuel_exhausted
    | Faulted (Aot_miss guest_addr) -> Bt.Run_stats.Aot_miss { guest_addr }
    | Faulted Guest_limit | Faulted Crash_injected | Faulted (Error _)
    | Running | Degraded ->
      Bt.Run_stats.Insn_limit
  in
  Bt.Runtime.stats t.rt ~stop
