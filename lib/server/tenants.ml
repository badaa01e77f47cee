module Bt = Mda_bt
module W = Mda_workloads
module Rng = Mda_util.Rng
module Spec = Mda_mech.Mech_spec

let spacing = 0x4000
let base_of tid = Bt.Layout.guest_code_base + (tid * spacing)

let owner_of addr =
  if addr < Bt.Layout.guest_code_base then 0
  else (addr - Bt.Layout.guest_code_base) / spacing

type profile_kind = Steady | Noisy | Storm

type spec = {
  tid : int;
  kind : profile_kind;
  groups : W.Gen.group list;
  program : W.Gen.program;
}

(* Group synthesis per personality. Execution counts are kept modest so
   a serve run multiplexing many sessions stays fast; what matters is
   the *shape*: Steady is small and mostly aligned, Noisy is
   bloat-heavy (code footprint => eviction pressure), Storm misaligns
   on every execution or only on the Ref input (a trap storm under the
   profiling and patching mechanisms). *)
let groups_for rng tid kind =
  let label i = Printf.sprintf "t%d.g%d" tid i in
  match kind with
  | Steady ->
    let n = Rng.int_in rng 1 2 in
    List.init n (fun i ->
        let width = Rng.choice rng [| 2; 4; 8 |] in
        let behavior =
          match Rng.int rng 3 with
          | 0 -> W.Gen.Aligned
          | 1 -> W.Gen.Mixed { period = 2 }
          | _ -> W.Gen.Rare { period = 8 }
        in
        {
          W.Gen.label = label i;
          sites = Rng.int_in rng 1 2;
          execs = Rng.int_in rng 40 80;
          width;
          mix = W.Gen.Alternate;
          behavior;
          bloat = Rng.int_in rng 0 2;
          lib = false;
          via_call = false;
        })
  | Noisy ->
    let n = Rng.int_in rng 3 4 in
    List.init n (fun i ->
        let behavior =
          if Rng.bool rng 0.5 then W.Gen.Aligned else W.Gen.Mixed { period = 2 }
        in
        {
          W.Gen.label = label i;
          sites = Rng.int_in rng 2 4;
          execs = Rng.int_in rng 30 60;
          width = 4;
          mix = W.Gen.Alternate;
          behavior;
          bloat = Rng.int_in rng 6 12;
          lib = false;
          via_call = Rng.bool rng 0.3;
        })
  | Storm ->
    let n = 2 in
    List.init n (fun i ->
        let behavior = if i = 0 then W.Gen.Misaligned else W.Gen.Input_dep in
        {
          W.Gen.label = label i;
          sites = Rng.int_in rng 2 3;
          execs = Rng.int_in rng 120 200;
          (* the generator misaligns via a +2 pointer offset, which only
             affects widths wider than 2 — a width-2 draw would make the
             storm silently aligned *)
          width = Rng.choice rng [| 4; 8 |];
          mix = (if Rng.bool rng 0.5 then W.Gen.Loads_only else W.Gen.Alternate);
          behavior;
          bloat = Rng.int_in rng 0 1;
          lib = false;
          via_call = false;
        })

let check_fits tid (p : W.Gen.program) =
  let len = Bytes.length p.W.Gen.asm_program.Mda_guest.Asm.image in
  if len > spacing then
    invalid_arg
      (Printf.sprintf "Tenants: tenant %d program image (%d bytes) overflows its %d-byte window"
         tid len spacing)

let derive ?(noisy = []) ?(storm = []) ~seed ~tenants () =
  if tenants < 1 then invalid_arg "Tenants.derive: tenants must be >= 1";
  if base_of (tenants - 1) + spacing > Bt.Layout.stack_top - 0x1000 then
    invalid_arg "Tenants.derive: too many tenants for the guest code region";
  List.init tenants (fun tid ->
      let kind =
        if List.mem tid storm then Storm
        else if List.mem tid noisy then Noisy
        else Steady
      in
      (* independent stream per (seed, tid): adding a tenant never
         perturbs the others' workloads *)
      let rng =
        Rng.split
          (Rng.create
             (Int64.logxor seed (Int64.mul (Int64.of_int (tid + 1)) 0x9E3779B97F4A7C15L)))
      in
      let groups = groups_for rng tid kind in
      let program = W.Gen.build ~base:(base_of tid) ~input:W.Gen.Ref groups in
      check_fits tid program;
      { tid; kind; groups; program })

(* each incarnation loads the Ref program built once by [derive] *)
let fresh_mem spec = W.Gen.load spec.program

(* The tenant as a preparation subject: its Ref program image, and the
   same groups built for the Train input. *)
let subject spec =
  { Spec.name = Printf.sprintf "tenant %d" spec.tid;
    image = (fun () -> fresh_mem spec);
    train =
      (fun () ->
        W.Gen.load (W.Gen.build ~base:(base_of spec.tid) ~input:W.Gen.Train spec.groups)) }

let mechanism_of spec label =
  match Spec.parse_stress label with
  | Ok (Spec.Aot _) | Error _ ->
    invalid_arg ("Tenants.mechanism_of: unsupported mechanism " ^ label)
  | Ok s -> (Spec.prepare (subject spec) s).Spec.mechanism
