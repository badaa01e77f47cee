(** Tenant identity and per-tenant workload synthesis for the serving
    layer. Each tenant owns a disjoint window of guest-code address
    space ([spacing] bytes starting at {!base_of}), so sessions from
    different tenants can share one code cache without block-key
    collisions, and cache residency is attributable to a tenant from a
    block's guest start address alone ({!owner_of}). *)

(** Guest-code window size per tenant, in bytes. *)
val spacing : int

(** Guest-code base address of tenant [tid]. *)
val base_of : int -> int

(** Which tenant owns guest-code address [addr] (total: addresses below
    tenant 0's window map to tenant 0). *)
val owner_of : int -> int

(** Workload personality of a tenant. *)
type profile_kind =
  | Steady  (** small, mostly aligned: the well-behaved neighbour *)
  | Noisy
      (** big code footprint (bloat-heavy groups): eviction pressure on
          a shared bounded cache *)
  | Storm
      (** misalignment-heavy (every-execution and input-dependent
          sites): a trap storm under profiling/patching mechanisms *)

type spec = {
  tid : int;
  kind : profile_kind;
  groups : Mda_workloads.Gen.group list;
  program : Mda_workloads.Gen.program;
      (** the groups built for the Ref input at {!base_of} [tid], once *)
}

(** Derive [tenants] deterministic tenant specs from [seed]. Tenant
    kinds default to [Steady]; [noisy]/[storm] name tenants overridden
    to those kinds. Raises [Invalid_argument] if a generated program
    image overflows the tenant's code window. *)
val derive :
  ?noisy:int list -> ?storm:int list -> seed:int64 -> tenants:int -> unit -> spec list

(** Entry point and freshly loaded+initialized guest memory: loads
    [spec.program], never rebuilds it. *)
val fresh_mem : spec -> int * Mda_machine.Memory.t

(** The tenant as a {!Mda_mech.Mech_spec.subject}: its Ref image, and
    its groups built for the Train input. *)
val subject : spec -> Mda_mech.Mech_spec.subject

(** Mechanism by stress-family label
    ({!Mda_mech.Mech_spec.stress_labels}), prepared per tenant (training
    runs, static analysis) exactly as the harness prepares it. The
    serving layer excludes "aot" (immutable caches cannot be shared and
    bounded). Raises [Invalid_argument] on unknown names. *)
val mechanism_of : spec -> string -> Mda_bt.Mechanism.t
