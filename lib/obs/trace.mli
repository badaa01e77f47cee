(** Structured tracing over {!Mda_bt.Runtime}'s [on_event] hook.

    A sink timestamps every BT event with the {e simulated} cycle clock
    ({!Mda_machine.Cpu.now} — never wall clock), making traces
    deterministic and replayable. The JSONL surface is versioned and
    stable: a header line, one flat object per event, and an end record
    embedding the run's final {!Mda_bt.Run_stats} — so replaying a trace
    can reconstruct (and cross-check) the run's statistics exactly. *)

val schema_version : int
(** Version of the JSONL schema; written in every header, checked on
    parse. Bump when the line format or field names change. *)

type record = {
  cycles : int64;
  sid : int option;
      (** session tag (schema v3): which serving-layer session the event
          belongs to; [None] for single-run traces *)
  ev : Mda_bt.Runtime.event;
}

(** {1 Sinks} *)

type t
(** An event sink: unbounded (default — completeness is the point of a
    trace file), or a bounded ring that keeps the most recent [capacity]
    events and counts what it dropped (flight-recorder use). *)

val create : ?capacity:int -> unit -> t

val set_clock : t -> (unit -> int64) -> unit
(** Timestamp source for subsequent events; defaults to a constant [0L]
    until set. *)

val attach : t -> Mda_bt.Runtime.t -> unit
(** Point the sink's clock at the runtime's simulated cycle counter. *)

val set_tag : t -> int option -> unit
(** Session id stamped on subsequent events ([None] = untagged). The
    serving layer's scheduler re-tags (and re-clocks) the sink before
    each session slice, so a shared sink yields a session-attributed
    interleaved trace. *)

val hook : t -> Mda_bt.Runtime.event -> unit
(** The function to install as [config.on_event]. *)

val push : t -> Mda_bt.Runtime.event -> unit

val records : t -> record list
(** Recorded events, oldest first. *)

val length : t -> int

val dropped : t -> int
(** Events evicted by a bounded ring (always [0] when unbounded). *)

(** {1 JSONL serialization} *)

type file = {
  version : int;
  mechanism : string;
  bench : string;
  scale : string; (** lossless ["%h"] float rendering, kept as text *)
  events : record list;
  stats : Mda_bt.Run_stats.t;
}

val to_jsonl :
  mechanism:string -> bench:string -> scale:float -> stats:Mda_bt.Run_stats.t -> t -> string
(** Serialize the sink's contents as a complete trace:
    header + events + end record, one JSON object per line. *)

val of_jsonl : string -> (file, string) result
(** Parse a complete trace. Rejects (with a message, never an
    exception): wrong schema/version, truncated files, malformed lines,
    event counts disagreeing with the header, traces recorded through a
    ring that dropped events, and end records {!Mda_bt.Run_stats.of_kv}
    cannot parse. *)

val replay : file -> (Mda_bt.Run_stats.t, string) result
(** Reconstruct the run's statistics from the trace. The event-derived
    counters (translations, retranslations, rearrangements, chains,
    patches, evictions, patch faults, degraded sites, and traps = traps
    + OS fixups) are recomputed from the event lines and must equal the
    recorded end record — the event stream is
    itself a tested invariant. Scalar fields the events cannot determine
    (cycles, instruction counts, cache geometry) come from the end
    record. On success the result is byte-identical to [file.stats]. *)

(** {1 Filtering and printing} *)

val kind_names : string list
(** All seven event-kind names, in schema order. *)

val filter : string list -> record list -> record list
(** Keep records whose {!Mda_bt.Runtime.event_kind} is listed. *)

val pp_record : Format.formatter -> record -> unit
