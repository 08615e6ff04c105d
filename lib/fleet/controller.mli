(** The fleet controller: one control loop over hundreds–thousands of
    hosts, with cross-host failover over lossy control channels.

    §3.1's centralized network-state service, made {e active}: where
    {!Ihnet_monitor.Fleet} is the read-only roll-up, this module owns
    a desired-state map (which tenant should run where) and drives the
    fleet toward it, one {!round} at a time:

    + every live host advances its own simulation by
      [config.round_len] and pushes a health report (its placed
      tenants, SLO verdicts, incarnation epoch) through its uplink
      {!Channel} — this phase runs in parallel, hosts sharded across
      the {!Ihnet_util.Pool} domains, and is byte-identical under any
      [IHNET_DOMAINS] width because every host is a [~domains:1]
      island touched by exactly one task and results merge in host
      index order;
    + the coordinator ticks every channel in host index order,
      applying delivered commands host-side (with at-most-once
      application — see below) and folding delivered reports and acks
      into the controller's view;
    + the control step re-plans: reachability timeouts, bounded
      retries with exponential backoff, flap damping with holddown
      (the {!Ihnet_manager.Remediation} idioms), placement of new
      tenants on the least-loaded feasible host, cross-host {e spill}
      when a host refuses admission, failover when a host is lost, and
      an explicit fleet-level degraded verdict — with restore on
      clear — when {e no} host can take a tenant.

    {b The channel protocol.} Commands carry a fresh sequence number
    and the host's believed incarnation epoch. A host applies a
    command only if the epoch matches and the sequence is new,
    recording the outcome in a per-host applied table (its "stable
    storage" — it survives crash/restart); duplicates are re-acked
    from the table without re-applying, which is what makes a healed
    partition reconcile without double-applying buffered commands. A
    partitioned host keeps running on its last-known policy; on heal,
    its report reveals stray placements (tenants the controller
    failed over elsewhere in the meantime) and the controller revokes
    them.

    {b Determinism.} All randomness lives in per-host
    {!Ihnet_util.Rng.stream}s (channel faults, restart seeds), drawn
    only under an injected fault, and all cross-host decisions happen
    on the coordinator in (host index, tenant id) order — so a fleet
    run is byte-identical at [IHNET_DOMAINS] ∈ {1,2,4}, and a
    fault-free run with a dormant controller leaves each host's run
    byte-identical to an unmanaged one (the [fleet-idle] bench
    subject gates this). *)

type config = {
  round_len : Ihnet_util.Units.ns;  (** Sim time per host per round. *)
  cmd_timeout : int;  (** Rounds to wait for an ack before retrying. *)
  max_retries : int;  (** Retries before a command is abandoned. *)
  backoff_factor : float;
      (** Each retry waits [cmd_timeout * factor^attempt] rounds. *)
  unreachable_after : int;
      (** Missed reports before a host is declared unreachable and its
          tenants fail over. *)
  flap_window : int;  (** Rounds over which transitions are counted. *)
  flap_threshold : int;
      (** Reachable↔unreachable transitions within the window that
          trigger holddown. *)
  holddown : int;
      (** Rounds a flapping host is excluded as a placement target. *)
  degraded_retry : int;
      (** Rounds between placement re-attempts for fleet-degraded
          tenants (the restore-on-clear probe). *)
}

val default_config : config

type host_view = Reachable | Unreachable | Crashed
(** The controller's belief. [Crashed] is operator truth injected via
    {!crash} (the controller itself only ever infers [Unreachable]). *)

type tenant_view =
  | Unplaced
  | Placing of string  (** Command in flight toward this host. *)
  | Placed of string
  | Migrating of { from_ : string; to_ : string }
      (** Make-before-break: placing on [to_] before revoking
          [from_]. *)
  | Fleet_degraded
      (** No host in the fleet can currently take the tenant — the
          explicit fleet-level verdict; retried every
          [degraded_retry] rounds. *)

type reason = Host_down | Slo | Admission

type decision =
  | D_placed of { tenant : int; host : string }
  | D_migrated of { tenant : int; from_ : string; to_ : string; reason : reason }
  | D_degraded of { tenant : int; cause : Ihnet_manager.Mgr_error.t }
  | D_restored of { tenant : int; host : string }
  | D_host_lost of { host : string }
  | D_host_recovered of { host : string }
  | D_held_down of { host : string }
  | D_reconciled of { host : string; revoked : int list }
  | D_command_failed of { host : string; tenant : int; error : Ihnet_manager.Mgr_error.t }

val decision_to_string : decision -> string

type t

val create : ?config:config -> ?seed:int -> ?domains:int -> unit -> t
(** [domains] is the pool width for the host-shard phase (default
    [IHNET_DOMAINS] via {!Ihnet_util.Pool.default_domains}) — results
    are byte-identical for every width; the determinism property
    compares widths side by side in one process. *)

(** {1 Fleet membership} *)

val spawn : t -> ?preset:Ihnet.Host.preset -> string -> unit
(** [spawn t label] creates and enrolls a fresh host (default preset
    [Two_socket]), pinned to [~domains:1] so fleets parallelize at
    host granularity, seeded from the controller seed and the host's
    index via {!Ihnet_util.Rng.stream}. Labels must be unique.
    @raise Invalid_argument on a duplicate label. *)

val add_host : t -> label:string -> Ihnet.Host.t -> unit
(** Enroll an existing host (the wrap-a-live-box path the
    [fleet-idle] discipline exercises). The host must have been
    created with [~domains:1] if the fleet runs with a wider pool. *)

val hosts : t -> string list
(** Labels in index (enrollment) order. *)

val host : t -> string -> Ihnet.Host.t option
(** The live host object ([None] while crashed). *)

(** {1 Desired state} *)

val submit : t -> Ihnet_manager.Intent.t -> unit
(** Register the intent's tenant with the fleet; the next {!round}s
    place it on the least-loaded host that admits it.
    @raise Invalid_argument if the tenant is already registered. *)

val revoke : t -> tenant:int -> unit
(** Remove the tenant from the desired state; its placement (if any)
    is revoked through the normal command path. *)

(** {1 The loop} *)

val round : t -> unit
(** One control round (see the module preamble for the three phases). *)

val run : t -> rounds:int -> unit

val rounds : t -> int
(** Rounds executed so far. *)

(** {1 Fault injection (operator / campaign API)} *)

val crash : t -> string -> unit
(** Power the host off: its simulation stops, everything in flight on
    its channels is lost. Its applied table (stable storage) is kept. *)

val restart : t -> string -> unit
(** Power a crashed host back on as a {e fresh} incarnation: new
    simulation state, epoch bumped so commands addressed to the old
    incarnation are ignored, seed drawn from the host's own RNG
    stream. *)

val partition : t -> string -> unit
(** Cut both channel directions. The host keeps running on its
    last-known policy. *)

val heal : t -> string -> unit
(** Remove the partition (base loss/delay faults, if any, remain). *)

val set_chanfault : t -> string -> Ihnet_engine.Chanfault.fault -> unit
(** Base fault model for both directions of the host's channels
    (composes with {!partition} via {!Ihnet_engine.Chanfault.merge}). *)

(** {1 Observation} *)

val host_view : t -> string -> host_view option
val tenant_view : t -> int -> tenant_view option
val tenants : t -> int list
(** Registered tenant ids, ascending. *)

val decisions : t -> decision list
(** Chronological. *)

val decisions_fingerprint : t -> int64
(** FNV-1a over the rendered decision log — the qcheck determinism
    property compares this across pool widths. *)

val applied_size : t -> string -> int
(** Entries in the host's at-most-once applied table. The table is
    pruned right after each delivery to the commands still in flight
    or on the host's command wire, so after a {!round} it never holds
    more than {!commands_outstanding} counted before that round. *)

val commands_outstanding : t -> string -> int
(** Commands to the host awaiting an ack plus messages on its command
    wire (duplicates counted). *)

val digest : t -> int64
(** Per-host {!Ihnet_record.Scanport} digests chained with
    {!Ihnet_record.Trace.fnv_int64} in host index order (crashed
    hosts fold as a marker). Pure read. *)

val host_digests : t -> (string * int64) list
(** Per-host scan digests, index order; crashed hosts omitted. *)

val channel_rng_peek : t -> string -> int64
(** Combined (command, report) channel RNG states for the host — the
    fault-free idle proof: unchanged across a run means the channel
    plane never drew. *)

val collect : t -> Ihnet_monitor.Fleet.t
(** Roll the live hosts up through {!Ihnet_monitor.Fleet.collect},
    wiring each member's [slo] probe to the controller's last
    received report, so SLO verdicts rank hosts without re-running
    {!Ihnet_manager.Slo.check}. Note {!Ihnet_monitor.Health.collect}
    advances each host's sampler window — call after {!digest} if you
    need both. *)

val pp : Format.formatter -> t -> unit
(** Operator summary: hosts (view, placed tenants, epoch), tenants
    (state), decision count. *)
