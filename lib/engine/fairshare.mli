(** Weighted max-min fair rate allocation with floors and caps
    (progressive filling / water-filling).

    This is the engine's bandwidth-sharing law and simultaneously the
    arbiter's enforcement mechanism: the arbiter expresses guarantees as
    per-flow {e floors} and limits as {e caps}, and the same filling
    algorithm realizes both (a pure reservation system is
    [floor = cap]; a work-conserving one leaves [cap = infinity]).

    A demand consumes [coeff × rate] on each resource it uses; the
    coefficient models protocol inefficiency (e.g. a 64 B-payload DMA
    stream consumes ~1.4× its goodput on a PCIe link in TLP headers). *)

type demand = {
  weight : float;  (** Filling speed; must be > 0. *)
  floor : float;  (** Guaranteed rate (bytes/s); >= 0. *)
  cap : float;  (** Ceiling — already folded with the source's offered
                    rate; [infinity] when elastic. *)
  usage : (int * float) list;
      (** (resource index, coefficient) pairs, coefficient >= 1
          typically; a resource may appear once per demand. *)
}

val allocate : capacities:float array -> demand array -> float array
(** [allocate ~capacities demands] returns one rate per demand such
    that:
    - no resource's aggregate coefficient-weighted rate exceeds its
      capacity (up to rounding);
    - every demand receives at least its floor, unless floors are
      jointly infeasible, in which case {e all} floors are scaled down
      by the single factor that restores feasibility;
    - no demand exceeds its cap;
    - the remaining capacity is filled max-min fairly in proportion to
      the weights.

    Demands with an empty [usage] get their cap.

    [allocate ~capacities demands] is exactly
    [allocate_warm (make_state ~capacities demands)]: one solve on a
    fresh {!state}. The solve is an event-driven sweep over the
    progressive-filling front — next cap hits and next resource
    saturations live in one min-heap, and each event touches only the
    demands incident to the frozen resource. O((n + Σ|usage|) log n)
    plus O(nr) array setup, rather than the reference's
    O(n · (n + Σ|usage|)). *)

val allocate_reference : capacities:float array -> demand array -> float array
(** The original round-based progressive-filling implementation,
    retained as the semantic oracle: [allocate] must agree with it to
    within 1e-6 relative error on every input (enforced by a
    differential property test). Do not use on hot paths. *)

val max_min_fair : capacities:float array -> (int * float) list array -> float array
(** Unweighted, floorless, capless convenience wrapper (weight 1,
    floor 0, cap ∞). *)

val validate : capacities:float array -> demand array -> unit
(** Check every demand against the documented invariants (weight > 0,
    floor >= 0, cap >= 0, in-range resources, coefficients > 0).

    @raise Invalid_argument on the first violation. [allocate],
    [allocate_reference], [make_state], [set_demand] and [reset] all
    perform the same checks — with a real raise, not [assert], so they
    survive [-noassert] builds. *)

val demand_equal : demand -> demand -> bool
(** Bitwise value equality: weight, floor and cap compared by their
    float bits (so [-0.0] and [0.0] differ), usage lists entry by
    entry, with a physical-equality fast path. This is the one "same
    demand?" decision: {!set_demand} uses it to skip no-op stores and
    the fabric's component memo uses it to match cached inputs. *)

(** {1 Solver state}

    A {!state} persists the solver's derived structures between calls:
    the flattened CSR usage arrays, the resource→demand incidence, the
    seed-phase accumulators (per-resource floor load and scale
    factors, per-demand seed rates and initial active set,
    per-resource initial load/speed), the working arrays of the
    event sweep, and the event min-heap. Re-solving after a small
    parameter change re-derives only the demands and resources
    reachable from the change; anything structural (demand count, any
    usage list) triggers a full rebuild.

    {b Bit-identity:} for any history of updates, [allocate_warm]
    returns bitwise the same rates as a fresh state over the state's
    current capacities and demands (that is, as
    [allocate ~capacities demands]). This is part of the fabric's
    determinism contract (MODEL.md §13) and is enforced by a 1000-case
    differential property test. *)

type state

val make_state : capacities:float array -> demand array -> state
(** Create a warm-startable solver instance. The capacity vector is
    copied (later [set_capacity] calls do not alias the argument);
    its length fixes the resource count for the state's lifetime.
    Validation of the demands happens on the first solve. *)

val set_demand : state -> int -> demand -> unit
(** Replace demand [i]. Replacements equal under {!demand_equal} (in
    particular the same physical record) are free no-ops; weight/floor/cap changes
    take the incremental path; a changed usage list marks the state
    structural. @raise Invalid_argument on a bad index or demand. *)

val set_capacity : state -> int -> float -> unit
(** Update one resource capacity (exact-value compare; equal stores
    are no-ops). @raise Invalid_argument on a bad index. *)

val reset : state -> demand array -> unit
(** Replace the whole demand vector, diffing slot by slot against the
    current one — a cheap way to re-enter with mostly-unchanged
    demands. A length change triggers a full structural rebuild. *)

val allocate_warm : state -> float array
(** Solve over the state's current capacities and demands; returns a
    fresh rates array (the contract of {!allocate}). Clean
    re-solves (no input changed since the last call) return the cached
    solution without sweeping. *)

val state_size : state -> int
(** Current number of demands. *)

val state_demand : state -> int -> demand
(** Current demand record in slot [i]. *)

type stats = {
  solves : int;  (** Total [allocate_warm] calls. *)
  full_rebuilds : int;  (** Solves that rebuilt CSR + full reseed. *)
  incremental : int;  (** Solves that reseeded only dirty inputs. *)
  unchanged : int;  (** Solves answered from the cached solution. *)
}

val stats : state -> stats
(** Counters since [make_state]; used by tests to assert that
    invalidation actually fires (or doesn't). *)
