(** Log-bucketed latency histogram (HdrHistogram-style): the reference
    oracle for [Ihnet_util.Sketch].

    Records non-negative values with bounded relative error (one bucket
    per power of two, [sub] sub-buckets each), so p99 of a billion
    samples costs O(buckets) memory. Same bucket layout as [Sketch],
    but backed by a Hashtbl with no top octave, so at the default
    [sub] its percentiles, min, max and count agree with [Sketch]'s
    bit for bit below [Sketch]'s 2^41 clamp. *)

type t

val create : ?sub:int -> unit -> t
(** [sub] sub-buckets per octave (default 32 — ~3% relative error). *)

val add : t -> float -> unit
(** Record a value. Negative or non-finite values (NaN, [infinity])
    are ignored — an infinite value would otherwise compute a garbage
    bucket index and permanently poison [sum]/[mean]. *)

val merge : t -> t -> unit
(** [merge dst src] adds all of [src]'s counts into [dst]. The two must
    have the same [sub]. *)

val count : t -> int
val total : t -> float

val mean : t -> float
(** Exact mean ([total /. count]); [nan] when empty. [Sketch.mean]
    differs: it sums bucket midpoints. *)

val percentile : t -> float -> float
(** [percentile t q], [q] in [\[0,1\]]; [nan] when empty. Returns the
    representative (midpoint) value of the bucket holding the q-th
    sample, clamped to [\[min_value, max_value\]] (a lone sample's
    bucket midpoint can stick out past the sample itself). *)

val max_value : t -> float
(** Largest recorded value (exact). [nan] when empty. *)

val min_value : t -> float

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** One-line summary: count / mean / p50 / p99 / max. *)
