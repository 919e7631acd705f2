(** A reusable domain-based work pool.

    Built only on [Domain], [Mutex] and [Condition] from the standard
    library — no external dependencies. A pool owns [jobs - 1] worker
    domains parked on a shared queue; the submitting domain always
    participates in its own batch, so nested parallel sections (a
    parallel experiment whose subset DP is itself parallel) cannot
    deadlock: a caller that finds every worker busy simply runs all of
    its own chunks inline.

    Determinism guarantee: {!parallel_for} invokes the body exactly once
    per index and {!parallel_map} stores result [i] at slot [i], so as
    long as the body only writes to per-index state, results are
    bit-identical to a sequential loop — only the execution order (and
    wall-clock) changes. *)

type t

val recommended_jobs : unit -> int
(** [QOPT_JOBS] if set, otherwise [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (none when
    [jobs <= 1]). [jobs] defaults to {!recommended_jobs}. *)

val jobs : t -> int
(** The configured worker count (including the submitting domain). *)

val shutdown : t -> unit
(** Ask the workers to exit and join them. Idempotent. Outstanding
    batches finish first (the queue is drained before workers exit). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards (also on exception). *)

val parallel_for : t -> ?chunks:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi body] runs [body i] exactly once for
    every [lo <= i <= hi] (inclusive; empty when [hi < lo]), splitting
    the range into [chunks] contiguous chunks (default [4 * jobs])
    claimed dynamically by the caller and the workers. Runs inline
    sequentially when [jobs <= 1]. If one or more bodies raise, the
    remaining chunks still run and the first exception observed is
    re-raised in the calling domain with its backtrace. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] is [Array.map f arr], evaluated in
    parallel; slot [i] of the result is [f arr.(i)] (order preserved). *)

val async : t -> (unit -> unit) -> unit
(** [async pool task] submits a standalone thunk to the pool queue; it
    runs on whichever worker domain pops it, and the submitter neither
    participates nor waits. With [jobs <= 1] (no workers) the task runs
    inline before [async] returns. Long-lived loops submitted this way
    occupy their worker until they return — callers that also use
    {!parallel_for} on the same pool must account for that. *)

(** Bounded blocking channel: the backpressure primitive between a
    producer (the serve request reader) and pool workers. *)
module Chan : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** @raise Invalid_argument when [capacity < 1]. *)

  val push : 'a t -> 'a -> bool
  (** Blocks while the channel holds [capacity] items — this stall is
      the backpressure signal. Returns [false] (dropping the item) once
      the channel is closed. *)

  val pop : 'a t -> 'a option
  (** Blocks while the channel is empty and open. Items pushed before
      {!close} are still delivered after it; [None] only once the
      channel is both closed and drained. *)

  val close : 'a t -> unit
  (** Idempotent; wakes every blocked producer and consumer. *)

  val length : 'a t -> int
  (** Current queue depth (racy by nature; for gauges). *)
end
