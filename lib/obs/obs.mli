(** Observability: counters, gauges, timers/spans, and exporters.

    Stdlib-only (plus [Unix.gettimeofday]). Designed around the
    repository's two invariants:

    - {b zero-cost-when-off}: counters are always-on plain integer
      increments on per-domain cells (no locks, no allocation on the
      fast path); spans and exporters only record/allocate once
      {!set_enabled} has switched them on. Nothing here ever writes to
      stdout/stderr on its own, so default CLI output stays
      byte-identical.
    - {b domain safety}: counter cells are sharded per domain (the
      domains of {!Pool} workers included) and aggregated at snapshot
      time; spans form a per-domain tree, so a parallel run exports one
      Chrome-trace process per domain.

    Counter/gauge/histogram registration is idempotent: [counter name]
    returns the existing counter when one is already registered under
    [name], so functor bodies (e.g. [Opt.Make]) can be applied
    repeatedly while sharing one set of metrics. The three kinds share
    one namespace: registering a name under a different kind than the
    one that first claimed it raises [Invalid_argument]. *)

module Json : sig
  (** A minimal JSON tree with a stable printer (object keys are
      emitted in the order given) and a small strict parser — enough to
      write schema-versioned run reports and Chrome traces, and to
      validate them in tests, without any external dependency. *)

  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite floats are emitted as [null] *)
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; object key order is preserved as given. *)

  val of_string : string -> (t, string) result
  (** Strict parse of a single JSON value ([Error msg] with a position
      on malformed input). Numbers without [./e/E] parse as [Int]. *)

  val member : string -> t -> t option
  (** [member key v]: the field named [key] when [v] is an object
      (first occurrence), [None] otherwise — the lookup used by report
      validations in tests. *)

  val mask_fields : string list -> t -> t
  (** [mask_fields names v] replaces the value of every object field
      whose name is in [names], recursively, with [Null]. Tests use it
      to compare run reports structurally while masking wall-clock
      fields ([seconds], span timings, latency percentiles)
      explicitly. *)

  val write_file : string -> t -> unit
  (** [write_file path v] writes [to_string v] (plus a final newline)
      to [path], truncating any existing file. *)
end

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Master switch for spans/exporters. Counters count regardless. *)

(** {1 Counters and gauges} *)

type counter

val counter : string -> counter
(** Register (or look up) the counter named [name]. Thread-safe;
    typically called once at module initialisation. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Increment this domain's cell — no lock, no allocation (after the
    first touch per domain, which registers the cell). *)

type gauge

val gauge : string -> gauge
(** Register (or look up) a gauge: a last-value-wins integer (e.g. a
    table occupancy). Gauges share the counter/histogram namespace in
    snapshots and expositions; registering a gauge under a name already
    claimed by another metric kind (or vice versa) raises
    [Invalid_argument] — both directions are hard errors, not doc
    warnings. *)

val set : gauge -> int -> unit

(** {1 Histograms} *)

module Histogram : sig
  (** Lock-free mergeable latency histograms: HDR-style log-linear
      bucketing over non-negative integers (unit buckets below
      [2^sub_bits], then [2^(sub_bits-1)] linear sub-buckets per
      power-of-two range, ≤ 6.25% relative bucket width), recorded on
      per-domain DLS cells exactly like counters — no lock, no
      allocation after the first touch per domain. Bucket counts are
      deterministic integers, so cross-domain merges commute and a
      parallel run's snapshot is independent of merge order. *)

  val sub_bits : int
  val bucket_count : int
  (** Total number of buckets covering [0 .. max_int]. *)

  val bucket_of : int -> int
  (** Bucket index for a value (negatives clamp to bucket 0). *)

  val bucket_bounds : int -> int * int
  (** [(lo, hi)] inclusive value range of a bucket index; raises
      [Invalid_argument] out of range. The top bucket's [hi] is
      [max_int]. *)

  val width_at : int -> int
  (** Nominal width of the bucket containing a value — the agreement
      tolerance between histogram quantiles and exact sorted-array
      percentiles. *)

  type t

  val create : unit -> t
  (** An unregistered histogram (no name, not in snapshots) — e.g. one
      serve session's latency series. Use {!Obs.histogram} for
      registered ones. *)

  val record : t -> int -> unit
  (** Record one sample on this domain's cell. Negatives clamp to 0. *)

  type snap = {
    count : int;
    sum : int;
    min_value : int;
    max_value : int;
    buckets : int array;  (** dense, [bucket_count] long; [[||]] iff empty *)
  }

  val empty : snap

  val snap : t -> snap
  (** Aggregate every domain's cells. Mid-run reads are benign races
      (like counter snapshots); exact once the writing domains have
      been joined. *)

  val merge : snap -> snap -> snap
  (** Element-wise sum; commutative and associative. *)

  val diff : snap -> snap -> snap
  (** [diff before after]: the delta window. [min_value]/[max_value]
      are the after-snapshot's (the delta's own extrema are not
      recoverable from bucket counts). *)

  val quantile : snap -> float -> int
  (** [quantile s q] for [q] in [0..100] (clamped): the same
      nearest-rank formula as an exact sorted-array percentile —
      [rank = round (q/100 * (count-1))] — answered from cumulative
      bucket counts. The result is the rank's bucket representative
      clamped to [[min_value, max_value]], so it differs from the exact
      sorted-array percentile by less than one bucket width
      ({!width_at}); the extreme ranks (first and last sample) are
      answered exactly from the recorded extrema. Returns 0 on an
      empty snapshot. *)

  val to_json : snap -> Json.t
  (** [{count; sum; min; max; p50; p95; p99; p999; buckets}] with only
      non-zero buckets listed as [{lo; hi; count}]. *)
end

val histogram : string -> Histogram.t
(** Register (or look up) the histogram named [name]; included in
    {!histograms} and {!stats_json}/{!run_report}.
    Raises [Invalid_argument] if [name] is already a counter or
    gauge. *)

val histograms : unit -> (string * Histogram.snap) list
(** Name-sorted snapshots of every registered histogram (empty ones
    included). *)

(** {1 Snapshots} *)

type snapshot = (string * int) list
(** Name-sorted [(name, value)] pairs: counters summed over every
    domain that ever touched them (live or joined), plus gauges. *)

val snapshot : unit -> snapshot

val snapshot_local : unit -> snapshot
(** Counters only, restricted to the calling domain's cells — exact
    attribution for work that ran entirely on this domain (e.g. one
    experiment inside the parallel harness). Gauges are excluded. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff before after]: per-name [after - before], zero entries
    dropped. *)

(** {1 Timers and spans} *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed
    wall-clock seconds. Always on — this is the primitive the harness
    timing blocks are built from. *)

type span_node = {
  name : string;
  domain : int;  (** id of the domain the span ran on *)
  start_s : float;  (** seconds since the process-wide epoch *)
  mutable dur_s : float;
  mutable minor_words : float;  (** [Gc.quick_stat] deltas over the span *)
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable children : span_node list;  (** chronological *)
}

val span : string -> (unit -> 'a) -> 'a
(** [span name f]: when {!enabled}, time [f] (wall clock +
    [Gc.quick_stat] deltas) as a child of the innermost open span on
    this domain; when disabled, exactly [f ()]. Exceptions close the
    span and propagate. *)

val spans : unit -> span_node list
(** All completed root spans, every domain, sorted by (domain, start
    time). *)

(** {1 Exporters} *)

val render_stats : unit -> string
(** Human-readable report: non-zero counters/gauges (sorted), then
    non-empty histograms (count + p50/p95/p99/max), then the span
    forest with per-span wall-clock and GC deltas. *)

val stats_json : unit -> Json.t
(** The same report as a schema-versioned JSON object:
    [{schema_version; counters; histograms; spans}] (histograms with
    zero samples omitted). *)

val run_report : kind:string -> ?extra:(string * Json.t) list -> unit -> Json.t
(** Schema-versioned report envelope shared by the JSON report writers:
    [{schema_version = 1; kind; ...extra; counters; histograms;
    spans}]. Callers put their domain-specific fields (totals, workload
    rows) in [extra]; the current counter snapshot, non-empty
    registered histograms and span forest are appended so every report
    is self-describing. *)

val write_trace : string -> unit
(** Write the span forest as Chrome [trace_event] JSON ([B]/[E] event
    pairs, one [pid] per domain) loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

val reset : unit -> unit
(** Zero every counter/gauge/histogram cell and drop all recorded
    spans. The kind registry is {e not} cleared — a name keeps its
    first-claimed kind for the process lifetime. Test helper — only
    call while no other domain is running instrumented code. *)
