(** Cycle-attribution profiler over simulated time.

    A per-thread span stack over the deterministic simulated clock: the
    engine and every instrumented subsystem open spans at phase boundaries
    — data-structure operations, allocator paths, reclamation phases, vmem
    events — and every costed access, fence, cache miss, TLB miss and
    syscall charges its cycle cost to the calling thread's innermost open
    span.  Because the simulation is deterministic, profiles are exact (not
    sampled) and bit-identical across runs of the same seed.

    Spans from all threads accumulate into one shared call trie keyed by
    {!frame}; closing a span also records its duration in a per-frame
    log2-bucketed latency histogram, and a contention table attributes
    remote cache-line invalidations and CAS failures to the simulated
    address and the owning span.

    Profiling is off by default and the disabled path is allocation-free —
    instrumentation guards span construction with {!enabled}, exactly like
    the {!Trace} emit idiom:

    {[
      if Profile.enabled p then
        Profile.enter p ~tid ~now:(Engine.Mem.now ctx) Profile.Alloc_malloc
    ]} *)

(** Instrumentation points.  [Op_*] bracket whole data-structure operations,
    [Alloc_*] the allocator paths, [Reclaim_*] the reclamation phases,
    [Vmem_*] the virtual-memory events; [Op_restart] is a nested span
    covering all retry attempts after a scheme-demanded restart, so
    "cycles spent in warning-triggered restarts" is its subtree.
    [Op_neutralized] is the same for retries forced by a delivered
    neutralization signal. *)
type frame =
  | Op_insert
  | Op_delete
  | Op_contains
  | Op_lookup
  | Op_replace
  | Op_enqueue
  | Op_dequeue
  | Op_push
  | Op_pop
  | Op_restart
  | Alloc_malloc
  | Alloc_free
  | Alloc_flush
  | Alloc_superblock
  | Reclaim_retire
  | Reclaim_scan
  | Reclaim_flush
  | Vmem_fault_in
  | Vmem_remap
  | Op_neutralized

val frame_name : frame -> string
(** Stable dotted name ("op.insert", "alloc.superblock", "restart", ...). *)

val all_frames : frame list

val frame_index : frame -> int
(** Dense index in [0, nframes): position in {!all_frames}. *)

val op_frames : frame list
(** The whole-operation frames (names starting ["op."]) — what SLA views
    merge into "op latency"; excludes the nested [Op_restart] /
    [Op_neutralized] retry spans. *)

val nframes : int

type t

val create : nthreads:int -> unit -> t
(** A disabled profiler with one span stack per thread slot. *)

val null : t
(** A shared zero-thread sink that can never be enabled; the default wiring
    of the engine, so instrumentation needs no option check. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** No-op on {!null}. *)

val nthreads : t -> int

val reset : t -> unit
(** Drop every span, histogram and contention record (the
    measurement-reset path).  Open span stacks are cleared too. *)

(** {2 Recording} — called from instrumentation points. *)

val enter : t -> tid:int -> now:int -> frame -> unit
(** Open a span as a child of [tid]'s innermost open span.  No-op when
    disabled or [tid] has no slot. *)

val leave : t -> tid:int -> now:int -> unit
(** Close [tid]'s innermost span and record its duration ([now] minus the
    matching [enter]'s [now]) in the frame's latency histogram.  No-op on
    an empty stack. *)

val charge : t -> tid:int -> int -> unit
(** Charge cycles to [tid]'s innermost open span; cycles spent outside any
    span accumulate as {!unattributed_cycles}. *)

val set_leave_hook : t -> (frame -> now:int -> dur:int -> unit) -> unit
(** Install a span-close sink: called from {!leave} with the closed frame,
    the closing simulated time and the span duration (the {!Timeline}
    ingestion path).  One hook; installing replaces the previous one. *)

val note_cas_failure : t -> tid:int -> addr:int -> unit
(** A CAS on simulated address [addr] failed: charge one retry to the
    address and [tid]'s owning span in the contention table. *)

val note_invalidation : t -> tid:int -> addr:int -> unit
(** A store/RMW to [addr] invalidated remote cache copies. *)

(** {2 Span-tree view} *)

type span = {
  path : frame list;  (** root-to-node frame path *)
  self_cycles : int;  (** cycles charged while this span was innermost *)
  total_cycles : int;  (** self + all descendants *)
  calls : int;  (** times this span was entered *)
}

val spans : t -> span list
(** Depth-first over the call trie, children in a fixed frame order —
    deterministic for a deterministic run. *)

val total_cycles : t -> int
(** All attributed cycles plus {!unattributed_cycles}; after a measured
    window this reconciles with the sum of the engine's thread clocks. *)

val unattributed_cycles : t -> int
(** Cycles charged while no span was open (e.g. the workload driver's
    per-op base cost). *)

(** {2 Per-operation latency} *)

type latency = {
  lframe : frame;
  count : int;
  sum : int;
  max_cycles : int;
  buckets : (int * int) list;
      (** (inclusive upper bound [2^b - 1], count) per non-empty log2
          bucket, ascending *)
}

val latencies : t -> latency list
(** One entry per frame with at least one closed span, in frame order. *)

val merged_latency : t -> frame list -> latency option
(** Bucket-wise merge of the listed frames (e.g. {!op_frames} for whole-run
    op latency); [lframe] is the first listed frame, [None] when all are
    empty. *)

type hist
(** One log2 histogram: bucket [b] holds durations in
    [(2^(b-1) - 1, 2^b - 1]], bucket 0 exactly 0 (Metrics-compatible).
    {!Timeline} keeps one per frame and slice. *)

val fresh_hist : unit -> hist
val hist_observe : hist -> int -> unit
val latency_of_hist : frame -> hist -> latency

val merge_hists : frame list -> (frame -> hist option) -> latency option
(** {!merged_latency} over any per-frame histogram lookup. *)

val percentile : latency -> float -> int
(** [percentile l q] for [q] in [0, 1]: locate the log2 bucket covering
    rank [ceil (q * count)] and interpolate linearly inside it by rank,
    clamped to the exact maximum.  Buckets holding a single distinct value
    (0, 1, or a single observation) and [q = 1.0] stay exact
    ([percentile l 1.0 = l.max_cycles]); a constant stream returns that
    constant for every [q]; 0 when empty. *)

(** {2 Contention attribution} *)

type hot_addr = {
  addr : int;  (** simulated address (data or metadata) *)
  invalidations : int;
  cas_failures : int;
  owner : frame list;
      (** span path charged most often for this address; [] = outside any
          span *)
}

val hot_addrs : ?top:int -> t -> hot_addr list
(** The [top] (default 10) addresses by invalidations + CAS failures,
    most-contended first (ties to lower address: deterministic). *)
