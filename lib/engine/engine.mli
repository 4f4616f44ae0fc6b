(** Deterministic simulated multicore execution engine.

    Logical threads are effect-based coroutines; every simulated memory
    access, fence or OS event yields to the scheduler, which charges its
    cycle cost (cache hierarchy + TLB models) to the thread's clock and
    resumes the globally earliest thread ([Min_clock]) or a random runnable
    one ([Random_order]).  Exactly one access executes at a time, so each
    access is atomic and interleaving granularity is a single access.

    All thread-side cost accounting goes through {!Mem}, the fused
    per-thread memory-access interface.  Spin loops in simulated code must
    yield (e.g. {!Mem.pause}) on every iteration, otherwise other threads
    cannot progress. *)

type access_kind = Load | Store | Rmw
type fence_kind = Full | Compiler
type event_kind = Minor_fault | Syscall | Pause

exception Neutralized
(** Raised inside a victim thread when a posted neutralization signal is
    delivered: the thread unwinds to its {!Mem.checkpoint}, which runs the
    registered recovery closure and retries.  Simulated code should let it
    propagate (or re-raise it) so the checkpoint sees it. *)

type signal_outcome =
  | Posted  (** signal now pending; the victim is quiesced from here on *)
  | Already_pending  (** an earlier signal has not been delivered yet *)
  | Dead  (** the victim crashed or already finished — typed no-op *)

type scripted = {
  prefix : int array;
      (** scheduling choices to replay, as runnable-set indices (taken
          modulo the number of runnable threads at that step) *)
  mutable factors : int list;
      (** observed branching factors, reversed; filled in by the run *)
  mutable steps : int;  (** number of scheduling decisions taken so far *)
}

type policy =
  | Min_clock  (** execute accesses in simulated-time order (benchmarks) *)
  | Random_order of int  (** seeded random interleaving (race tests) *)
  | Scripted of scripted
      (** replay a schedule prefix and record branching factors; used by
          {!Explore} for bounded schedule enumeration *)

type t

type ctx
(** Per-logical-thread context: the value every simulated thread body
    receives and threads through the whole stack.  It is the fused
    memory-access handle — engine binding, thread id, PRNG and
    per-access bookkeeping are resolved once per thread at engine creation,
    not re-checked per access.  Operate on it through {!Mem}. *)

val create :
  ?policy:policy ->
  ?cost:Cost_model.t ->
  ?geom:Geometry.t ->
  ?cache_cfg:Hierarchy.config ->
  ?tlb_slots:int ->
  nthreads:int ->
  unit ->
  t

val cost_model : t -> Cost_model.t
val geometry : t -> Geometry.t
val nthreads : t -> int

val external_ctx : ?tid:int -> ?seed:int -> unit -> ctx
(** A context usable outside the scheduler: all cost accounting is a no-op. *)

(** {2 The fused memory-access interface} — called from inside simulated
    threads.  One handle per thread carries everything an access needs, so
    each call is a single enablement branch plus the cost-model update; on
    the hot path ([Min_clock], trivial fault plan, thread still the
    scheduling leader) a request is charged inline without a context
    switch, with byte-identical simulated results (see DESIGN.md). *)

module Mem : sig
  type t = ctx

  val tid : t -> int
  val prng : t -> Prng.t

  val costed : t -> bool
  (** [true] when the context belongs to an engine (accesses are charged);
      [false] for {!external_ctx}. *)

  val now : t -> int
  (** The calling thread's simulated clock, in cycles. *)

  val access : t -> vpage:int -> paddr:int -> kind:access_kind -> unit
  (** Charge one memory access.  [vpage < 0] skips the TLB (used for
      allocator metadata that is modelled as identity-mapped). *)

  val fence : t -> fence_kind -> unit
  val event : t -> event_kind -> unit

  val pause : t -> unit
  (** One spin-loop iteration: charges the pause cost and yields. *)

  val charge : t -> int -> unit
  (** Add raw cycles to the calling thread's clock without yielding. *)

  val tlb_shootdown : t -> int -> unit
  (** Flush a virtual page from every TLB (issued by unmap/remap paths;
      its cycle cost is part of the surrounding syscall). *)

  val note_cas_failure : t -> addr:int -> unit
  (** Record a failed CAS on simulated address [addr] in the profiler's
      contention table (no-op when profiling is off or outside the
      engine). *)

  val profile : t -> Oamem_obs.Profile.t
  (** The engine's profiler, or {!Oamem_obs.Profile.null} for an external
      context — instrumentation points need no option check. *)

  (** {3 Neutralization} — a deterministic simulation of the async-signal
      checkpoint/restart idiom (sigsetjmp + tgkill) DEBRA+ and NBR build
      on.  See DESIGN.md "Neutralization". *)

  val checkpoint : t -> recover:(unit -> unit) -> (unit -> 'a) -> 'a
  (** [checkpoint c ~recover f] registers a recovery checkpoint for the
      dynamic extent of [f] (charged [checkpoint_set] cycles).  If a
      neutralization signal is delivered while [f] runs, the thread
      unwinds here with {!Neutralized}, [recover] runs, and [f] is
      retried.  [recover] must be idempotent: a signal delivered during
      recovery re-runs it.  Nested registration raises
      [Invalid_argument].  For an external context, [f] just runs. *)

  val masked : t -> (unit -> 'a) -> 'a
  (** Defer signal delivery for the extent of the callback (sigprocmask
      analogue); nests.  Used around sections whose unwind would corrupt
      host-side state (allocator calls, limbo-bag updates). *)

  val neutralize : t -> victim:int -> signal_outcome
  (** Post a neutralization signal to thread [victim] (charged
      [neutralize_post] cycles to the poster; no yield, so the post is
      atomic).  After [Posted] the poster may treat the victim as
      quiesced: the victim executes no further simulated access before
      delivery — a pending signal disables its fused fast path and the
      scheduler delivers before processing its next blocked request,
      discarding that request unexecuted.  Delivery happens only when the
      victim has a {!checkpoint} registered and is not {!masked}; the
      signal stays pending (and keeps the victim off the fast path) until
      then.  A signal cuts an injected stall short: the victim's wake-up
      is pulled back to the poster's clock.  Posting to a crashed or
      finished thread returns [Dead] and does nothing. *)

  val signal_pending : t -> tid:int -> bool

  val peer_crashed : t -> tid:int -> bool
  (** Whether thread slot [tid] was fail-stopped by fault injection —
      the pthread_tryjoin analogue schemes use to seize a dead thread's
      deferred frees. *)

  (** {3 Conditional access} — a deterministic simulation of the revocable
      per-thread "accessible" flag of Singh, Brown & Spear's immediate-
      reclamation hardware primitive.  Flag lines are real simulated
      addresses, so revocations and flag checks flow through the coherence
      directory (and the profiler's contention attribution) like any other
      shared-line traffic.  See DESIGN.md "Conditional access". *)

  val cond_access : t -> bool
  (** One conditional access: charge a load of the calling thread's own
      flag line plus [cond_access_extra] directory-check cycles (no yield —
      the check is atomic with its outcome) and return the flag.  [false]
      means a revocation is pending: the scheme must restart the operation
      (after {!grant_access}).  Always [true] for an external context. *)

  val grant_access : t -> unit
  (** Re-grant the calling thread's own flag (a store on its flag line):
      the restart path after a failed {!cond_access}. *)

  val revoke : t -> victim:int -> signal_outcome
  (** Revoke [victim]'s accessible flag (charged [revoke_broadcast] plus a
      remote store on the victim's flag line; no yield, so the revocation
      is atomic).  After [Posted], any Store/Rmw the victim commits outside
      a {!masked} section is {e squashed} — the value mutation does not
      happen and CAS-like operations report failure — and its next
      {!cond_access} returns [false]; a poster may therefore free memory
      the victim could still be reading immediately after revoking.  A
      pending revocation clears every cached leader tenure, exactly like a
      posted neutralization, and keeps the victim off the fused fast path
      until it re-grants its own flag.  Posting to a crashed or finished
      thread returns [Dead] (safe: it never accesses again); a victim whose
      flag is already revoked returns [Already_pending]. *)

  val unconditional : t -> (unit -> 'a) -> 'a
  (** Exempt every access made during the callback from conditional-access
      squashing; nests.  For trusted runtime code — allocator metadata
      walks, superblock anchor CASes — that is not part of any scheme's
      optimistic protocol and must make progress even on a thread whose
      flag is revoked (e.g. a bystander flushing its thread cache).
      Orthogonal to {!masked}: signal delivery is not deferred. *)

  val enter_unconditional : t -> unit
  val leave_unconditional : t -> unit
  (** The bracket {!unconditional} is built on, for hot callers that must
      not allocate a closure (the allocator's entry points).  Every
      [enter_unconditional] must be matched by one [leave_unconditional] on
      every exit, exceptional ones included. *)

  val access_revoked : t -> tid:int -> bool
  (** Cost-free: whether [tid]'s accessible flag is currently revoked
      (sanitizer and test hook). *)

  val squashed : t -> bool
  (** Cost-free: whether the calling thread's last committed Store/Rmw was
      squashed by a pending revocation.  [Cell]/[Vmem] consult this right
      after the access charge to suppress the value mutation. *)
end

(** {2 Scheduler} *)

val spawn : t -> tid:int -> (ctx -> unit) -> unit
(** Assign a body to thread slot [tid].  The slot must be idle.  Slots may be
    reused across successive {!run} phases. *)

exception Step_limit_exceeded

val run : ?max_steps:int -> t -> unit
(** Run until every spawned thread finishes or crashes.  Exceptions raised
    by thread bodies propagate (the raising slot is marked idle). *)

(** {2 Fault injection}

    The engine consults a {!Fault_plan.t} at every yield point, under every
    scheduling policy: stalls add cycles to the thread's clock (so it is not
    rescheduled until the simulated stall has passed), crashes remove the
    thread from the runnable set permanently mid-operation, jitter perturbs
    every yield with a seeded random delay.  Crashed slots are dead: they
    are never resumed, [spawn] on them raises, and {!run} returns once only
    crashed slots remain. *)

val set_fault_plan : t -> Fault_plan.t -> unit
val fault_plan : t -> Fault_plan.t

(** {2 Tracing}

    The engine emits [Stall] and [Crash] events into an attached
    {!Oamem_obs.Trace.t} (default {!Oamem_obs.Trace.null}); other
    subsystems attach to the same trace via their own [set_trace]. *)

val set_trace : t -> Oamem_obs.Trace.t -> unit
val trace : t -> Oamem_obs.Trace.t

(** {2 Profiling}

    With an attached {!Oamem_obs.Profile.t} (default
    {!Oamem_obs.Profile.null}), every cycle the scheduler charges — request
    costs from the cache/TLB/cost models, injected stalls and jitter, and
    raw {!Mem.charge} cycles — is also attributed to the issuing thread's
    innermost open profiler span, and stores/RMWs that trigger a remote
    invalidation broadcast are charged to the accessed address in the
    profiler's contention table.  Subsystems open spans through
    {!Mem.profile} and report failed CAS attempts through
    {!Mem.note_cas_failure}.  All of it is allocation-free and branch-only
    when the profiler is disabled. *)

val set_profile : t -> Oamem_obs.Profile.t -> unit
val profile : t -> Oamem_obs.Profile.t

(** {2 Fused fast path} *)

val set_fused : t -> bool -> unit
(** Enable/disable the inline fast path and run-ahead parking (default
    enabled).  With it disabled every yield goes through the scheduler
    exactly as the pre-fusion engine did — the differential tests run both
    ways and assert byte-identical simulated results.

    When enabled, accesses, fences and events share one {e leader tenure}:
    a clock bound, proven once against the live heap minimum, below which
    the thread remains the strict scheduling leader, so a steady-state
    request costs one integer compare and commits without a context switch.
    A thread that loses leadership parks in the scheduler's heap and drives
    the other threads forward from its own stack frame, then resolves its
    own yield exactly as the scheduler would.  Spawn, [reset_clocks],
    neutralization and revocation posts, and plan/fusion/sampler changes
    drop every cached tenure, and no tenure runs past the next sample
    boundary.  See DESIGN.md "Leader tenures" for the proof
    obligations. *)

val fused : t -> bool

(** {2 Sampling} *)

val set_sampler : t -> every:int -> (int -> unit) -> unit
(** [set_sampler t ~every f] calls [f at] once for each boundary
    [at = 0, every, 2*every, ...], in order, when the thread the scheduler
    picks next has a clock [>= at] — under [Min_clock], once the whole
    frontier has reached [at].  The sampler is not a thread: it takes no
    slot, costs no cycles and leaves the schedule untouched (fused and slow
    runs fire identically).  [f] must only read simulation state.
    Boundaries are clock values, so install the sampler after any
    {!reset_clocks}; it replaces any earlier one.  Raises
    [Invalid_argument] unless [every > 0]. *)

val steps : t -> int
(** Total yield points executed across all threads and phases (scheduler
    and inline path alike): the engine's simulated step count, the
    numerator of the repository benchmark's [host_msteps_per_s]. *)

type fault_stats = {
  mutable yields : int;  (** yield points executed by this thread *)
  mutable stalls_injected : int;
  mutable stall_cycles : int;
  mutable jitter_cycles : int;
  mutable crashed : bool;
  mutable neutralized : int;
      (** neutralization signals delivered to this thread *)
}

val fault_stats : t -> tid:int -> fault_stats
(** Live per-thread record (not a copy). *)

val crashed : t -> tid:int -> bool

(** {2 Clocks and stats} *)

val clock : t -> tid:int -> int
val elapsed : t -> int
(** Max over all thread clocks, in cycles. *)

val elapsed_seconds : t -> float

val reset_clocks : t -> unit
(** Zero every thread clock and rebuild the scheduler index (heap keys are
    clocks).  Part of {!Oamem_core.System.reset_measurement}. *)

type stats = {
  accesses : int;
  fences : int;
  faults : int;
  syscalls : int;
  cache : Hierarchy.stats;
  tlb : Tlb.stats;
}

val stats : t -> stats
val reset_stats : t -> unit
val pp_stats : Format.formatter -> stats -> unit
