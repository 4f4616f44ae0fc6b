(** Common interface of the memory-reclamation schemes.

    A lock-free data structure drives a scheme through the {!ops} record;
    the scheme raises {!Restart} from its validation hooks when the
    operation must be retried from a safe location (the optimistic-access
    restart contract).  See the implementation files for the per-scheme
    semantics of each hook. *)

open Oamem_engine
module Trace = Oamem_obs.Trace
module Metrics = Oamem_obs.Metrics

exception Restart

type stats = {
  mutable retired : int;
  mutable freed : int;
  mutable carried : int;
      (** {!unreclaimed} balance at the last {!reset_stats}: nodes retired
          before the measurement window and not yet freed *)
  mutable restarts : int;  (** operation restarts (all causes) *)
  mutable warnings_fired : int;  (** warning-bit sets / clock bumps *)
  mutable warnings_piggybacked : int;  (** OA-VER reclaims without a bump *)
  mutable reclaim_phases : int;  (** limbo sweeps / recycling phases *)
  mutable neutralized : int;
      (** operations recovered after a delivered neutralization signal *)
  mutable seized : int;
      (** limbo nodes seized from dead (crashed/finished) threads' bags *)
  mutable cond_fails : int;
      (** failed conditional accesses: the thread found its accessible flag
          revoked and restarted (IMR) *)
}

val fresh_stats : unit -> stats

val reset_stats : stats -> unit
(** Zero the windowed counters, folding the open {!unreclaimed} balance
    into [carried] so the gauge reads the same before and after. *)

val pp_stats : Format.formatter -> stats -> unit

val unreclaimed : stats -> int
(** [carried + retired - freed]: the live count of nodes sitting in limbo
    lists / retirement pools — the garbage a stalled or crashed thread can
    pin (robustness metric).  Unchanged by {!reset_stats}, so a
    measurement reset cannot drive it negative. *)

val pinned : stats -> int
(** Unreclaimed nodes no live thread can free: {!unreclaimed} minus the
    nodes already seized from dead threads' bags (those sit in a live
    thread's bag and obey the normal grace period).  Clamped at zero once
    seized nodes are actually freed. *)

(** {2 The shared emit path}

    Schemes and the data structures driving them report reclamation
    activity through a {!sink}: each [note_*] bumps the stats record and
    mirrors the event into the attached trace (and, for reclaim phases,
    the batch-size histogram).  With no trace attached the mirror is a
    dead branch, so the hot path stays a plain field increment. *)

type sink = {
  stats : stats;
  mutable trace : Trace.t;
  mutable reclaim_hist : Metrics.histogram option;
      (** batch-size distribution of reclaim phases *)
}

val fresh_sink : unit -> sink

val note_retired : sink -> Engine.ctx -> int -> unit
(** One node retired (argument: its address). *)

val note_freed : sink -> int -> unit
(** [n] nodes freed outside a reclaim phase (immediate frees, teardown). *)

val note_reclaim_phase : sink -> Engine.ctx -> freed:int -> unit
(** One limbo sweep / recycling phase that freed [freed] nodes. *)

val note_warning : sink -> Engine.ctx -> piggybacked:bool -> unit
val note_restart : sink -> Engine.ctx -> unit

val note_neutralized : sink -> Engine.ctx -> unit
(** One operation recovered at its checkpoint after a neutralization. *)

val note_seized : sink -> int -> unit
(** [n] limbo nodes seized from a dead thread's bag (they remain counted
    retired until actually freed — seizure unpins, it does not free). *)

val note_cond_fail : sink -> Engine.ctx -> unit
(** One failed conditional access (the thread's accessible flag was found
    revoked; its operation restarts).  Emits {!Trace.Cond_fail}. *)

(** Declarative capabilities, stated once per scheme in its {!ops}.  Every
    behavioural property a consumer would otherwise infer from the scheme's
    name lives here: the sanitizer derives its suppression policy from
    [caps], the fault-matrix picks its legs from [caps], and the README
    scheme table is generated from [caps].  No component outside
    [Registry] may resolve a scheme by name-string matching. *)
type caps = {
  hazard_writes : bool;
      (** publishes hazard pointers: a store to a retired node is legal
          only under a covering hazard *)
  neutralizes : bool;
      (** posts neutralization signals (DEBRA+); stores by a
          signal-pending thread are tolerated until delivery *)
  recycles_retired : bool;
      (** recycles retired nodes in place without freeing (OA-orig
          pools) — stores into retired nodes are the design *)
  leaks_by_design : bool;
      (** never reclaims: retired nodes outliving the run are expected *)
  conditional_access : bool;
      (** accesses run under a revocable accessible flag; stores by a
          revoked thread are squashed by the simulated hardware *)
  frees_immediately : bool;
      (** frees retired nodes immediately after revoking access — no
          limbo list, no grace period (IMR) *)
}

type ops = {
  name : string;
  caps : caps;  (** declared capabilities (see {!caps}) *)
  alloc : Engine.ctx -> int -> int;  (** node allocation (palloc for OA) *)
  retire : Engine.ctx -> int -> unit;  (** unlinked node: free when safe *)
  cancel : Engine.ctx -> int -> unit;  (** return a never-published node *)
  begin_op : Engine.ctx -> unit;
  end_op : Engine.ctx -> unit;
  read_check : Engine.ctx -> unit;
      (** after every optimistic load; may raise {!Restart} *)
  traverse_protect :
    Engine.ctx -> slot:int -> addr:int -> link:int -> expect:int -> unit;
      (** before dereferencing [addr], read from the word at [link] as
          [expect] (hazard-pointer schemes publish [addr], fence, re-load
          [link] and restart unless it still holds [expect]; no-op for OA);
          may raise {!Restart} *)
  write_protect : Engine.ctx -> slot:int -> int -> unit;
      (** hazard-protect one node a CAS involves *)
  validate : Engine.ctx -> unit;
      (** one check covering all protected nodes (OA: fence + warning
          check, §2.4); may raise {!Restart} *)
  clear : Engine.ctx -> unit;  (** drop the thread's hazard pointers *)
  flush : Engine.ctx -> unit;  (** teardown: drain deferred frees *)
  neutralizable : bool;
      (** the scheme may post neutralization signals; data structures must
          run each operation under {!Engine.Mem.checkpoint} with [recover]
          as (part of) the recovery closure *)
  recover : Engine.ctx -> unit;
      (** scheme-side recovery after a delivered neutralization (DEBRA:
          reset the thread's announced epoch); must be idempotent *)
  stats : stats;  (** == [sink.stats]; kept as a direct field for readers *)
  sink : sink;
}

type config = {
  threshold : int;  (** limbo-list length triggering reclamation *)
  slots_per_thread : int;  (** hazard-pointer slots per thread *)
  pool_nodes : int;  (** OA-orig: fixed recycling-pool size *)
  node_words : int;  (** OA-orig: node size the pool is built for *)
  hazard_padded : bool;  (** cache-line pad hazard slots (ablation hook) *)
  neutralize : bool;
      (** DEBRA: post neutralization signals to lagging threads (default
          true; false degrades it to plain EBR behaviour under faults) *)
}

val default_config : config

(** {2 Observation wrapper} (the sanitizer hook) *)

type observer = {
  obs_alloc : Engine.ctx -> addr:int -> words:int -> unit;
      (** the scheme handed out a node ([words] = requested size); for the
          original OA recycling pools this is the only allocation signal —
          recycled nodes never pass through the allocator *)
  obs_retire : Engine.ctx -> addr:int -> unit;
  obs_cancel : Engine.ctx -> addr:int -> unit;
  obs_hazard : Engine.ctx -> slot:int -> addr:int -> unit;
      (** hazard published via [traverse_protect] or [write_protect] *)
  obs_clear : Engine.ctx -> unit;  (** the thread dropped its hazards *)
  obs_enter : Engine.ctx -> unit;  (** entering scheme-internal code *)
  obs_leave : Engine.ctx -> unit;  (** leaving scheme-internal code *)
}

val observe : observer -> ops -> ops
(** Wrap an [ops] record so every lifecycle-relevant call is reported to
    the observer first.  [alloc]/[retire]/[cancel]/[flush] delegate inside
    an [obs_enter]/[obs_leave] bracket (they may free or recycle memory and
    write bookkeeping words into nodes); [stats]/[sink] are shared with the
    wrapped scheme. *)

val profiled : ops -> ops
(** Wrap [retire] and [flush] in profiler spans ([Reclaim_retire] /
    [Reclaim_flush], via {!Engine.Mem.profile}).  Applied unconditionally
    by [System.create]; when profiling is off each wrapped call costs one
    load and a branch. *)
