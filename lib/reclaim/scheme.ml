(* Common interface of the memory-reclamation schemes.

   A lock-free data structure drives a scheme through the [ops] record:

   - [alloc]/[retire] replace malloc/free for nodes;
   - [begin_op]/[end_op] bracket every data-structure operation;
   - [read_check] is called after every optimistic load during a traversal;
     it raises {!Restart} when the scheme detects that reclamation may have
     invalidated what was just read (OA warning bit / version clock);
   - [traverse_protect] is called before *dereferencing* a traversal
     pointer; only hazard-pointer-style schemes do work here (publish the
     pointer, fence, re-load the source link and check it still holds the
     expected value, raising {!Restart} on failure);
   - [write_protect] + [validate] bracket a CAS: protect every node the CAS
     involves with hazard pointers, then validate once (for OA this is the
     single warning check + fence of §2.4);
   - [cancel] returns a node that was never published (e.g. a failed
     insert's fresh node) without a grace period;
   - [clear] drops the thread's hazard pointers at the end of an operation;
   - [flush] drains the thread's deferred frees at teardown.

   The data structure catches {!Restart} and restarts the whole operation
   from a location known to be valid (the paper's restart contract). *)

open Oamem_engine
module Trace = Oamem_obs.Trace
module Metrics = Oamem_obs.Metrics
module Profile = Oamem_obs.Profile

exception Restart

type stats = {
  mutable retired : int;
  mutable freed : int;
  mutable carried : int;  (** unreclaimed balance at the last reset *)
  mutable restarts : int;
  mutable warnings_fired : int;  (** warning-bit broadcasts / clock bumps *)
  mutable warnings_piggybacked : int;  (** OA-VER: reclaims without a bump *)
  mutable reclaim_phases : int;  (** limbo scans / recycling phases *)
  mutable neutralized : int;  (** ops recovered after a neutralization *)
  mutable seized : int;  (** limbo nodes seized from dead threads' bags *)
  mutable cond_fails : int;  (** failed conditional accesses (IMR) *)
}

let fresh_stats () =
  {
    retired = 0;
    freed = 0;
    carried = 0;
    restarts = 0;
    warnings_fired = 0;
    warnings_piggybacked = 0;
    reclaim_phases = 0;
    neutralized = 0;
    seized = 0;
    cond_fails = 0;
  }

(* Retired-but-unreclaimed nodes: the garbage a stalled thread can pin.  A
   live count, not a windowed one: [carried] holds the balance open at the
   last reset, so nodes retired before it and freed after it cancel out. *)
let unreclaimed s = s.carried + s.retired - s.freed

(* Unreclaimed nodes no live thread can free.  A node seized from a dead
   thread's bag is still unreclaimed (seizure unpins, it does not free) but
   it now sits in a live thread's bag and obeys the normal grace period, so
   it must not be reported as pinned forever — the accounting bug this
   fixes counted a crashed thread's whole backlog as live garbage even for
   schemes that had already taken it over.  Clamped: once seized nodes are
   actually freed they leave [unreclaimed] while staying in [seized]. *)
let pinned s = max 0 (unreclaimed s - s.seized)

let reset_stats s =
  s.carried <- unreclaimed s;
  s.retired <- 0;
  s.freed <- 0;
  s.restarts <- 0;
  s.warnings_fired <- 0;
  s.warnings_piggybacked <- 0;
  s.reclaim_phases <- 0;
  s.neutralized <- 0;
  s.seized <- 0;
  s.cond_fails <- 0

(* The shared emit path: every scheme (and the data structures driving one)
   reports reclamation activity through a sink, which bumps the stats record
   and mirrors the event into the attached trace / histogram.  The trace
   defaults to [Trace.null]; events are built only once the trace is known
   to be enabled, so the disabled path allocates nothing. *)
type sink = {
  stats : stats;
  mutable trace : Trace.t;
  mutable reclaim_hist : Metrics.histogram option;
      (** batch-size distribution of reclaim phases *)
}

let fresh_sink () =
  { stats = fresh_stats (); trace = Trace.null; reclaim_hist = None }

let emit sink ctx kind =
  Trace.emit sink.trace ~tid:(Engine.Mem.tid ctx) ~at:(Engine.Mem.now ctx) kind

let note_retired sink ctx addr =
  sink.stats.retired <- sink.stats.retired + 1;
  if Trace.enabled sink.trace then emit sink ctx (Trace.Retire { addr })

(* Frees outside a reclaim phase (immediate frees, teardown flushes). *)
let note_freed sink n = sink.stats.freed <- sink.stats.freed + n

let note_reclaim_phase sink ctx ~freed =
  let s = sink.stats in
  s.freed <- s.freed + freed;
  s.reclaim_phases <- s.reclaim_phases + 1;
  (match sink.reclaim_hist with
  | Some h -> Metrics.observe h freed
  | None -> ());
  if Trace.enabled sink.trace then emit sink ctx (Trace.Reclaim_phase { freed })

let note_warning sink ctx ~piggybacked =
  let s = sink.stats in
  if piggybacked then s.warnings_piggybacked <- s.warnings_piggybacked + 1
  else s.warnings_fired <- s.warnings_fired + 1;
  if Trace.enabled sink.trace then emit sink ctx (Trace.Warning { piggybacked })

let note_restart sink ctx =
  sink.stats.restarts <- sink.stats.restarts + 1;
  if Trace.enabled sink.trace then emit sink ctx Trace.Restart

let note_neutralized sink ctx =
  sink.stats.neutralized <- sink.stats.neutralized + 1;
  if Trace.enabled sink.trace then emit sink ctx Trace.Restart

(* Nodes taken over from a dead thread's limbo bag; they stay [retired]
   until actually freed, but are no longer pinned forever. *)
let note_seized sink n = sink.stats.seized <- sink.stats.seized + n

(* A conditional access failed: the thread's accessible flag was revoked
   and its operation restarts (IMR's analogue of a fired warning bit). *)
let note_cond_fail sink ctx =
  sink.stats.cond_fails <- sink.stats.cond_fails + 1;
  if Trace.enabled sink.trace then emit sink ctx Trace.Cond_fail

(* Declarative capabilities: every behavioural property a consumer used to
   infer from the scheme's name, stated once in the scheme's [ops].  The
   sanitizer's suppression policy, the fault-matrix legs and the README
   scheme table are all derived from this record — no name-string matching
   outside [Registry]. *)
type caps = {
  hazard_writes : bool;
      (** publishes hazard pointers: a store to a retired node is legal only
          under a covering hazard *)
  neutralizes : bool;
      (** posts neutralization signals; stores by a signal-pending thread
          are squashed-in-effect (DEBRA+) *)
  recycles_retired : bool;
      (** recycles retired nodes in place without freeing (OA-orig pools) *)
  leaks_by_design : bool;
      (** never reclaims: retired nodes outliving the run are expected *)
  conditional_access : bool;
      (** accesses run under a revocable accessible flag; stores by a
          revoked thread are squashed by the simulated hardware *)
  frees_immediately : bool;
      (** frees retired nodes immediately after revoking access — no limbo
          list, no grace period (IMR) *)
}

type ops = {
  name : string;
  caps : caps;
  alloc : Engine.ctx -> int -> int;
  retire : Engine.ctx -> int -> unit;
  cancel : Engine.ctx -> int -> unit;
  begin_op : Engine.ctx -> unit;
  end_op : Engine.ctx -> unit;
  read_check : Engine.ctx -> unit;
  traverse_protect :
    Engine.ctx -> slot:int -> addr:int -> link:int -> expect:int -> unit;
  write_protect : Engine.ctx -> slot:int -> int -> unit;
  validate : Engine.ctx -> unit;
  clear : Engine.ctx -> unit;
  flush : Engine.ctx -> unit;
  neutralizable : bool;
      (* the scheme posts neutralization signals, so data structures must
         run operations under an [Engine.Mem.checkpoint] with [recover] *)
  recover : Engine.ctx -> unit;
      (* per-thread recovery after a delivered neutralization; idempotent *)
  stats : stats;
  sink : sink;  (* stats == sink.stats; the sink adds the emit path *)
}

type config = {
  threshold : int;  (** limbo-list length triggering reclamation *)
  slots_per_thread : int;  (** hazard-pointer slots per thread *)
  pool_nodes : int;  (** OA-orig: fixed recycling-pool size *)
  node_words : int;  (** OA-orig: node size the pool is built for *)
  hazard_padded : bool;  (** cache-line pad hazard slots (ablation hook) *)
  neutralize : bool;  (** DEBRA: signal lagging threads (off = plain EBR
                          behaviour under faults) *)
}

let default_config =
  {
    threshold = 64;
    slots_per_thread = 3;
    pool_nodes = 4096;
    node_words = 2;
    hazard_padded = true;
    neutralize = true;
  }

(* --- observation wrapper (the sanitizer hook) ----------------------------- *)

(* An observer sees the scheme-level lifecycle events the allocator cannot:
   retirement, hazard publication, per-operation hazard clears, and the
   addresses the scheme hands out (which, for the original OA recycling
   pools, never pass through the allocator at all).  Scheme entry points
   that may free or recycle memory internally (alloc, retire, cancel,
   flush) are bracketed as internal sections, mirroring the allocator's
   [enter]/[leave] contract. *)
type observer = {
  obs_alloc : Engine.ctx -> addr:int -> words:int -> unit;
  obs_retire : Engine.ctx -> addr:int -> unit;
  obs_cancel : Engine.ctx -> addr:int -> unit;
  obs_hazard : Engine.ctx -> slot:int -> addr:int -> unit;
  obs_clear : Engine.ctx -> unit;
  obs_enter : Engine.ctx -> unit;  (** entering scheme-internal code *)
  obs_leave : Engine.ctx -> unit;  (** leaving scheme-internal code *)
}

let observe o (ops : ops) =
  let internal ctx f =
    o.obs_enter ctx;
    Fun.protect ~finally:(fun () -> o.obs_leave ctx) f
  in
  {
    ops with
    alloc =
      (fun ctx size ->
        let addr = internal ctx (fun () -> ops.alloc ctx size) in
        o.obs_alloc ctx ~addr ~words:size;
        addr);
    retire =
      (fun ctx addr ->
        o.obs_retire ctx ~addr;
        internal ctx (fun () -> ops.retire ctx addr));
    cancel =
      (fun ctx addr ->
        o.obs_cancel ctx ~addr;
        internal ctx (fun () -> ops.cancel ctx addr));
    traverse_protect =
      (fun ctx ~slot ~addr ~link ~expect ->
        o.obs_hazard ctx ~slot ~addr;
        ops.traverse_protect ctx ~slot ~addr ~link ~expect);
    write_protect =
      (fun ctx ~slot addr ->
        o.obs_hazard ctx ~slot ~addr;
        ops.write_protect ctx ~slot addr);
    clear =
      (fun ctx ->
        o.obs_clear ctx;
        ops.clear ctx);
    flush = (fun ctx -> internal ctx (fun () -> ops.flush ctx));
  }

(* --- profiling wrapper ----------------------------------------------------- *)

(* Wrap the scheme entry points that do reclamation work in profiler spans:
   [retire], which may trigger a whole scan-and-reclaim phase internally,
   and [flush], the teardown drain.  [System.create] applies this wrapper
   unconditionally — when profiling is off each call costs one load and a
   branch, and the limbo scan adds its own [Reclaim_scan] child span. *)
let profiled (ops : ops) =
  let spanned1 frame f ctx x =
    let p = Engine.Mem.profile ctx in
    if Profile.enabled p then begin
      let tid = (Engine.Mem.tid ctx) in
      Profile.enter p ~tid ~now:(Engine.Mem.now ctx) frame;
      match f ctx x with
      | r ->
          Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
          r
      | exception e ->
          Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
          raise e
    end
    else f ctx x
  in
  let spanned0 frame f ctx =
    let p = Engine.Mem.profile ctx in
    if Profile.enabled p then begin
      let tid = (Engine.Mem.tid ctx) in
      Profile.enter p ~tid ~now:(Engine.Mem.now ctx) frame;
      match f ctx with
      | () -> Profile.leave p ~tid ~now:(Engine.Mem.now ctx)
      | exception e ->
          Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
          raise e
    end
    else f ctx
  in
  {
    ops with
    retire = spanned1 Profile.Reclaim_retire ops.retire;
    flush = spanned0 Profile.Reclaim_flush ops.flush;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "retired=%d freed=%d restarts=%d warnings=%d piggyback=%d phases=%d \
     neutralized=%d seized=%d cond_fails=%d"
    s.retired s.freed s.restarts s.warnings_fired s.warnings_piggybacked
    s.reclaim_phases s.neutralized s.seized s.cond_fails
