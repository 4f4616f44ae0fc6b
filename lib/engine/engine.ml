(* Deterministic simulated multicore execution engine.

   Logical threads are OCaml-5 effect-based coroutines.  Every simulated
   memory access, fence or OS event is a yield point: the thread performs a
   {!Mem} request, the scheduler charges its cycle cost (via the cache
   hierarchy and TLB models) onto the thread's clock, and then resumes the
   globally earliest thread.  Under the [Min_clock] policy this executes all
   shared-memory accesses in simulated-time order, giving a deterministic
   discrete-event simulation of a multicore; under [Random_order] the
   scheduler explores arbitrary interleavings (used by race tests).

   Because exactly one access runs at a time, each access is atomic, and the
   interleaving granularity is a single memory access — the same granularity
   at which the paper's algorithms must be correct.

   Threads occupy fixed slots [0, nthreads); slots may be reused across
   successive [run] phases (e.g. a sequential prefill phase followed by a
   parallel measurement phase).  Spin loops in simulated code must call
   {!Mem.pause} (or perform some other yield) on every iteration, otherwise
   the simulation cannot make progress on other threads.

   Hot path.  Three mechanisms keep the host cost of a simulated access low:

   - The runnable set under [Min_clock] is indexed by a binary min-heap
     keyed on (clock, tid) — the same ordering the old linear scan computed
     per step — so a scheduling decision is O(log runnable) instead of
     O(nthreads).

   - Leader tenures.  Accesses, fences and events all go through one
     [request] routine.  A thread the scheduler would re-pick anyway
     (strictly earliest clock, ties to the lowest tid) commits its request
     inline — no effect performed, no continuation switch, no allocation —
     through the same [commit_req] the scheduler uses before resuming a
     thread.  Leadership is proven against the live heap minimum once and
     cached as a clock bound [tenure_until]: the thread stays strict leader
     for every request issued below that bound, because heap keys only
     move at the invalidation points enumerated in [tenure_clear]'s callers
     (spawn, reset_clocks, neutralization and revocation posts, plan/fusion
     changes, run entry) and the thread itself only suspends once it is no
     longer leader.  The steady-state check is therefore a single integer
     compare; the per-access profiler and translation-cache checks stay
     dynamic.  The cost-model side effects happen in the identical global
     order, so every simulated outcome (clocks, cache and TLB state, stats,
     schedule) is byte-identical to the slow path.  The fast path is
     disabled under [Random_order]/[Scripted] (every yield is a scheduling
     decision there), under a non-trivial fault plan (the plan is consulted
     at scheduler yields), under [run ~max_steps] (steps are counted at
     scheduler yields), and via {!set_fused} (differential testing).

   - Run-ahead parking.  A fused thread that loses leadership would
     normally perform an effect and wait for the scheduler to walk the
     other threads forward.  Instead, it parks: it records its request in
     its slot, enters the heap as [Parked], and drives the scheduler loop
     from its own stack frame ([drain]), executing the other threads in
     exactly the order the outer loop would have.  When it pops itself — it
     is now the scheduling minimum — it resolves its own yield with the
     scheduler's routine ([resolve_yield]) and returns, or raises if a
     neutralization signal was delivered.  If a fault plan appeared while
     parked, it bails to a real effect so the plan is consulted at a true
     scheduler yield.  Only one thread parks at a time ([parked]); threads
     woken inside a drain suspend via the plain effect path.  Because the
     drained threads run in the identical global order and the yield is
     resolved by the scheduler's own code, parking is observationally
     identical to the slow path — it only replaces two continuation
     switches per rotation with ordinary function calls.

   Allocation.  The inline path and a park allocate nothing on the host.
   An effect suspension allocates only the runtime's continuation (2
   words): the engine keeps it in the slot's reusable [k] field rather
   than in a box.

   Sampling.  A [set_sampler] observer is not a simulated thread: the
   scheduler calls it at each boundary [0, every, 2*every, ...] once the
   thread it picks next (in [run]'s loop, or in [drain], which covers a
   parked thread's self-pop) has reached it.  It costs no cycles and takes
   no slot, and [tenure_bound] ends every tenure at the next boundary, so
   the inline path reaches each boundary through the same pick as the slow
   path: sampled or not, the run is identical. *)

type access_kind = Load | Store | Rmw
type fence_kind = Full | Compiler
type event_kind = Minor_fault | Syscall | Pause

(* Pending requests are flattened into per-slot integer fields (no request
   record, no effect payload): [req_tag] selects the operation, and
   [req_vpage]/[req_paddr] carry the access operands.  Tags: *)
let tag_load = 0
let tag_store = 1
let tag_rmw = 2
let tag_fence_full = 3
let tag_fence_compiler = 4
let tag_minor_fault = 5
let tag_syscall = 6
let tag_pause = 7

type scripted = {
  prefix : int array;  (* scheduling choices to replay, as runnable-set
                          indices (taken modulo the number of runnable
                          threads at that step) *)
  mutable factors : int list;  (* observed branching factors, reversed *)
  mutable steps : int;
}

type policy = Min_clock | Random_order of int | Scripted of scripted

(* Payload-free: the suspending thread has already written its request into
   its slot's [req_*] fields, so the effect allocates nothing beyond the
   captured continuation. *)
type _ Effect.t += Yield : unit Effect.t

exception Neutralized

type signal_outcome = Posted | Already_pending | Dead

type fault_stats = {
  mutable yields : int;
  mutable stalls_injected : int;
  mutable stall_cycles : int;
  mutable jitter_cycles : int;
  mutable crashed : bool;
  mutable neutralized : int;
}

type t = {
  cost : Cost_model.t;
  geom : Geometry.t;
  hierarchy : Hierarchy.t;
  tlb : Tlb.t;
  nthreads : int;
  mutable slots : slot array;
  policy : policy;
  sched_rng : Prng.t;
  mutable plan : Fault_plan.t;
  mutable trace : Oamem_obs.Trace.t;
  mutable prof : Oamem_obs.Profile.t;
  mutable accesses : int;
  mutable fences : int;
  mutable faults : int;
  mutable syscalls : int;
  (* --- scheduler index (Min_clock only) --- *)
  use_heap : bool;  (* policy = Min_clock *)
  heap : int array;  (* runnable tids, binary min-heap on (clock, tid) *)
  hpos : int array;  (* tid -> heap index, -1 when not in the heap *)
  mutable hlen : int;
  mutable fused : bool;  (* user toggle for the inline path and parking *)
  mutable inline_ok : bool;  (* set by [run]: fused && Min_clock && no cap *)
  mutable parked : int;  (* tid driving a drain from its own frame, or -1 *)
  (* --- sampler (see [set_sampler]) --- *)
  mutable sampler : int -> unit;
  mutable sample_every : int;  (* 0 = no sampler *)
  mutable sample_next : int;  (* next boundary; max_int with no sampler *)
}

and slot = {
  ctx : ctx;
  mutable clock : int;
  mutable pending : pending;
  fstats : fault_stats;
  (* --- leader tenure --- *)
  mutable tenure_until : int;
      (* the thread is a proven strict leader for any request issued with
         [clock < tenure_until]; 0 = no tenure (re-prove on the next one) *)
  (* --- flattened suspended request --- *)
  mutable k : (unit, unit) Effect.Deep.continuation;
      (* the suspended continuation while [pending = Blocked]; a reusable
         field, so a suspension allocates no box around it *)
  mutable req_tag : int;
  mutable req_vpage : int;
  mutable req_paddr : int;
  (* --- neutralization (simulated async signals) --- *)
  mutable checkpoint : bool;  (* a recovery checkpoint is registered *)
  mutable masked : int;  (* signal-mask depth; > 0 defers delivery *)
  mutable signal : bool;  (* a neutralization signal is pending *)
  mutable stalled_until : int;
      (* clock value at the end of the last injected stall; lets a signal
         wake the victim out of the stall (nanosleep is interrupted) *)
  (* --- conditional access (simulated hardware accessible flag) --- *)
  mutable accessible : bool;
      (* the thread's per-thread accessible flag; a revocation clears it,
         a [Mem.grant_access] (the thread itself, on restart) sets it *)
  mutable squashed : bool;
      (* outcome of the last committed Store/Rmw: [true] iff it was issued
         with the flag revoked outside a masked section, i.e. the simulated
         hardware squashed the value mutation (a conditional CAS fails) *)
  mutable exempt : int;
      (* squash-exemption depth; > 0 marks trusted runtime code (allocator
         metadata) whose plain stores/CASes are never conditional accesses,
         so a pending revocation cannot squash them.  Orthogonal to
         [masked]: exemption does not defer signal delivery. *)
}

and pending =
  | Idle
  | Start of (ctx -> unit)
  | Blocked  (* suspended by an effect; the continuation is in [k] *)
  | Parked  (* in the heap, but running a [drain] from its own frame *)
  | Crashed  (* fault-injected fail-stop; the slot is permanently dead *)

and ctx = { tid : int; eng : t option; prng : Prng.t }

(* OCaml has no null continuation, so every slot's [k] starts out as this
   one: captured once from a fiber that performs [Yield] and is never
   resumed. *)
let no_continuation =
  let captured : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Yield
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  captured := Some k)
          | _ -> None);
    };
  Option.get !captured

let fresh_fault_stats () =
  {
    yields = 0;
    stalls_injected = 0;
    stall_cycles = 0;
    jitter_cycles = 0;
    crashed = false;
    neutralized = 0;
  }

let create ?(policy = Min_clock) ?(cost = Cost_model.opteron_6274)
    ?(geom = Geometry.default) ?cache_cfg ?(tlb_slots = 64) ~nthreads () =
  if nthreads <= 0 then invalid_arg "Engine.create: nthreads must be positive";
  let hierarchy = Hierarchy.create ?cfg:cache_cfg ~cost ~nthreads () in
  let tlb = Tlb.create ~slots:tlb_slots ~cost ~nthreads () in
  let sched_seed =
    match policy with Random_order s -> s | Min_clock | Scripted _ -> 1
  in
  let t =
    {
      cost;
      geom;
      hierarchy;
      tlb;
      nthreads;
      slots = [||];
      policy;
      sched_rng = Prng.create sched_seed;
      plan = Fault_plan.none;
      trace = Oamem_obs.Trace.null;
      prof = Oamem_obs.Profile.null;
      accesses = 0;
      fences = 0;
      faults = 0;
      syscalls = 0;
      use_heap = (policy = Min_clock);
      heap = Array.make nthreads (-1);
      hpos = Array.make nthreads (-1);
      hlen = 0;
      fused = true;
      inline_ok = false;
      parked = -1;
      sampler = ignore;
      sample_every = 0;
      sample_next = max_int;
    }
  in
  t.slots <-
    Array.init nthreads (fun tid ->
        {
          ctx = { tid; eng = Some t; prng = Prng.create (0x9e37 + tid) };
          clock = 0;
          pending = Idle;
          fstats = fresh_fault_stats ();
          tenure_until = 0;
          k = no_continuation;
          req_tag = 0;
          req_vpage = -1;
          req_paddr = 0;
          checkpoint = false;
          masked = 0;
          signal = false;
          stalled_until = 0;
          accessible = true;
          squashed = false;
          exempt = 0;
        });
  t

let cost_model t = t.cost
let geometry t = t.geom
let nthreads t = t.nthreads

let external_ctx ?(tid = 0) ?(seed = 42) () =
  { tid; eng = None; prng = Prng.create seed }

(* --- scheduler index ------------------------------------------------------ *)

(* Strict (clock, tid) lexicographic order: exactly the order the old
   per-step linear scan established (earliest clock, ties to lowest tid). *)
let[@inline] hless t a b =
  let ca = t.slots.(a).clock and cb = t.slots.(b).clock in
  ca < cb || (ca = cb && a < b)

let[@inline] hswap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.hpos.(b) <- i;
  t.hpos.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if hless t t.heap.(i) t.heap.(p) then begin
      hswap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.hlen then begin
    let m = if l + 1 < t.hlen && hless t t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    if hless t t.heap.(m) t.heap.(i) then begin
      hswap t i m;
      sift_down t m
    end
  end

let heap_push t tid =
  if t.hpos.(tid) < 0 then begin
    let i = t.hlen in
    t.heap.(i) <- tid;
    t.hpos.(tid) <- i;
    t.hlen <- i + 1;
    sift_up t i
  end

let heap_pop t =
  if t.hlen = 0 then -1
  else begin
    let tid = t.heap.(0) in
    t.hpos.(tid) <- -1;
    let last = t.hlen - 1 in
    t.hlen <- last;
    if last > 0 then begin
      let moved = t.heap.(last) in
      t.heap.(0) <- moved;
      t.hpos.(moved) <- 0;
      sift_down t 0
    end;
    tid
  end

(* Re-derive the index from slot state.  Needed whenever clocks change out
   of band (e.g. {!reset_clocks} between a warmup and a measured phase):
   heap keys are thread clocks, so zeroing them invalidates the order. *)
let heap_rebuild t =
  if t.use_heap then begin
    t.hlen <- 0;
    Array.fill t.hpos 0 t.nthreads (-1);
    for tid = 0 to t.nthreads - 1 do
      match t.slots.(tid).pending with
      | Idle | Crashed -> ()
      | Start _ | Blocked | Parked -> heap_push t tid
    done
  end

(* Clock bound below which the running thread [tid] (not in the heap) would
   be re-picked by the scheduler right now: a clock [c] is strictly
   earliest against the heap minimum, ties broken to the lowest tid — the
   scheduler's own (clock, tid) comparison — exactly when
   [c < tenure_bound t ~tid].  With an empty heap there is no competitor,
   so the tenure is unbounded (only {!tenure_clear} callers — spawn,
   neutralize, … — can end it).  Either way it stops at the next sample
   boundary (an int compare: [Stdlib.min] is polymorphic). *)
let[@inline] tenure_bound t ~tid =
  let b =
    if t.hlen = 0 then max_int
    else begin
      let u = Array.unsafe_get t.heap 0 in
      let cu = (Array.unsafe_get t.slots u).clock in
      if tid < u then cu + 1 else cu
    end
  in
  if b < t.sample_next then b else t.sample_next

(* Invalidate every cached tenure.  Called whenever a heap key can move
   other than by the owner's own monotone clock advance, or whenever the
   fast-path preconditions change out of band:
   - [run] entry: [inline_ok] is recomputed per run;
   - [spawn]: a new entry may undercut the cached minimum;
   - [reset_clocks]: clocks (and therefore bounds) restart from zero;
   - [Mem.neutralize] (Posted): the victim's clock may be pulled back,
     and the victim itself must stop fusing so delivery can happen;
   - [Mem.revoke] (Posted): the victim's flag precondition fails, and its
     Store/Rmw commits change meaning (the squash latch);
   - [set_fused] / [set_fault_plan] / [set_sampler]: precondition
     changes. *)
let tenure_clear t =
  let slots = t.slots in
  for i = 0 to Array.length slots - 1 do
    slots.(i).tenure_until <- 0
  done

(* --- request costs -------------------------------------------------------- *)

(* Cycle cost of one memory access by thread [tid], updating the cache and
   TLB models as a side effect.  Shared by the scheduler's request path and
   the fused inline path so both charge identically. *)
let[@inline] charge_access t ~tid ~vpage ~paddr ~kind =
  t.accesses <- t.accesses + 1;
  let tlb_cost = if vpage >= 0 then Tlb.access t.tlb ~tid vpage else 0 in
  let hkind =
    match kind with
    | Load -> Hierarchy.Load
    | Store -> Hierarchy.Store
    | Rmw -> Hierarchy.Rmw
  in
  let block = Geometry.block_of_addr t.geom paddr in
  tlb_cost + Hierarchy.access t.hierarchy ~tid ~kind:hkind block

(* Per-thread accessible-flag lines, modelled as real simulated addresses so
   conditional accesses and revocations flow through the coherence directory
   like any other shared-line traffic: a revocation's store invalidates the
   victim's cached copy, and the victim's next flag check pays the remote
   miss — with the invalidation attributed by the profiler exactly as for a
   data line.  The base sits above the allocator's pagemap table (1 lsl 52,
   one word per virtual page), the [Cell] metadata heap (1 lsl 50, growing
   upward) and the data address space, so flag lines share no cache line
   with any of them. *)
let flag_base = 1 lsl 53

let[@inline] flag_addr t tid = flag_base + (tid * Geometry.line_words t.geom)

(* Charge a flag-line access to [tid]'s clock without yielding: like a
   neutralization post, flag traffic is atomic under every policy, so the
   fused and slow paths charge it identically. *)
let charge_flag_access t ~tid ~owner ~kind ~extra =
  let paddr = flag_addr t owner in
  let vpage = Geometry.page_of_addr t.geom paddr in
  let profiling = Oamem_obs.Profile.enabled t.prof in
  let invs_before =
    if profiling then Hierarchy.remote_invalidations t.hierarchy else 0
  in
  let cost = extra + charge_access t ~tid ~vpage ~paddr ~kind in
  let slot = t.slots.(tid) in
  slot.clock <- slot.clock + cost;
  if profiling then begin
    Oamem_obs.Profile.charge t.prof ~tid cost;
    if
      kind <> Load
      && Hierarchy.remote_invalidations t.hierarchy > invs_before
    then Oamem_obs.Profile.note_invalidation t.prof ~tid ~addr:paddr
  end

(* Cost of request [tag] (with operands [vpage]/[paddr] for an access). *)
let[@inline] cost_of_req t ~tid slot ~tag ~vpage ~paddr =
  if tag <= tag_rmw then begin
    let kind =
      if tag = tag_load then Load else if tag = tag_store then Store else Rmw
    in
    (* conditional access: a Store/Rmw committed with the accessible flag
       revoked (outside a masked section) performs no value mutation —
       [Cell]/[Vmem] consult [Mem.squashed] right after this commit.
       Evaluated at commit time, so the outcome is identical whichever
       path committed the request. *)
    if kind <> Load then
      slot.squashed <-
        (not slot.accessible) && slot.masked = 0 && slot.exempt = 0;
    charge_access t ~tid ~vpage ~paddr ~kind
  end
  else if tag = tag_fence_full then begin
    t.fences <- t.fences + 1;
    t.cost.fence_full
  end
  else if tag = tag_fence_compiler then t.cost.fence_compiler
  else if tag = tag_minor_fault then begin
    t.faults <- t.faults + 1;
    t.cost.minor_fault
  end
  else if tag = tag_syscall then begin
    t.syscalls <- t.syscalls + 1;
    t.cost.syscall
  end
  else t.cost.pause

(* --- fault injection / observability wiring -------------------------------- *)

let set_fault_plan t plan =
  t.plan <- plan;
  (* triviality is a fast-path precondition cached inside tenures *)
  tenure_clear t

let fault_plan t = t.plan
let set_trace t tr = t.trace <- tr
let trace t = t.trace
let set_profile t p = t.prof <- p
let profile t = t.prof

let set_fused t on =
  t.fused <- on;
  tenure_clear t

(* Cached tenures may run past the new sampler's first boundary. *)
let set_sampler t ~every f =
  if every <= 0 then invalid_arg "Engine.set_sampler: every must be positive";
  t.sampler <- f;
  t.sample_every <- every;
  t.sample_next <- 0;
  tenure_clear t

let fused t = t.fused
let fault_stats t ~tid = t.slots.(tid).fstats
let crashed t ~tid = t.slots.(tid).fstats.crashed

(* Total yield points executed (all threads, all phases): the engine's
   simulated step count, identical whether a yield went through the
   scheduler, the inline path, or a parked thread's resolution.  The
   repository benchmark reports steps per host second from this. *)
let steps t =
  Array.fold_left (fun acc s -> acc + s.fstats.yields) 0 t.slots

(* --- scheduler core ------------------------------------------------------- *)

(* Charge one request to its thread's clock: the cost-model update plus
   [extra] injected cycles (fault-plan stall and jitter), attributed to the
   innermost open profiler span, with any remote invalidation a Store/Rmw
   triggered noted against the accessed address.  The one commit every path
   shares — the scheduler resuming a blocked thread, a parked thread
   surfacing from its drain, and the inline path — so all three charge
   identically.  A suspended thread's span stack is untouched until it
   resumes, so its innermost open span is the one that issued the
   request. *)
let[@inline] commit_req t ~tid slot ~tag ~vpage ~paddr ~extra =
  let profiling = Oamem_obs.Profile.enabled t.prof in
  let invs_before =
    if profiling then Hierarchy.remote_invalidations t.hierarchy else 0
  in
  let cost = cost_of_req t ~tid slot ~tag ~vpage ~paddr + extra in
  slot.clock <- slot.clock + cost;
  if profiling then begin
    Oamem_obs.Profile.charge t.prof ~tid cost;
    if
      (tag = tag_store || tag = tag_rmw)
      && Hierarchy.remote_invalidations t.hierarchy > invs_before
    then Oamem_obs.Profile.note_invalidation t.prof ~tid ~addr:paddr
  end

let start_thread t slot f =
  let tid = slot.ctx.tid in
  (* settle at suspension time: the request is already in the slot's
     [req_*] fields, so parking the continuation is all that is left of the
     old settle step.  The handler is hoisted so a yield does not allocate
     the [Some]-wrapped closure afresh on every perform. *)
  let on_yield =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        slot.k <- k;
        slot.pending <- Blocked;
        if t.use_heap then heap_push t tid)
  in
  Effect.Deep.match_with f slot.ctx
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              (* [Yield : unit Effect.t], so the GADT equation [a = unit]
                 makes the hoisted handler's type line up *)
              (on_yield : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }

type resolution = Resume | Deliver | Killed

(* Resolve the yield of a thread that became the scheduling minimum with
   its request recorded in its slot.  Shared by [step], which continues or
   discontinues the thread's continuation, and [park], which returns or
   raises on the thread's own stack.  Count the yield; then deliver a
   pending neutralization signal instead of the request — the handler runs
   before the victim's next instruction, so the request never executes (no
   cache/TLB side effect), and the yield bypasses the fault plan, since the
   handler rather than user code runs here; otherwise consult the plan and
   commit the request plus any injected stall and jitter. *)
let resolve_yield t ~tid slot =
  let fs = slot.fstats in
  fs.yields <- fs.yields + 1;
  if slot.signal && slot.checkpoint && slot.masked = 0 then begin
    slot.signal <- false;
    fs.neutralized <- fs.neutralized + 1;
    let cost = t.cost.neutralize_deliver in
    slot.clock <- slot.clock + cost;
    if Oamem_obs.Profile.enabled t.prof then
      Oamem_obs.Profile.charge t.prof ~tid cost;
    if Oamem_obs.Trace.enabled t.trace then
      Oamem_obs.Trace.emit t.trace ~tid ~at:slot.clock
        Oamem_obs.Trace.Neutralized;
    Deliver
  end
  else
    match Fault_plan.on_yield t.plan ~tid ~yield:fs.yields with
    | Fault_plan.Kill ->
        (* fail-stop: the continuation is dropped, the slot never resumes *)
        fs.crashed <- true;
        slot.pending <- Crashed;
        if Oamem_obs.Trace.enabled t.trace then
          Oamem_obs.Trace.emit t.trace ~tid ~at:slot.clock
            Oamem_obs.Trace.Crash;
        Killed
    | Fault_plan.Delay { stall; jitter } ->
        if stall > 0 then begin
          fs.stalls_injected <- fs.stalls_injected + 1;
          fs.stall_cycles <- fs.stall_cycles + stall;
          if Oamem_obs.Trace.enabled t.trace then
            Oamem_obs.Trace.emit t.trace ~tid ~at:slot.clock
              (Oamem_obs.Trace.Stall { cycles = stall })
        end;
        if jitter > 0 then fs.jitter_cycles <- fs.jitter_cycles + jitter;
        commit_req t ~tid slot ~tag:slot.req_tag ~vpage:slot.req_vpage
          ~paddr:slot.req_paddr ~extra:(stall + jitter);
        if stall > 0 then slot.stalled_until <- slot.clock;
        Resume

(* Process one scheduling decision for [tid] (already popped from the
   heap / chosen by the scan).  Factored out of [run] so a parked thread's
   [drain] loop can execute other threads exactly as the outer loop would. *)
let step t tid =
  let slot = t.slots.(tid) in
  match slot.pending with
  | Idle | Crashed | Parked -> assert false
  | Start f ->
      slot.pending <- Idle;
      (try start_thread t slot f
       with e ->
         slot.pending <- Idle;
         raise e)
  | Blocked -> (
      let k = slot.k in
      slot.pending <- Idle;
      let r = resolve_yield t ~tid slot in
      try
        match r with
        | Resume -> Effect.Deep.continue k ()
        | Deliver -> Effect.Deep.discontinue k Neutralized
        | Killed -> ()
      with e ->
        slot.pending <- Idle;
        raise e)

(* At a scheduler pick, before the picked thread runs: fire, in order,
   every sample boundary its clock has reached (a stall can pass several). *)
let rec fire_samples t clock =
  if clock >= t.sample_next then begin
    let at = t.sample_next in
    t.sample_next <- at + t.sample_every;
    t.sampler at;
    fire_samples t clock
  end

let[@inline] sample_at_pick t tid =
  let clock = (Array.unsafe_get t.slots tid).clock in
  if clock >= t.sample_next then fire_samples t clock

(* Run other threads, in exact scheduler order, until the parked thread
   [tid] itself surfaces as the heap minimum (its pop ends the drain and
   leaves it out of the heap, just as the outer loop's pop would have). *)
let rec drain t tid =
  let m = heap_pop t in
  sample_at_pick t m;
  if m <> tid then begin
    step t m;
    drain t tid
  end

(* The run-ahead tier: instead of suspending through an effect, the thread
   enters the heap as [Parked] and drives the scheduler from its own frame.
   Preconditions (checked by [suspend]): mid-[run] under [Min_clock] with
   no step cap, trivial fault plan, no pending signal, no other parked
   thread.  On self-pop it resolves its own yield exactly as [step] would,
   raising instead of discontinuing when a signal posted while it was
   parked is delivered (it is already running on the victim's stack).  If
   a fault plan was installed while parked, it bails to a real effect
   without counting the yield — the scheduler will count it and consult the
   plan; delivery order is unaffected because delivery bypasses the plan.
   (Only a non-trivial plan kills, so a parked resolution never does.) *)
let park t ~tid slot =
  slot.pending <- Parked;
  t.parked <- tid;
  heap_push t tid;
  drain t tid;
  t.parked <- -1;
  slot.pending <- Idle;
  if Fault_plan.is_trivial t.plan then
    match resolve_yield t ~tid slot with
    | Resume -> ()
    | Deliver -> raise Neutralized
    | Killed -> assert false
  else Effect.perform Yield

(* Suspension for a request the thread cannot commit inline: record it in
   the slot, then park if the fused engine allows it, otherwise perform the
   effect.  Clearing the owner's tenure keeps the invariant that a
   suspended thread re-proves leadership on resume (its cached bound is
   stale by construction: it suspends precisely because it is no longer
   leader). *)
let suspend t ~tid slot ~tag ~vpage ~paddr =
  slot.req_tag <- tag;
  slot.req_vpage <- vpage;
  slot.req_paddr <- paddr;
  slot.tenure_until <- 0;
  if
    t.parked < 0 && t.inline_ok
    && Fault_plan.is_trivial t.plan
    && not slot.signal
  then park t ~tid slot
  else Effect.perform Yield

(* The one request path for accesses, fences and events.  Below its tenure
   bound the thread is the proven strict scheduling leader, so the
   scheduler would re-pick it at once: the request is counted as a yield
   and committed inline, exactly as [resolve_yield] commits it under the
   trivial plan with no signal pending.  Once the clock reaches the bound,
   the fast-path preconditions are re-proved once and the bound re-derived
   from the live heap minimum.  A pending neutralization signal fails the
   proof, since delivery happens only at scheduler yields; a revoked flag
   fails it too, so the revoked thread stays off the inline path until it
   re-grants its own flag, mirroring a posted signal. *)
let[@inline] request t ~tid slot ~tag ~vpage ~paddr =
  if
    slot.clock < slot.tenure_until
    || t.inline_ok
       && Fault_plan.is_trivial t.plan
       && (not slot.signal)
       && slot.accessible
       &&
       (slot.tenure_until <- tenure_bound t ~tid;
        slot.clock < slot.tenure_until)
  then begin
    slot.fstats.yields <- slot.fstats.yields + 1;
    commit_req t ~tid slot ~tag ~vpage ~paddr ~extra:0
  end
  else suspend t ~tid slot ~tag ~vpage ~paddr

(* --- Mem: the fused per-thread memory-access interface --------------------- *)

module Mem = struct
  type t = ctx

  let tid (c : ctx) = c.tid
  let prng (c : ctx) = c.prng
  let costed (c : ctx) = c.eng <> None

  let now (c : ctx) =
    match c.eng with None -> 0 | Some t -> t.slots.(c.tid).clock

  (* The profiler as seen from a thread context: [Profile.null] outside the
     engine, so subsystem instrumentation needs no option check. *)
  let profile (c : ctx) =
    match c.eng with None -> Oamem_obs.Profile.null | Some t -> t.prof

  let charge (c : ctx) cycles =
    match c.eng with
    | None -> ()
    | Some t ->
        let slot = t.slots.(c.tid) in
        slot.clock <- slot.clock + cycles;
        if Oamem_obs.Profile.enabled t.prof then
          Oamem_obs.Profile.charge t.prof ~tid:c.tid cycles

  (* Kernel-side effect of an unmap/remap: flush the page from every TLB.
     The cycle cost is part of the syscall that triggered it. *)
  let tlb_shootdown (c : ctx) vpage =
    match c.eng with None -> () | Some t -> Tlb.shootdown t.tlb vpage

  let note_cas_failure (c : ctx) ~addr =
    match c.eng with
    | None -> ()
    | Some t ->
        if Oamem_obs.Profile.enabled t.prof then
          Oamem_obs.Profile.note_cas_failure t.prof ~tid:c.tid ~addr

  let access (c : ctx) ~vpage ~paddr ~kind =
    match c.eng with
    | None -> ()
    | Some t ->
        let tid = c.tid in
        request t ~tid
          (Array.unsafe_get t.slots tid)
          ~tag:
            (match kind with
            | Load -> tag_load
            | Store -> tag_store
            | Rmw -> tag_rmw)
          ~vpage ~paddr

  let fence (c : ctx) kind =
    match c.eng with
    | None -> ()
    | Some t ->
        let tid = c.tid in
        request t ~tid t.slots.(tid)
          ~tag:
            (match kind with
            | Full -> tag_fence_full
            | Compiler -> tag_fence_compiler)
          ~vpage:(-1) ~paddr:0

  let event (c : ctx) kind =
    match c.eng with
    | None -> ()
    | Some t ->
        let tid = c.tid in
        request t ~tid t.slots.(tid)
          ~tag:
            (match kind with
            | Minor_fault -> tag_minor_fault
            | Syscall -> tag_syscall
            | Pause -> tag_pause)
          ~vpage:(-1) ~paddr:0

  let pause (c : ctx) = event c Pause

  (* --- neutralization: simulated async signals (sigsetjmp/tgkill) ------ *)

  (* Register a recovery checkpoint for the dynamic extent of [f].  A
     neutralization signal posted to this thread is delivered at its next
     unmasked scheduler yield as a [Neutralized] unwind back here; [recover]
     then runs (it must be idempotent — a second signal during recovery
     re-runs it) and [f] is retried.  Registration does not nest: DEBRA-style
     recovery targets the operation entry, and a silent inner checkpoint
     would shadow it. *)
  let checkpoint (c : ctx) ~recover f =
    match c.eng with
    | None -> f ()
    | Some t ->
        let slot = t.slots.(c.tid) in
        if slot.checkpoint then
          invalid_arg "Engine.Mem.checkpoint: nested registration";
        charge c t.cost.checkpoint_set;
        slot.checkpoint <- true;
        let rec attempt () =
          match f () with
          | v ->
              slot.checkpoint <- false;
              v
          | exception Neutralized ->
              let rec recovering () =
                try recover () with Neutralized -> recovering ()
              in
              recovering ();
              attempt ()
          | exception e ->
              slot.checkpoint <- false;
              raise e
        in
        attempt ()

  (* Defer signal delivery for the extent of [f] (sigprocmask analogue).
     Schemes mask sections whose unwind would corrupt host-side state —
     allocator calls, limbo-bag updates — exactly like DEBRA+'s handler
     refuses to longjmp out of non-neutralizable code. *)
  let masked (c : ctx) f =
    match c.eng with
    | None -> f ()
    | Some t -> (
        let slot = t.slots.(c.tid) in
        slot.masked <- slot.masked + 1;
        match f () with
        | v ->
            slot.masked <- slot.masked - 1;
            v
        | exception e ->
            slot.masked <- slot.masked - 1;
            raise e)

  (* Exempt [f]'s accesses from conditional-access squashing: trusted
     runtime code (allocator metadata walks, superblock anchors) is not
     part of any scheme's optimistic protocol, so a pending revocation
     must not make its CASes fail — a revoked bystander flushing its
     thread cache would otherwise retry a squashed anchor CAS forever.
     Unlike [masked] this defers nothing: signals still deliver. *)
  let enter_unconditional (c : ctx) =
    match c.eng with
    | None -> ()
    | Some t ->
        let slot = t.slots.(c.tid) in
        slot.exempt <- slot.exempt + 1

  let leave_unconditional (c : ctx) =
    match c.eng with
    | None -> ()
    | Some t ->
        let slot = t.slots.(c.tid) in
        slot.exempt <- slot.exempt - 1

  let unconditional (c : ctx) f =
    enter_unconditional c;
    match f () with
    | v ->
        leave_unconditional c;
        v
    | exception e ->
        leave_unconditional c;
        raise e

  let signal_pending (c : ctx) ~tid =
    match c.eng with None -> false | Some t -> t.slots.(tid).signal

  (* Liveness of another slot, as pthread_tryjoin would report it: schemes
     that can seize a dead thread's deferred frees (DEBRA) key off this. *)
  let peer_crashed (c : ctx) ~tid =
    match c.eng with None -> false | Some t -> t.slots.(tid).fstats.crashed

  (* Post a neutralization signal to [victim] (tgkill analogue).  Charged
     to the poster; no yield, so the post is atomic under every policy.
     After [Posted] the poster may treat the victim as quiesced: the victim
     executes no further simulated access before its signal is delivered
     (pending signals disable its fused path — every cached tenure is
     dropped here — and the scheduler checks for delivery before processing
     its blocked or parked request).  A signal also cuts an injected stall
     short — the victim's wake-up is pulled back to the poster's clock, as
     a signal interrupting nanosleep. *)
  let neutralize (c : ctx) ~victim =
    match c.eng with
    | None -> Dead
    | Some t ->
        if victim < 0 || victim >= t.nthreads then
          invalid_arg "Engine.Mem.neutralize: bad victim";
        charge c t.cost.neutralize_post;
        let vslot = t.slots.(victim) in
        (match vslot.pending with
        | Crashed -> Dead
        | Idle when victim <> c.tid -> Dead  (* finished or never started *)
        | Idle | Start _ | Blocked | Parked ->
            if vslot.signal then Already_pending
            else begin
              vslot.signal <- true;
              (* the pullback below can lower a heap key, and the victim
                 must re-prove its preconditions (and stop fusing) before
                 its next request *)
              tenure_clear t;
              let now = t.slots.(c.tid).clock in
              if vslot.stalled_until > now && vslot.clock > now then begin
                vslot.clock <- now;
                vslot.stalled_until <- 0;
                if t.use_heap && t.hpos.(victim) >= 0 then
                  sift_up t t.hpos.(victim)
              end;
              if Oamem_obs.Trace.enabled t.trace then
                Oamem_obs.Trace.emit t.trace ~tid:c.tid ~at:now
                  (Oamem_obs.Trace.Neutralize_post { victim });
              Posted
            end)

  (* --- conditional access: simulated revocable accessible flags -------- *)

  (* One conditional access: load the calling thread's own flag line (an L1
     hit in the steady state; a remote miss right after a revocation, which
     is how the revocation's coherence traffic lands on the victim) plus the
     fixed directory-check overhead, then report the flag.  Charged without
     a yield — the check is atomic with its outcome, exactly as the
     simulated hardware would resolve it at the access. *)
  let cond_access (c : ctx) =
    match c.eng with
    | None -> true
    | Some t ->
        let tid = c.tid in
        charge_flag_access t ~tid ~owner:tid ~kind:Load
          ~extra:t.cost.cond_access_extra;
        t.slots.(tid).accessible

  (* Re-grant the calling thread's own flag (a store on its own flag line);
     the restart path of a scheme that failed a conditional access. *)
  let grant_access (c : ctx) =
    match c.eng with
    | None -> ()
    | Some t ->
        let tid = c.tid in
        charge_flag_access t ~tid ~owner:tid ~kind:Store ~extra:0;
        t.slots.(tid).accessible <- true

  (* Revoke [victim]'s accessible flag.  The poster pays the fixed
     broadcast cost plus an exclusive-ownership store on the victim's flag
     line (the directory attributes the invalidation like any other remote
     store).  No yield: like a neutralization post, the revocation is
     atomic under every policy.  A pending revocation clears every cached
     leader tenure, exactly like a posted neutralization — the victim must
     re-prove its preconditions (and fail, staying off the fused path)
     before its next request.  Unlike neutralize there is no stall pullback: immediate
     reclamation does not wait for the laggard; its next conditional access
     or squashed store restarts it whenever it wakes. *)
  let revoke (c : ctx) ~victim =
    match c.eng with
    | None -> Dead
    | Some t ->
        if victim < 0 || victim >= t.nthreads then
          invalid_arg "Engine.Mem.revoke: bad victim";
        charge c t.cost.revoke_broadcast;
        let vslot = t.slots.(victim) in
        (match vslot.pending with
        | Crashed -> Dead
        | Idle when victim <> c.tid -> Dead  (* finished or never started *)
        | Idle | Start _ | Blocked | Parked ->
            if not vslot.accessible then Already_pending
            else begin
              charge_flag_access t ~tid:c.tid ~owner:victim ~kind:Store
                ~extra:0;
              vslot.accessible <- false;
              tenure_clear t;
              if Oamem_obs.Trace.enabled t.trace then
                Oamem_obs.Trace.emit t.trace ~tid:c.tid
                  ~at:t.slots.(c.tid).clock
                  (Oamem_obs.Trace.Revoke_post { victim });
              Posted
            end)

  (* Cost-free queries (sanitizer, tests): is [tid]'s flag revoked, and was
     the calling thread's last committed Store/Rmw squashed? *)
  let access_revoked (c : ctx) ~tid =
    match c.eng with None -> false | Some t -> not t.slots.(tid).accessible

  let squashed (c : ctx) =
    match c.eng with None -> false | Some t -> t.slots.(c.tid).squashed
end

(* --- scheduler ----------------------------------------------------------- *)

let spawn t ~tid f =
  if tid < 0 || tid >= t.nthreads then invalid_arg "Engine.spawn: bad tid";
  let slot = t.slots.(tid) in
  (match slot.pending with
  | Idle -> ()
  | Start _ | Blocked | Parked -> invalid_arg "Engine.spawn: slot busy"
  | Crashed -> invalid_arg "Engine.spawn: slot crashed");
  slot.pending <- Start f;
  (* the new entry may undercut a cached minimum *)
  tenure_clear t;
  if t.use_heap then heap_push t tid

(* Pick the next slot to resume for the scan-based policies: a uniformly
   random runnable slot ([Random_order]) or the scripted/first runnable
   one ([Scripted]).  [Min_clock] uses the heap index instead; [Parked]
   cannot occur here (parking requires the heap path). *)
let pick_scan t =
  let runnable = ref 0 in
  for tid = 0 to t.nthreads - 1 do
    match t.slots.(tid).pending with
    | Idle | Crashed -> ()
    | Parked -> assert false
    | Start _ | Blocked -> incr runnable
  done;
  let nth_runnable n =
    let chosen = ref (-1) in
    let seen = ref 0 in
    for tid = 0 to t.nthreads - 1 do
      (match t.slots.(tid).pending with
      | Idle | Crashed -> ()
      | Parked -> assert false
      | Start _ | Blocked ->
          if !seen = n && !chosen < 0 then chosen := tid;
          incr seen)
    done;
    !chosen
  in
  if !runnable = 0 then -1
  else
    match t.policy with
    | Min_clock -> assert false
    | Random_order _ -> nth_runnable (Prng.int t.sched_rng !runnable)
    | Scripted s ->
        (* record the branching factor, then follow the prefix; past the
           prefix, take the first runnable thread (deterministic default) *)
        let step = s.steps in
        s.steps <- step + 1;
        s.factors <- !runnable :: s.factors;
        let choice =
          if step < Array.length s.prefix then s.prefix.(step) mod !runnable
          else 0
        in
        nth_runnable choice

exception Step_limit_exceeded

let run ?max_steps t =
  t.inline_ok <- t.fused && t.use_heap && max_steps = None;
  (* a prior run aborted by an exception can leave a stale park marker;
     tenures cache this run's preconditions, so they start empty *)
  t.parked <- -1;
  tenure_clear t;
  let steps = ref 0 in
  let rec loop () =
    let tid = if t.use_heap then heap_pop t else pick_scan t in
    if tid >= 0 then begin
      incr steps;
      (match max_steps with
      | Some limit when !steps > limit ->
          (* leave the slot exactly as the scan-based scheduler would:
             still pending, still indexed *)
          if t.use_heap then heap_push t tid;
          raise Step_limit_exceeded
      | _ -> ());
      sample_at_pick t tid;
      step t tid;
      loop ()
    end
  in
  loop ()

(* --- stats --------------------------------------------------------------- *)

let clock t ~tid = t.slots.(tid).clock
let elapsed t = Array.fold_left (fun acc s -> max acc s.clock) 0 t.slots
let elapsed_seconds t = Cost_model.seconds_of_cycles t.cost (elapsed t)

let reset_clocks t =
  Array.iter
    (fun s ->
      s.clock <- 0;
      s.stalled_until <- 0)
    t.slots;
  (* tenure bounds are absolute clock values: all stale after a reset *)
  tenure_clear t;
  (* heap keys are clocks: re-derive the index or later pops would follow
     the stale pre-reset order *)
  heap_rebuild t

type stats = {
  accesses : int;
  fences : int;
  faults : int;
  syscalls : int;
  cache : Hierarchy.stats;
  tlb : Tlb.stats;
}

let stats (t : t) =
  {
    accesses = t.accesses;
    fences = t.fences;
    faults = t.faults;
    syscalls = t.syscalls;
    cache = Hierarchy.stats t.hierarchy;
    tlb = Tlb.stats t.tlb;
  }

let reset_stats (t : t) =
  t.accesses <- 0;
  t.fences <- 0;
  t.faults <- 0;
  t.syscalls <- 0;
  Hierarchy.reset_stats t.hierarchy;
  Tlb.reset_stats t.tlb

let pp_stats ppf s =
  Fmt.pf ppf "accesses=%d fences=%d faults=%d syscalls=%d %a %a" s.accesses
    s.fences s.faults s.syscalls Hierarchy.pp_stats s.cache Tlb.pp_stats s.tlb
