(* Robustness runs: garbage growth under a faulty thread.

   One run drives [workers] simulated threads over a hash set with an
   update-only workload while an engine sampler records the scheme's
   retired-but-unreclaimed node count at 40 evenly spaced points of the
   horizon (no observer thread, so the workers' schedule is the one an
   unobserved run takes).  In the
   [Stall] variant, thread 0 is suspended mid-operation (at its
   [stall_at_yield]-th yield) for longer than the whole run; in the [Crash]
   variant it is fail-stopped at the same point and never returns.

   The point is the schemes' robustness contrast: EBR cannot advance its
   epoch past a thread parked inside an operation, so every retirement
   after the stall accumulates — garbage grows linearly with the work the
   healthy threads do.  Hazard pointers and the optimistic-access schemes
   reclaim independently of the stalled thread (it pins at most its own
   protected nodes / forces at most one extra limbo round), so their
   garbage stays bounded by a constant independent of the run length.  IBR
   sits in between: the stalled thread pins only nodes whose lifetime
   overlaps its fixed reservation interval — bounded by what was live at
   the stall.  NR frees nothing in either variant (leak by design).

   DEBRA closes EBR's gap: past a patience bound the advancing threads
   neutralize the laggard (post it a signal that unwinds it to its
   operation checkpoint), void its stale announce and keep the epoch — and
   reclamation — moving.  A crashed laggard additionally has its limbo
   bags seized.  With [neutralize = false] DEBRA degenerates to EBR and
   the garbage curve goes unbounded again — the ablation E13 reports. *)

open Oamem_engine
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
open Oamem_faults

type fault = No_fault | Stall | Crash

let fault_name = function
  | No_fault -> "none"
  | Stall -> "stall"
  | Crash -> "crash"

type spec = {
  scheme : string;
  workers : int;  (** workload threads, one engine slot each *)
  initial : int;
  horizon_cycles : int;
  stall_at_yield : int;
  threshold : int;
  seed : int;
  fault : fault;  (** what happens to thread 0 *)
  neutralize : bool;  (** let neutralizing schemes post signals *)
  sanitize : bool;  (** run under the memory-lifecycle sanitizer *)
}

let default_spec =
  {
    scheme = "ebr";
    workers = 4;
    initial = 256;
    horizon_cycles = 400_000;
    stall_at_yield = 2_000;
    threshold = 32;
    seed = 7;
    fault = Stall;
    neutralize = true;
    sanitize = false;
  }

type sample = { at_cycles : int; unreclaimed : int }

type result = {
  spec : spec;
  samples : sample list;
  max_unreclaimed : int;
  final_unreclaimed : int;
  final_pinned : int;
      (** final unreclaimed minus nodes seized from dead threads *)
  ops : int;  (** completed by the healthy workers *)
  stalls_injected : int;
  crashed : bool;  (** thread 0 was fail-stopped *)
  neutralized : int;  (** signals delivered, summed over all threads *)
  seized : int;  (** limbo nodes taken over from dead threads' bags *)
}

(* Garbage bound the robust schemes must respect under a stalled thread:
   each thread's limbo can hold a threshold's worth plus the in-flight
   retirements of one reclamation round. *)
let robust_bound spec = (spec.workers + 1) * (spec.threshold + 16)

(* Points on each garbage curve. *)
let curve_points = 40

let run spec =
  let sys =
    System.create
      (System.Config.make ~nthreads:spec.workers
         ~scheme:spec.scheme
         ~max_pages:(1 lsl 16)
         ~sanitize:spec.sanitize
         (* Small superblocks: with the default 64-page geometry a fresh
            node-class superblock carves ~16K free-list links, parking the
            first allocating threads for longer than the whole horizon. *)
         ~alloc_cfg:
           {
             Oamem_lrmalloc.Config.default with
             Oamem_lrmalloc.Config.sb_pages = 4;
             cache_blocks = 64;
           }
         ~scheme_cfg:
           {
             Scheme.default_config with
             Scheme.threshold = spec.threshold;
             slots_per_thread = Hm_list.slots_needed;
             pool_nodes =
               spec.initial + (8 * (spec.workers + 1) * spec.threshold);
             node_words = Node.words;
             neutralize = spec.neutralize;
           }
         ())
  in
  let workload =
    Workload.make ~mix:Workload.update_only ~initial:spec.initial ()
  in
  let target = Runner.build_target sys Runner.Hash_set workload in
  System.reset_measurement sys;
  (match spec.fault with
  | No_fault -> ()
  | Stall ->
      System.set_fault_plan sys
        (Scenario.stall_one ~tid:0 ~at_yield:spec.stall_at_yield
           ~cycles:(4 * spec.horizon_cycles))
  | Crash ->
      System.set_fault_plan sys
        (Scenario.crash_one ~tid:0 ~at_yield:spec.stall_at_yield));
  let ss = (System.scheme sys).Scheme.stats in
  let rev_samples = ref [] in
  Engine.set_sampler (System.engine sys)
    ~every:(max 1 (spec.horizon_cycles / curve_points))
    (fun at ->
      if at < spec.horizon_cycles then
        rev_samples :=
          { at_cycles = at; unreclaimed = Scheme.unreclaimed ss }
          :: !rev_samples);
  let tally = Runner.new_tally () in
  Runner.drive sys ~threads:spec.workers target workload
    ~stop:(Runner.Until_cycles spec.horizon_cycles) ~seed_base:spec.seed tally;
  (* Access-level sanitizer verdict for the run.  The quiescence (leak)
     check is only meaningful without a crash: a fail-stopped thread's
     un-seized limbo contents are expected leaks, not violations. *)
  if spec.sanitize then System.check_sanitizer sys;
  let engine = System.engine sys in
  let fs0 = Engine.fault_stats engine ~tid:0 in
  let neutralized = ref 0 in
  for tid = 0 to spec.workers - 1 do
    neutralized :=
      !neutralized + (Engine.fault_stats engine ~tid).Engine.neutralized
  done;
  {
    spec;
    samples = List.rev !rev_samples;
    max_unreclaimed =
      List.fold_left (fun m s -> max m s.unreclaimed) 0 !rev_samples;
    final_unreclaimed =
      (match !rev_samples with [] -> 0 | s :: _ -> s.unreclaimed);
    final_pinned = Scheme.pinned ss;
    ops = Runner.tally_ops tally;
    stalls_injected = fs0.Engine.stalls_injected;
    crashed = fs0.Engine.crashed;
    neutralized = !neutralized;
    seized = ss.Scheme.seized;
  }

(* Faulted run ([Stall] when the spec says [No_fault]) and healthy control
   of the same spec. *)
let run_pair spec =
  let fault = if spec.fault = No_fault then Stall else spec.fault in
  (run { spec with fault }, run { spec with fault = No_fault })
