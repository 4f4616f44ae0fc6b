(* One benchmark run: build a system, prefill the structure, drive T
   simulated threads for a fixed simulated-time horizon, report throughput
   and the per-subsystem statistics the analysis sections need.  [drive] is
   the one closed loop; Robustness and Service run through it too. *)

open Oamem_engine
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
open Oamem_lrmalloc

type structure = List_set | Hash_set

let structure_name = function List_set -> "list" | Hash_set -> "hash"

type spec = {
  scheme : string;
  threads : int;
  structure : structure;
  workload : Workload.t;
  horizon_cycles : int;
  warmup_ops : int;
      (* operations run before the measured window so the structure reaches
         its steady-state memory layout; 0 = auto (3x the initial size,
         enough to churn through every prefilled node) *)
  threshold : int;
  remap : Config.remap_strategy;
  sb_pages : int;
  seed : int;
  hazard_padded : bool;  (* cache-line padding of hazard slots (ablation) *)
  cache_cfg : Hierarchy.config option;  (* cache-geometry sensitivity *)
  trace : bool;  (* record events into the system trace during the run *)
  profile : bool;  (* cycle-attribution profiling during the run *)
  fused : bool;
      (* engine inline fast path + vmem translation cache; off = the
         pre-fusion slow path (the differential tests' baseline —
         simulated results are identical either way) *)
}

let default_spec =
  {
    scheme = "oa-ver";
    threads = 4;
    structure = Hash_set;
    workload = Workload.make ~mix:Workload.update_only ~initial:1000 ();
    horizon_cycles = 2_000_000;
    warmup_ops = 0;
    threshold = 64;
    remap = Config.Madvise;
    sb_pages = 64;
    seed = 7;
    hazard_padded = true;
    cache_cfg = None;
    trace = false;
    profile = false;
    fused = true;
  }

type result = {
  spec : spec;
  ops : int;
  searches : int;
  inserts : int;
  deletes : int;
  sim_seconds : float;
  throughput_mops : float;
  host_seconds : float;
      (* host wall-clock spent inside the measured phase *)
  host_steps : int;
      (* simulated yield points executed during the measured phase *)
  host_steps_per_sec : float;
  metrics : Oamem_obs.Metrics.snapshot;
      (* one named view over every subsystem's counters *)
  trace : Oamem_obs.Trace.t;
      (* the system trace; holds the measured window's events when
         [spec.trace] was set, and is empty (and disabled) otherwise *)
  profile : Oamem_obs.Profile.t;
      (* the system profiler; holds the measured window's spans, latency
         histograms and contention table when [spec.profile] was set *)
}

(* Generic view over the two structures. *)
type target = {
  insert : Engine.ctx -> int -> bool;
  delete : Engine.ctx -> int -> bool;
  contains : Engine.ctx -> int -> bool;
}

let make_system spec =
  (* The original OA method needs its fixed pool sized for the structure
     plus in-flight retirements (§5.1: the pool is created up front). *)
  let pool_nodes =
    spec.workload.Workload.initial
    + max 512 (2 * spec.threads * spec.threshold)
  in
  System.create
    (System.Config.make ~nthreads:spec.threads ~scheme:spec.scheme
       ?cache_cfg:spec.cache_cfg ~max_pages:(1 lsl 16)
       ~alloc_cfg:
         {
           Config.default with
           Config.sb_pages = spec.sb_pages;
           remap = spec.remap;
         }
       ~scheme_cfg:
         {
           Scheme.threshold = spec.threshold;
           slots_per_thread = Hm_list.slots_needed;
           pool_nodes;
           node_words = Node.words;
           hazard_padded = spec.hazard_padded;
           neutralize = true;
         }
       ~trace:spec.trace ~profile:spec.profile ())

let apply_fusion sys spec =
  Engine.set_fused (System.engine sys) spec.fused;
  Oamem_vmem.Vmem.set_translation_cache (System.vmem sys) spec.fused

let build_target sys structure workload =
  let setup_ctx = Engine.external_ctx () in
  let keys = Workload.prefill_keys workload in
  match structure with
  | List_set ->
      let l = System.list_set sys setup_ctx in
      Hm_list.build_sorted l setup_ctx keys;
      {
        insert = Hm_list.insert l;
        delete = Hm_list.delete l;
        contains = Hm_list.contains l;
      }
  | Hash_set ->
      let h =
        System.hash_set sys setup_ctx ~expected_size:workload.Workload.initial
      in
      Michael_hash.prefill h setup_ctx keys;
      {
        insert = Michael_hash.insert h;
        delete = Michael_hash.delete h;
        contains = Michael_hash.contains h;
      }

(* Warmup length when the spec leaves it at 0: churn until the structure
   reaches its steady-state memory layout (freed-and-reused nodes, carved
   superblocks, warm caches and reclamation in flight).  Lists need to
   churn through every prefilled node (their locality is the story of
   Fig. 4); hash chains are ~1 node, so a bounded warmup reaches steady
   state much sooner. *)
let default_warmup structure workload =
  match structure with
  | List_set -> 3 * workload.Workload.initial
  | Hash_set -> min (3 * workload.Workload.initial) 30_000

type stop = Until_cycles of int | Until_ops of int

type tally = {
  mutable searches : int;
  mutable inserts : int;
  mutable deletes : int;
}

let new_tally () = { searches = 0; inserts = 0; deletes = 0 }
let tally_ops t = t.searches + t.inserts + t.deletes

(* The closed loop of §5.1, shared by every harness driver. *)
let drive sys ~threads target workload ~stop ~seed_base tally =
  let op_base = (Engine.cost_model (System.engine sys)).Cost_model.op_base in
  let quota = ref (match stop with Until_ops n -> n | Until_cycles _ -> 0) in
  let keep_going ctx =
    match stop with
    | Until_cycles horizon -> Engine.Mem.now ctx < horizon
    | Until_ops _ ->
        if !quota > 0 then begin
          decr quota;
          true
        end
        else false
  in
  for tid = 0 to threads - 1 do
    System.spawn sys ~tid (fun ctx ->
        let rng = Prng.create (seed_base + (1000 * tid)) in
        while keep_going ctx do
          Engine.Mem.charge ctx op_base;
          match Workload.next_op workload rng with
          | Workload.Search k ->
              ignore (target.contains ctx k);
              tally.searches <- tally.searches + 1
          | Workload.Insert k ->
              ignore (target.insert ctx k);
              tally.inserts <- tally.inserts + 1
          | Workload.Delete k ->
              ignore (target.delete ctx k);
              tally.deletes <- tally.deletes + 1
        done)
  done;
  System.run sys

let run spec =
  let sys = make_system spec in
  apply_fusion sys spec;
  let target = build_target sys spec.structure spec.workload in
  System.reset_measurement sys;
  let drive = drive sys ~threads:spec.threads target spec.workload in
  let warmup_ops =
    if spec.warmup_ops > 0 then spec.warmup_ops
    else default_warmup spec.structure spec.workload
  in
  if warmup_ops > 0 then begin
    drive ~stop:(Until_ops warmup_ops) ~seed_base:(spec.seed + 17)
      (new_tally ());
    (* resets every metrics counter (scheme stats included) and drops
       warmup trace events *)
    System.reset_measurement sys
  end;
  let eng = System.engine sys in
  let tally = new_tally () in
  let steps_before = Engine.steps eng in
  let host_t0 = Unix.gettimeofday () in
  drive ~stop:(Until_cycles spec.horizon_cycles) ~seed_base:spec.seed tally;
  let host_seconds = Unix.gettimeofday () -. host_t0 in
  let host_steps = Engine.steps eng - steps_before in
  let ops = tally_ops tally in
  let sim_seconds = Engine.elapsed_seconds eng in
  {
    spec;
    ops;
    searches = tally.searches;
    inserts = tally.inserts;
    deletes = tally.deletes;
    sim_seconds;
    throughput_mops = float_of_int ops /. sim_seconds /. 1e6;
    host_seconds;
    host_steps;
    host_steps_per_sec =
      (if host_seconds > 0. then float_of_int host_steps /. host_seconds
       else 0.);
    metrics = System.metrics sys;
    trace = System.trace sys;
    profile = System.profile sys;
  }

let pp_result ppf r =
  Fmt.pf ppf "%-7s %2dT %s %s: %7.3f Mops/s (%d ops in %.2f sim-ms)"
    r.spec.scheme r.spec.threads
    (structure_name r.spec.structure)
    (Workload.mix_name r.spec.workload.Workload.mix)
    r.throughput_mops r.ops (r.sim_seconds *. 1e3)

(* Aggregate several independent trials (different seeds) of one spec.
   Lists are noisy at small scale; figures use the median throughput. *)
type summary = {
  trials : result list;
  median_mops : float;
  min_mops : float;
  max_mops : float;
}

let run_trials ?(trials = 1) spec =
  let results =
    List.init (max 1 trials) (fun i ->
        run { spec with seed = spec.seed + (7919 * i) })
  in
  let sorted =
    List.sort compare (List.map (fun r -> r.throughput_mops) results)
  in
  let n = List.length sorted in
  {
    trials = results;
    median_mops = List.nth sorted (n / 2);
    min_mops = List.nth sorted 0;
    max_mops = List.nth sorted (n - 1);
  }
