(* E14: a Zipfian-key session store under scripted, phase-shifting traffic.

   One system lives through every phase (structures, caches and superblock
   layout carry over — the point is how each reclamation scheme behaves
   when the traffic shape moves under it), with a Timeline recording
   windowed and per-phase behaviour.  An engine sampler feeds the two gauge
   curves every [max 200 (window / 5)] cycles; it is not a thread, so
   observing the run does not change its schedule.

   The memory-pressure wave installs a live-frame quota relative to the
   frame count at the phase boundary (so the script is independent of the
   absolute store size) and removes it when the phase ends; allocations
   beyond the quota fault into lrmalloc's pressure-recovery path.  Thread
   slot [threads] runs the pressure ballast in quota phases only. *)

open Oamem_engine
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
open Oamem_lrmalloc
module Vmem = Oamem_vmem.Vmem
module Obs = Oamem_obs
module Timeline = Obs.Timeline
module Profile = Obs.Profile

type phase_spec = {
  pname : string;
  mix : Workload.mix;
  distribution : Workload.distribution;
  horizon : int;
  quota_headroom : int option;
}

let default_phases ~horizon_cycles =
  let part pct = max 1 (horizon_cycles * pct / 100) in
  [
    {
      pname = "steady";
      mix = Workload.mix ~search:90 ~insert:5 ~delete:5;
      distribution = Workload.Zipf 0.8;
      horizon = part 30;
      quota_headroom = None;
    };
    {
      pname = "flash_crowd";
      mix = Workload.mix ~search:98 ~insert:1 ~delete:1;
      distribution = Workload.Zipf 1.2;
      horizon = part 20;
      quota_headroom = None;
    };
    {
      pname = "churn_storm";
      mix = Workload.update_only;
      distribution = Workload.Uniform;
      horizon = part 25;
      quota_headroom = None;
    };
    {
      pname = "pressure_wave";
      mix = Workload.mix ~search:10 ~insert:70 ~delete:20;
      distribution = Workload.Uniform;
      horizon = part 25;
      quota_headroom = Some 16;
    };
  ]

type spec = {
  scheme : string;
  threads : int;
  initial : int;
  window : int;
  seed : int;
  phases : phase_spec list;
}

let default_spec =
  {
    scheme = "oa-ver";
    threads = 4;
    initial = 2048;
    window = 10_000;
    seed = 42;
    phases = default_phases ~horizon_cycles:200_000;
  }

type phase_stats = {
  phase : string;
  ops : int;
  p50 : int;
  p99 : int;
  max_cycles : int;
  restarts : int;
  warnings : int;
  neutralized : int;
  frames_released : int;
  peak_unreclaimed : int;
  pressure_recoveries : int;
}

type result = {
  rspec : spec;
  per_phase : phase_stats list;
  overall : phase_stats;
  throughput_mops : float;
  sim_seconds : float;
  host_seconds : float;
  metrics : Obs.Metrics.snapshot;
  timeline : Timeline.t;
  system : System.t;
}

(* Gauge sampling period: five samples per timeline window. *)
let sample_every spec = max 200 (spec.window / 5)

let make_system spec =
  (* one extra engine slot: the pressure ballast *)
  let nthreads = spec.threads + 1 in
  let threshold = 64 in
  let pool_nodes = (2 * spec.initial) + max 512 (2 * nthreads * threshold) in
  System.create
    (System.Config.make ~nthreads ~scheme:spec.scheme ~max_pages:(1 lsl 16)
       (* small superblocks: the pressure wave's ballast rounds and the
          recovery's release granularity are a few pages each, so a bound
          quota recovers instead of dying on one 64-page carve *)
       ~alloc_cfg:{ Config.default with Config.sb_pages = 8 }
       ~scheme_cfg:
         {
           Scheme.threshold;
           slots_per_thread = Hm_list.slots_needed;
           pool_nodes;
           node_words = Node.words;
           hazard_padded = false;
           neutralize = true;
         }
       ~timeline:spec.window ())

(* The driver's "scheme.unreclaimed" gauge registers first; SLA views read
   its per-phase maximum by this id. *)
let gauge_unreclaimed = 0

let stats_of_agg ~phase ~pressure agg =
  let lat = Timeline.agg_latency_merged agg Profile.op_frames in
  let p q = match lat with None -> 0 | Some l -> Profile.percentile l q in
  {
    phase;
    ops = (match lat with None -> 0 | Some l -> l.Profile.count);
    p50 = p 0.50;
    p99 = p 0.99;
    max_cycles = (match lat with None -> 0 | Some l -> l.Profile.max_cycles);
    restarts = Timeline.agg_count agg Timeline.Restarts;
    warnings = Timeline.agg_count agg Timeline.Warnings;
    neutralized = Timeline.agg_count agg Timeline.Neutralized;
    frames_released = Timeline.agg_count agg Timeline.Frames_released;
    peak_unreclaimed =
      (match Timeline.agg_gauge agg gauge_unreclaimed with
      | Some (_, gmax) -> gmax
      | None -> 0);
    pressure_recoveries = pressure;
  }

let run spec =
  if spec.phases = [] then invalid_arg "Service.run: no phases";
  let sys = make_system spec in
  let eng = System.engine sys in
  let vmem = System.vmem sys in
  let alloc = System.alloc sys in
  let heap = Lrmalloc.heap alloc in
  let sstats = (System.scheme sys).Scheme.stats in
  let tl = System.timeline sys in
  let g_unreclaimed = Timeline.register_gauge tl "scheme.unreclaimed" in
  let g_frames = Timeline.register_gauge tl "vmem.frames_live" in
  assert (g_unreclaimed = gauge_unreclaimed && g_frames = 1);
  (* prefill keys depend only on (initial, universe) and are shared by
     every phase workload *)
  let churn_wl =
    Workload.make ~mix:Workload.update_only ~initial:spec.initial ()
  in
  let store = Runner.build_target sys Runner.Hash_set churn_wl in
  (* Under a quota the request loop carries the allocator's recovery net:
     a node write that faults past the cap flushes-and-retries the whole
     (idempotent) operation, like the Pressure experiment's touches. *)
  let recovering =
    let net op ctx key =
      Lrmalloc.with_pressure_recovery alloc ctx (fun () -> op ctx key)
    in
    {
      Runner.insert = net store.Runner.insert;
      delete = net store.Runner.delete;
      contains = net store.Runner.contains;
    }
  in
  (* Warmup churn to a steady-state memory layout, then start measuring. *)
  Runner.drive sys ~threads:spec.threads store churn_wl
    ~stop:(Runner.Until_ops (Runner.default_warmup Runner.Hash_set churn_wl))
    ~seed_base:(spec.seed + 17) (Runner.new_tally ());
  System.reset_measurement sys;
  (* The gauge curves cover the scripted horizon: a ballast still
     recovering past the last phase's end is not sampled. *)
  let horizon = List.fold_left (fun acc ph -> acc + ph.horizon) 0 spec.phases in
  Engine.set_sampler eng ~every:(sample_every spec) (fun at ->
      if at < horizon then begin
        Timeline.sample_gauge tl ~at g_unreclaimed (Scheme.unreclaimed sstats);
        Timeline.sample_gauge tl ~at g_frames (Vmem.frames_live vmem)
      end);
  (* The scripted phases: one spawn generation per phase, cumulative
     horizons (reset_measurement zeroed the clocks; each phase's threads
     run until the shared simulated deadline). *)
  let tally = Runner.new_tally () in
  let host_t0 = Unix.gettimeofday () in
  let pressure_per_phase = ref [] in
  let _ =
    List.fold_left
      (fun (k, t_start) ph ->
        let t_end = t_start + ph.horizon in
        Timeline.phase tl ~at:t_start ph.pname;
        let quota_installed =
          match ph.quota_headroom with
          | Some h ->
              Vmem.set_frame_quota vmem (Some (Vmem.frames_live vmem + h));
              true
          | None -> false
        in
        let recoveries0 = (Heap.stats heap).Heap.pressure_recoveries in
        let wl =
          Workload.make ~distribution:ph.distribution ~mix:ph.mix
            ~initial:spec.initial ()
        in
        (* Pressure ballast (quota phases): a co-tenant thread grabbing
           persistent memory in its own size classes, Pressure-experiment
           style — each round carves fresh superblocks and touches every
           block, so frame demand is real no matter how much slack the
           store's own superblocks hold.  Rounds free into the thread cache
           (resident but reclaimable), which is exactly what the recovery
           flush can give back.  The thread first catches its clock up to
           the phase start. *)
        if quota_installed then
          System.spawn sys ~tid:spec.threads (fun ctx ->
              Engine.Mem.charge ctx (max 0 (t_start - Engine.Mem.now ctx));
              (* equal 4-page rounds: once the quota binds, the frames a
                 recovery releases from round N's emptied superblocks cover
                 round N+1's demand, so the wave recovers instead of dying *)
              List.iter
                (fun (size, blocks) ->
                  let addrs =
                    List.init blocks (fun _ -> Lrmalloc.palloc alloc ctx size)
                  in
                  List.iter
                    (fun addr ->
                      Lrmalloc.with_pressure_recovery alloc ctx (fun () ->
                          Vmem.store vmem ctx addr (addr lxor 0x5a5a)))
                    addrs;
                  List.iter (Lrmalloc.free alloc ctx) addrs)
                [ (8, 256); (16, 128); (32, 64) ];
              Lrmalloc.with_pressure_recovery alloc ctx (fun () ->
                  Lrmalloc.flush_thread_cache alloc ctx));
        Runner.drive sys ~threads:spec.threads
          (if quota_installed then recovering else store)
          wl ~stop:(Runner.Until_cycles t_end)
          ~seed_base:(spec.seed + (7919 * k))
          tally;
        if quota_installed then Vmem.set_frame_quota vmem None;
        let recovered =
          (Heap.stats heap).Heap.pressure_recoveries - recoveries0
        in
        pressure_per_phase := (ph.pname, recovered) :: !pressure_per_phase;
        (k + 1, t_end))
      (0, 0) spec.phases
  in
  let host_seconds = Unix.gettimeofday () -. host_t0 in
  (* per-phase pressure deltas, accumulated over re-marked phase names *)
  let pressure_of name =
    List.fold_left
      (fun acc (n, r) -> if String.equal n name then acc + r else acc)
      0 !pressure_per_phase
  in
  let phase_aggs = Timeline.phase_aggs tl in
  let per_phase =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun ph ->
        if Hashtbl.mem seen ph.pname then None
        else begin
          Hashtbl.add seen ph.pname ();
          List.assoc_opt ph.pname phase_aggs
          |> Option.map
               (stats_of_agg ~phase:ph.pname ~pressure:(pressure_of ph.pname))
        end)
      spec.phases
  in
  let ops = Runner.tally_ops tally in
  let sim_seconds = Engine.elapsed_seconds eng in
  let overall_lat =
    Profile.merged_latency (System.profile sys) Profile.op_frames
  in
  let p q =
    match overall_lat with None -> 0 | Some l -> Profile.percentile l q
  in
  let snapshot = System.metrics sys in
  let counter name =
    Option.value (Obs.Metrics.find_opt snapshot name) ~default:0
  in
  let overall =
    {
      phase = "overall";
      ops;
      p50 = p 0.50;
      p99 = p 0.99;
      max_cycles =
        (match overall_lat with None -> 0 | Some l -> l.Profile.max_cycles);
      restarts = counter "scheme.restarts";
      warnings = counter "scheme.warnings_fired";
      neutralized = counter "scheme.neutralized";
      frames_released = counter "vmem.frames_released";
      peak_unreclaimed =
        List.fold_left (fun m s -> max m s.peak_unreclaimed) 0 per_phase;
      pressure_recoveries = counter "alloc.pressure_recoveries";
    }
  in
  {
    rspec = spec;
    per_phase;
    overall;
    throughput_mops = float_of_int ops /. sim_seconds /. 1e6;
    sim_seconds;
    host_seconds;
    metrics = snapshot;
    timeline = tl;
    system = sys;
  }

let pp_phase_stats ppf s =
  Format.fprintf ppf
    "%-13s ops=%-8d p50=%-5d p99=%-5d max=%-6d restarts=%-4d warn=%-4d \
     neut=%-4d rel=%-4d peak_unreclaimed=%-5d pressure=%d"
    s.phase s.ops s.p50 s.p99 s.max_cycles s.restarts s.warnings s.neutralized
    s.frames_released s.peak_unreclaimed s.pressure_recoveries
