(* Tests for the fused memory-access fast path.

   The inline path (Engine.Mem charging a request without a context switch)
   and the vmem translation cache are pure host-side optimisations: they
   must be observationally invisible to the simulation.  These tests pin
   that down — identical clocks/stats at the engine level, identical
   metrics at the runner level — plus the measurement-reset regressions
   (scheduler heap rebuilt, translation cache flushed) and the
   allocation-free steady-state hit path. *)

open Oamem_engine
open Oamem_vmem
open Oamem_core
open Oamem_reclaim
open Oamem_lockfree
open Oamem_harness
module Json = Oamem_obs.Json
module Export = Oamem_obs.Export
module Metrics = Oamem_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- engine-level differential -------------------------------------------- *)

(* Deterministic mixed traffic: each thread walks its own PRNG and issues
   loads, stores, RMWs, fences and pauses over a small block range.  With
   [samples], an engine sampler records [(at, accesses, fences)] every 97
   cycles into it (newest first). *)
let drive ?samples ~fused ~nthreads () =
  let eng = Engine.create ~nthreads () in
  Engine.set_fused eng fused;
  Option.iter
    (fun samples ->
      Engine.set_sampler eng ~every:97 (fun at ->
          let s = Engine.stats eng in
          samples := (at, s.Engine.accesses, s.Engine.fences) :: !samples))
    samples;
  for tid = 0 to nthreads - 1 do
    Engine.spawn eng ~tid (fun ctx ->
        let prng = Engine.Mem.prng ctx in
        for _ = 1 to 400 do
          let r = Prng.next prng in
          let paddr = r land 1023 in
          (match r land 7 with
          | 0 | 1 | 2 | 3 ->
              Engine.Mem.access ctx ~vpage:(paddr lsr 9) ~paddr
                ~kind:Engine.Load
          | 4 | 5 ->
              Engine.Mem.access ctx ~vpage:(paddr lsr 9) ~paddr
                ~kind:Engine.Store
          | 6 ->
              Engine.Mem.access ctx ~vpage:(paddr lsr 9) ~paddr
                ~kind:Engine.Rmw
          | _ -> Engine.Mem.fence ctx Engine.Full);
          if r land 31 = 0 then Engine.Mem.pause ctx
        done)
  done;
  Engine.run eng;
  eng

let assert_sim_equal label ~nthreads (expected : Engine.t) (got : Engine.t) =
  for tid = 0 to nthreads - 1 do
    let n what = Printf.sprintf "%s: %s of thread %d" label what tid in
    check_int (n "clock") (Engine.clock expected ~tid) (Engine.clock got ~tid);
    let fe = Engine.fault_stats expected ~tid
    and fg = Engine.fault_stats got ~tid in
    check_int (n "yields") fe.Engine.yields fg.Engine.yields;
    check_int (n "stalls") fe.Engine.stalls_injected fg.Engine.stalls_injected;
    check_int (n "stall cycles") fe.Engine.stall_cycles fg.Engine.stall_cycles;
    check_int (n "neutralizations") fe.Engine.neutralized fg.Engine.neutralized
  done;
  let n what = Printf.sprintf "%s: %s" label what in
  check_int (n "steps") (Engine.steps expected) (Engine.steps got);
  let se = Engine.stats expected and sg = Engine.stats got in
  check_int (n "accesses") se.Engine.accesses sg.Engine.accesses;
  check_int (n "fences") se.Engine.fences sg.Engine.fences;
  check_int (n "faults") se.Engine.faults sg.Engine.faults;
  check_int (n "l1 hits") se.Engine.cache.Hierarchy.l1.Cache.hits
    sg.Engine.cache.Hierarchy.l1.Cache.hits;
  check_int (n "remote invalidations")
    se.Engine.cache.Hierarchy.remote_invalidations
    sg.Engine.cache.Hierarchy.remote_invalidations;
  check_int (n "tlb misses") se.Engine.tlb.Tlb.misses sg.Engine.tlb.Tlb.misses

(* Fused and slow, each with the sampler on and off, at 1 thread (one
   unbounded tenure, cut only by sample boundaries) and at 4.  Observation
   must not change the run, and the fused engine must reach every sample
   boundary at the same point of the run as the slow path. *)
let test_engine_differential () =
  List.iter
    (fun nthreads ->
      let run ~fused ~sampled =
        let samples = ref [] in
        let eng =
          drive
            ?samples:(if sampled then Some samples else None)
            ~fused ~nthreads ()
        in
        (eng, List.rev !samples)
      in
      let slow, _ = run ~fused:false ~sampled:false in
      let fused, _ = run ~fused:true ~sampled:false in
      let slow_sampled, slow_samples = run ~fused:false ~sampled:true in
      let fused_sampled, fused_samples = run ~fused:true ~sampled:true in
      let label what = Printf.sprintf "%dT %s" nthreads what in
      assert_sim_equal (label "fused") ~nthreads slow fused;
      assert_sim_equal (label "slow, sampled") ~nthreads slow slow_sampled;
      assert_sim_equal (label "fused, sampled") ~nthreads slow fused_sampled;
      check_bool (label "samples fired") true (List.length slow_samples > 10);
      check_bool (label "fused samples = slow samples") true
        (fused_samples = slow_samples))
    [ 1; 4 ];
  Alcotest.check_raises "sampler period must be positive"
    (Invalid_argument "Engine.set_sampler: every must be positive")
    (fun () -> Engine.set_sampler (Engine.create ~nthreads:1 ()) ~every:0 ignore)

(* --- runner-level differential -------------------------------------------- *)

let spec ~fused scheme threads =
  {
    Runner.default_spec with
    Runner.scheme;
    threads;
    structure = Runner.Hash_set;
    workload = Workload.make ~mix:Workload.update_only ~initial:200 ();
    horizon_cycles = 60_000;
    threshold = 16;
    sb_pages = 4;
    fused;
  }

(* Every registered scheme at 1 thread (a permanent leader tenure) and at
   4 (tenure handoffs and run-ahead parking). *)
let test_runner_differential () =
  List.iter
    (fun (scheme, threads) ->
      let f = Runner.run (spec ~fused:true scheme threads) in
      let s = Runner.run (spec ~fused:false scheme threads) in
      let name what =
        Printf.sprintf "%s %dT: %s identical" scheme threads what
      in
      check_int (name "ops") s.Runner.ops f.Runner.ops;
      check_bool (name "throughput") true
        (s.Runner.throughput_mops = f.Runner.throughput_mops);
      check_int (name "steps") s.Runner.host_steps f.Runner.host_steps;
      check_bool (name "metrics") true
        (Json.to_string (Export.metrics_json s.Runner.metrics)
        = Json.to_string (Export.metrics_json f.Runner.metrics)))
    (List.concat_map (fun scheme -> [ (scheme, 1); (scheme, 4) ]) Registry.names)

(* IMR leans on the two conditional-access engine paths the fused engine
   must honour — revocation posts (tenure teardown) and the squash latch on
   Store/Rmw commits — so its fused runs must be byte-identical to the slow
   path. *)
let test_imr_fused_identity () =
  let spec ~fused =
    {
      Runner.default_spec with
      Runner.scheme = "imr";
      threads = 4;
      structure = Runner.Hash_set;
      workload = Workload.make ~mix:Workload.update_only ~initial:200 ();
      horizon_cycles = 60_000;
      threshold = 16;
      sb_pages = 4;
      fused;
    }
  in
  let slow = Runner.run (spec ~fused:false) in
  let cond_fails = Metrics.find slow.Runner.metrics "scheme.cond_fails" in
  check_bool "the workload exercises conditional-access failures" true
    (cond_fails > 0);
  let fused = Runner.run (spec ~fused:true) in
  let name what = Printf.sprintf "imr fused: %s identical" what in
  check_int (name "ops") slow.Runner.ops fused.Runner.ops;
  check_bool (name "throughput") true
    (slow.Runner.throughput_mops = fused.Runner.throughput_mops);
  check_int (name "steps") slow.Runner.host_steps fused.Runner.host_steps;
  check_bool (name "metrics") true
    (Json.to_string (Export.metrics_json slow.Runner.metrics)
    = Json.to_string (Export.metrics_json fused.Runner.metrics))

(* --- tenure differentials -------------------------------------------------- *)

(* Leader tenures and run-ahead parking must be observationally invisible:
   every scenario below runs fused and on the slow path, and the simulated
   outcome (clocks, yields, fault accounting, cache/TLB state) must be
   byte-identical across the two. *)

(* [build ()] creates an engine and spawns its threads; each mode gets a
   fresh instance.  Returns the slow-path engine for scenario-specific
   assertions (e.g. that the fault being tested actually fired). *)
let fused_vs_slow label ~nthreads build =
  let under ~fused =
    let eng = build () in
    Engine.set_fused eng fused;
    Engine.run eng;
    eng
  in
  let slow = under ~fused:false in
  assert_sim_equal (label ^ " (fused vs slow)") ~nthreads slow
    (under ~fused:true);
  slow

(* A cheap streaming thread against an expensive rival: thread 0's clock
   repeatedly crosses its tenure bound (thread 1's suspension clock + 1),
   forcing mid-stream re-proofs, parking and leadership handoff in both
   directions.  Thread 0 interleaves fences and pauses, which share the
   accesses' tenure, so some crossings happen at a fence or a pause.  After
   each one it reads how many Rmws thread 1 has completed and charges
   cycles by it, so a fence or pause committed out of clock order moves
   thread 0's clock. *)
let test_leader_overtaken_mid_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:2 () in
    let rmws = ref 0 in
    let observe ctx = Engine.Mem.charge ctx (1 + (!rmws land 7)) in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for i = 1 to 600 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load;
          if i mod 3 = 0 then begin
            Engine.Mem.fence ctx Engine.Full;
            observe ctx
          end;
          if i mod 5 = 0 then begin
            Engine.Mem.pause ctx;
            observe ctx
          end
        done);
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 60 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw;
          incr rmws
        done);
    eng
  in
  ignore (fused_vs_slow "overtake" ~nthreads:2 build)

(* A neutralization posted against a tenure-holding victim: the Posted
   branch may pull the victim's clock back, so every live tenure bound is
   stale and must be dropped.  Thread 2 is a cheap bystander whose tenures
   span the post. *)
let test_neutralize_breaks_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:3 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        let n = ref 0 in
        Engine.Mem.checkpoint ctx
          ~recover:(fun () -> ())
          (fun () ->
            while !n < 2_000 do
              incr n;
              Engine.Mem.access ctx ~vpage:(-1) ~paddr:16 ~kind:Engine.Load
            done));
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 40 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw;
          if i = 3 then
            check_bool "signal posted" true
              (Engine.Mem.neutralize ctx ~victim:0 = Engine.Posted)
        done);
    Engine.spawn eng ~tid:2 (fun ctx ->
        for _ = 1 to 2_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:24 ~kind:Engine.Load
        done);
    eng
  in
  let slow = fused_vs_slow "neutralize" ~nthreads:3 build in
  check_int "victim was neutralized once" 1
    (Engine.fault_stats slow ~tid:0).Engine.neutralized

(* An access revocation posted against a tenure-holding victim: revoke does
   not pull the victim's clock back, but it flips what the victim's
   subsequent Store/Rmw commits *do* (the squash latch), so every cached
   tenure bound must be dropped exactly like a posted neutralization — a
   victim inlining against a stale bound would commit unsquashed stores the
   slow path squashes.  Thread 2 is a cheap bystander whose tenures span
   the post. *)
let test_revoke_breaks_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:3 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for _ = 1 to 2_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:16 ~kind:Engine.Store
        done;
        check_bool "victim's flag stays revoked" true
          (Engine.Mem.access_revoked ctx ~tid:0));
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 40 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw;
          if i = 3 then
            check_bool "revocation posted" true
              (Engine.Mem.revoke ctx ~victim:0 = Engine.Posted)
        done);
    Engine.spawn eng ~tid:2 (fun ctx ->
        for _ = 1 to 2_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:24 ~kind:Engine.Load
        done);
    eng
  in
  ignore (fused_vs_slow "revoke" ~nthreads:3 build)

(* reset_clocks issued from inside a running thread, mid-tenure: bounds are
   absolute clock values, so a reset that zeroes the clocks but kept the
   bounds would leave thread 0 inlining against a stale future bound while
   every heap key restarts from zero. *)
let test_reset_clocks_mid_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:2 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for i = 1 to 300 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load;
          if i = 150 then Engine.reset_clocks eng
        done);
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 30 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw
        done);
    eng
  in
  ignore (fused_vs_slow "reset mid-tenure" ~nthreads:2 build)

(* A fault plan installed mid-run while the fused engine is deep in a
   tenure and a thread is parked: the flip must tear down the tenure and
   the parked thread must fall back to the scheduler without its bail
   counting as an extra yield, so the stall lands on exactly the same
   yield as on the slow path. *)
let test_plan_flip_mid_tenure () =
  let build () =
    let eng = Engine.create ~nthreads:2 () in
    Engine.spawn eng ~tid:0 (fun ctx ->
        for _ = 1 to 6_000 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load
        done);
    Engine.spawn eng ~tid:1 (fun ctx ->
        for i = 1 to 40 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * i) ~kind:Engine.Rmw;
          if i = 2 then
            Engine.set_fault_plan eng
              (Fault_plan.make
                 [
                   Fault_plan.Stall
                     { tid = 0; at_yield = 4_000; cycles = 9_000 };
                 ])
        done);
    eng
  in
  let slow = fused_vs_slow "plan flip" ~nthreads:2 build in
  let fs = Engine.fault_stats slow ~tid:0 in
  check_int "stall fired after the flip" 1 fs.Engine.stalls_injected;
  check_int "stall cycles charged" 9_000 fs.Engine.stall_cycles

(* --- measurement reset ----------------------------------------------------- *)

(* Mid-run clock reset must rebuild the scheduler heap: its keys are the
   suspension-time clocks, so zeroing the clocks without reindexing would
   leave the pre-reset ordering in force.  Thread 0 charges itself far
   ahead, so before the reset the scheduler favours thread 1; after the
   reset all clocks tie and the lowest tid must win the first pick. *)
let test_reset_clocks_rebuilds_heap () =
  let eng = Engine.create ~nthreads:2 () in
  let order = ref [] in
  let walker tid head_start =
    Engine.spawn eng ~tid (fun ctx ->
        if head_start > 0 then Engine.Mem.charge ctx head_start;
        for _ = 1 to 40 do
          order := tid :: !order;
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:tid ~kind:Engine.Load
        done)
  in
  walker 0 1_000_000;
  walker 1 0;
  (match Engine.run ~max_steps:20 eng with
  | () -> Alcotest.fail "expected the step limit to hit mid-run"
  | exception Engine.Step_limit_exceeded -> ());
  check_bool "thread 1 was leading before the reset" true
    (Engine.clock eng ~tid:0 > Engine.clock eng ~tid:1);
  Engine.reset_clocks eng;
  order := [];
  Engine.run eng;
  (match List.rev !order with
  | first :: _ -> check_int "lowest tid resumes first after reset" 0 first
  | [] -> Alcotest.fail "no post-reset steps");
  check_int "both threads finished" 0
    (List.length (List.filter (fun t -> t <> 0 && t <> 1) !order))

let mapped_addr vm ctx =
  let addr = Vmem.reserve vm ~npages:1 in
  Vmem.map_anon vm ctx ~vpage:(Geometry.page_of_addr Geometry.default addr)
    ~npages:1;
  addr

let test_flush_forces_refill () =
  let vm = Vmem.create ~max_pages:64 Geometry.default in
  let ctx = Engine.external_ctx () in
  let addr = mapped_addr vm ctx in
  Vmem.store vm ctx addr 7;
  (* the store's own fill is stale by design: its epoch was captured before
     the fault-in bumped the page table's, so the next access re-fills *)
  ignore (Vmem.load vm ctx addr);
  let fills = Vmem.tc_fills vm in
  let hits = Vmem.tc_hits vm in
  ignore (Vmem.load vm ctx addr);
  check_int "load hits the translation cache" (hits + 1) (Vmem.tc_hits vm);
  check_int "no refill on a hit" fills (Vmem.tc_fills vm);
  Vmem.flush_translation_cache vm;
  ignore (Vmem.load vm ctx addr);
  check_int "flush forces a refill" (fills + 1) (Vmem.tc_fills vm)

(* Remap under a permanent tenure: with one thread the fused engine holds
   an unbounded tenure, so the unmap/map_anon pair and the reload all run
   inline.  The page-table epoch bump must still invalidate the thread's
   translation-cache entry — the reload has to see the fresh zero mapping
   (and take its fault), not the dead frame the cache translated to. *)
let test_tc_epoch_bump_mid_tenure () =
  let run ~fused =
    let vm = Vmem.create ~max_pages:64 Geometry.default in
    let eng = Engine.create ~nthreads:1 () in
    Engine.set_fused eng fused;
    Vmem.set_translation_cache vm fused;
    let seen = ref [] in
    Engine.spawn eng ~tid:0 (fun ctx ->
        let addr = mapped_addr vm ctx in
        let vpage = Geometry.page_of_addr Geometry.default addr in
        Vmem.store vm ctx addr 7;
        seen := Vmem.load vm ctx addr :: !seen;
        (* warm the translation-cache entry so the stale path is reachable *)
        ignore (Vmem.load vm ctx addr);
        Vmem.unmap vm ctx ~vpage ~npages:1;
        Vmem.map_anon vm ctx ~vpage ~npages:1;
        seen := Vmem.load vm ctx addr :: !seen);
    Engine.run eng;
    (List.rev !seen, Vmem.minor_faults vm, Engine.clock eng ~tid:0,
     Engine.steps eng)
  in
  let fv, ffaults, fclock, fsteps = run ~fused:true in
  let sv, sfaults, sclock, ssteps = run ~fused:false in
  check_bool "remap is visible mid-tenure" true (fv = [ 7; 0 ]);
  check_bool "loaded values identical" true (fv = sv);
  check_int "minor faults identical" sfaults ffaults;
  check_int "clock identical" sclock fclock;
  check_int "steps identical" ssteps fsteps

let test_reset_measurement_flushes_translation_cache () =
  let sys =
    System.create
      (System.Config.make ~nthreads:2 ~scheme:"oa-ver"
         ~max_pages:(1 lsl 14)
         ~scheme_cfg:
           {
             Scheme.default_config with
             Scheme.threshold = 8;
             slots_per_thread = Hm_list.slots_needed;
           }
         ())
  in
  System.run_on_thread0 sys (fun ctx ->
      let s = System.list_set sys ctx in
      for k = 0 to 31 do
        ignore (Hm_list.insert s ctx k)
      done;
      for k = 0 to 31 do
        ignore (Hm_list.contains s ctx k)
      done);
  let vm = System.vmem sys in
  check_bool "warmup populated the translation cache" true
    (Vmem.tc_hits vm > 0);
  System.reset_measurement sys;
  check_int "hit counter cleared" 0 (Vmem.tc_hits vm);
  check_int "fill counter cleared" 0 (Vmem.tc_fills vm);
  (* the cache itself must be flushed, not just its counters: the first
     post-reset access must miss and refill *)
  System.run_on_thread0 sys (fun ctx ->
      let s = System.list_set sys ctx in
      ignore (Hm_list.contains s ctx 0));
  check_bool "first post-reset access refills" true (Vmem.tc_fills vm > 0)

(* --- allocation-free fast path --------------------------------------------- *)

(* Accesses, fences and events share the inline path, so all three are in
   the measured loop. *)
let test_fused_access_allocates_nothing () =
  let eng = Engine.create ~nthreads:1 () in
  let words = ref 0.0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      (* warm the caches, then measure the steady-state inline path *)
      Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load;
        Engine.Mem.fence ctx Engine.Full;
        Engine.Mem.pause ctx
      done;
      words := Gc.minor_words () -. before);
  Engine.run eng;
  check_bool
    (Printf.sprintf
       "inline access/fence/pause path allocates nothing (%.0f words)" !words)
    true (!words = 0.0)

(* The inline path must stay allocation-free under a *finite* tenure too:
   thread 1 charges itself far ahead, so thread 0 holds a long bounded
   tenure (non-empty heap) rather than the single-thread unbounded one.
   Only the inline tier is measured — the parked-commit path inherently
   allocates on the *other* threads' side (their suspensions capture
   continuations), which is why the warm-up does two accesses: the second
   one triggers the park/drain dance that establishes the long tenure. *)
let test_finite_tenure_inline_allocates_nothing () =
  let eng = Engine.create ~nthreads:2 () in
  let words = ref 0.0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load;
      Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Engine.Mem.access ctx ~vpage:0 ~paddr:42 ~kind:Engine.Load
      done;
      words := Gc.minor_words () -. before);
  Engine.spawn eng ~tid:1 (fun ctx ->
      Engine.Mem.charge ctx 10_000_000;
      Engine.Mem.access ctx ~vpage:0 ~paddr:7 ~kind:Engine.Load);
  Engine.run eng;
  check_bool
    (Printf.sprintf "finite-tenure inline path allocates nothing (%.0f words)"
       !words)
    true (!words = 0.0)

let test_vmem_hit_path_allocates_nothing () =
  let vm = Vmem.create ~max_pages:64 Geometry.default in
  let eng = Engine.create ~nthreads:1 () in
  let words = ref 0.0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      let addr = mapped_addr vm ctx in
      Vmem.store vm ctx addr 1;
      ignore (Vmem.load vm ctx addr);
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Vmem.load vm ctx addr)
      done;
      words := Gc.minor_words () -. before);
  Engine.run eng;
  check_bool
    (Printf.sprintf "vmem L1-hit load path allocates nothing (%.0f words)"
       !words)
    true (!words = 0.0)

(* Vmem's translation-cache refill resolves the page-table entry without
   boxing it: alternating between two pages refills on every load. *)
let test_vmem_fill_path_allocates_nothing () =
  let vm = Vmem.create ~max_pages:64 Geometry.default in
  let eng = Engine.create ~nthreads:1 () in
  let words = ref 0.0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      let a = mapped_addr vm ctx and b = mapped_addr vm ctx in
      Vmem.store vm ctx a 1;
      Vmem.store vm ctx b 1;
      let fills = Vmem.tc_fills vm in
      let before = Gc.minor_words () in
      for _ = 1 to 5_000 do
        ignore (Vmem.load vm ctx a);
        ignore (Vmem.load vm ctx b)
      done;
      words := Gc.minor_words () -. before;
      check_int "every load refilled" (fills + 10_000) (Vmem.tc_fills vm));
  Engine.run eng;
  check_bool
    (Printf.sprintf "vmem refill load path allocates nothing (%.0f words)"
       !words)
    true (!words = 0.0)

(* A one-thread system with small superblocks, as the host-cost ledger
   builds it. *)
let small_system ?(threshold = 64) scheme =
  System.create
    (System.Config.make ~nthreads:1 ~scheme
       ~alloc_cfg:
         {
           Oamem_lrmalloc.Config.default with
           Oamem_lrmalloc.Config.sb_pages = 8;
         }
       ~scheme_cfg:
         {
           Scheme.default_config with
           Scheme.threshold;
           slots_per_thread = Hm_list.slots_needed;
           node_words = Node.words;
         }
       ())

(* Minor words [measure] allocates on thread 0 of [sys], after [warm] has
   created whatever is built on first use. *)
let steady_words sys ~warm measure =
  let words = ref 0.0 in
  System.run_on_thread0 sys (fun ctx ->
      warm ctx;
      let before = Gc.minor_words () in
      measure ctx;
      words := Gc.minor_words () -. before);
  !words

let check_no_words label words =
  check_bool (Printf.sprintf "%s allocates nothing (%.0f words)" label words)
    true (words = 0.0)

let test_lrmalloc_hit_allocates_nothing () =
  let module L = Oamem_lrmalloc.Lrmalloc in
  List.iter
    (fun (label, alloc) ->
      let sys = small_system "oa-ver" in
      let al = System.alloc sys in
      let once ctx = L.free al ctx (alloc al ctx Node.words) in
      check_no_words label
        (steady_words sys ~warm:once (fun ctx ->
             for _ = 1 to 10_000 do
               once ctx
             done)))
    [ ("malloc + free (cache hit)", L.malloc); ("palloc + free (cache hit)", L.palloc) ]

(* Runs of allocations longer than a thread cache, then of frees: the cache
   refills from partial superblocks and flushes back to them.  A pinned
   block keeps every superblock from emptying, so the measured round sees
   only fill and flush. *)
let test_lrmalloc_fill_flush_allocates_nothing () =
  let module L = Oamem_lrmalloc.Lrmalloc in
  List.iter
    (fun (label, alloc) ->
      let sys = small_system "oa-ver" in
      let al = System.alloc sys in
      let blocks = Array.make 1_500 0 in
      let round ctx =
        for i = 0 to Array.length blocks - 1 do
          blocks.(i) <- alloc al ctx Node.words
        done;
        for i = 0 to Array.length blocks - 1 do
          L.free al ctx blocks.(i)
        done
      in
      let words =
        steady_words sys
          ~warm:(fun ctx ->
            ignore (alloc al ctx Node.words);
            round ctx)
          round
      in
      check_no_words label words)
    [ ("malloc/free across fill and flush", L.malloc);
      ("palloc/free across fill and flush", L.palloc) ]

(* One node lifetime per iteration, fewer retirements than the limbo
   threshold, so no reclaim phase runs. *)
let test_oa_retire_allocates_nothing () =
  List.iter
    (fun scheme ->
      let sys = small_system ~threshold:64 scheme in
      let s = System.scheme sys in
      let life ctx =
        s.Scheme.begin_op ctx;
        s.Scheme.retire ctx (s.Scheme.alloc ctx Node.words);
        s.Scheme.end_op ctx
      in
      let words =
        steady_words sys
          ~warm:(fun ctx -> s.Scheme.cancel ctx (s.Scheme.alloc ctx Node.words))
          (fun ctx ->
            for _ = 1 to 60 do
              life ctx
            done)
      in
      check_int (scheme ^ ": no reclaim phase ran") 0
        s.Scheme.stats.Scheme.reclaim_phases;
      check_no_words (scheme ^ " alloc + retire") words)
    [ "oa-ver"; "oa-bit" ]

(* Operations over chains of ~8 nodes: a 16-key hash set over 2 buckets
   and a 16-key list.  Each kind of operation is measured on its own, with
   fewer retirements than the limbo threshold; [hp] covers the per-node
   [traverse_protect] re-verification. *)
let test_structure_ops_allocate_nothing () =
  List.iter
    (fun scheme ->
      let sys = small_system scheme in
      let hash = ref None and list = ref None in
      System.run_on_thread0 sys (fun ctx ->
          let h = Michael_hash.create ctx ~scheme:(System.scheme sys)
              ~vmem:(System.vmem sys) ~alloc:(System.alloc sys)
              ~expected_size:8 ~load_factor:4.0 in
          let l = System.list_set sys ctx in
          for k = 0 to 15 do
            ignore (Michael_hash.insert h ctx (2 * k));
            ignore (Hm_list.insert l ctx (2 * k))
          done;
          hash := Some h;
          list := Some l);
      let h = Option.get !hash and l = Option.get !list in
      check_int "two buckets" 2 (Michael_hash.nbuckets h);
      let ops =
        [
          ("hash contains", fun ctx k -> ignore (Michael_hash.contains h ctx k));
          ("hash insert", fun ctx k -> ignore (Michael_hash.insert h ctx ((2 * k) + 1)));
          ("hash delete", fun ctx k -> ignore (Michael_hash.delete h ctx ((2 * k) + 1)));
          ("list contains", fun ctx k -> ignore (Hm_list.contains l ctx k));
          ("list insert", fun ctx k -> ignore (Hm_list.insert l ctx ((2 * k) + 1)));
          ("list delete", fun ctx k -> ignore (Hm_list.delete l ctx ((2 * k) + 1)));
        ]
      in
      List.iter
        (fun (label, op) ->
          let words =
            steady_words sys
              ~warm:(fun ctx -> op ctx 15)
              (fun ctx ->
                for k = 0 to 14 do
                  op ctx k
                done)
          in
          check_no_words (Printf.sprintf "%s: %s" scheme label) words)
        ops)
    [ "oa-ver"; "hp" ]

(* Two threads at equal cost per access trade the lead on every access.
   With parking off every access is an effect suspension; with it on,
   thread 0 parks and thread 1 suspends once per round.  Differencing two
   run lengths cancels the fixed cost of starting the threads: a
   suspension costs exactly the runtime's 2-word continuation, and a park
   nothing. *)
let test_ping_pong_words () =
  let run ~fused n =
    let eng = Engine.create ~nthreads:2 () in
    Engine.set_fused eng fused;
    for tid = 0 to 1 do
      Engine.spawn eng ~tid (fun ctx ->
          for _ = 1 to n do
            Engine.Mem.access ctx ~vpage:(-1) ~paddr:(64 * (1 + tid))
              ~kind:Engine.Load
          done)
    done;
    let before = Gc.minor_words () in
    Engine.run eng;
    Gc.minor_words () -. before
  in
  let per_round ~fused = (run ~fused 3_000 -. run ~fused 1_000) /. 2_000. in
  Alcotest.(check (float 0.)) "slow path: 2 suspensions x 2 words per round"
    4.0 (per_round ~fused:false);
  Alcotest.(check (float 0.)) "fused: 1 suspension x 2 words + 1 park x 0"
    2.0 (per_round ~fused:true)

let () =
  Alcotest.run "fused"
    [
      ( "differential",
        [
          Alcotest.test_case "engine: fused = slow path" `Quick
            test_engine_differential;
          Alcotest.test_case "runner: fused = slow path" `Quick
            test_runner_differential;
          Alcotest.test_case "runner: imr fused = slow path" `Quick
            test_imr_fused_identity;
        ] );
      ( "tenure",
        [
          Alcotest.test_case "leader overtaken mid-tenure" `Quick
            test_leader_overtaken_mid_tenure;
          Alcotest.test_case "neutralize breaks a tenure" `Quick
            test_neutralize_breaks_tenure;
          Alcotest.test_case "revoke breaks a tenure" `Quick
            test_revoke_breaks_tenure;
          Alcotest.test_case "reset_clocks mid-tenure" `Quick
            test_reset_clocks_mid_tenure;
          Alcotest.test_case "plan flip mid-tenure (run-ahead rollback)"
            `Quick test_plan_flip_mid_tenure;
          Alcotest.test_case "translation-cache epoch bump mid-tenure" `Quick
            test_tc_epoch_bump_mid_tenure;
          Alcotest.test_case "finite-tenure inline allocates nothing" `Quick
            test_finite_tenure_inline_allocates_nothing;
        ] );
      ( "reset",
        [
          Alcotest.test_case "reset_clocks rebuilds the heap" `Quick
            test_reset_clocks_rebuilds_heap;
          Alcotest.test_case "flush forces refill" `Quick
            test_flush_forces_refill;
          Alcotest.test_case "reset_measurement flushes the cache" `Quick
            test_reset_measurement_flushes_translation_cache;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "fused access allocates nothing" `Quick
            test_fused_access_allocates_nothing;
          Alcotest.test_case "vmem hit path allocates nothing" `Quick
            test_vmem_hit_path_allocates_nothing;
          Alcotest.test_case "vmem refill path allocates nothing" `Quick
            test_vmem_fill_path_allocates_nothing;
          Alcotest.test_case "lrmalloc cache hit allocates nothing" `Quick
            test_lrmalloc_hit_allocates_nothing;
          Alcotest.test_case "lrmalloc fill/flush allocates nothing" `Quick
            test_lrmalloc_fill_flush_allocates_nothing;
          Alcotest.test_case "oa alloc + retire allocates nothing" `Quick
            test_oa_retire_allocates_nothing;
          Alcotest.test_case "hash/list ops allocate nothing" `Quick
            test_structure_ops_allocate_nothing;
          Alcotest.test_case "ping-pong: 2 words/suspension, 0/park" `Quick
            test_ping_pong_words;
        ] );
    ]
