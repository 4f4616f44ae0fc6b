(* Tests for the simulated multicore engine: geometry, PRNG, cache levels,
   hierarchy coherence, TLB, the effect-based scheduler, and metadata cells. *)

open Oamem_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Geometry ------------------------------------------------------------ *)

let test_geometry () =
  let g = Geometry.default in
  check_int "line words" 8 (Geometry.line_words g);
  check_int "page words" 512 (Geometry.page_words g);
  check_int "lines per page" 64 (Geometry.lines_per_page g);
  check_int "block of addr" 2 (Geometry.block_of_addr g 17);
  check_int "page of addr" 1 (Geometry.page_of_addr g 513);
  check_int "offset in page" 1 (Geometry.offset_in_page g 513);
  check_int "addr of page" 1024 (Geometry.addr_of_page g 2)

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_prng_bounds () =
  let r = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int r 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done

let prng_uniform_prop =
  QCheck.Test.make ~name:"prng int covers range" ~count:50
    QCheck.(int_range 2 50)
    (fun bound ->
      let r = Prng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 100 do
        seen.(Prng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

(* --- Cache --------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 in
  check_bool "first access misses" false (Cache.access c 5);
  check_bool "second access hits" true (Cache.access c 5);
  check_bool "still present" true (Cache.present c 5)

let test_cache_lru_eviction () =
  let c = Cache.create ~name:"t" ~sets:1 ~ways:2 in
  ignore (Cache.access c 1);
  ignore (Cache.access c 2);
  ignore (Cache.access c 1);
  (* set is [1 (MRU); 2 (LRU)]; inserting 3 must evict 2 *)
  check_bool "3 misses" false (Cache.access c 3);
  check_bool "1 survives" true (Cache.present c 1);
  check_bool "2 evicted" false (Cache.present c 2)

let test_cache_sets_independent () =
  let c = Cache.create ~name:"t" ~sets:2 ~ways:1 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1);
  (* different sets: both present *)
  check_bool "even block" true (Cache.present c 0);
  check_bool "odd block" true (Cache.present c 1)

let test_cache_invalidate () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 in
  ignore (Cache.access c 9);
  Cache.invalidate c 9;
  check_bool "gone" false (Cache.present c 9);
  let (s : Cache.stats) = Cache.stats c in
  check_int "one invalidation" 1 s.invalidations

let test_cache_stats () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 in
  ignore (Cache.access c 1);
  ignore (Cache.access c 1);
  ignore (Cache.access c 2);
  let (s : Cache.stats) = Cache.stats c in
  check_int "hits" 1 s.hits;
  check_int "misses" 2 s.misses;
  Cache.reset_stats c;
  let (s : Cache.stats) = Cache.stats c in
  check_int "reset" 0 (s.hits + s.misses)

let test_cache_bad_create () =
  Alcotest.check_raises "sets must be pow2" (Invalid_argument
    "Cache.create: sets must be a power of two") (fun () ->
      ignore (Cache.create ~name:"t" ~sets:3 ~ways:1))

(* --- Hierarchy ----------------------------------------------------------- *)

let cost = Cost_model.opteron_6274

let test_hierarchy_miss_then_hit () =
  let h = Hierarchy.create ~cost ~nthreads:2 () in
  let c1 = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 42 in
  check_int "cold load from dram" cost.dram c1;
  let c2 = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 42 in
  check_int "then l1 hit" cost.l1_hit c2

let test_hierarchy_l2_shared_by_pair () =
  let h = Hierarchy.create ~cost ~nthreads:4 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 42);
  (* tid 1 shares tid 0's L2 bank: should hit L2, not DRAM *)
  let c = Hierarchy.access h ~tid:1 ~kind:Hierarchy.Load 42 in
  check_int "pair sees l2" cost.l2_hit c;
  (* tid 2 is in another bank: hits the shared L3 *)
  let c = Hierarchy.access h ~tid:2 ~kind:Hierarchy.Load 42 in
  check_int "other bank sees l3" cost.l3_hit c

let test_hierarchy_write_invalidates_sharers () =
  let h = Hierarchy.create ~cost ~nthreads:4 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 7);
  ignore (Hierarchy.access h ~tid:2 ~kind:Hierarchy.Load 7);
  check_int "two sharers" 0b101 (Hierarchy.sharers h 7);
  (* tid 2 writes: tid 0's copy must be invalidated and the write pays the
     invalidation broadcast *)
  let c = Hierarchy.access h ~tid:2 ~kind:Hierarchy.Store 7 in
  check_bool "write pays invalidation" true (c >= cost.invalidation);
  check_int "writer owns the line" 0b100 (Hierarchy.sharers h 7);
  (* tid 0 must now miss L1 *)
  let c = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 7 in
  check_bool "reader misses after invalidation" true (c > cost.l1_hit)

let test_hierarchy_rmw_premium () =
  let h = Hierarchy.create ~cost ~nthreads:1 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 3);
  let load = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 3 in
  let rmw = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Rmw 3 in
  check_int "rmw costs extra" (load + cost.rmw_extra) rmw

let test_hierarchy_local_write_is_cheap () =
  let h = Hierarchy.create ~cost ~nthreads:2 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Store 11);
  let c = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Store 11 in
  check_int "exclusive store hits l1, no broadcast" cost.l1_hit c

let test_hierarchy_stats () =
  let h = Hierarchy.create ~cost ~nthreads:2 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 1);
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 1);
  let s = Hierarchy.stats h in
  check_int "l1 hits" 1 s.l1.Cache.hits;
  check_int "l1 misses" 1 s.l1.Cache.misses;
  Hierarchy.reset_stats h;
  let s = Hierarchy.stats h in
  check_int "reset" 0 s.l1.Cache.hits

(* --- Tlb ----------------------------------------------------------------- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~cost ~nthreads:2 () in
  check_int "cold miss" cost.tlb_miss (Tlb.access tlb ~tid:0 3);
  check_int "then hit" cost.tlb_hit (Tlb.access tlb ~tid:0 3);
  (* other thread has its own TLB *)
  check_int "private per thread" cost.tlb_miss (Tlb.access tlb ~tid:1 3)

let test_tlb_shootdown () =
  let tlb = Tlb.create ~cost ~nthreads:2 () in
  ignore (Tlb.access tlb ~tid:0 9);
  ignore (Tlb.access tlb ~tid:1 9);
  Tlb.shootdown tlb 9;
  check_int "miss after shootdown" cost.tlb_miss (Tlb.access tlb ~tid:0 9);
  let (s : Tlb.stats) = Tlb.stats tlb in
  check_int "one shootdown" 1 s.shootdowns

let test_tlb_conflict () =
  let tlb = Tlb.create ~slots:4 ~cost ~nthreads:1 () in
  ignore (Tlb.access tlb ~tid:0 1);
  ignore (Tlb.access tlb ~tid:0 5);
  (* direct-mapped: page 5 evicted page 1 (same slot 1 mod 4) *)
  check_int "conflict evicts" cost.tlb_miss (Tlb.access tlb ~tid:0 1)

(* --- Engine scheduler ---------------------------------------------------- *)

let test_engine_runs_threads () =
  let eng = Engine.create ~nthreads:3 () in
  let hits = Array.make 3 false in
  for tid = 0 to 2 do
    Engine.spawn eng ~tid (fun _ctx -> hits.(tid) <- true)
  done;
  Engine.run eng;
  Array.iteri (fun i h -> check_bool (Printf.sprintf "thread %d ran" i) true h) hits

let test_engine_min_clock_interleaves_fairly () =
  (* Two threads doing identical accesses must advance in lockstep: the
     trace of tids must alternate. *)
  let eng = Engine.create ~nthreads:2 () in
  let trace = ref [] in
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun ctx ->
        for _ = 1 to 5 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(1000 * (tid + 1)) ~kind:Engine.Load;
          trace := (Engine.Mem.tid ctx) :: !trace
        done)
  done;
  Engine.run eng;
  let t = List.rev !trace in
  (* After both threads' first access, tids must alternate. *)
  check_int "all events" 10 (List.length t);
  let rec alternates = function
    | a :: b :: rest -> a <> b && alternates (b :: rest)
    | _ -> true
  in
  check_bool "alternating schedule" true (alternates t)

let test_engine_clock_accumulates () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load;
      Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load);
  Engine.run eng;
  (* cold dram + l1 hit *)
  check_int "clock" (cost.dram + cost.l1_hit) (Engine.clock eng ~tid:0)

let test_engine_charge_and_now () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.charge ctx 123;
      check_int "now sees charge" 123 (Engine.Mem.now ctx));
  Engine.run eng;
  check_int "clock kept" 123 (Engine.clock eng ~tid:0)

let test_engine_fence_costs () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.fence ctx Engine.Full;
      Engine.Mem.fence ctx Engine.Compiler);
  Engine.run eng;
  check_int "full fence only" cost.fence_full (Engine.clock eng ~tid:0);
  check_int "fences counted" 1 (Engine.stats eng).Engine.fences

let test_engine_slot_reuse_across_phases () =
  let eng = Engine.create ~nthreads:2 () in
  let order = ref [] in
  Engine.spawn eng ~tid:0 (fun _ -> order := `Prefill :: !order);
  Engine.run eng;
  Engine.reset_clocks eng;
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun _ -> order := `Work :: !order)
  done;
  Engine.run eng;
  check_int "three runs" 3 (List.length !order)

let test_engine_spawn_busy_slot_rejected () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun _ -> ());
  Alcotest.check_raises "busy" (Invalid_argument "Engine.spawn: slot busy")
    (fun () -> Engine.spawn eng ~tid:0 (fun _ -> ()))

let test_engine_step_limit () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      while true do
        Engine.Mem.pause ctx
      done);
  Alcotest.check_raises "limit" Engine.Step_limit_exceeded (fun () ->
      Engine.run ~max_steps:100 eng)

let test_engine_exception_propagates () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.pause ctx;
      failwith "boom");
  Alcotest.check_raises "boom" (Failure "boom") (fun () -> Engine.run eng)

let test_engine_random_policy_deterministic () =
  let run_once seed =
    let eng = Engine.create ~policy:(Engine.Random_order seed) ~nthreads:3 () in
    let trace = ref [] in
    for tid = 0 to 2 do
      Engine.spawn eng ~tid (fun ctx ->
          for _ = 1 to 4 do
            Engine.Mem.pause ctx;
            trace := (Engine.Mem.tid ctx) :: !trace
          done)
    done;
    Engine.run eng;
    !trace
  in
  check_bool "same seed, same schedule" true (run_once 5 = run_once 5);
  check_bool "different seeds usually differ" true (run_once 5 <> run_once 6)

let test_engine_contention_costs_more () =
  (* Two threads hammering the same line with RMW must accumulate more
     cycles than two threads on private lines, because of coherence. *)
  let run shared =
    let eng = Engine.create ~nthreads:2 () in
    for tid = 0 to 1 do
      Engine.spawn eng ~tid (fun ctx ->
          let paddr = if shared then 64 else 64 * (tid + 1) * 8 in
          for _ = 1 to 50 do
            Engine.Mem.access ctx ~vpage:(-1) ~paddr ~kind:Engine.Rmw
          done)
    done;
    Engine.run eng;
    Engine.elapsed eng
  in
  check_bool "contended slower" true (run true > run false)

let test_engine_external_ctx_is_free () =
  let ctx = Engine.external_ctx () in
  Engine.Mem.access ctx ~vpage:0 ~paddr:0 ~kind:Engine.Store;
  Engine.Mem.fence ctx Engine.Full;
  Engine.Mem.charge ctx 10;
  check_int "no clock" 0 (Engine.Mem.now ctx)

let test_engine_elapsed_seconds () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx -> Engine.Mem.charge ctx 2_200_000);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "1ms at 2.2GHz" 0.001 (Engine.elapsed_seconds eng)

(* --- Cell ---------------------------------------------------------------- *)

let test_cell_ops () =
  let h = Cell.heap Geometry.default in
  let ctx = Engine.external_ctx () in
  let c = Cell.make h 5 in
  check_int "get" 5 (Cell.get ctx c);
  Cell.set ctx c 9;
  check_int "set" 9 (Cell.peek c);
  check_bool "cas ok" true (Cell.cas ctx c ~expect:9 ~desired:10);
  check_bool "cas fail" false (Cell.cas ctx c ~expect:9 ~desired:11);
  check_int "after cas" 10 (Cell.get ctx c);
  check_int "xchg" 10 (Cell.exchange ctx c 1);
  check_int "faa" 1 (Cell.fetch_and_add ctx c 4);
  check_int "after faa" 5 (Cell.get ctx c)

let test_cell_padding_separates_lines () =
  let g = Geometry.default in
  let h = Cell.heap g in
  let a = Cell.make ~pad:true h 0 in
  let b = Cell.make ~pad:true h 0 in
  check_bool "different cache lines" true
    (Geometry.block_of_addr g (Cell.addr a)
    <> Geometry.block_of_addr g (Cell.addr b));
  let h2 = Cell.heap g in
  let c = Cell.make h2 0 in
  let d = Cell.make h2 0 in
  check_bool "unpadded cells share a line" true
    (Geometry.block_of_addr g (Cell.addr c)
    = Geometry.block_of_addr g (Cell.addr d))

let test_cell_costed_under_engine () =
  let eng = Engine.create ~nthreads:1 () in
  let h = Cell.heap (Engine.geometry eng) in
  let c = Cell.make h 0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Cell.set ctx c 1;
      ignore (Cell.get ctx c));
  Engine.run eng;
  check_bool "cell accesses cost cycles" true (Engine.clock eng ~tid:0 > 0);
  check_int "two accesses" 2 (Engine.stats eng).Engine.accesses


(* --- additional property tests ------------------------------------------- *)

(* The cache behaves like a reference LRU model. *)
let cache_lru_model_prop =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:60
    QCheck.(list (int_bound 31))
    (fun blocks ->
      let sets = 4 and ways = 2 in
      let c = Cache.create ~name:"m" ~sets ~ways in
      (* model: per set, a most-recently-used-first list of tags *)
      let model = Array.make sets [] in
      List.for_all
        (fun b ->
          let s = b land (sets - 1) in
          let hit_model = List.mem b model.(s) in
          let hit = Cache.access c b in
          (* update model: move/insert to front, truncate to ways *)
          let rest = List.filter (fun x -> x <> b) model.(s) in
          model.(s) <- b :: (if List.length rest >= ways then
                               List.filteri (fun i _ -> i < ways - 1) rest
                             else rest);
          hit = hit_model)
        blocks)

(* Min-clock scheduling: per-thread clocks never decrease and the engine
   drains every spawned thread. *)
let engine_progress_prop =
  QCheck.Test.make ~name:"engine drains all threads, clocks monotone"
    ~count:30
    QCheck.(pair (int_range 1 6) (int_range 1 40))
    (fun (nthreads, accesses) ->
      let eng = Engine.create ~nthreads () in
      let finished = Array.make nthreads false in
      let monotone = ref true in
      for tid = 0 to nthreads - 1 do
        Engine.spawn eng ~tid (fun ctx ->
            let last = ref 0 in
            for i = 1 to accesses do
              Engine.Mem.access ctx ~vpage:(-1) ~paddr:(i * (tid + 1))
                ~kind:Engine.Load;
              let now = Engine.Mem.now ctx in
              if now < !last then monotone := false;
              last := now
            done;
            finished.((Engine.Mem.tid ctx)) <- true)
      done;
      Engine.run eng;
      !monotone && Array.for_all Fun.id finished)

(* After any store by one thread, the directory never leaves another
   thread's stale copy readable as a hit without re-fetch: writing thread
   becomes the sole sharer. *)
let hierarchy_writer_owns_prop =
  QCheck.Test.make ~name:"writer becomes sole directory sharer" ~count:100
    QCheck.(pair (int_bound 3) (int_bound 63))
    (fun (writer, block) ->
      let h = Hierarchy.create ~cost ~nthreads:4 () in
      (* several readers touch the block first *)
      for tid = 0 to 3 do
        ignore (Hierarchy.access h ~tid ~kind:Hierarchy.Load block)
      done;
      ignore (Hierarchy.access h ~tid:writer ~kind:Hierarchy.Store block);
      Hierarchy.sharers h block = 1 lsl writer)

(* The invariant [Hierarchy.access] relies on to skip the directory probe
   on an L1 load hit: every block resident in a thread's L1 carries that
   thread's bit in its sharer mask.  Random multi-thread streams on the
   tiny hierarchy (so L1 evictions and remote invalidations are frequent),
   checked after every access over the whole block universe. *)
let hierarchy_l1_resident_has_bit_prop =
  let nthreads = 4 and nblocks = 16 in
  QCheck.Test.make ~name:"L1-resident block carries its owner's sharer bit"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 300)
              (triple (int_bound (nthreads - 1)) (int_bound 2)
                 (int_bound (nblocks - 1))))
    (fun stream ->
      let h =
        Hierarchy.create ~cfg:Hierarchy.tiny_config ~cost ~nthreads ()
      in
      let kind_of = function
        | 0 -> Hierarchy.Load
        | 1 -> Hierarchy.Store
        | _ -> Hierarchy.Rmw
      in
      List.for_all
        (fun (tid, k, block) ->
          ignore (Hierarchy.access h ~tid ~kind:(kind_of k) block);
          List.for_all
            (fun t ->
              List.for_all
                (fun b ->
                  (not (Hierarchy.l1_present h ~tid:t b))
                  || Hierarchy.sharers h b land (1 lsl t) <> 0)
                (List.init nblocks Fun.id))
            (List.init nthreads Fun.id))
        stream)

let suite =
  [
    ("geometry", `Quick, test_geometry);
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    ("prng bounds", `Quick, test_prng_bounds);
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache lru", `Quick, test_cache_lru_eviction);
    ("cache sets", `Quick, test_cache_sets_independent);
    ("cache invalidate", `Quick, test_cache_invalidate);
    ("cache stats", `Quick, test_cache_stats);
    ("cache bad create", `Quick, test_cache_bad_create);
    ("hierarchy miss/hit", `Quick, test_hierarchy_miss_then_hit);
    ("hierarchy l2 pair", `Quick, test_hierarchy_l2_shared_by_pair);
    ("hierarchy invalidation", `Quick, test_hierarchy_write_invalidates_sharers);
    ("hierarchy rmw", `Quick, test_hierarchy_rmw_premium);
    ("hierarchy local write", `Quick, test_hierarchy_local_write_is_cheap);
    ("hierarchy stats", `Quick, test_hierarchy_stats);
    ("tlb hit/miss", `Quick, test_tlb_hit_miss);
    ("tlb shootdown", `Quick, test_tlb_shootdown);
    ("tlb conflict", `Quick, test_tlb_conflict);
    ("engine runs threads", `Quick, test_engine_runs_threads);
    ("engine min-clock fair", `Quick, test_engine_min_clock_interleaves_fairly);
    ("engine clock", `Quick, test_engine_clock_accumulates);
    ("engine charge/now", `Quick, test_engine_charge_and_now);
    ("engine fence", `Quick, test_engine_fence_costs);
    ("engine slot reuse", `Quick, test_engine_slot_reuse_across_phases);
    ("engine busy slot", `Quick, test_engine_spawn_busy_slot_rejected);
    ("engine step limit", `Quick, test_engine_step_limit);
    ("engine exception", `Quick, test_engine_exception_propagates);
    ("engine random policy", `Quick, test_engine_random_policy_deterministic);
    ("engine contention", `Quick, test_engine_contention_costs_more);
    ("engine external ctx", `Quick, test_engine_external_ctx_is_free);
    ("engine elapsed seconds", `Quick, test_engine_elapsed_seconds);
    ("cell ops", `Quick, test_cell_ops);
    ("cell padding", `Quick, test_cell_padding_separates_lines);
    ("cell costed", `Quick, test_cell_costed_under_engine);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prng_uniform_prop;
        cache_lru_model_prop;
        engine_progress_prop;
        hierarchy_writer_owns_prop;
        hierarchy_l1_resident_has_bit_prop;
      ]

let () = Alcotest.run "engine" [ ("engine", suite) ]
