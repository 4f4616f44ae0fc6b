(* The benchmark's four workloads and one repetition of any of them.

   Every workload is a closed loop: each simulated thread issues its next
   operation when the previous one returns.  A repetition builds a fresh
   [System], sets it up (create, prefill, warmup), runs the measured
   window, checks the structure, drains it and reports end-to-end and
   per-layer values.  The seed only feeds this file's generators (key
   streams and shuffles); the simulated machine itself is deterministic. *)

open Oamem_engine
open Oamem_vmem
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
module Workload = Oamem_harness.Workload
module Lconfig = Oamem_lrmalloc.Config
module Json = Oamem_obs.Json
module Profile = Oamem_obs.Profile
module Export = Oamem_obs.Export

type structure = Hash | List

type shape =
  | Steady of { structure : structure; keys : Workload.t; horizon : int }
      (** prefill, warm up, then run until every thread's clock passes
          [horizon] simulated cycles *)
  | Release of { keys_per_thread : int; cycles : int; expected_size : int }
      (** start empty; each cycle every thread inserts its own keys in a
          seeded shuffle, deletes them all, then looks each one up *)

type t = {
  name : string;
  threads : int;
  scheme : string;
  sb_pages : int;
  shape : shape;
}

(* Fig. 5a: every op allocates or retires, chains are ~1 node, so the
   4-thread scheduler, the allocator fast path and retire/sweep dominate. *)
let hash_churn =
  {
    name = "hash-churn";
    threads = 4;
    scheme = "oa-ver";
    sb_pages = 64;
    shape =
      Steady
        {
          structure = Hash;
          keys = Workload.make ~mix:Workload.update_only ~initial:10_000 ();
          horizon = 100_000_000;
        };
  }

(* The read-side counterpart: ~1,000 nodes per traversal on one thread
   overflow the 16 KiB L1, so the cache/TLB models, vmem translation and
   OA read checks dominate while the scheduler (permanent leader tenure),
   allocator and retire path idle. *)
let list_scan =
  {
    name = "list-scan";
    threads = 1;
    scheme = "oa-ver";
    sb_pages = 64;
    shape =
      Steady
        {
          structure = List;
          keys =
            Workload.make
              ~mix:(Workload.mix ~search:90 ~insert:5 ~delete:5)
              ~initial:2_048 ();
          horizon = 250_000_000;
        };
  }

(* The layers of hash-churn under heavy sharing: coherence invalidations,
   CAS failures, warning-bit traffic and restarts. *)
let zipf_hot =
  {
    name = "zipf-hot";
    threads = 4;
    scheme = "oa-bit";
    sb_pages = 64;
    shape =
      Steady
        {
          structure = Hash;
          keys =
            Workload.make ~distribution:(Workload.Zipf 0.99)
              ~mix:Workload.balanced ~initial:10_000 ();
          horizon = 60_000_000;
        };
  }

(* Paper §3.2 under load: superblock lifecycle, page faults, madvise and
   translation-cache epoch bumps, which the steady workloads barely touch.
   Caches start empty by design. *)
let release_cycles =
  {
    name = "release-cycles";
    threads = 4;
    scheme = "oa-ver";
    sb_pages = 8;
    shape = Release { keys_per_thread = 8_192; cycles = 24; expected_size = 32_768 };
  }

let all = [ hash_churn; list_scan; zipf_hot; release_cycles ]
let find name = List.find_opt (fun w -> w.name = name) all

let params w =
  let common =
    Printf.sprintf "%d thread%s, %s, sb_pages=%d" w.threads
      (if w.threads = 1 then "" else "s")
      w.scheme w.sb_pages
  in
  match w.shape with
  | Steady { structure; keys; horizon } ->
      Printf.sprintf "%s, %d keys, %s %s, %s, %dM-cycle horizon"
        (match structure with Hash -> "hash set" | List -> "HM list")
        keys.Workload.initial
        (Workload.mix_name keys.Workload.mix)
        (match keys.Workload.distribution with
        | Workload.Uniform -> "uniform"
        | Workload.Zipf theta -> Printf.sprintf "zipf %.2f" theta)
        common (horizon / 1_000_000)
  | Release { keys_per_thread; cycles; expected_size } ->
      Printf.sprintf "hash set sized %d, %d cycles of %d keys per thread, %s"
        expected_size cycles keys_per_thread common

(* The traced run covers a tenth of the measured window. *)
let shortened w =
  match w.shape with
  | Steady s -> { w with shape = Steady { s with horizon = s.horizon / 10 } }
  | Release r -> { w with shape = Release { r with cycles = max 1 (r.cycles / 10) } }

(* Exact op-latency histogram: one counter per simulated cycle below [cap],
   preallocated so recording an op allocates nothing. *)
module Hist = struct
  let cap = 1 lsl 20

  type t = {
    counts : int array;
    mutable n : int;
    mutable over : int;  (** samples at or above [cap] *)
    mutable max : int;
  }

  let create () = { counts = Array.make cap 0; n = 0; over = 0; max = 0 }

  let clear h =
    Array.fill h.counts 0 cap 0;
    h.n <- 0;
    h.over <- 0;
    h.max <- 0

  let record h d =
    h.n <- h.n + 1;
    if d > h.max then h.max <- d;
    if d < cap then h.counts.(d) <- h.counts.(d) + 1 else h.over <- h.over + 1

  (* Smallest latency whose cumulative count reaches rank ceil(q * n). *)
  let percentile h q =
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
    let rec go v acc =
      if v >= cap then h.max
      else
        let acc = acc + h.counts.(v) in
        if acc >= rank then v else go (v + 1) acc
    in
    if h.n = 0 then 0 else go 0 0
end

type target = {
  insert : Engine.ctx -> int -> bool;
  delete : Engine.ctx -> int -> bool;
  contains : Engine.ctx -> int -> bool;
  length : unit -> int;  (** uncosted, quiescent state only *)
}

(* Per-thread op counts, summed after the window. *)
type tally = {
  searches : int array;
  inserts : int array;
  deletes : int array;
  inserts_ok : int array;
  deletes_ok : int array;
}

let tally threads =
  let z () = Array.make threads 0 in
  { searches = z (); inserts = z (); deletes = z (); inserts_ok = z (); deletes_ok = z () }

let sum = Array.fold_left ( + ) 0

let make_system w ~profile =
  let initial =
    match w.shape with
    | Steady { keys; _ } -> keys.Workload.initial
    | Release { expected_size; _ } -> expected_size
  in
  let threshold = 64 in
  System.create
    (System.Config.make ~nthreads:w.threads ~scheme:w.scheme
       ~max_pages:(1 lsl 16)
       ~alloc_cfg:
         { Lconfig.default with Lconfig.sb_pages = w.sb_pages; remap = Lconfig.Madvise }
       ~scheme_cfg:
         {
           Scheme.threshold;
           slots_per_thread = Hm_list.slots_needed;
           pool_nodes = initial + max 512 (2 * w.threads * threshold);
           node_words = Node.words;
           hazard_padded = true;
           neutralize = true;
         }
       ~profile ())

let hash_target h =
  {
    insert = Michael_hash.insert h;
    delete = Michael_hash.delete h;
    contains = Michael_hash.contains h;
    length = (fun () -> Michael_hash.length h);
  }

let build_target sys w =
  let ctx = Engine.external_ctx () in
  match w.shape with
  | Steady { structure = List; keys; _ } ->
      let l = System.list_set sys ctx in
      Hm_list.build_sorted l ctx (Workload.prefill_keys keys);
      {
        insert = Hm_list.insert l;
        delete = Hm_list.delete l;
        contains = Hm_list.contains l;
        length = (fun () -> Hm_list.length l);
      }
  | Steady { structure = Hash; keys; _ } ->
      let h = System.hash_set sys ctx ~expected_size:keys.Workload.initial in
      Michael_hash.prefill h ctx (Workload.prefill_keys keys);
      hash_target h
  | Release { expected_size; _ } ->
      hash_target (System.hash_set sys ctx ~expected_size)

(* The steady closed loop.  Keys and mix are drawn exactly as
   [Oamem_harness.Runner] draws them, so a window matches [Runner.run] of
   the same spec; the latency probe reads the thread clock, which is
   cost-free and does not yield. *)
let closed_loop sys w target keys ~seed_base ~continue ~hist ~tally =
  let op_base = (Engine.cost_model (System.engine sys)).Cost_model.op_base in
  let mix = keys.Workload.mix in
  let search_below = mix.Workload.search_pct in
  let insert_below = search_below + mix.Workload.insert_pct in
  for tid = 0 to w.threads - 1 do
    System.spawn sys ~tid (fun ctx ->
        let rng = Prng.create (seed_base + (1000 * tid)) in
        while continue ctx do
          Engine.Mem.charge ctx op_base;
          let k = Workload.next_key keys rng in
          let r = Prng.int rng 100 in
          let t0 = Engine.Mem.now ctx in
          if r < search_below then begin
            ignore (target.contains ctx k);
            tally.searches.(tid) <- tally.searches.(tid) + 1
          end
          else if r < insert_below then begin
            if target.insert ctx k then
              tally.inserts_ok.(tid) <- tally.inserts_ok.(tid) + 1;
            tally.inserts.(tid) <- tally.inserts.(tid) + 1
          end
          else begin
            if target.delete ctx k then
              tally.deletes_ok.(tid) <- tally.deletes_ok.(tid) + 1;
            tally.deletes.(tid) <- tally.deletes.(tid) + 1
          end;
          Hist.record hist (Engine.Mem.now ctx - t0)
        done)
  done;
  System.run sys

(* Warmup as in [Runner]: churn through the prefilled nodes (lists) or a
   bounded op count (hash chains reach steady state much sooner). *)
let warmup sys w target keys ~structure ~seed ~hist =
  let ops =
    match structure with
    | List -> 3 * keys.Workload.initial
    | Hash -> min (3 * keys.Workload.initial) 30_000
  in
  let quota = ref ops in
  closed_loop sys w target keys ~seed_base:(seed + 17) ~hist ~tally:(tally w.threads)
    ~continue:(fun _ ->
      if !quota > 0 then begin
        decr quota;
        true
      end
      else false)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Host time at reference speed.  The host may be shared, and its speed can
   drift by tens of percent within a minute.  A fixed kernel, which shares
   no code with the repository, runs between the slices of every timed
   region; each slice's host seconds are scaled by [nominal_s] over the
   mean of the kernel's times just before and just after the slice.  Every
   host time the benchmark reports is thus "seconds on a machine where the
   kernel takes [nominal_s]": machine drift cancels, while a slowdown of
   the code under test shows in full. *)
module Host_clock = struct
  let nominal_s = 0.002

  (* A strided read-modify-write pass over a 4 MiB table.  The slice
     before it evicts the table, so the pass pays the host's memory
     latency and bandwidth, which is what the simulator's own speed
     follows most closely. *)
  let table = Array.make (1 lsl 19) 1

  let kernel () =
    let mask = Array.length table - 1 in
    let t0 = Unix.gettimeofday () in
    let x = ref 0 in
    for i = 0 to 300_000 do
      let j = (i * 7919) land mask in
      x := !x + table.(j);
      table.(j) <- !x land 7
    done;
    ignore (Sys.opaque_identity !x);
    Unix.gettimeofday () -. t0

  type t = {
    mutable before : float;  (** kernel time just before the running slice *)
    mutable since : float;  (** host time the running slice started *)
    mutable scaled : float;
    mutable raw : float;
    mutable kernels : float list;
  }

  let start () =
    let before = kernel () in
    { before; since = Unix.gettimeofday (); scaled = 0.; raw = 0.; kernels = [ before ] }

  (* Close the running slice, time the kernel, open the next slice. *)
  let tick c =
    let dt = Unix.gettimeofday () -. c.since in
    let after = kernel () in
    c.scaled <- c.scaled +. (dt *. nominal_s /. ((c.before +. after) /. 2.));
    c.raw <- c.raw +. dt;
    c.before <- after;
    c.kernels <- after :: c.kernels;
    c.since <- Unix.gettimeofday ()

  (* Scaled seconds since the previous lap (or [start]). *)
  let lap c =
    tick c;
    let s = c.scaled in
    c.scaled <- 0.;
    s
end

(* Release cycles.  Each phase starts every thread at the slowest thread's
   clock (a simulated barrier), so phases do not overlap in simulated
   time.  [tick] runs before every phase, outside the simulation. *)
let release_loop sys w target ~keys_per_thread ~cycles ~seed ~hist ~tally ~fail ~tick =
  let eng = System.engine sys in
  let op_base = (Engine.cost_model eng).Cost_model.op_base in
  let own =
    Array.init w.threads (fun tid ->
        Array.init keys_per_thread (fun i -> (tid * keys_per_thread) + i))
  in
  let wrong = ref 0 in
  let phase ~cycle ~step ~counts ~ok_counts ~expect op =
    tick ();
    let start = Engine.elapsed eng in
    for tid = 0 to w.threads - 1 do
      System.spawn sys ~tid (fun ctx ->
          Engine.Mem.charge ctx (start - Engine.Mem.now ctx);
          let keys = own.(tid) in
          shuffle (Prng.create (Hashtbl.hash (seed, cycle, step, tid))) keys;
          Array.iter
            (fun k ->
              Engine.Mem.charge ctx op_base;
              let t0 = Engine.Mem.now ctx in
              let ok = op ctx k in
              Hist.record hist (Engine.Mem.now ctx - t0);
              counts.(tid) <- counts.(tid) + 1;
              if ok then ok_counts.(tid) <- ok_counts.(tid) + 1;
              if ok <> expect then incr wrong)
            keys)
    done;
    System.run sys
  in
  let found = Array.make w.threads 0 in
  for cycle = 0 to cycles - 1 do
    phase ~cycle ~step:0 ~counts:tally.inserts ~ok_counts:tally.inserts_ok
      ~expect:true target.insert;
    phase ~cycle ~step:1 ~counts:tally.deletes ~ok_counts:tally.deletes_ok
      ~expect:true target.delete;
    phase ~cycle ~step:2 ~counts:tally.searches ~ok_counts:found ~expect:false
      target.contains;
    let left = target.length () in
    if left <> 0 then fail (Printf.sprintf "cycle %d: %d keys left after deleting all" cycle left)
  done;
  if !wrong > 0 then
    fail (Printf.sprintf "%d ops returned an unexpected result" !wrong)

(* Peak resident set of this process, from /proc (0 when unavailable). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.
            | exception _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Simulated self-cycles of the traced run, grouped by the layer that owns
   each span's innermost frame. *)
let self_cycles_by_layer prof =
  let layer_of f =
    match Profile.frame_name f with
    | "restart" | "neutralized" -> "lockfree"
    | name -> (
        match String.index_opt name '.' with
        | Some i -> (
            match String.sub name 0 i with
            | "op" -> "lockfree"
            | "alloc" -> "lrmalloc"
            | "reclaim" -> "reclaim"
            | "vmem" -> "vmem"
            | other -> other)
        | None -> name)
  in
  let add acc layer c =
    let prev = Option.value ~default:0 (List.assoc_opt layer acc) in
    (layer, prev + c) :: List.remove_assoc layer acc
  in
  List.fold_left
    (fun acc (s : Profile.span) ->
      match List.rev s.Profile.path with
      | f :: _ -> add acc (layer_of f) s.Profile.self_cycles
      | [] -> acc)
    [] (Profile.spans prof)

type rep = {
  attempted : int;
  failure : string option;  (** the first failed check, if any *)
  sim_doc : string;
      (** every simulated result of the repetition as one JSON document;
          deterministic per seed, so repetitions must agree byte for byte *)
  values : (string * float) list;  (** end-to-end and per-layer values *)
}

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per_kop a ops = 1000. *. ratio a ops

let measure ?(profile = false) w ~seed =
  let hist = Hist.create () in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  let setup () =
    let hc = Host_clock.start () in
    let sys = make_system w ~profile in
    let create = Host_clock.lap hc in
    let target = build_target sys w in
    let prefill = Host_clock.lap hc in
    (match w.shape with
    | Steady { structure; keys; _ } -> warmup sys w target keys ~structure ~seed ~hist
    | Release _ -> ());
    System.reset_measurement sys;
    (sys, target, (create, prefill, Host_clock.lap hc))
  in
  (* A cheap setup is repeated (each time on a fresh system, the last one
     is kept) so that its median is steady; an expensive one runs once. *)
  let rec setups times spent =
    let sys, target, ((c, p, u) as t) = setup () in
    let times = t :: times and spent = spent +. c +. p +. u in
    if List.length times >= 7 || spent >= 0.3 then (sys, target, times)
    else begin
      Gc.full_major ();
      setups times spent
    end
  in
  let body () =
    let sys, target, setup_times = setups [] 0. in
    let setup_median f = median (List.map f setup_times) in
    Hist.clear hist;
    let length_before = target.length () in
    let eng = System.engine sys and vm = System.vmem sys in
    let tally = tally w.threads in
    let steps0 = Engine.steps eng in
    let hc = Host_clock.start () in
    let words0 = Gc.minor_words () in
    (match w.shape with
    | Steady { keys; horizon; _ } ->
        (* the first thread to pass each 1/32 of the horizon closes a slice *)
        let slice = max 1 (horizon / 32) in
        let mark = ref slice in
        closed_loop sys w target keys ~seed_base:seed ~hist ~tally
          ~continue:(fun ctx ->
            let now = Engine.Mem.now ctx in
            if now >= !mark then begin
              mark := ((now / slice) + 1) * slice;
              Host_clock.tick hc
            end;
            now < horizon)
    | Release { keys_per_thread; cycles; _ } ->
        release_loop sys w target ~keys_per_thread ~cycles ~seed ~hist ~tally ~fail
          ~tick:(fun () -> Host_clock.tick hc));
    let words = Gc.minor_words () -. words0 in
    let run_s = Host_clock.lap hc in
    let run_raw_s = hc.Host_clock.raw in
    let steps = Engine.steps eng - steps0 in
    let ops = hist.Hist.n in
    let inserts_ok = sum tally.inserts_ok and deletes_ok = sum tally.deletes_ok in
    let updates = sum tally.inserts + sum tally.deletes in
    let length_after = target.length () in
    if length_after <> length_before + inserts_ok - deletes_ok then
      fail
        (Printf.sprintf "length %d after the window, expected %d + %d - %d"
           length_after length_before inserts_ok deletes_ok);
    let elapsed = Engine.elapsed eng in
    let sim_seconds = Engine.elapsed_seconds eng in
    let snapshot = System.metrics sys in
    let st = Engine.stats eng in
    let ss = (System.scheme sys).Scheme.stats in
    let hs = Oamem_lrmalloc.Heap.stats (Oamem_lrmalloc.Lrmalloc.heap (System.alloc sys)) in
    let counter name = Oamem_obs.Metrics.find snapshot name in
    let tc_hits = Vmem.tc_hits vm and tc_fills = Vmem.tc_fills vm in
    let frames_peak = Vmem.frames_peak vm in
    let prof = System.profile sys in
    let self = self_cycles_by_layer prof in
    let unattributed = Profile.unattributed_cycles prof in
    ignore (Host_clock.lap hc);
    System.drain sys;
    let drain_s = Host_clock.lap hc in
    let frames_end = Vmem.frames_live vm in
    let p50 = Hist.percentile hist 0.50 and p99 = Hist.percentile hist 0.99 in
    let sim_doc =
      Json.to_string
        (Json.Obj
           [
             ("ops", Json.Int ops);
             ("searches", Json.Int (sum tally.searches));
             ("inserts", Json.Int (sum tally.inserts));
             ("deletes", Json.Int (sum tally.deletes));
             ("inserts_ok", Json.Int inserts_ok);
             ("deletes_ok", Json.Int deletes_ok);
             ("length", Json.Int length_after);
             ("elapsed_cycles", Json.Int elapsed);
             ("steps", Json.Int steps);
             ("op_p50", Json.Int p50);
             ("op_p99", Json.Int p99);
             ("op_max", Json.Int hist.Hist.max);
             ("op_over_cap", Json.Int hist.Hist.over);
             ("frames_peak", Json.Int frames_peak);
             ("frames_end", Json.Int frames_end);
             ("metrics", Export.metrics_json snapshot);
           ])
    in
    let l1 = st.Engine.cache.Hierarchy.l1 and tlb = st.Engine.tlb in
    let self_per_op layer =
      ratio (Option.value ~default:0 (List.assoc_opt layer self)) ops
    in
    let values =
      [
        ("sim_mops", float_of_int ops /. sim_seconds /. 1e6);
        ("sim_op_p50_cycles", float_of_int p50);
        ("sim_op_p99_cycles", float_of_int p99);
        ("sim_frames_peak", float_of_int frames_peak);
        ("sim_frames_end", float_of_int frames_end);
        ("host_msteps_per_s", float_of_int steps /. run_s /. 1e6);
        ("run_s", run_s);
        ("setup_s", setup_median (fun (c, p, u) -> c +. p +. u));
        ("host_minor_words_per_step", words /. float_of_int steps);
        ("host_run_raw_s", run_raw_s);
        ("host_kernel_ms", 1e3 *. median hc.Host_clock.kernels);
        ("engine.steps_per_op", ratio steps ops);
        ("engine.accesses_per_op", ratio st.Engine.accesses ops);
        ( "engine.l1_miss_ratio",
          ratio l1.Cache.misses (l1.Cache.hits + l1.Cache.misses) );
        ("engine.tlb_miss_ratio", ratio tlb.Tlb.misses (tlb.Tlb.hits + tlb.Tlb.misses));
        ( "engine.remote_invalidations_per_kop",
          per_kop st.Engine.cache.Hierarchy.remote_invalidations ops );
        ("engine.fences_per_op", ratio st.Engine.fences ops);
        ("engine.unattributed_cycles_per_op", ratio unattributed ops);
        ("vmem.tc_hit_ratio", ratio tc_hits (tc_hits + tc_fills));
        ("vmem.minor_faults_per_kop", per_kop (Vmem.minor_faults vm) ops);
        ("vmem.frames_released", float_of_int (counter "vmem.frames_released"));
        ("vmem.syscalls", float_of_int st.Engine.syscalls);
        ("vmem.self_cycles_per_op", self_per_op "vmem");
        ("lrmalloc.sb_fresh", float_of_int hs.Oamem_lrmalloc.Heap.sb_fresh);
        ("lrmalloc.sb_released", float_of_int hs.Oamem_lrmalloc.Heap.sb_released);
        ("lrmalloc.sb_remapped", float_of_int hs.Oamem_lrmalloc.Heap.sb_remapped);
        ( "lrmalloc.sb_range_reused",
          float_of_int hs.Oamem_lrmalloc.Heap.sb_range_reused );
        ("lrmalloc.self_cycles_per_op", self_per_op "lrmalloc");
        ("reclaim.retired_per_op", ratio ss.Scheme.retired ops);
        ("reclaim.freed_per_retired", ratio ss.Scheme.freed ss.Scheme.retired);
        ("reclaim.reclaim_phases_per_kop", per_kop ss.Scheme.reclaim_phases ops);
        ("reclaim.restarts_per_kop", per_kop ss.Scheme.restarts ops);
        ("reclaim.warnings_per_kop", per_kop ss.Scheme.warnings_fired ops);
        ("reclaim.self_cycles_per_op", self_per_op "reclaim");
        ("lockfree.update_success_ratio", ratio (inserts_ok + deletes_ok) updates);
        ("lockfree.prefill_s", setup_median (fun (_, p, _) -> p));
        ("lockfree.self_cycles_per_op", self_per_op "lockfree");
        ("core.create_s", setup_median (fun (c, _, _) -> c));
        ("core.warmup_s", setup_median (fun (_, _, u) -> u));
        ("core.drain_s", drain_s);
        ("host_steps", float_of_int steps);
        ("host_minor_words", words);
      ]
    in
    (sim_doc, values)
  in
  match body () with
  | sim_doc, values ->
      let values = ("host_peak_rss_mb", peak_rss_mb ()) :: values in
      { attempted = max 1 hist.Hist.n; failure = !failure; sim_doc; values }
  | exception e ->
      {
        attempted = hist.Hist.n + 1;
        failure = Some ("raised " ^ Printexc.to_string e);
        sim_doc = "";
        values = [];
      }
