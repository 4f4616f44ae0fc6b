(* The experiment registry: one entry per table/figure of the paper's
   evaluation (§5) plus the mechanism experiments (§3.2) and our ablations.
   Every experiment returns its data as a Report.doc — tables, ASCII charts
   of the throughput figures, the paper's expected shape stated next to the
   measured one, and CSV/JSON artifacts for external plotting.  Nothing is
   printed here: the driver renders the doc, which is what lets a sweep run
   experiments on worker domains and merge output deterministically.

   Independent cells *inside* an experiment (the scheme x threads grid of a
   throughput figure, the fault-matrix legs) are themselves sharded across
   [cfg.jobs] domains via Pool — each cell builds its own seeded System, so
   results are identical at any job count and are reassembled in canonical
   cell order. *)

open Oamem_engine
open Oamem_vmem
open Oamem_lrmalloc
open Oamem_reclaim
open Oamem_core
open Oamem_lockfree
(* the allocator's Config is shadowed by the experiment Config builder *)
module Aconfig = Oamem_lrmalloc.Config
module Metrics = Oamem_obs.Metrics
module Export = Oamem_obs.Export
module Json = Oamem_obs.Json

type config = {
  threads : int list;
  horizon_cycles : int;
  fig4_size : int;  (** paper uses 5K list nodes; scaled for runtime *)
  fig6_size : int;  (** paper uses 1M; scaled by default for CI time *)
  schemes : string list;
  seed : int;
  csv_dir : string option;
  trace_out : string option;
  metrics_out : string option;
  sanitize : bool;
  jobs : int;
}

module Config = struct
  type t = config

  let make ?(threads = [ 1; 2; 4; 8; 16; 32 ]) ?(horizon_cycles = 400_000)
      ?(fig4_size = 1_000) ?(fig6_size = 100_000)
      ?(schemes = Registry.paper_methods) ?(seed = 7) ?csv_dir ?trace_out
      ?metrics_out ?(sanitize = false) ?(jobs = 1) () =
    {
      threads;
      horizon_cycles;
      fig4_size;
      fig6_size;
      schemes;
      seed;
      csv_dir;
      trace_out;
      metrics_out;
      sanitize;
      jobs;
    }
end

let default_config = Config.make ()

(* A faster preset for smoke runs. *)
let quick_config =
  Config.make ~threads:[ 1; 4; 16 ] ~horizon_cycles:200_000 ~fig4_size:500
    ~fig6_size:20_000 ()

type t = {
  id : string;
  title : string;
  paper_ref : string;
  expected : string;
  run : config -> Report.doc;
}

(* Doc accumulator: experiments emit items in order and return the doc. *)
let doc_of build =
  let items = ref [] in
  let emit it = items := it :: !items in
  build emit;
  List.rev !items

(* --- throughput figures (Figs. 4, 5, 6) ------------------------------------- *)

let fmt_mops v = Printf.sprintf "%.3f" v

(* The six figure workloads (E1-E6), defined once: the throughput figures,
   E15 and the list ablations all build their cells with [figure_spec]. *)
type figure = {
  fig : string;
  structure : Runner.structure;
  size : config -> int;
  mix : Workload.mix;
  threshold : int;
  horizon_mult : int;  (* horizon in multiples of cfg.horizon_cycles *)
}

let figures =
  let make fig structure size mix threshold horizon_mult =
    { fig; structure; size; mix; threshold; horizon_mult }
  in
  let fig4 cfg = cfg.fig4_size and fig6 cfg = cfg.fig6_size in
  let fig5 _ = 10_000 in
  let list = Runner.List_set and hash = Runner.Hash_set in
  let upd = Workload.update_only and bal = Workload.balanced in
  [
    make "fig4a" list fig4 upd 16 8;
    make "fig4b" list fig4 bal 16 8;
    make "fig5a" hash fig5 upd 64 2;
    make "fig5b" hash fig5 bal 64 2;
    make "fig6a" hash fig6 upd 64 2;
    make "fig6b" hash fig6 bal 64 2;
  ]

let figure id = List.find (fun f -> f.fig = id) figures

let figure_spec cfg f ~scheme ~threads =
  {
    Runner.default_spec with
    Runner.scheme;
    threads;
    structure = f.structure;
    workload = Workload.make ~mix:f.mix ~initial:(f.size cfg) ();
    horizon_cycles = f.horizon_mult * cfg.horizon_cycles;
    threshold = f.threshold;
    seed = cfg.seed;
  }

let throughput_figure ~id ~title ~paper_ref ~expected ?(trials = 1) () =
  let fig = figure id in
  let run cfg =
    doc_of @@ fun emit ->
    emit (Report.section (Printf.sprintf "%s — %s" id title));
    emit (Report.textf "Paper: %s\nExpected shape: %s\n\n" paper_ref expected);
    (* the designated run for --trace/--metrics export: the last scheme at
       the highest thread count *)
    let max_threads = List.fold_left max 1 cfg.threads in
    let export_scheme =
      match List.rev cfg.schemes with s :: _ -> s | [] -> ""
    in
    (* one cell per (scheme, threads): independent seeded systems, sharded
       across cfg.jobs domains and reassembled in canonical order *)
    let cells =
      List.concat_map
        (fun scheme -> List.map (fun threads -> (scheme, threads)) cfg.threads)
        cfg.schemes
    in
    let run_cell (scheme, threads) =
      let traced =
        cfg.trace_out <> None && scheme = export_scheme
        && threads = max_threads
      in
      let summary =
        Runner.run_trials ~trials
          { (figure_spec cfg fig ~scheme ~threads) with Runner.trace = traced }
      in
      (* report the median trial (lists are noisy at small scale) *)
      List.find
        (fun r -> r.Runner.throughput_mops = summary.Runner.median_mops)
        summary.Runner.trials
    in
    let cell_results = Pool.map_exn ~jobs:cfg.jobs run_cell cells in
    let nthreads = List.length cfg.threads in
    let results =
      List.mapi
        (fun si scheme ->
          ( scheme,
            List.filteri
              (fun i _ -> i / nthreads = si)
              cell_results ))
        cfg.schemes
    in
    let header = "threads" :: List.map string_of_int cfg.threads in
    let rows =
      List.map
        (fun (scheme, rs) ->
          scheme :: List.map (fun r -> fmt_mops r.Runner.throughput_mops) rs)
        results
    in
    emit (Report.table ~header rows);
    emit
      (Report.chart ~title:(Printf.sprintf "%s (%s)" id title)
         ~xlabel:"threads" ~ylabel:"Mops/s" ~xs:cfg.threads
         (List.map
            (fun (scheme, rs) ->
              (scheme, List.map (fun r -> r.Runner.throughput_mops) rs))
            results));
    (* reclamation diagnostics at the highest thread count *)
    emit
      (Report.textf "Diagnostics at %d threads:\n"
         (List.fold_left max 1 cfg.threads));
    emit
      (Report.table
         ~header:
           [ "scheme"; "restarts"; "warnings"; "piggyback"; "phases";
             "frames-peak" ]
         (List.map
            (fun (scheme, rs) ->
              let last = List.nth rs (List.length rs - 1) in
              let m = last.Runner.metrics in
              [
                scheme;
                string_of_int (Metrics.find m "scheme.restarts");
                string_of_int (Metrics.find m "scheme.warnings_fired");
                string_of_int (Metrics.find m "scheme.warnings_piggybacked");
                string_of_int (Metrics.find m "scheme.reclaim_phases");
                string_of_int (Metrics.find m "vmem.frames_peak");
              ])
            results));
    emit
      (Report.csv ~filename:(id ^ ".csv")
         ~header:("scheme" :: List.map string_of_int cfg.threads)
         rows);
    if cfg.trace_out <> None || cfg.metrics_out <> None then
      match List.assoc_opt export_scheme results with
      | None -> ()
      | Some rs ->
          let r = List.nth rs (List.length rs - 1) in
          (match cfg.trace_out with
          | Some path ->
              emit
                (Report.json_artifact ~in_dir:false ~filename:path
                   (Export.chrome_trace r.Runner.trace));
              emit
                (Report.textf "Chrome trace (%s, %d threads) -> %s\n"
                   export_scheme max_threads path)
          | None -> ());
          (match cfg.metrics_out with
          | Some path ->
              emit
                (Report.json_artifact ~in_dir:false ~filename:path
                   (Export.metrics_json r.Runner.metrics
                      ~extra:
                        [
                          ("experiment", Json.String id);
                          ("scheme", Json.String export_scheme);
                          ("threads", Json.Int max_threads);
                          ( "throughput_mops",
                            Json.Float r.Runner.throughput_mops );
                        ]));
              emit
                (Report.textf "Metrics JSON (%s, %d threads) -> %s\n"
                   export_scheme max_threads path)
          | None -> ())
  in
  { id; title; paper_ref; expected; run }

let fig4a =
  throughput_figure ~id:"fig4a"
    ~title:"linked list (paper: 5K nodes, scaled), 50%ins/50%del"
    ~paper_ref:"Figure 4a" ~trials:3
    ~expected:
      "OA-VER above OA-BIT (fewer warnings on long chains); OA-BIT/OA-VER \
       beat OA and NR at low thread counts; NR/OA recover at high counts"
    ()

let fig4b =
  throughput_figure ~id:"fig4b"
    ~title:"linked list (paper: 5K nodes, scaled), 50%srch/25/25"
    ~paper_ref:"Figure 4b" ~trials:3
    ~expected:"same ordering as 4a with a smaller OA-VER/OA-BIT gap" ()

let fig5a =
  throughput_figure ~id:"fig5a" ~title:"hash table, 10K nodes, 50%ins/50%del"
    ~paper_ref:"Figure 5a"
    ~expected:
      "OA competitive at 1-2 threads but flattens with threads (shared \
       fixed pool); OA-BIT ~ OA-VER scale"
    ()

let fig5b =
  throughput_figure ~id:"fig5b" ~title:"hash table, 10K nodes, 50%srch/25/25"
    ~paper_ref:"Figure 5b" ~expected:"same shape as 5a" ()

let fig6a =
  throughput_figure ~id:"fig6a" ~title:"hash table, 1M nodes (scaled), 50/50"
    ~paper_ref:"Figure 6a"
    ~expected:"same ordering as 5a at a larger footprint" ()

let fig6b =
  throughput_figure ~id:"fig6b"
    ~title:"hash table, 1M nodes (scaled), 50%srch/25/25"
    ~paper_ref:"Figure 6b" ~expected:"same shape as 6a" ()

(* --- E7: remap strategies make no throughput difference (§5.1) -------------- *)

let remap_strategies =
  {
    id = "remap-strategies";
    title = "OA-VER throughput across remap strategies";
    paper_ref = "Section 5.1 (final paragraph)";
    expected =
      "keep / madvise / shared within noise of each other (empties are rare)";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "remap-strategies — keep vs madvise vs shared");
        let strategies =
          [ Aconfig.Keep_resident; Aconfig.Madvise; Aconfig.Shared_map ]
        in
        let rows =
          List.map
            (fun remap ->
              let per_thread =
                List.map
                  (fun threads ->
                    Runner.run
                      {
                        Runner.default_spec with
                        Runner.scheme = "oa-ver";
                        threads;
                        structure = Runner.Hash_set;
                        workload =
                          Workload.make ~mix:Workload.update_only ~initial:10_000 ();
                        horizon_cycles = cfg.horizon_cycles;
                        remap;
                        seed = cfg.seed;
                      })
                  cfg.threads
              in
              Aconfig.remap_strategy_name remap
              :: List.map
                   (fun r -> fmt_mops r.Runner.throughput_mops)
                   per_thread)
            strategies
        in
        emit
          (Report.table ~header:("strategy" :: List.map string_of_int cfg.threads) rows);
        emit
          (Report.csv ~filename:"remap-strategies.csv"
             ~header:("strategy" :: List.map string_of_int cfg.threads)
             rows));
  }

(* --- E8: physical memory release (Fig. 3 mechanics) -------------------------- *)

let memory_release =
  {
    id = "memory-release";
    title = "frames released when a structure is torn down";
    paper_ref = "Section 3.2, Figure 3";
    expected =
      "keep: frames stay resident; madvise: frames drop, RSS drops; shared: \
       frames drop but Linux-style RSS stays inflated";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "memory-release — frames and RSS after teardown");
        let strategies =
          [ Aconfig.Keep_resident; Aconfig.Madvise; Aconfig.Shared_map ]
        in
        let rows =
          List.map
            (fun remap ->
              let spec =
                {
                  Runner.default_spec with
                  Runner.scheme = "oa-ver";
                  threads = 2;
                  structure = Runner.Hash_set;
                  workload =
                    Workload.make ~mix:Workload.update_only ~initial:10_000 ();
                  horizon_cycles = 1;
                  remap;
                  sb_pages = 8;
                  threshold = 32;
                  seed = cfg.seed;
                }
              in
              let sys = Runner.make_system spec in
              let target =
                Runner.build_target sys spec.Runner.structure
                  spec.Runner.workload
              in
              let peak =
                Metrics.find (System.metrics sys) "vmem.frames_live"
              in
              (* delete every key from a simulated thread, then drain *)
              System.run_on_thread0 sys (fun ctx ->
                  List.iter
                    (fun k -> ignore (target.Runner.delete ctx k))
                    (Workload.prefill_keys spec.Runner.workload));
              System.drain sys;
              let m = System.metrics sys in
              [
                Aconfig.remap_strategy_name remap;
                string_of_int peak;
                string_of_int (Metrics.find m "vmem.frames_live");
                string_of_int (Metrics.find m "vmem.resident_pages");
                string_of_int (Metrics.find m "vmem.linux_rss_pages");
                string_of_int (Metrics.find m "engine.syscalls");
              ])
            strategies
        in
        emit
          (Report.table
             ~header:
               [ "strategy"; "frames-peak"; "frames-after"; "resident-pages";
                 "linux-rss-pages"; "syscalls" ]
             rows);
        emit
          (Report.csv ~filename:"memory-release.csv"
             ~header:
               [ "strategy"; "frames_peak"; "frames_after"; "resident_pages";
                 "linux_rss_pages"; "syscalls" ]
             rows));
  }

(* --- E9: VBR-style DWCAS leak (§3.2 footnote 2) ------------------------------ *)

let dwcas_leak =
  {
    id = "dwcas-leak";
    title = "failed DWCAS on reclaimed memory: madvise leaks, shared does not";
    paper_ref = "Section 3.2, footnote 2";
    expected = "madvise: one frame faulted per touched page; shared: none";
    run =
      (fun _cfg ->
        doc_of @@ fun emit ->
        emit
          (Report.section
             "dwcas-leak — VBR tagged DWCAS on released superblocks");
        let probe remap =
          let g = Geometry.default in
          let vm = Vmem.create ~max_pages:65536 g in
          let meta = Cell.heap g in
          let acfg = { Aconfig.default with Aconfig.sb_pages = 8; remap } in
          let alloc = Lrmalloc.create ~cfg:acfg ~vmem:vm ~meta ~nthreads:1 () in
          let ctx = Engine.external_ctx () in
          let first = Lrmalloc.palloc alloc ctx 512 in
          let heap = Lrmalloc.heap alloc in
          let d = Heap.lookup_desc heap ctx first in
          let blocks =
            first
            :: List.init
                 (d.Descriptor.max_count - 1)
                 (fun _ -> Lrmalloc.palloc alloc ctx 512)
          in
          List.iter (fun b -> Lrmalloc.free alloc ctx b) blocks;
          Lrmalloc.flush_thread_cache alloc ctx;
          Heap.trim heap ctx;
          Vbr_probe.run vm ctx ~addrs:blocks
        in
        let rows =
          List.map
            (fun remap ->
              let r = probe remap in
              [
                Aconfig.remap_strategy_name remap;
                string_of_int r.Vbr_probe.attempts;
                string_of_int r.Vbr_probe.succeeded;
                string_of_int r.Vbr_probe.frames_leaked;
                string_of_int r.Vbr_probe.cow_cas_faults;
              ])
            [ Aconfig.Madvise; Aconfig.Shared_map ]
        in
        emit
          (Report.table
             ~header:[ "strategy"; "dwcas"; "succeeded"; "frames-leaked"; "cas-faults" ]
             rows));
  }

(* --- E10: per-node validation cost micro-benchmark (§2.4) -------------------- *)

let micro_validate =
  {
    id = "micro-validate";
    title = "per-node cost: OA warning check vs HP publish+fence+verify";
    paper_ref = "Section 2.4 cost argument";
    expected = "OA read_check cycles well below HP traverse_protect cycles";
    run =
      (fun _cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "micro-validate — simulated cycles per primitive");
        let measure scheme_name f =
          let sys =
            System.create (System.Config.make ~nthreads:1 ~scheme:scheme_name ())
          in
          let iters = 2_000 in
          System.run_on_thread0 sys (fun ctx ->
              (* warm-up *)
              f sys ctx 64);
          let sys =
            System.create (System.Config.make ~nthreads:1 ~scheme:scheme_name ())
          in
          let cycles = ref 0 in
          System.run_on_thread0 sys (fun ctx ->
              f sys ctx 64;
              (* warm caches *)
              let t0 = Engine.Mem.now ctx in
              f sys ctx iters;
              cycles := Engine.Mem.now ctx - t0);
          float_of_int !cycles /. float_of_int iters
        in
        let oa_check sys ctx n =
          let sch = System.scheme sys in
          for _ = 1 to n do
            sch.Scheme.read_check ctx
          done
        in
        let hp_protect sys ctx n =
          let sch = System.scheme sys in
          let vm = System.vmem sys in
          let node = sch.Scheme.alloc ctx 2 in
          let loc = sch.Scheme.alloc ctx 2 in
          Vmem.store vm ctx loc node;
          for _ = 1 to n do
            sch.Scheme.traverse_protect ctx ~slot:0 ~addr:node ~link:loc
              ~expect:node
          done
        in
        let rows =
          [
            [ "oa-ver read_check"; fmt_mops (measure "oa-ver" oa_check) ];
            [ "oa-bit read_check"; fmt_mops (measure "oa-bit" oa_check) ];
            [ "hp traverse_protect"; fmt_mops (measure "hp" hp_protect) ];
          ]
        in
        emit (Report.table ~header:[ "primitive"; "cycles/op" ] rows));
  }

(* --- E11: warnings fired, OA-BIT vs OA-VER (Alg. 2 ablation) ----------------- *)

let warnings_ablation =
  {
    id = "warnings-ablation";
    title = "warning traffic and restarts: OA-BIT vs OA-VER on lists";
    paper_ref = "Section 3.1 / Figure 4a explanation";
    expected =
      "OA-VER fires fewer warnings per reclaim (piggy-backing) and restarts \
       readers less";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "warnings-ablation — OA-BIT vs OA-VER");
        (* mid-range thread count and the list-figure horizon: the regime
           where warning frequency drives restart losses *)
        let threads = min 8 (List.fold_left max 1 cfg.threads) in
        let rows =
          List.map
            (fun scheme ->
              let r =
                Runner.run (figure_spec cfg (figure "fig4a") ~scheme ~threads)
              in
              let m = r.Runner.metrics in
              [
                scheme;
                fmt_mops r.Runner.throughput_mops;
                string_of_int (Metrics.find m "scheme.warnings_fired");
                string_of_int (Metrics.find m "scheme.warnings_piggybacked");
                string_of_int (Metrics.find m "scheme.restarts");
                string_of_int (Metrics.find m "scheme.reclaim_phases");
              ])
            [ "oa-bit"; "oa-ver" ]
        in
        emit
          (Report.table
             ~header:
               [ "scheme"; "Mops/s"; "warnings"; "piggyback"; "restarts"; "phases" ]
             rows));
  }

(* --- ablations beyond the paper ---------------------------------------------- *)

let limbo_sweep =
  {
    id = "limbo-sweep";
    title = "limbo-list threshold sweep (OA-VER, hash 10K)";
    paper_ref = "design choice in Alg. 1/2 (threshold X)";
    expected = "throughput rises then plateaus; tiny thresholds thrash";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "limbo-sweep — reclamation threshold");
        let threads = List.fold_left max 1 cfg.threads in
        let rows =
          List.map
            (fun threshold ->
              let r =
                Runner.run
                  {
                    Runner.default_spec with
                    Runner.scheme = "oa-ver";
                    threads;
                    structure = Runner.Hash_set;
                    workload =
                      Workload.make ~mix:Workload.update_only ~initial:10_000 ();
                    horizon_cycles = cfg.horizon_cycles;
                    threshold;
                    seed = cfg.seed;
                  }
              in
              [
                string_of_int threshold;
                fmt_mops r.Runner.throughput_mops;
                string_of_int (Metrics.find r.Runner.metrics "scheme.reclaim_phases");
                string_of_int (Metrics.find r.Runner.metrics "vmem.frames_peak");
              ])
            [ 4; 16; 64; 256; 1024 ]
        in
        emit
          (Report.table
             ~header:[ "threshold"; "Mops/s"; "phases"; "frames-peak" ]
             rows));
  }

let padding_ablation =
  {
    id = "padding-ablation";
    title = "hazard-slot cache-line padding on vs off";
    paper_ref = "implementation detail (false sharing)";
    expected = "unpadded slots cost throughput via false sharing";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "padding-ablation — hazard slot false sharing");
        let threads = List.fold_left max 1 cfg.threads in
        let rows =
          List.map
            (fun padded ->
              let r =
                Runner.run
                  {
                    Runner.default_spec with
                    Runner.scheme = "hp";
                    threads;
                    structure = Runner.Hash_set;
                    workload =
                      Workload.make ~mix:Workload.update_only ~initial:10_000 ();
                    horizon_cycles = cfg.horizon_cycles;
                    hazard_padded = padded;
                    seed = cfg.seed;
                  }
              in
              [
                (if padded then "padded" else "unpadded");
                fmt_mops r.Runner.throughput_mops;
                string_of_int
                  (Metrics.find r.Runner.metrics
                     "engine.cache.remote_invalidations");
              ])
            [ true; false ]
        in
        emit
          (Report.table ~header:[ "slots"; "Mops/s"; "remote-invalidations" ] rows));
  }

let cache_sweep =
  {
    id = "cache-sweep";
    title = "cache-geometry sensitivity (OA-VER vs NR, hash 10K)";
    paper_ref = "locality discussion in §5.2";
    expected =
      "a small L1 amplifies the footprint advantage of reclaiming schemes";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "cache-sweep — cache geometry");
        (* the list is where footprint-vs-L1 matters: OA-VER's compact
           reuse fits the default L1, NR's scattered leak does not *)
        let threads = min 8 (List.fold_left max 1 cfg.threads) in
        let geoms =
          [
            ("opteron", None);
            ( "small-l1",
              Some
                {
                  Oamem_engine.Hierarchy.opteron_6274_config with
                  Oamem_engine.Hierarchy.l1_sets = 8;
                } );
            ( "big-l1",
              Some
                {
                  Oamem_engine.Hierarchy.opteron_6274_config with
                  Oamem_engine.Hierarchy.l1_sets = 1024;
                } );
          ]
        in
        let rows =
          List.concat_map
            (fun (name, cache_cfg) ->
              List.map
                (fun scheme ->
                  let r =
                    Runner.run
                      {
                        (figure_spec cfg (figure "fig4a") ~scheme ~threads) with
                        Runner.cache_cfg;
                      }
                  in
                  [ name; scheme; fmt_mops r.Runner.throughput_mops ])
                [ "oa-ver"; "nr" ])
            geoms
        in
        emit (Report.table ~header:[ "cache"; "scheme"; "Mops/s" ] rows));
  }

(* --- §6 future work: VBR over the extended allocator -------------------------- *)

let vbr_stack =
  {
    id = "vbr-stack";
    title = "VBR stack (immediate free) vs OA-VER stack (limbo + warnings)";
    paper_ref = "Section 6 (future work) + Section 3.2 footnote 2";
    expected =
      "VBR frees every popped node immediately with competitive throughput; \
       memory returns with no drain";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit (Report.section "vbr-stack — the paper's future-work combination");
        let nthreads = min 8 (List.fold_left max 1 cfg.threads) in
        let ops_per_thread = 2_000 in
        let run_stack which =
          let sys =
            System.create
              (System.Config.make ~nthreads ~scheme:"oa-ver"
                 ~alloc_cfg:{ Aconfig.default with Aconfig.sb_pages = 8 }
                 ~scheme_cfg:
                   {
                     Scheme.default_config with
                     Scheme.threshold = 64;
                     slots_per_thread = Hm_list.slots_needed;
                   }
                 ())
          in
          let setup = Engine.external_ctx () in
          let push, pop, frees_after =
            match which with
            | `Vbr ->
                let s = Vbr_stack.create setup ~alloc:(System.alloc sys) in
                ( Vbr_stack.push s,
                  (fun ctx -> ignore (Vbr_stack.pop s ctx)),
                  fun () -> Vbr_stack.immediate_frees s )
            | `Oa ->
                let s =
                  Treiber_stack.create setup ~scheme:(System.scheme sys)
                    ~vmem:(System.vmem sys)
                in
                ( Treiber_stack.push s,
                  (fun ctx -> ignore (Treiber_stack.pop s ctx)),
                  fun () -> (System.scheme sys).Scheme.stats.Scheme.freed )
          in
          for tid = 0 to nthreads - 1 do
            System.spawn sys ~tid (fun ctx ->
                let rng = Prng.create (cfg.seed + tid) in
                for i = 1 to ops_per_thread do
                  if Prng.bool rng then push ctx i else pop ctx
                done)
          done;
          System.run sys;
          let eng = System.engine sys in
          let mops =
            float_of_int (nthreads * ops_per_thread)
            /. Engine.elapsed_seconds eng /. 1e6
          in
          let frames_busy =
            Metrics.find (System.metrics sys) "vmem.frames_live"
          in
          (mops, frees_after (), frames_busy)
        in
        let vbr_mops, vbr_frees, vbr_frames = run_stack `Vbr in
        let oa_mops, oa_frees, oa_frames = run_stack `Oa in
        emit
          (Report.table
             ~header:[ "stack"; "Mops/s"; "frees"; "frames-live" ]
             [
               [ "vbr (immediate)"; fmt_mops vbr_mops; string_of_int vbr_frees;
                 string_of_int vbr_frames ];
               [ "oa-ver (limbo)"; fmt_mops oa_mops; string_of_int oa_frees;
                 string_of_int oa_frames ];
             ]));
  }

(* --- E13: fault injection and graceful degradation --------------------------- *)

let robustness =
  {
    id = "robustness";
    title =
      "Fault matrix: garbage growth under stalled/crashed threads + \
       frame-pool exhaustion recovery";
    paper_ref = "Section 1 (robustness motivation) + Section 5 (memory release)";
    expected =
      "EBR garbage grows with the healthy threads' work once one thread \
       stalls mid-operation; HP and the OA schemes stay under a constant \
       bound; DEBRA neutralizes the laggard and stays bounded too (and \
       seizes a crashed thread's bags), degenerating to EBR with \
       neutralization off; under a frame quota the releasing remap \
       strategies recover while Keep_resident ends in a typed Out_of_memory";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit
          (Report.section
             "robustness — stalled-thread garbage growth (stalled vs control)");
        let spec =
          {
            Robustness.default_spec with
            Robustness.horizon_cycles = cfg.horizon_cycles;
            seed = cfg.seed;
            sanitize = cfg.sanitize;
          }
        in
        let bound = Robustness.robust_bound spec in
        emit
          (Report.textf
             "Thread 0 stalls at its %d-th yield for longer than the run; %d \
              healthy workers keep updating a hash set.  Robust bound: %d \
              nodes.%s\n\n"
             spec.Robustness.stall_at_yield spec.Robustness.workers bound
             (if cfg.sanitize then "  Lifecycle sanitizer: on." else ""));
        (* Matrix membership comes from the capability record, not a name
           list: every registered scheme runs except the ones that recycle
           retired blocks in-place (the original OA pools), whose reuse the
           unreclaimed gauge cannot attribute. *)
        let schemes =
          List.filter_map
            (fun (e : Registry.entry) ->
              if e.Registry.caps.Scheme.recycles_retired then None
              else Some e.Registry.name)
            Registry.all
        in
        (* Every leg is an independent seeded run; shard them across
           cfg.jobs domains and reassemble in canonical order.  The
           labelled pair rows include the DEBRA ablation with
           neutralization disabled, which must degenerate to EBR's curve. *)
        let legs =
          List.map (fun scheme -> `Pair (scheme, { spec with Robustness.scheme })) schemes
          @ [
              `Pair
                ( "debra (no-neut)",
                  { spec with Robustness.scheme = "debra"; neutralize = false } );
            ]
          @ List.map
              (fun scheme ->
                `Crash
                  ( scheme,
                    {
                      spec with
                      Robustness.scheme;
                      Robustness.fault = Robustness.Crash;
                    } ))
              schemes
        in
        let leg_results =
          Pool.map_exn ~jobs:cfg.jobs
            (function
              | `Pair (label, sp) -> `PairR (label, Robustness.run_pair sp)
              | `Crash (scheme, sp) -> `CrashR (scheme, Robustness.run sp))
            legs
        in
        let pairs =
          List.filter_map
            (function `PairR (label, pr) -> Some (label, pr) | _ -> None)
            leg_results
        in
        let crashes =
          List.filter_map
            (function `CrashR (scheme, r) -> Some (scheme, r) | _ -> None)
            leg_results
        in
        let verdict label (s : Robustness.result) (c : Robustness.result) =
          if Registry.mem label && (Registry.caps label).Scheme.leaks_by_design
          then "leaks in both (by design)"
          else if
            s.Robustness.final_unreclaimed > 2 * bound
            && s.Robustness.final_unreclaimed
               > 2 * max 1 c.Robustness.final_unreclaimed
          then "grows with healthy work"
          else if s.Robustness.max_unreclaimed <= bound then "bounded"
          else if
            s.Robustness.final_unreclaimed
            <= 2 * max 1 c.Robustness.final_unreclaimed
          then "bounded (within 2x control)"
          else "bounded by live-at-stall"
        in
        emit
          (Report.table
             ~header:
               [
                 "scheme"; "stalled max"; "stalled final"; "control final";
                 "bound"; "neutral."; "verdict";
               ]
             (List.map
                (fun (label, (s, c)) ->
                  [
                    label;
                    string_of_int s.Robustness.max_unreclaimed;
                    string_of_int s.Robustness.final_unreclaimed;
                    string_of_int c.Robustness.final_unreclaimed;
                    string_of_int bound;
                    string_of_int s.Robustness.neutralized;
                    verdict label s c;
                  ])
                pairs));
        (* Garbage-over-time chart for the stalled variant (leak-by-design
           schemes excluded: their monotone leak would flatten every other
           series). *)
        let charted =
          List.filter
            (fun (label, _) ->
              not
                (Registry.mem label
                && (Registry.caps label).Scheme.leaks_by_design))
            pairs
        in
        let series =
          List.map
            (fun (label, ((s : Robustness.result), _)) ->
              ( label,
                List.map
                  (fun smp ->
                    float_of_int smp.Robustness.unreclaimed)
                  s.Robustness.samples ))
            charted
        in
        let npoints =
          List.fold_left (fun acc (_, ys) -> min acc (List.length ys))
            max_int series
        in
        let truncate n l = List.filteri (fun i _ -> i < n) l in
        let xs =
          match charted with
          | (_, (s, _)) :: _ ->
              truncate npoints
                (List.map
                   (fun smp -> smp.Robustness.at_cycles / 1000)
                   s.Robustness.samples)
          | [] -> []
        in
        emit
          (Report.chart ~title:"unreclaimed nodes over time (stalled thread 0)"
             ~xlabel:"kcycles" ~ylabel:"unreclaimed nodes" ~xs
             (List.map (fun (name, ys) -> (name, truncate npoints ys)) series));
        emit
          (Report.csv ~filename:"robustness.csv"
             ~header:[ "scheme"; "variant"; "at_cycles"; "unreclaimed" ]
             (List.concat_map
                (fun (label, (s, c)) ->
                  List.concat_map
                    (fun (variant, (r : Robustness.result)) ->
                      List.map
                        (fun smp ->
                          [
                            label; variant;
                            string_of_int smp.Robustness.at_cycles;
                            string_of_int smp.Robustness.unreclaimed;
                          ])
                        r.Robustness.samples)
                    [ ("stalled", s); ("control", c) ])
                pairs));
        (* Fault matrix: every scheme under {no-fault, stall, crash}.  The
           no-fault and stall legs reuse the pair runs above; the crash legs
           ran as their own jobs.  Seized vs pinned separates what a dead
           thread's bag still holds from what a live thread already took
           over. *)
        emit
          (Report.section
             "robustness — fault matrix (no-fault / stall / crash)");
        let matrix =
          List.concat_map
            (fun scheme ->
              let s, c = List.assoc scheme pairs in
              let crash = List.assoc scheme crashes in
              [ (scheme, c); (scheme, s); (scheme, crash) ])
            schemes
        in
        emit
          (Report.table
             ~header:
               [
                 "scheme"; "fault"; "final unreclaimed"; "final pinned";
                 "seized"; "neutral."; "ops";
               ]
             (List.map
                (fun (scheme, (r : Robustness.result)) ->
                  [
                    scheme;
                    Robustness.fault_name r.Robustness.spec.Robustness.fault;
                    string_of_int r.Robustness.final_unreclaimed;
                    string_of_int r.Robustness.final_pinned;
                    string_of_int r.Robustness.seized;
                    string_of_int r.Robustness.neutralized;
                    string_of_int r.Robustness.ops;
                  ])
                matrix));
        emit
          (Report.csv ~filename:"robustness_matrix.csv"
             ~header:
               [
                 "scheme"; "fault"; "final_unreclaimed"; "final_pinned";
                 "seized"; "neutralized"; "ops"; "max_unreclaimed";
               ]
             (List.map
                (fun (scheme, (r : Robustness.result)) ->
                  [
                    scheme;
                    Robustness.fault_name r.Robustness.spec.Robustness.fault;
                    string_of_int r.Robustness.final_unreclaimed;
                    string_of_int r.Robustness.final_pinned;
                    string_of_int r.Robustness.seized;
                    string_of_int r.Robustness.neutralized;
                    string_of_int r.Robustness.ops;
                    string_of_int r.Robustness.max_unreclaimed;
                  ])
                matrix));
        (* Per-scheme garbage-curve JSON, one artifact per (scheme, fault)
           leg — the CI fault-matrix artifacts. *)
        List.iter
          (fun (scheme, (r : Robustness.result)) ->
            let fault =
              Robustness.fault_name r.Robustness.spec.Robustness.fault
            in
            let doc =
              Json.Obj
                [
                  ("scheme", Json.String scheme);
                  ("fault", Json.String fault);
                  ( "neutralize",
                    Json.Bool r.Robustness.spec.Robustness.neutralize );
                  ("final_unreclaimed",
                   Json.Int r.Robustness.final_unreclaimed);
                  ("final_pinned", Json.Int r.Robustness.final_pinned);
                  ("seized", Json.Int r.Robustness.seized);
                  ("neutralized", Json.Int r.Robustness.neutralized);
                  ("ops", Json.Int r.Robustness.ops);
                  ( "samples",
                    Json.List
                      (List.map
                         (fun smp ->
                           Json.Obj
                             [
                               ("at_cycles", Json.Int smp.Robustness.at_cycles);
                               ( "unreclaimed",
                                 Json.Int smp.Robustness.unreclaimed );
                             ])
                         r.Robustness.samples) );
                ]
            in
            emit
              (Report.json_artifact
                 ~filename:(Printf.sprintf "garbage_%s_%s.json" scheme fault)
                 doc))
          matrix;
        emit (Report.section "robustness — frame-pool exhaustion under a quota");
        emit
          (Report.text
             "Persistent-allocation churn under a live-frame quota: recovery \
              flushes the thread cache and releases empty persistent \
              superblocks before retrying.\n\n");
        let pressure_rows =
          List.map
            (fun remap ->
              let r = Oamem_faults.Pressure.run ~remap () in
              [
                Aconfig.remap_strategy_name remap;
                Printf.sprintf "%d" r.Oamem_faults.Pressure.rounds_completed;
                (if r.Oamem_faults.Pressure.oom then "yes" else "no");
                string_of_int r.Oamem_faults.Pressure.recoveries;
                string_of_int r.Oamem_faults.Pressure.failures;
                string_of_int r.Oamem_faults.Pressure.sb_remapped;
                string_of_int r.Oamem_faults.Pressure.frames_peak;
              ])
            [ Aconfig.Madvise; Aconfig.Shared_map; Aconfig.Keep_resident ]
        in
        emit
          (Report.table
             ~header:
               [
                 "remap"; "rounds"; "oom"; "recoveries"; "failures";
                 "sb released"; "frames peak";
               ]
             pressure_rows));
  }

(* --- E14: phase-scoped service SLA ------------------------------------------ *)

let service =
  {
    id = "service";
    title = "Zipfian service scenario: per-phase SLA across schemes";
    paper_ref = "library extension (E14)";
    expected =
      "Phase-level p99 orderings differ from the whole-run ordering: schemes \
       that win on average lose in specific phases (restart-prone schemes in \
       the flash crowd, quota-pressured ones in the memory wave).";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit
          (Report.section
             "E14 — Zipfian service scenario: per-phase SLA across schemes");
        (* the scenario's point is the full scheme comparison; an explicit
           -s narrows it, the CLI's default (the paper methods) widens to
           every registered scheme *)
        let schemes =
          if cfg.schemes = Registry.paper_methods then Registry.names
          else cfg.schemes
        in
        let threads = min 8 (List.fold_left max 1 cfg.threads) in
        let initial = max 256 (cfg.fig6_size / 50) in
        let window = max 1_000 (cfg.horizon_cycles / 40) in
        let phases = Service.default_phases ~horizon_cycles:cfg.horizon_cycles in
        emit
          (Report.textf
             "One store (%d keys, %d worker threads) lives through %s; \
              timeline windows of %d cycles slice per-phase latency and \
              reclamation behaviour.\n\n"
             initial threads
             (String.concat " -> "
                (List.map
                   (fun (p : Service.phase_spec) -> p.Service.pname)
                   phases))
             window);
        let spec_of scheme =
          {
            Service.scheme;
            threads;
            initial;
            window;
            seed = cfg.seed;
            phases;
          }
        in
        let results =
          Pool.map_exn ~jobs:cfg.jobs
            (fun scheme -> (scheme, Service.run (spec_of scheme)))
            schemes
        in
        let row scheme (s : Service.phase_stats) =
          [
            scheme;
            s.Service.phase;
            string_of_int s.Service.ops;
            string_of_int s.Service.p50;
            string_of_int s.Service.p99;
            string_of_int s.Service.max_cycles;
            string_of_int s.Service.restarts;
            string_of_int s.Service.warnings;
            string_of_int s.Service.neutralized;
            string_of_int s.Service.frames_released;
            string_of_int s.Service.peak_unreclaimed;
            string_of_int s.Service.pressure_recoveries;
          ]
        in
        let header =
          [
            "scheme"; "phase"; "ops"; "p50"; "p99"; "max"; "restarts";
            "warnings"; "neutralized"; "released"; "peak unreclaimed";
            "pressure";
          ]
        in
        let sla_rows =
          List.concat_map
            (fun (scheme, (r : Service.result)) ->
              List.map (row scheme) (r.Service.per_phase @ [ r.Service.overall ]))
            results
        in
        emit (Report.table ~header sla_rows);
        emit
          (Report.table
             ~header:[ "scheme"; "Mops/s"; "ops"; "sim ms" ]
             (List.map
                (fun (scheme, (r : Service.result)) ->
                  [
                    scheme;
                    fmt_mops r.Service.throughput_mops;
                    string_of_int r.Service.overall.Service.ops;
                    Printf.sprintf "%.2f" (r.Service.sim_seconds *. 1e3);
                  ])
                results));
        (* The SLA punchline: scheme pairs whose per-phase p99 order
           contradicts their whole-run p99 order. *)
        let p99_in (r : Service.result) name =
          List.find_opt
            (fun s -> String.equal s.Service.phase name)
            r.Service.per_phase
          |> Option.map (fun s -> s.Service.p99)
        in
        let phase_names =
          match results with
          | (_, r) :: _ ->
              List.map (fun s -> s.Service.phase) r.Service.per_phase
          | [] -> []
        in
        let rec pairs = function
          | [] -> []
          | x :: tl -> List.map (fun y -> (x, y)) tl @ pairs tl
        in
        let inversions =
          List.concat_map
            (fun ((s1, (r1 : Service.result)), (s2, (r2 : Service.result))) ->
              let o1 = r1.Service.overall.Service.p99
              and o2 = r2.Service.overall.Service.p99 in
              if o1 = o2 then []
              else
                List.filter_map
                  (fun ph ->
                    match (p99_in r1 ph, p99_in r2 ph) with
                    | Some a, Some b when a <> b && compare a b <> compare o1 o2
                      ->
                        Some
                          (Printf.sprintf
                             "  %-13s %s p99 %d vs %s %d — whole-run order \
                              is %d vs %d"
                             ph s1 a s2 b o1 o2)
                    | _ -> None)
                  phase_names)
            (pairs results)
        in
        emit
          (Report.text
             (match inversions with
             | [] ->
                 "No phase-level p99 ordering inversions at this scale.\n\n"
             | inv ->
                 Printf.sprintf
                   "Phase-level p99 orderings that contradict the whole-run \
                    ordering (%d):\n%s\n\n"
                   (List.length inv)
                   (String.concat "\n" inv)));
        emit (Report.csv ~filename:"service_sla.csv" ~header sla_rows);
        List.iter
          (fun (scheme, (r : Service.result)) ->
            emit
              (Report.json_artifact
                 ~filename:(Printf.sprintf "timeline_%s.json" scheme)
                 (Export.timeline_json r.Service.timeline));
            let theader, trows = Export.timeline_csv r.Service.timeline in
            emit
              (Report.csv
                 ~filename:(Printf.sprintf "timeline_%s.csv" scheme)
                 ~header:theader trows))
          results);
  }

(* --- E15: conditional-access immediate reclamation --------------------------- *)

let immediate =
  {
    id = "immediate";
    title =
      "IMR (conditional-access immediate reclamation) vs OA-BIT / OA-VER \
       across the figure workloads";
    paper_ref = "Section 6 (hardware-supported variants) — E15 extension";
    expected =
      "IMR stays within the OA envelope on every figure workload while \
       freeing each retired node immediately (unreclaimed ~0, no limbo \
       drain); its costs are one revocation broadcast per victim per retire \
       and the conditional-access failures that surface as restarts";
    run =
      (fun cfg ->
        doc_of @@ fun emit ->
        emit
          (Report.section
             "E15 — immediate reclamation under simulated conditional access");
        (* The simulated-hardware cost assumptions, side by side: what the
           coherence directory charges for each primitive the compared
           schemes lean on.  Printed from the model the cells run under, so
           the table cannot drift from the measurement. *)
        let cm = Cost_model.opteron_6274 in
        emit
          (Report.table
             ~header:[ "cost-model parameter"; "cycles"; "charged when" ]
             [
               [
                 "l1_hit";
                 string_of_int cm.Cost_model.l1_hit;
                 "every access, incl. the OA warning check";
               ];
               [
                 "fence_full";
                 string_of_int cm.Cost_model.fence_full;
                 "IMR validate and retire; OA reclaim-phase fences";
               ];
               [
                 "invalidation";
                 string_of_int cm.Cost_model.invalidation;
                 "remote store to a cached line (flag lines included)";
               ];
               [
                 "cond_access_extra";
                 string_of_int cm.Cost_model.cond_access_extra;
                 "each conditional access: directory check beyond the \
                  flag-line load";
               ];
               [
                 "revoke_broadcast";
                 string_of_int cm.Cost_model.revoke_broadcast;
                 "each IMR retire: one revocation post per victim thread";
               ];
               [
                 "neutralize_post";
                 string_of_int cm.Cost_model.neutralize_post;
                 "DEBRA-style signal post (software baseline for the same \
                  job)";
               ];
             ]);
        let threads = min 8 (List.fold_left max 1 cfg.threads) in
        (* The six figure workloads (E1-E6), one cell per (figure, scheme).
           Every cell is an independent seeded run, sharded across cfg.jobs
           domains and reassembled in canonical order — results are
           identical at any -j. *)
        let schemes = [ "oa-bit"; "oa-ver"; "imr" ] in
        let cells =
          List.concat_map
            (fun fig -> List.map (fun scheme -> (fig, scheme)) schemes)
            figures
        in
        let run_cell (fig, scheme) =
          Runner.run (figure_spec cfg fig ~scheme ~threads)
        in
        let results = Pool.map_exn ~jobs:cfg.jobs run_cell cells in
        let header =
          [
            "figure"; "scheme"; "Mops/s"; "restarts"; "cond-fails"; "freed";
            "unreclaimed";
          ]
        in
        let rows =
          List.map2
            (fun (f, scheme) r ->
              let m = r.Runner.metrics in
              [
                f.fig;
                scheme;
                fmt_mops r.Runner.throughput_mops;
                string_of_int (Metrics.find m "scheme.restarts");
                string_of_int (Metrics.find m "scheme.cond_fails");
                string_of_int (Metrics.find m "scheme.freed");
                (* the live gauge, not a windowed retired - freed: a window
                   can free nodes retired before it opened *)
                string_of_int (Metrics.find m "scheme.unreclaimed");
              ])
            cells results
        in
        emit (Report.table ~header rows);
        (* The punchline, per figure: how much throughput the immediate-free
           property costs against each hazard-pointer OA flavour. *)
        let tagged =
          List.map2
            (fun (f, scheme) r -> ((f.fig, scheme), r))
            cells results
        in
        let mops fig scheme =
          (List.assoc (fig, scheme) tagged).Runner.throughput_mops
        in
        let ratio a b = if b > 0. then Printf.sprintf "%.2f" (a /. b) else "-" in
        emit
          (Report.table
             ~header:[ "figure"; "imr / oa-bit"; "imr / oa-ver" ]
             (List.map
                (fun { fig; _ } ->
                  [
                    fig;
                    ratio (mops fig "imr") (mops fig "oa-bit");
                    ratio (mops fig "imr") (mops fig "oa-ver");
                  ])
                figures));
        emit (Report.csv ~filename:"immediate.csv" ~header rows));
  }

let all =
  [
    fig4a;
    fig4b;
    fig5a;
    fig5b;
    fig6a;
    fig6b;
    remap_strategies;
    memory_release;
    dwcas_leak;
    micro_validate;
    warnings_ablation;
    limbo_sweep;
    padding_ablation;
    cache_sweep;
    vbr_stack;
    robustness;
    service;
    immediate;
  ]

let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown experiment %S (known: %s)" id
           (String.concat ", " (List.map (fun e -> e.id) all)))
