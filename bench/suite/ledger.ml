(* Per-layer host-cost ledger: host ns and minor-heap words per call of the
   public calls each layer's hot path is made of.

   Calls that charge simulated cost run in a loop on a thread of a 1- or
   2-thread [System], so cost charging, leader tenures and the profiler
   hooks are the real ones.  Times are at reference speed (see
   [Workloads.Host_clock]).  The cache, hierarchy and TLB models return a
   cost instead of charging it and are timed on standalone instances.  An
   empty loop of the same shape is the baseline subtracted from every
   entry.  Each entry is the median of three timed loops. *)

open Oamem_engine
open Oamem_vmem
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
module Lrmalloc = Oamem_lrmalloc.Lrmalloc
module Lconfig = Oamem_lrmalloc.Config

type entry = { name : string; ns : float; words : float }

let system ?(threads = 1) ?(scheme = "oa-ver") () =
  System.create
    (System.Config.make ~nthreads:threads ~scheme
       ~alloc_cfg:{ Lconfig.default with Lconfig.sb_pages = 8 }
       ~scheme_cfg:
         {
           Scheme.default_config with
           Scheme.slots_per_thread = Hm_list.slots_needed;
           pool_nodes = 1024;
           node_words = Node.words;
         }
       ())

(* Run [call] [iters] times on each of the system's threads; returns host
   seconds (at reference speed) and minor words per call. *)
let timed sys ~iters call =
  let threads = System.nthreads sys in
  let hc = Workloads.Host_clock.start () in
  let w0 = Gc.minor_words () in
  for tid = 0 to threads - 1 do
    System.spawn sys ~tid (fun ctx ->
        for _ = 1 to iters do
          call ctx
        done)
  done;
  System.run sys;
  let words = Gc.minor_words () -. w0 in
  let dt = Workloads.Host_clock.lap hc in
  let calls = float_of_int (iters * threads) in
  (dt /. calls, words /. calls)

let median3 sys ~iters call =
  let samples = List.init 3 (fun _ -> timed sys ~iters call) in
  let secs = List.sort compare (List.map fst samples) in
  (List.nth secs 1, snd (List.hd samples))

let run () =
  let base_sys = system () in
  let nop = Sys.opaque_identity (fun (_ : Engine.ctx) -> ()) in
  let base_s, base_w = median3 base_sys ~iters:2_000_000 nop in
  let geom = Geometry.default in
  let hcfg = Hierarchy.opteron_6274_config in
  let cost = Cost_model.opteron_6274 in
  let two = system ~threads:2 () in
  let l1 =
    Cache.create ~name:"l1" ~sets:hcfg.Hierarchy.l1_sets
      ~ways:hcfg.Hierarchy.l1_ways
  in
  let lines = Cache.capacity_lines l1 in
  let next = ref 0 in
  (* cycling over twice the capacity misses on every access under LRU *)
  let miss_mask = (2 * lines) - 1 in
  let hier = Hierarchy.create ~cfg:hcfg ~cost ~nthreads:1 () in
  (* four times L1: L1 misses that hit in L2 *)
  let hier_mask = (4 * lines) - 1 in
  let tlb = Tlb.create ~cost ~nthreads:1 () in
  let vm = System.vmem base_sys in
  let setup = Engine.external_ctx () in
  let page = Geometry.page_words geom in
  let a = Vmem.reserve vm ~npages:3 in
  Vmem.map_anon vm setup ~vpage:(Geometry.page_of_addr geom a) ~npages:3;
  Vmem.store vm setup a 0;
  Vmem.store vm setup (a + page) 0;
  let flip = ref false in
  let al = System.alloc base_sys in
  let core =
    [
      ( "engine.inline_access", base_sys, 2_000_000,
        fun ctx -> Engine.Mem.access ctx ~vpage:(-1) ~paddr:64 ~kind:Engine.Load );
      (* two threads at equal cost per access trade the lead on every
         access, so neither keeps a leader tenure *)
      ( "engine.effect_access", two, 300_000,
        fun ctx ->
          Engine.Mem.access ctx ~vpage:(-1)
            ~paddr:(64 * (1 + Engine.Mem.tid ctx))
            ~kind:Engine.Load );
      ("engine.cache_hit", base_sys, 2_000_000, fun _ -> ignore (Cache.access l1 42));
      ( "engine.cache_miss", base_sys, 2_000_000,
        fun _ ->
          incr next;
          ignore (Cache.access l1 (!next land miss_mask)) );
      ( "engine.hierarchy_access", base_sys, 1_000_000,
        fun _ ->
          incr next;
          ignore
            (Hierarchy.access hier ~tid:0 ~kind:Hierarchy.Load (!next land hier_mask)) );
      ( "engine.tlb_access", base_sys, 2_000_000,
        fun _ ->
          incr next;
          ignore (Tlb.access tlb ~tid:0 (!next land 15)) );
      ("vmem.load", base_sys, 2_000_000, fun ctx -> ignore (Vmem.load vm ctx a));
      (* the translation cache holds one page per thread: alternating
         between two pages refills it on every load *)
      ( "vmem.load_fill", base_sys, 1_000_000,
        fun ctx ->
          flip := not !flip;
          ignore (Vmem.load vm ctx (if !flip then a else a + page)) );
      ( "vmem.cas", base_sys, 1_000_000,
        fun ctx -> ignore (Vmem.cas vm ctx a ~expect:0 ~desired:0) );
      ( "vmem.madvise_refault", base_sys, 50_000,
        fun ctx ->
          Vmem.madvise_dontneed vm ctx
            ~vpage:(Geometry.page_of_addr geom (a + (2 * page)))
            ~npages:1;
          Vmem.store vm ctx (a + (2 * page)) 1 );
      ( "lrmalloc.malloc_free", base_sys, 500_000,
        fun ctx -> Lrmalloc.free al ctx (Lrmalloc.malloc al ctx Node.words) );
      ( "lrmalloc.palloc_free", base_sys, 500_000,
        fun ctx -> Lrmalloc.free al ctx (Lrmalloc.palloc al ctx Node.words) );
    ]
  in
  let measure (name, sys, iters, call) =
    let s, w = median3 sys ~iters call in
    { name; ns = (s -. base_s) *. 1e9; words = w -. base_w }
  in
  List.map measure core
  @ List.concat_map
      (fun scheme ->
        let sys = system ~scheme () in
        let s = System.scheme sys in
        let guarded f ctx = try f ctx with Scheme.Restart -> () in
        List.map measure
          [
            ( Printf.sprintf "reclaim.%s.read_check" scheme, sys, 1_000_000,
              guarded s.Scheme.read_check );
            (* one whole node lifetime: begin_op, alloc, retire, end_op *)
            ( Printf.sprintf "reclaim.%s.retire" scheme, sys, 200_000,
              guarded (fun ctx ->
                  s.Scheme.begin_op ctx;
                  s.Scheme.retire ctx (s.Scheme.alloc ctx Node.words);
                  s.Scheme.end_op ctx) );
          ])
      Registry.names

(* Flattened as [<layer>.<call>_ns] and [<layer>.<call>_words]. *)
let values entries =
  List.concat_map
    (fun e -> [ (e.name ^ "_ns", e.ns); (e.name ^ "_words", e.words) ])
    entries
