(* Tests for the LRMalloc port: size classes, descriptors, pagemap,
   descriptor lists, malloc/free/palloc, superblock lifecycle (Fig. 2),
   persistence guarantees and the remap strategies. *)

open Oamem_engine
open Oamem_vmem
open Oamem_lrmalloc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let g = Geometry.default
let ctx = Engine.external_ctx ()

let mk ?(remap = Config.Madvise) ?(sb_pages = 4) ?(nthreads = 4)
    ?(shared_region_pages = 1) () =
  let vm = Vmem.create ~max_pages:65536 ~shared_region_pages g in
  let meta = Cell.heap g in
  let cfg = { Config.default with Config.sb_pages; remap } in
  Lrmalloc.create ~cfg ~vmem:vm ~meta ~nthreads ()

(* --- Size classes ---------------------------------------------------------- *)

let test_size_class_lookup () =
  let c = Size_class.default in
  check_bool "size 1 -> class of 2" true (Size_class.of_size c 1 = 0);
  check_bool "size 2 -> class of 2" true (Size_class.of_size c 2 = 0);
  check_bool "size 3 -> class of 4" true (Size_class.of_size c 3 = 1);
  check_bool "max size fits" true (Size_class.of_size c 2048 >= 0);
  check_bool "above max is large" true (Size_class.of_size c 2049 = -1)

let test_size_class_validation () =
  Alcotest.check_raises "odd rejected"
    (Invalid_argument "Size_class.make: sizes must be even and >= 2")
    (fun () -> ignore (Size_class.make [ 3 ]))

let size_class_sound_prop =
  QCheck.Test.make ~name:"size class covers request minimally" ~count:500
    QCheck.(int_range 1 2048)
    (fun size ->
      let c = Size_class.default in
      match Size_class.of_size c size with
      | -1 -> false
      | cls ->
          let bw = Size_class.block_words c cls in
          bw >= size && (cls = 0 || Size_class.block_words c (cls - 1) < size))

let size_class_even_prop =
  QCheck.Test.make ~name:"all class sizes are even" ~count:100
    QCheck.(int_range 0 (Size_class.count Size_class.default - 1))
    (fun cls -> Size_class.block_words Size_class.default cls land 1 = 0)

(* --- Descriptor anchor ----------------------------------------------------- *)

let anchor_roundtrip_prop =
  QCheck.Test.make ~name:"anchor pack/unpack roundtrip" ~count:500
    QCheck.(quad (int_bound 2) (int_bound 100000) (int_bound 100000)
              (int_bound 100000))
    (fun (s, avail, count, tag) ->
      let a =
        {
          Descriptor.state =
            (match s with 0 -> Descriptor.Full | 1 -> Descriptor.Partial
            | _ -> Descriptor.Empty);
          avail;
          count;
          tag;
        }
      in
      Descriptor.unpack (Descriptor.pack a) = a)

let test_descriptor_block_addr () =
  let meta = Cell.heap g in
  let d = Descriptor.make meta ~id:0 in
  d.Descriptor.sb_start <- 1024;
  d.Descriptor.block_words <- 4;
  d.Descriptor.max_count <- 8;
  check_int "block 0" 1024 (Descriptor.block_addr d 0);
  check_int "block 3" 1036 (Descriptor.block_addr d 3);
  check_int "index" 3 (Descriptor.block_index d 1036)

(* --- Desc_list ------------------------------------------------------------- *)

let test_desc_list_lifo () =
  let meta = Cell.heap g in
  let descs = Array.init 4 (fun id -> Descriptor.make meta ~id) in
  let l = Desc_list.create meta ~get:(fun id -> descs.(id)) in
  check_bool "empty" true (Desc_list.pop l ctx = -1);
  Desc_list.push l ctx descs.(0);
  Desc_list.push l ctx descs.(1);
  Desc_list.push l ctx descs.(2);
  check_bool "ids" true (Desc_list.peek_ids l = [ 2; 1; 0 ]);
  check_bool "pop 2" true (Desc_list.pop l ctx = 2);
  check_bool "pop 1" true (Desc_list.pop l ctx = 1);
  Desc_list.push l ctx descs.(3);
  check_bool "pop 3" true (Desc_list.pop l ctx = 3);
  check_bool "pop 0" true (Desc_list.pop l ctx = 0);
  check_bool "empty again" true (Desc_list.pop l ctx = -1)

(* --- malloc/free basics ---------------------------------------------------- *)

let test_malloc_distinct_and_writable () =
  let a = mk () in
  let vm = Lrmalloc.vmem a in
  let blocks = List.init 50 (fun _ -> Lrmalloc.malloc a ctx 3) in
  let uniq = List.sort_uniq compare blocks in
  check_int "all distinct" 50 (List.length uniq);
  List.iteri (fun i b -> Vmem.store vm ctx b (1000 + i)) blocks;
  List.iteri (fun i b -> check_int "readback" (1000 + i) (Vmem.load vm ctx b))
    blocks;
  List.iter (fun b -> check_int "even address" 0 (b land 1)) blocks

let test_malloc_reuses_freed () =
  let a = mk () in
  let b1 = Lrmalloc.malloc a ctx 8 in
  Lrmalloc.free a ctx b1;
  let b2 = Lrmalloc.malloc a ctx 8 in
  check_int "lifo cache reuse" b1 b2

let test_malloc_size_class_isolation () =
  let a = mk () in
  let small = Lrmalloc.malloc a ctx 2 in
  let big = Lrmalloc.malloc a ctx 100 in
  let d1 = Heap.lookup_desc (Lrmalloc.heap a) ctx small in
  let d2 = Heap.lookup_desc (Lrmalloc.heap a) ctx big in
  check_bool "different superblocks" true (d1.Descriptor.id <> d2.Descriptor.id);
  check_bool "classes differ" true
    (d1.Descriptor.size_class <> d2.Descriptor.size_class)

let test_free_unknown_rejected () =
  let a = mk () in
  Alcotest.check_raises "bogus free"
    (Invalid_argument "Lrmalloc.free: not an allocated block") (fun () ->
      Lrmalloc.free a ctx 424242)

let test_palloc_and_malloc_never_share_superblocks () =
  let a = mk () in
  let m = Lrmalloc.malloc a ctx 8 in
  let p = Lrmalloc.palloc a ctx 8 in
  let dm = Heap.lookup_desc (Lrmalloc.heap a) ctx m in
  let dp = Heap.lookup_desc (Lrmalloc.heap a) ctx p in
  check_bool "separate descs" true (dm.Descriptor.id <> dp.Descriptor.id);
  check_bool "persistent marked" true dp.Descriptor.persistent;
  check_bool "regular unmarked" false dm.Descriptor.persistent

let test_palloc_large_rejected () =
  let a = mk () in
  Alcotest.check_raises "palloc large"
    (Invalid_argument
       "Lrmalloc.palloc: persistent allocation is restricted to size-class \
        sizes (paper, section 4)") (fun () -> ignore (Lrmalloc.palloc a ctx 5000))

(* --- superblock lifecycle (Fig. 2) ----------------------------------------- *)

(* Allocate every block of one fresh superblock of class [cls]. *)
let grab_superblock a cls_size =
  let heap = Lrmalloc.heap a in
  let first = Lrmalloc.malloc a ctx cls_size in
  let d = Heap.lookup_desc heap ctx first in
  let rest =
    List.init (d.Descriptor.max_count - 1) (fun _ -> Lrmalloc.malloc a ctx cls_size)
  in
  (d, first :: rest)

let test_superblock_states () =
  let a = mk ~sb_pages:1 () in
  (* class of 512 words in a 512-word superblock: max_count = 1 is too
     degenerate; use 128-word blocks -> 4 blocks *)
  let d, blocks = grab_superblock a 128 in
  check_int "4 blocks" 4 d.Descriptor.max_count;
  check_bool "born full" true
    ((Descriptor.peek_anchor d).Descriptor.state = Descriptor.Full);
  (* free one block and flush the cache: superblock becomes partial *)
  (match blocks with
  | b :: _ ->
      Lrmalloc.free a ctx b;
      Lrmalloc.flush_thread_cache a ctx
  | [] -> assert false);
  check_bool "partial after one free" true
    ((Descriptor.peek_anchor d).Descriptor.state = Descriptor.Partial);
  check_int "one free block" 1 (Descriptor.peek_anchor d).Descriptor.count

let test_nonpersistent_empty_superblock_unmapped () =
  let a = mk () in
  let vm = Lrmalloc.vmem a in
  let d, blocks = grab_superblock a 512 in
  List.iter (fun b -> Vmem.store vm ctx b 7) blocks;
  let live_before = (Vmem.frames_live vm) in
  check_bool "frames in use" true (live_before > 1);
  List.iter (fun b -> Lrmalloc.free a ctx b) blocks;
  Lrmalloc.flush_thread_cache a ctx;
  Heap.trim (Lrmalloc.heap a) ctx;
  check_bool "released" true ((Lrmalloc.stats a).Heap.sb_released >= 1);
  check_bool "frames freed" true ((Vmem.frames_live vm) < live_before);
  (* the range is gone: reads fault *)
  check_bool "unmapped" false (Vmem.mapped vm d.Descriptor.sb_start)

let test_persistent_madvise_releases_but_stays_readable () =
  let a = mk ~remap:Config.Madvise () in
  let vm = Lrmalloc.vmem a in
  let heap = Lrmalloc.heap a in
  let first = Lrmalloc.palloc a ctx 512 in
  let d = Heap.lookup_desc heap ctx first in
  let blocks =
    first :: List.init (d.Descriptor.max_count - 1) (fun _ -> Lrmalloc.palloc a ctx 512)
  in
  List.iter (fun b -> Vmem.store vm ctx b 9) blocks;
  let live_before = (Vmem.frames_live vm) in
  List.iter (fun b -> Lrmalloc.free a ctx b) blocks;
  Lrmalloc.flush_thread_cache a ctx;
  Heap.trim heap ctx;
  check_bool "remapped" true ((Lrmalloc.stats a).Heap.sb_remapped >= 1);
  check_bool "frames freed" true
    ((Vmem.frames_live vm) < live_before);
  (* the paper's guarantee: freed persistent memory is still readable *)
  List.iter (fun b -> check_int "reads zero after release" 0 (Vmem.load vm ctx b))
    blocks

let test_persistent_keep_resident_never_releases () =
  let a = mk ~remap:Config.Keep_resident () in
  let vm = Lrmalloc.vmem a in
  let heap = Lrmalloc.heap a in
  let first = Lrmalloc.palloc a ctx 512 in
  let d = Heap.lookup_desc heap ctx first in
  let blocks =
    first :: List.init (d.Descriptor.max_count - 1) (fun _ -> Lrmalloc.palloc a ctx 512)
  in
  List.iter (fun b -> Vmem.store vm ctx b 5) blocks;
  let live_before = (Vmem.frames_live vm) in
  List.iter (fun b -> Lrmalloc.free a ctx b) blocks;
  Lrmalloc.flush_thread_cache a ctx;
  Heap.trim heap ctx;
  check_int "nothing remapped" 0 (Lrmalloc.stats a).Heap.sb_remapped;
  check_int "frames keep resident" live_before (Vmem.frames_live vm);
  (* still readable (no content guarantee: the free list reuses the blocks) *)
  List.iter (fun b -> ignore (Vmem.load vm ctx b)) blocks;
  (* and the blocks are still allocatable: superblock stayed partial *)
  let again = Lrmalloc.palloc a ctx 512 in
  let d' = Heap.lookup_desc heap ctx again in
  check_int "same superblock reused" d.Descriptor.id d'.Descriptor.id

let test_persistent_shared_map_aliases_and_inflates_rss () =
  let a = mk ~remap:Config.Shared_map () in
  let vm = Lrmalloc.vmem a in
  let heap = Lrmalloc.heap a in
  let first = Lrmalloc.palloc a ctx 512 in
  let d = Heap.lookup_desc heap ctx first in
  let blocks =
    first :: List.init (d.Descriptor.max_count - 1) (fun _ -> Lrmalloc.palloc a ctx 512)
  in
  List.iter (fun b -> Vmem.store vm ctx b 5) blocks;
  let live_before = Vmem.frames_live vm in
  List.iter (fun b -> Lrmalloc.free a ctx b) blocks;
  Lrmalloc.flush_thread_cache a ctx;
  Heap.trim heap ctx;
  check_bool "frames freed" true (Vmem.frames_live vm < live_before);
  let rss_after = Vmem.linux_rss_pages vm in
  (* still readable *)
  List.iter (fun b -> ignore (Vmem.load vm ctx b)) blocks;
  (* Linux RSS still counts the remapped pages (the haywire stat of §3.2) *)
  check_bool "linux rss inflated" true (rss_after >= d.Descriptor.pages)

let test_persistent_range_recycled_by_priority () =
  let a = mk ~remap:Config.Madvise () in
  let heap = Lrmalloc.heap a in
  let first = Lrmalloc.palloc a ctx 512 in
  let d = Heap.lookup_desc heap ctx first in
  let range = d.Descriptor.sb_start in
  let blocks =
    first :: List.init (d.Descriptor.max_count - 1) (fun _ -> Lrmalloc.palloc a ctx 512)
  in
  List.iter (fun b -> Lrmalloc.free a ctx b) blocks;
  Lrmalloc.flush_thread_cache a ctx;
  Heap.trim heap ctx;
  check_int "descriptor in persistent pool" 1 (Heap.persistent_pool_size heap);
  (* the next superblock — even of a different class, even non-persistent —
     must reuse the recycled virtual range first (§4 priority) *)
  let b = Lrmalloc.malloc a ctx 96 in
  let d' = Heap.lookup_desc heap ctx b in
  check_int "range reused" range d'.Descriptor.sb_start;
  check_bool "stat counted" true ((Lrmalloc.stats a).Heap.sb_range_reused >= 1)

(* --- large allocations ------------------------------------------------------ *)

let test_large_alloc_roundtrip () =
  let a = mk () in
  let vm = Lrmalloc.vmem a in
  let size = 3000 in
  let addr = Lrmalloc.malloc a ctx size in
  Vmem.store vm ctx (addr + size - 1) 77;
  check_int "writable to the end" 77 (Vmem.load vm ctx (addr + size - 1));
  check_int "large stat" 1 (Lrmalloc.stats a).Heap.large_allocs;
  let live = (Vmem.frames_live vm) in
  Lrmalloc.free a ctx addr;
  check_bool "frames released" true ((Vmem.frames_live vm) < live);
  check_bool "unmapped after free" false (Vmem.mapped vm addr);
  check_int "free stat" 1 (Lrmalloc.stats a).Heap.large_frees

let test_large_allocs_disjoint () =
  let a = mk () in
  let x = Lrmalloc.malloc a ctx 4000 in
  let y = Lrmalloc.malloc a ctx 4000 in
  check_bool "disjoint" true (abs (x - y) >= 4000)

(* --- cache behaviour -------------------------------------------------------- *)

let test_cache_flush_makes_blocks_shareable () =
  (* blocks freed by thread 0 and flushed must be allocatable by thread 1 *)
  let a = mk ~nthreads:2 () in
  let eng = Engine.create ~nthreads:2 () in
  let b0 = ref 0 in
  Engine.spawn eng ~tid:0 (fun c ->
      b0 := Lrmalloc.palloc a c 512;
      Lrmalloc.free a c !b0;
      Lrmalloc.flush_thread_cache a c);
  Engine.run eng;
  let got = ref [] in
  Engine.spawn eng ~tid:1 (fun c ->
      (* allocate enough to exhaust fresh fills and reach the shared heap *)
      for _ = 1 to 8 do
        got := Lrmalloc.palloc a c 512 :: !got
      done);
  Engine.run eng;
  check_bool "thread 1 sees thread 0's block" true (List.mem !b0 !got)

(* --- concurrent allocator stress (simulated threads) ------------------------ *)

let test_concurrent_no_double_allocation () =
  let nthreads = 4 in
  let a = mk ~nthreads () in
  let eng = Engine.create ~nthreads () in
  let vm = Lrmalloc.vmem a in
  let errors = Atomic.make 0 in
  for tid = 0 to nthreads - 1 do
    Engine.spawn eng ~tid (fun c ->
        let live = ref [] in
        let rng = (Engine.Mem.prng c) in
        for _ = 1 to 300 do
          if Prng.bool rng || !live = [] then begin
            let size = 2 + Prng.int rng 60 in
            let b = Lrmalloc.malloc a c size in
            (* stamp ownership; a double allocation would overwrite *)
            Vmem.store vm c b (((Engine.Mem.tid c) lsl 20) lor List.length !live);
            live := (b, ((Engine.Mem.tid c) lsl 20) lor List.length !live) :: !live
          end
          else
            match !live with
            | (b, stamp) :: rest ->
                if Vmem.load vm c b <> stamp then Atomic.incr errors;
                Lrmalloc.free a c b;
                live := rest
            | [] -> ()
        done;
        List.iter (fun (b, _) -> Lrmalloc.free a c b) !live)
  done;
  Engine.run eng;
  check_int "no stamp corruption" 0 (Atomic.get errors)

let test_all_memory_returns_after_full_teardown () =
  let nthreads = 3 in
  let a = mk ~nthreads () in
  let vm = Lrmalloc.vmem a in
  let eng = Engine.create ~nthreads () in
  let baseline = (Vmem.frames_live vm) in
  for tid = 0 to nthreads - 1 do
    Engine.spawn eng ~tid (fun c ->
        let blocks = List.init 100 (fun i -> Lrmalloc.malloc a c (2 + (i mod 50))) in
        List.iter (fun b -> Vmem.store vm c b 1) blocks;
        List.iter (fun b -> Lrmalloc.free a c b) blocks;
        Lrmalloc.flush_thread_cache a c)
  done;
  Engine.run eng;
  Heap.trim (Lrmalloc.heap a) (Engine.external_ctx ());
  (* all non-persistent superblocks must be gone *)
  check_int "frames back to baseline" baseline (Vmem.frames_live vm)

(* Model-based property: random alloc/free, live blocks never overlap. *)
let no_overlap_prop =
  QCheck.Test.make ~name:"live allocations never overlap" ~count:20
    QCheck.(list (pair bool (int_range 1 300)))
    (fun ops ->
      let a = mk () in
      let live = Hashtbl.create 64 in
      let overlaps addr size =
        Hashtbl.fold
          (fun a' s' acc -> acc || (addr < a' + s' && a' < addr + size))
          live false
      in
      List.for_all
        (fun (is_alloc, size) ->
          if is_alloc || Hashtbl.length live = 0 then begin
            let cls_size =
              match Size_class.of_size Size_class.default size with
              | -1 -> size
              | c -> Size_class.block_words Size_class.default c
            in
            let b = Lrmalloc.malloc a ctx size in
            let ok = not (overlaps b cls_size) in
            Hashtbl.replace live b cls_size;
            ok
          end
          else begin
            let k = Hashtbl.fold (fun k _ _ -> k) live 0 in
            Lrmalloc.free a ctx k;
            Hashtbl.remove live k;
            true
          end)
        ops)

(* THE paper property: any address ever returned by palloc stays readable
   (mapped) for the rest of the process lifetime, through any sequence of
   frees, cache flushes and trims, under every remap strategy. *)
let palloc_always_readable_prop =
  QCheck.Test.make ~name:"palloc'd addresses stay readable forever" ~count:30
    QCheck.(
      pair (int_bound 2)
        (list (pair (int_bound 3) (int_range 2 400))))
    (fun (strategy, ops) ->
      let remap =
        match strategy with
        | 0 -> Config.Keep_resident
        | 1 -> Config.Madvise
        | _ -> Config.Shared_map
      in
      let a = mk ~remap () in
      let vm = Lrmalloc.vmem a in
      let live = ref [] in
      let ever = ref [] in
      let readable () =
        List.for_all (fun addr -> Vmem.mapped vm addr) !ever
      in
      List.for_all
        (fun (op, size) ->
          (match op with
          | 0 ->
              let b = Lrmalloc.palloc a ctx (min size 2048) in
              live := b :: !live;
              ever := b :: !ever
          | 1 -> (
              match !live with
              | b :: rest ->
                  Lrmalloc.free a ctx b;
                  live := rest
              | [] -> ())
          | 2 -> Lrmalloc.flush_thread_cache a ctx
          | _ -> Heap.trim (Lrmalloc.heap a) ctx);
          readable ())
        ops)

(* The pagemap table and the engine's per-thread accessible-flag lines are
   both simulated metadata regions; they must not share cache lines.  Four
   threads warm their flag lines, a fifth stores a pagemap entry for every
   page the flag region could overlap, and each flag check afterwards must
   still cost what a warm one did — a shared line would have been
   invalidated by the remote stores. *)
let test_pagemap_disjoint_from_flag_lines () =
  let checkers = 4 in
  let writer = checkers in
  let eng = Engine.create ~nthreads:(checkers + 1) () in
  let npages = (checkers + 1) * Geometry.line_words g in
  let pm = Pagemap.create ~geom:g ~max_pages:npages in
  let flag_check_cost ctx =
    let t0 = Engine.Mem.now ctx in
    ignore (Engine.Mem.cond_access ctx);
    Engine.Mem.now ctx - t0
  in
  let checks f =
    for tid = 0 to checkers - 1 do
      Engine.spawn eng ~tid f
    done;
    Engine.run eng
  in
  let warm = Array.make checkers 0 and after = Array.make checkers 0 in
  checks (fun ctx ->
      ignore (flag_check_cost ctx);
      warm.(Engine.Mem.tid ctx) <- flag_check_cost ctx);
  Engine.spawn eng ~tid:writer (fun ctx ->
      Pagemap.set_range pm ctx ~vpage:0 ~npages ~desc_id:0);
  Engine.run eng;
  checks (fun ctx -> after.(Engine.Mem.tid ctx) <- flag_check_cost ctx);
  for tid = 0 to checkers - 1 do
    check_int
      (Printf.sprintf "thread %d flag line untouched by pagemap stores" tid)
      warm.(tid) after.(tid)
  done

let suite =
  [
    ("size class lookup", `Quick, test_size_class_lookup);
    ("size class validation", `Quick, test_size_class_validation);
    ("descriptor block addr", `Quick, test_descriptor_block_addr);
    ("desc list lifo", `Quick, test_desc_list_lifo);
    ("pagemap disjoint from flag lines", `Quick,
     test_pagemap_disjoint_from_flag_lines);
    ("malloc distinct/writable", `Quick, test_malloc_distinct_and_writable);
    ("malloc reuses freed", `Quick, test_malloc_reuses_freed);
    ("size class isolation", `Quick, test_malloc_size_class_isolation);
    ("free unknown rejected", `Quick, test_free_unknown_rejected);
    ("palloc/malloc separate", `Quick,
     test_palloc_and_malloc_never_share_superblocks);
    ("palloc large rejected", `Quick, test_palloc_large_rejected);
    ("superblock states", `Quick, test_superblock_states);
    ("non-persistent empty unmapped", `Quick,
     test_nonpersistent_empty_superblock_unmapped);
    ("persistent madvise readable", `Quick,
     test_persistent_madvise_releases_but_stays_readable);
    ("persistent keep resident", `Quick,
     test_persistent_keep_resident_never_releases);
    ("persistent shared map", `Quick,
     test_persistent_shared_map_aliases_and_inflates_rss);
    ("persistent range recycled", `Quick,
     test_persistent_range_recycled_by_priority);
    ("large alloc roundtrip", `Quick, test_large_alloc_roundtrip);
    ("large allocs disjoint", `Quick, test_large_allocs_disjoint);
    ("cache flush shares blocks", `Quick, test_cache_flush_makes_blocks_shareable);
    ("concurrent no double alloc", `Quick, test_concurrent_no_double_allocation);
    ("teardown returns memory", `Quick, test_all_memory_returns_after_full_teardown);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        size_class_sound_prop;
        size_class_even_prop;
        anchor_roundtrip_prop;
        no_overlap_prop;
        palloc_always_readable_prop;
      ]

let () = Alcotest.run "lrmalloc" [ ("lrmalloc", suite) ]
