(* Tests for the reclamation building blocks and the six schemes. *)

open Oamem_engine
open Oamem_vmem
open Oamem_lrmalloc
open Oamem_reclaim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let g = Geometry.default
let ctx = Engine.external_ctx ()

let mk_alloc ?(remap = Config.Madvise) () =
  let vm = Vmem.create ~max_pages:65536 g in
  let meta = Cell.heap g in
  let cfg = { Config.default with Config.sb_pages = 4; remap } in
  (Lrmalloc.create ~cfg ~vmem:vm ~meta ~nthreads:4 (), vm, meta)

let mk_scheme ?(threshold = 4) ?(pool_nodes = 256) name =
  let alloc, vm, meta = mk_alloc () in
  let cfg =
    {
      Scheme.threshold;
      slots_per_thread = 5;
      pool_nodes;
      node_words = 2;
      hazard_padded = true;
      neutralize = true;
    }
  in
  ((Registry.find name).Registry.make cfg ~alloc ~meta ~nthreads:4, alloc, vm)

(* --- building blocks ------------------------------------------------------- *)

let test_limbo_sweep () =
  let meta = Cell.heap g in
  let l = Limbo.create meta ~geom:g ~capacity_hint:4 in
  List.iter (fun n -> Limbo.add l ctx n) [ 10; 20; 30; 40; 50 ];
  check_int "size" 5 (Limbo.size l);
  let freed = ref [] in
  let n =
    Limbo.sweep l ctx
      ~protected:(fun x -> x = 20 || x = 40)
      ~free:(fun x -> freed := x :: !freed)
  in
  check_int "freed count" 3 n;
  check_bool "kept the protected" true (Limbo.to_list l = [ 20; 40 ]);
  check_bool "freed the rest" true (List.sort compare !freed = [ 10; 30; 50 ])


(* A bag that outgrows its reserved simulated range must move to a fresh
   one, not spill into whatever metadata follows it.  The next allocation
   after a 4-entry bag (8 reserved words, one line) is a cell another
   thread keeps warm in its L1; driving the bag to 5x that and sweeping it
   must leave the cell's line untouched. *)
let test_limbo_growth_stays_in_reserved_range () =
  let meta = Cell.heap g in
  let l = Limbo.create meta ~geom:g ~capacity_hint:4 in
  let neighbor = Cell.make ~pad:true meta 0 in
  let eng = Engine.create ~nthreads:2 () in
  let on tid f =
    Engine.spawn eng ~tid f;
    Engine.run eng
  in
  let load_cost ctx =
    let t0 = Engine.Mem.now ctx in
    ignore (Cell.get ctx neighbor);
    Engine.Mem.now ctx - t0
  in
  let warm = ref 0 and after = ref 0 in
  on 0 (fun ctx ->
      ignore (load_cost ctx);
      warm := load_cost ctx);
  on 1 (fun ctx ->
      for n = 1 to 40 do
        Limbo.add l ctx n
      done;
      ignore (Limbo.sweep l ctx ~protected:(fun n -> n mod 2 = 0) ~free:ignore));
  on 0 (fun ctx -> after := load_cost ctx);
  check_int "neighbor line untouched" !warm !after;
  check_bool "kept entries" true (Limbo.to_list l = List.init 20 (fun i -> 2 * (i + 1)))
let test_hazard_slots () =
  let meta = Cell.heap g in
  let h = Hazard_slots.create meta ~nthreads:3 ~k:2 in
  let c0 = Engine.external_ctx ~tid:0 () in
  let c2 = Engine.external_ctx ~tid:2 () in
  Hazard_slots.set c0 h ~slot:0 100;
  Hazard_slots.set c0 h ~slot:1 200;
  Hazard_slots.set c2 h ~slot:0 300;
  let snap = Hazard_slots.snapshot ctx h in
  check_bool "sees all" true
    (Hazard_slots.protects snap 100 && Hazard_slots.protects snap 200
    && Hazard_slots.protects snap 300);
  check_bool "not others" false (Hazard_slots.protects snap 400);
  Hazard_slots.clear c0 h;
  let snap = Hazard_slots.snapshot ctx h in
  check_bool "thread 0 cleared" false (Hazard_slots.protects snap 100);
  check_bool "thread 2 kept" true (Hazard_slots.protects snap 300)

let test_addr_stack () =
  let alloc, vm, meta = mk_alloc () in
  let s = Addr_stack.create meta vm in
  check_bool "empty" true (Addr_stack.pop s ctx = None);
  let n1 = Lrmalloc.malloc alloc ctx 2 in
  let n2 = Lrmalloc.malloc alloc ctx 2 in
  Addr_stack.push s ctx n1;
  Addr_stack.push s ctx n2;
  check_int "length" 2 (Addr_stack.peek_length s);
  check_bool "lifo" true (Addr_stack.pop s ctx = Some n2);
  Addr_stack.push s ctx n2;
  let head = Addr_stack.take_all s ctx in
  check_bool "detached" true (Addr_stack.is_empty s);
  let seen = ref [] in
  Addr_stack.iter_chain s ctx head (fun n -> seen := n :: !seen);
  check_bool "chain walks all" true (List.sort compare !seen = List.sort compare [ n1; n2 ])

(* --- generic scheme behaviour ---------------------------------------------- *)

let alloc_retire_cycle ?pool_nodes ?(expect_freed = 36) name () =
  let sch, _alloc, vm = mk_scheme ?pool_nodes name in
  (* allocate, write, retire many nodes; they must eventually be freed
     (except NR, tested separately) *)
  for i = 1 to 40 do
    let n = sch.Scheme.alloc ctx 2 in
    Vmem.store vm ctx n i;
    sch.Scheme.retire ctx n
  done;
  sch.Scheme.flush ctx;
  check_int "all retired" 40 sch.Scheme.stats.Scheme.retired;
  check_bool
    (name ^ " frees retired nodes")
    true
    (sch.Scheme.stats.Scheme.freed >= expect_freed)

let test_nr_never_frees () =
  let sch, _alloc, _vm = mk_scheme "nr" in
  for _ = 1 to 40 do
    let n = sch.Scheme.alloc ctx 2 in
    sch.Scheme.retire ctx n
  done;
  sch.Scheme.flush ctx;
  check_int "nothing freed" 0 sch.Scheme.stats.Scheme.freed

let test_oa_bit_warning_restarts () =
  let sch, _alloc, _vm = mk_scheme "oa-bit" ~threshold:2 in
  let eng = Engine.create ~nthreads:2 () in
  let restarted = ref false in
  Engine.spawn eng ~tid:0 (fun c ->
      (* retire enough to trigger a reclamation (warning thread 1) *)
      for _ = 1 to 3 do
        let n = sch.Scheme.alloc c 2 in
        sch.Scheme.retire c n
      done);
  Engine.spawn eng ~tid:1 (fun c ->
      (* spin on read_check until the warning arrives *)
      let tries = ref 0 in
      (try
         while !tries < 10_000 do
           incr tries;
           sch.Scheme.read_check c;
           Engine.Mem.pause c
         done
       with Scheme.Restart -> restarted := true);
      (* the bit was consumed: the next check must pass *)
      sch.Scheme.read_check c);
  Engine.run eng;
  check_bool "warning observed as restart" true !restarted;
  check_bool "warnings fired" true (sch.Scheme.stats.Scheme.warnings_fired > 0)

let test_oa_bit_hazard_protects () =
  let sch, _alloc, vm = mk_scheme "oa-bit" ~threshold:3 in
  let protected_node = sch.Scheme.alloc ctx 2 in
  Vmem.store vm ctx protected_node 777;
  sch.Scheme.write_protect ctx ~slot:0 protected_node;
  sch.Scheme.retire ctx protected_node;
  (* push enough retirements to run several reclamation passes *)
  for _ = 1 to 12 do
    let n = sch.Scheme.alloc ctx 2 in
    sch.Scheme.retire ctx n
  done;
  (* the protected node survived every sweep: its content is intact
     (nothing reused it), and freed count excludes it *)
  check_int "content intact" 777 (Vmem.peek vm protected_node);
  (* clearing the hazard lets the next sweep free it *)
  sch.Scheme.clear ctx;
  sch.Scheme.flush ctx;
  check_int "everything freed eventually" 13 sch.Scheme.stats.Scheme.freed

let test_oa_ver_piggyback () =
  let sch, _alloc, _vm = mk_scheme "oa-ver" ~threshold:2 in
  let eng = Engine.create ~nthreads:2 () in
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun c ->
        sch.Scheme.begin_op c;
        for _ = 1 to 20 do
          let n = sch.Scheme.alloc c 2 in
          sch.Scheme.retire c n
        done)
  done;
  Engine.run eng;
  let s = sch.Scheme.stats in
  check_bool "fired some warnings" true (s.Scheme.warnings_fired > 0);
  check_bool "piggybacked on others" true (s.Scheme.warnings_piggybacked > 0);
  (* piggy-backing means strictly fewer bumps than reclaim opportunities *)
  check_bool "fewer warnings than phases+piggybacks" true
    (s.Scheme.warnings_fired < s.Scheme.warnings_fired + s.Scheme.warnings_piggybacked)

let test_oa_ver_clock_restart () =
  let sch, _alloc, _vm = mk_scheme "oa-ver" ~threshold:1 in
  let eng = Engine.create ~nthreads:2 () in
  let restarted = ref false in
  Engine.spawn eng ~tid:0 (fun c ->
      sch.Scheme.begin_op c;
      for _ = 1 to 4 do
        let n = sch.Scheme.alloc c 2 in
        sch.Scheme.retire c n
      done);
  Engine.spawn eng ~tid:1 (fun c ->
      sch.Scheme.begin_op c;
      let tries = ref 0 in
      (try
         while !tries < 10_000 do
           incr tries;
           sch.Scheme.read_check c;
           Engine.Mem.pause c
         done
       with Scheme.Restart -> restarted := true));
  Engine.run eng;
  check_bool "clock bump restarts readers" true !restarted

let test_oa_orig_pool_recycles () =
  let sch, _alloc, _vm = mk_scheme "oa" ~pool_nodes:8 ~threshold:4 in
  (* churn far more nodes than the pool holds: recycling phases must kick
     in, and allocation must keep succeeding *)
  for _ = 1 to 100 do
    let n = sch.Scheme.alloc ctx 2 in
    sch.Scheme.retire ctx n
  done;
  check_bool "phases ran" true (sch.Scheme.stats.Scheme.reclaim_phases > 0);
  check_bool "nodes recycled" true (sch.Scheme.stats.Scheme.freed > 50)

let test_oa_orig_node_size_guard () =
  let sch, _alloc, _vm = mk_scheme "oa" in
  Alcotest.check_raises "too big"
    (Invalid_argument "Oa_orig.alloc: node larger than the pool's node size")
    (fun () -> ignore (sch.Scheme.alloc ctx 100))

let test_hp_traverse_protect_verifies () =
  let sch, _alloc, vm = mk_scheme "hp" in
  let loc = sch.Scheme.alloc ctx 2 in
  let node = sch.Scheme.alloc ctx 2 in
  Vmem.store vm ctx loc node;
  (* verification passes while the link is stable *)
  sch.Scheme.traverse_protect ctx ~slot:0 ~addr:node ~link:loc ~expect:node;
  (* after the link changes, protection must fail with Restart *)
  Vmem.store vm ctx loc 0;
  Alcotest.check_raises "stale link" Scheme.Restart (fun () ->
      sch.Scheme.traverse_protect ctx ~slot:0 ~addr:node ~link:loc
        ~expect:node)

let test_ebr_grace_period () =
  let sch, _alloc, vm = mk_scheme "ebr" ~threshold:1 in
  let eng = Engine.create ~nthreads:2 () in
  let witnessed = ref 0 in
  let node = ref 0 in
  Engine.spawn eng ~tid:0 (fun c ->
      sch.Scheme.begin_op c;
      node := sch.Scheme.alloc c 2;
      Vmem.store vm c !node 99;
      sch.Scheme.end_op c;
      (* thread 1 is inside an operation: retiring now must not free the
         node until thread 1 leaves its epoch *)
      sch.Scheme.begin_op c;
      sch.Scheme.retire c !node;
      (* several retire rounds try to advance the epoch *)
      for _ = 1 to 6 do
        let n = sch.Scheme.alloc c 2 in
        sch.Scheme.retire c n
      done;
      witnessed := Vmem.peek vm !node;
      sch.Scheme.end_op c);
  Engine.spawn eng ~tid:1 (fun c ->
      sch.Scheme.begin_op c;
      (* long-running operation pinning the epoch *)
      for _ = 1 to 200 do
        Engine.Mem.pause c
      done;
      sch.Scheme.end_op c);
  Engine.run eng;
  (* while thread 1 pinned its epoch, the node could not be reused *)
  check_int "node intact during pinned epoch" 99 !witnessed

(* --- IBR interval semantics --------------------------------------------------- *)

let test_ibr_interval_blocks_overlapping_nodes () =
  let sch, _alloc, vm = mk_scheme "ibr" ~threshold:2 in
  let eng = Engine.create ~nthreads:2 () in
  let pinned = ref 0 in
  let witnessed = ref 0 in
  Engine.spawn eng ~tid:1 (fun c ->
      (* thread 1 opens an operation and stalls inside it: its published
         interval must pin nodes alive during it *)
      sch.Scheme.begin_op c;
      while !pinned = 0 do
        Engine.Mem.pause c
      done;
      for _ = 1 to 600 do
        Engine.Mem.pause c
      done;
      witnessed := Vmem.peek vm !pinned;
      sch.Scheme.end_op c);
  Engine.spawn eng ~tid:0 (fun c ->
      Engine.Mem.pause c;
      (* allocated while thread 1's interval is open -> lifetime overlaps *)
      pinned := sch.Scheme.alloc c 2;
      Vmem.store vm c !pinned 31337;
      sch.Scheme.retire c !pinned;
      (* churn to force era bumps and sweeps *)
      for _ = 1 to 40 do
        let n = sch.Scheme.alloc c 2 in
        sch.Scheme.retire c n
      done);
  Engine.run eng;
  (* the pinned node was not reused while thread 1 was inside its op *)
  check_int "pinned node intact during interval" 31337 !witnessed;
  (* once thread 1 ended its op, everything can go *)
  let c0 = Engine.external_ctx ~tid:0 () in
  sch.Scheme.flush c0;
  check_int "all freed eventually" 41 sch.Scheme.stats.Scheme.freed

let test_ibr_no_restarts () =
  (* IBR extends intervals instead of restarting *)
  let sch, _alloc, _vm = mk_scheme "ibr" ~threshold:1 in
  let eng = Engine.create ~nthreads:2 () in
  Engine.spawn eng ~tid:0 (fun c ->
      sch.Scheme.begin_op c;
      for _ = 1 to 30 do
        let n = sch.Scheme.alloc c 2 in
        sch.Scheme.retire c n
      done;
      sch.Scheme.end_op c);
  Engine.spawn eng ~tid:1 (fun c ->
      sch.Scheme.begin_op c;
      for _ = 1 to 300 do
        sch.Scheme.read_check c;
        Engine.Mem.pause c
      done;
      sch.Scheme.end_op c);
  Engine.run eng;
  check_int "no restarts ever" 0 sch.Scheme.stats.Scheme.restarts;
  check_bool "eras advanced" true (sch.Scheme.stats.Scheme.warnings_fired > 0)

(* --- VBR DWCAS leak probe (E9) --------------------------------------------- *)

let released_persistent_range remap =
  let alloc, vm, _meta = mk_alloc ~remap () in
  let first = Lrmalloc.palloc alloc ctx 512 in
  let heap = Lrmalloc.heap alloc in
  let d = Heap.lookup_desc heap ctx first in
  let blocks =
    first
    :: List.init (d.Descriptor.max_count - 1) (fun _ -> Lrmalloc.palloc alloc ctx 512)
  in
  List.iter (fun b -> Lrmalloc.free alloc ctx b) blocks;
  Lrmalloc.flush_thread_cache alloc ctx;
  Heap.trim heap ctx;
  (vm, blocks)

let test_vbr_probe_leaks_under_madvise () =
  let vm, blocks = released_persistent_range Config.Madvise in
  let r = Vbr_probe.run vm ctx ~addrs:blocks in
  check_int "no dwcas succeeds" 0 r.Vbr_probe.succeeded;
  (* every touched page faulted a frame in: the leak of §3.2 footnote 2 *)
  check_bool "frames leaked" true (r.Vbr_probe.frames_leaked > 0);
  check_bool "counted as cow-cas faults" true (r.Vbr_probe.cow_cas_faults > 0)

let test_vbr_probe_safe_under_shared () =
  let vm, blocks = released_persistent_range Config.Shared_map in
  let r = Vbr_probe.run vm ctx ~addrs:blocks in
  check_int "no dwcas succeeds" 0 r.Vbr_probe.succeeded;
  check_int "no frames leaked" 0 r.Vbr_probe.frames_leaked

(* --- registry ---------------------------------------------------------------- *)

let test_registry () =
  check_bool "knows the paper's methods" true
    (List.for_all (fun n -> List.mem n Registry.names) Registry.paper_methods);
  Alcotest.check_raises "unknown scheme"
    (Invalid_argument
       "unknown reclamation scheme \"bogus\" (known: nr, oa, oa-bit, oa-ver, \
        hp, ebr, ibr, debra, imr)") (fun () ->
      let (_ : Registry.entry) = Registry.find "bogus" in
      ())

(* Memory actually returns to the allocator and the OS under the paper's
   schemes (the whole point), for both remap strategies. *)
let frames_return name remap () =
  let alloc, vm, meta = mk_alloc ~remap () in
  let cfg = { Scheme.default_config with Scheme.threshold = 8 } in
  let sch = (Registry.find name).Registry.make cfg ~alloc ~meta ~nthreads:4 in
  let baseline = (Vmem.frames_live vm) in
  for i = 1 to 2000 do
    let n = sch.Scheme.alloc ctx 2 in
    Vmem.store vm ctx n i;
    sch.Scheme.retire ctx n
  done;
  sch.Scheme.flush ctx;
  Lrmalloc.flush_thread_cache alloc ctx;
  Heap.trim (Lrmalloc.heap alloc) ctx;
  let u = vm in
  check_bool "frames dropped back" true
    ((Vmem.frames_live u) <= baseline + 8)

let suite =
  [
    ("limbo sweep", `Quick, test_limbo_sweep);
    ("limbo growth stays in range", `Quick,
     test_limbo_growth_stays_in_reserved_range);
    ("hazard slots", `Quick, test_hazard_slots);
    ("addr stack", `Quick, test_addr_stack);
    ("oa-bit alloc/retire", `Quick, alloc_retire_cycle "oa-bit");
    ("oa-ver alloc/retire", `Quick, alloc_retire_cycle "oa-ver");
    ("hp alloc/retire", `Quick, alloc_retire_cycle "hp");
    ("ebr alloc/retire", `Quick, alloc_retire_cycle "ebr");
    ("ibr alloc/retire", `Quick, alloc_retire_cycle "ibr");
    (* the original OA only recycles when its fixed pool runs dry *)
    ("oa alloc/retire", `Quick,
     alloc_retire_cycle ~pool_nodes:8 ~expect_freed:24 "oa");
    ("nr never frees", `Quick, test_nr_never_frees);
    ("oa-bit warning restarts", `Quick, test_oa_bit_warning_restarts);
    ("oa-bit hazard protects", `Quick, test_oa_bit_hazard_protects);
    ("oa-ver piggyback", `Quick, test_oa_ver_piggyback);
    ("oa-ver clock restart", `Quick, test_oa_ver_clock_restart);
    ("oa pool recycles", `Quick, test_oa_orig_pool_recycles);
    ("oa node size guard", `Quick, test_oa_orig_node_size_guard);
    ("hp verify", `Quick, test_hp_traverse_protect_verifies);
    ("ebr grace period", `Quick, test_ebr_grace_period);
    ("ibr interval pins overlapping", `Quick,
     test_ibr_interval_blocks_overlapping_nodes);
    ("ibr never restarts", `Quick, test_ibr_no_restarts);
    ("vbr leak under madvise", `Quick, test_vbr_probe_leaks_under_madvise);
    ("vbr safe under shared", `Quick, test_vbr_probe_safe_under_shared);
    ("registry", `Quick, test_registry);
    ("oa-bit returns frames (madvise)", `Quick,
     frames_return "oa-bit" Config.Madvise);
    ("oa-ver returns frames (madvise)", `Quick,
     frames_return "oa-ver" Config.Madvise);
    ("oa-ver returns frames (shared)", `Quick,
     frames_return "oa-ver" Config.Shared_map);
    ("hp returns frames", `Quick, frames_return "hp" Config.Madvise);
  ]

let () = Alcotest.run "reclaim" [ ("reclaim", suite) ]
