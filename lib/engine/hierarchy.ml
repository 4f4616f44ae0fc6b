(* Cache hierarchy of the simulated multicore.

   Geometry follows the paper's testbed (AMD Opteron 6274): a private L1 per
   hardware thread, an L2 shared by each pair of threads, and one shared L3.
   Coherence is write-invalidate, driven by a directory that maps each block
   to the bitmask of threads that may hold it.  A store or RMW to a block
   held elsewhere invalidates the remote copies and pays an invalidation
   penalty — this is what makes hazard-pointer publication and warning-bit
   broadcasts expensive in the simulation, exactly the costs the paper
   reasons about in §2.4.

   The directory is not told about silent evictions, so it may conservatively
   over-invalidate; this only adds a small amount of cost noise.

   The directory is an open-addressing int->int table (linear probing,
   multiplicative hashing) rather than a [Hashtbl]: block numbers span both
   the dense frame-pool region and the sparse metadata region near 2^50,
   and this runs on every simulated access, where the generic hash call,
   bucket-list allocation and option boxing of [Hashtbl] dominated the
   simulator's host-side profile.  Key and sharer mask are interleaved in a
   single flat array (block at [2i], mask at [2i + 1]) so one probe touches
   one host cacheline — the table grows to millions of entries on
   no-reclaim workloads, where a second parallel array would double the
   host-side DRAM misses.  Absent key = empty sharer mask, exactly like the
   hashtable it replaced; entries are never deleted (masks only get
   rewritten), so probing needs no tombstones. *)

type config = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l3_sets : int;
  l3_ways : int;
  threads_per_l2 : int;
}

(* 16 KiB L1 (4-way), 2 MiB L2 per pair (8-way), 12 MiB shared L3 (12-way),
   with 64-byte lines. *)
let opteron_6274_config =
  {
    l1_sets = 64;
    l1_ways = 4;
    l2_sets = 4096;
    l2_ways = 8;
    l3_sets = 16384;
    l3_ways = 12;
    threads_per_l2 = 2;
  }

(* A tiny hierarchy for unit tests where evictions must be easy to force. *)
let tiny_config =
  {
    l1_sets = 2;
    l1_ways = 2;
    l2_sets = 4;
    l2_ways = 2;
    l3_sets = 8;
    l3_ways = 2;
    threads_per_l2 = 2;
  }

type kind = Load | Store | Rmw

type t = {
  cfg : config;
  cost : Cost_model.t;
  nthreads : int;
  l1 : Cache.t array;  (* per thread *)
  l2 : Cache.t array;  (* per group of [threads_per_l2] threads *)
  l3 : Cache.t;
  mutable dir : int array;
      (* interleaved slots: block number at [2i] ([dir_empty] = free),
         sharer bitmask at [2i + 1] *)
  mutable dir_count : int;  (* occupied slots; grow at 50% load *)
  mutable remote_invalidations : int;
}

(* No block number can be [min_int]: addresses are non-negative and the
   arithmetic shift in [Geometry.block_of_addr] preserves sign. *)
let dir_empty = min_int

(* Multiplicative (Fibonacci) hashing: one multiply spreads both the dense
   low blocks and the 2^50-region metadata blocks across the table.  The
   table size is a power of two, so the high bits must feed the index. *)
let[@inline] dir_hash block mask =
  (block * 0x2545_F491_4F6C_DD1D) lsr 20 land mask

let create ?(cfg = opteron_6274_config) ~cost ~nthreads () =
  if nthreads <= 0 || nthreads > 62 then
    invalid_arg "Hierarchy.create: nthreads must be in [1, 62]";
  let n_l2 = (nthreads + cfg.threads_per_l2 - 1) / cfg.threads_per_l2 in
  {
    cfg;
    cost;
    nthreads;
    l1 =
      Array.init nthreads (fun i ->
          Cache.create ~name:(Printf.sprintf "L1.%d" i) ~sets:cfg.l1_sets
            ~ways:cfg.l1_ways);
    l2 =
      Array.init n_l2 (fun i ->
          Cache.create ~name:(Printf.sprintf "L2.%d" i) ~sets:cfg.l2_sets
            ~ways:cfg.l2_ways);
    l3 = Cache.create ~name:"L3" ~sets:cfg.l3_sets ~ways:cfg.l3_ways;
    dir = Array.make (2 * 8192) dir_empty;
    dir_count = 0;
    remote_invalidations = 0;
  }

let l2_bank t tid = tid / t.cfg.threads_per_l2

(* Slot holding [block], or the free slot where it belongs.  The table is
   kept at most half full, so an empty slot is always reachable.  [m] is the
   slot-index mask (half the array length minus one).  Top-level probe loop
   (not a local closure): this runs on every simulated access and must not
   allocate. *)
let rec dir_probe dir block m i =
  let k = Array.unsafe_get dir (2 * i) in
  if k = block || k = dir_empty then i
  else dir_probe dir block m ((i + 1) land m)

let[@inline] dir_slot dir block =
  let m = (Array.length dir / 2) - 1 in
  dir_probe dir block m (dir_hash block m)

let[@inline] sharers t block =
  let dir = t.dir in
  let i = dir_slot dir block in
  if Array.unsafe_get dir (2 * i) = block then Array.unsafe_get dir ((2 * i) + 1)
  else 0

let dir_grow t =
  let old = t.dir in
  let n = 2 * Array.length old in
  let dir = Array.make n dir_empty in
  t.dir <- dir;
  for i = 0 to (Array.length old / 2) - 1 do
    let k = Array.unsafe_get old (2 * i) in
    if k <> dir_empty then begin
      let j = dir_slot dir k in
      dir.(2 * j) <- k;
      dir.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done

(* Write the mask of an already-probed slot [i] (the slot [block] hashes
   to, found by the caller's single probe): overwrite in place if the block
   is resident, otherwise install it and grow at 50% load.  Nothing between
   the caller's probe and this call may touch the directory. *)
let[@inline] dir_put t i block mask =
  let dir = t.dir in
  if Array.unsafe_get dir (2 * i) = block then
    Array.unsafe_set dir ((2 * i) + 1) mask
  else begin
    Array.unsafe_set dir (2 * i) block;
    Array.unsafe_set dir ((2 * i) + 1) mask;
    t.dir_count <- t.dir_count + 1;
    if 4 * t.dir_count > Array.length dir then dir_grow t
  end

(* Invalidate every remote copy of [block] named by the non-empty sharer
   mask [others] (the invalidation broadcast has already been decided). *)
let invalidate_others t ~tid others block =
  let my_bank = l2_bank t tid in
  for tid' = 0 to t.nthreads - 1 do
    if others land (1 lsl tid') <> 0 then begin
      Cache.invalidate t.l1.(tid') block;
      let bank = l2_bank t tid' in
      if bank <> my_bank then Cache.invalidate t.l2.(bank) block
    end
  done;
  t.remote_invalidations <- t.remote_invalidations + 1

(* Charge one access and update cache state; returns the cycle cost. *)
let access t ~tid ~kind block =
  let c = t.cost in
  let l1_hit = Cache.access t.l1.(tid) block in
  let hit_cost =
    if l1_hit then c.l1_hit
    else if Cache.access t.l2.(l2_bank t tid) block then c.l2_hit
    else if Cache.access t.l3 block then c.l3_hit
    else c.dram
  in
  let coherence_cost =
    match kind with
    | Load when l1_hit ->
        (* Invariant: a block resident in thread [tid]'s L1 carries [tid]'s
           bit in its directory mask.  Every access sets the accessor's bit;
           the only path that clears bits is a remote Store/Rmw, which
           invalidates those threads' L1 copies in the same call; [clear]
           empties both.  So the probe's outcome is known: no mask change
           and no coherence cycles. *)
        0
    | Load | Store | Rmw -> (
        (* one directory probe serves both the sharer read and the mask
           update ([invalidate_others] only touches the caches, so slot [i]
           stays valid across it) *)
        let bit = 1 lsl tid in
        let dir = t.dir in
        let i = dir_slot dir block in
        let mask =
          if Array.unsafe_get dir (2 * i) = block then
            Array.unsafe_get dir ((2 * i) + 1)
          else 0
        in
        match kind with
        | Load ->
            if mask land bit = 0 then dir_put t i block (mask lor bit);
            0
        | Store | Rmw ->
            if mask land lnot bit = 0 then begin
              if mask <> bit then dir_put t i block bit;
              0
            end
            else begin
              invalidate_others t ~tid (mask land lnot bit) block;
              dir_put t i block bit;
              c.invalidation
            end)
  in
  let rmw_cost = match kind with Rmw -> c.rmw_extra | Load | Store -> 0 in
  hit_cost + coherence_cost + rmw_cost

let l1_present t ~tid block = Cache.present t.l1.(tid) block

(* Cheap accessor for hot-path delta checks (profiler attribution); [stats]
   allocates a full record per call. *)
let remote_invalidations (t : t) = t.remote_invalidations

type stats = {
  l1 : Cache.stats;
  l2 : Cache.stats;
  l3 : Cache.stats;
  remote_invalidations : int;
}

let sum_stats (caches : Cache.t array) : Cache.stats =
  Array.fold_left
    (fun (acc : Cache.stats) cache ->
      let (s : Cache.stats) = Cache.stats cache in
      Cache.
        {
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
          invalidations = acc.invalidations + s.invalidations;
        })
    Cache.{ hits = 0; misses = 0; invalidations = 0 }
    caches

let stats (t : t) =
  {
    l1 = sum_stats t.l1;
    l2 = sum_stats t.l2;
    l3 = Cache.stats t.l3;
    remote_invalidations = t.remote_invalidations;
  }

let reset_stats (t : t) =
  Array.iter Cache.reset_stats t.l1;
  Array.iter Cache.reset_stats t.l2;
  Cache.reset_stats t.l3;
  t.remote_invalidations <- 0

let clear (t : t) =
  Array.iter Cache.clear t.l1;
  Array.iter Cache.clear t.l2;
  Cache.clear t.l3;
  Array.fill t.dir 0 (Array.length t.dir) dir_empty;
  t.dir_count <- 0

let pp_stats ppf s =
  Fmt.pf ppf "L1[%a] L2[%a] L3[%a] remote-inval=%d" Cache.pp_stats s.l1
    Cache.pp_stats s.l2 Cache.pp_stats s.l3 s.remote_invalidations
