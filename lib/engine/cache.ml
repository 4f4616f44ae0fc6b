(* One set-associative cache level with LRU replacement.

   The cache tracks which line-sized blocks are present; it stores no data
   (the simulated memory itself lives in {!Oamem_vmem}).  Lookups and fills
   are O(associativity) over small int arrays, so the per-access overhead of
   the simulation stays low. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  lines : int array;
      (* sets * ways interleaved entries: block tag at [2i] (-1 = invalid),
         LRU timestamp at [2i + 1].  One layout decision, two wins: a way
         scan and its victim scan walk one contiguous run of host
         cachelines instead of two parallel arrays, which matters for the
         L2/L3 instances whose separate tag and stamp arrays each spilled
         out of the host cache on miss-heavy (no-reclaim) workloads. *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type stats = { hits : int; misses : int; invalidations : int }

let create ~name ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Cache.create";
  if sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a power of two";
  let lines = Array.make (2 * sets * ways) 0 in
  let rec invalidate_tags i =
    if i < Array.length lines then begin
      lines.(i) <- -1;
      invalidate_tags (i + 2)
    end
  in
  invalidate_tags 0;
  {
    name;
    sets;
    ways;
    lines;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

let capacity_lines t = t.sets * t.ways
let set_of_block t block = block land (t.sets - 1)

(* The lookup and victim loops are top-level functions taking every datum as
   an argument: local recursive functions capturing their environment would
   allocate a closure per access, and this is the simulator's innermost hot
   path.  Indices are in bounds by construction ([set_of_block] masks with
   [sets - 1], ways are fixed), so the loops use unchecked array accesses.
   [base] is an index into [lines] (already doubled); ways step by 2. *)
let rec find_way lines base ways block i =
  if i >= ways then -1
  else if Array.unsafe_get lines (base + (2 * i)) = block then i
  else find_way lines base ways block (i + 1)

(* LRU way of the set (or any invalid way), scanning ways [i..ways-1]. *)
let rec pick_victim lines base ways best i =
  if i >= ways then best
  else
    let best =
      if Array.unsafe_get lines (base + (2 * i)) = -1 then i
      else if
        Array.unsafe_get lines (base + (2 * best)) <> -1
        && Array.unsafe_get lines (base + (2 * i) + 1)
           < Array.unsafe_get lines (base + (2 * best) + 1)
      then i
      else best
    in
    pick_victim lines base ways best (i + 1)

(* Returns [true] on hit.  On miss the block is installed, evicting the
   least-recently-used way of its set.

   The touched block is kept at way 0 of its set (move-to-front), so a hit
   on a recently-used block is a single compare instead of a scan over the
   associativity.  Way positions are not simulator-observable: every lookup
   matches any way, and victim choice keys on validity and on LRU stamps
   (distinct by construction — each valid way's stamp is the unique tick of
   its last touch), never on position — so the swap cannot change which
   blocks are resident, hit, miss or get evicted. *)
let access t block =
  let base = 2 * set_of_block t block * t.ways in
  t.tick <- t.tick + 1;
  let lines = t.lines in
  if Array.unsafe_get lines base = block then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set lines (base + 1) t.tick;
    true
  end
  else begin
    let i = find_way lines base t.ways block 1 in
    if i >= 0 then begin
      t.hits <- t.hits + 1;
      let t0 = Array.unsafe_get lines base in
      let s0 = Array.unsafe_get lines (base + 1) in
      Array.unsafe_set lines base block;
      Array.unsafe_set lines (base + 1) t.tick;
      Array.unsafe_set lines (base + (2 * i)) t0;
      Array.unsafe_set lines (base + (2 * i) + 1) s0;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let victim = pick_victim lines base t.ways 0 1 in
      let t0 = Array.unsafe_get lines base in
      let s0 = Array.unsafe_get lines (base + 1) in
      Array.unsafe_set lines base block;
      Array.unsafe_set lines (base + 1) t.tick;
      if victim > 0 then begin
        Array.unsafe_set lines (base + (2 * victim)) t0;
        Array.unsafe_set lines (base + (2 * victim) + 1) s0
      end;
      false
    end
  end

(* Probe without installing or updating LRU state. *)
let present t block =
  find_way t.lines (2 * set_of_block t block * t.ways) t.ways block 0 >= 0

(* Runs once per remote copy on every invalidating store, so it must not
   build a closure per call: the way search is the top-level [find_way]. *)
let invalidate t block =
  let base = 2 * set_of_block t block * t.ways in
  let i = find_way t.lines base t.ways block 0 in
  if i >= 0 then begin
    t.lines.(base + (2 * i)) <- -1;
    t.invalidations <- t.invalidations + 1
  end

let clear t =
  let rec invalidate_tags i =
    if i < Array.length t.lines then begin
      t.lines.(i) <- -1;
      invalidate_tags (i + 2)
    end
  in
  invalidate_tags 0;
  t.tick <- 0

let stats (t : t) =
  { hits = t.hits; misses = t.misses; invalidations = t.invalidations }

let reset_stats (t : t) =
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "hits=%d misses=%d inval=%d" s.hits s.misses s.invalidations
