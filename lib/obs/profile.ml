(* Cycle-attribution profiler: per-thread span stacks over one shared call
   trie, per-frame log2 latency histograms, and a contention table keyed by
   simulated address.

   The hot path is [charge] (one load, one branch, one add when a span is
   open); [enter]/[leave] allocate trie nodes and stack cells, which is fine
   because every caller guards with [enabled] — the disabled path allocates
   nothing, like the trace ring's emit idiom.

   Determinism: all state is driven by the simulated schedule, so two runs
   of the same seed produce identical tries, histograms and contention
   tables; exporters sort children by frame order and hot addresses by
   (count, addr), making the rendered output byte-identical too. *)

type frame =
  | Op_insert
  | Op_delete
  | Op_contains
  | Op_lookup
  | Op_replace
  | Op_enqueue
  | Op_dequeue
  | Op_push
  | Op_pop
  | Op_restart
  | Alloc_malloc
  | Alloc_free
  | Alloc_flush
  | Alloc_superblock
  | Reclaim_retire
  | Reclaim_scan
  | Reclaim_flush
  | Vmem_fault_in
  | Vmem_remap
  | Op_neutralized

let frame_index = function
  | Op_insert -> 0
  | Op_delete -> 1
  | Op_contains -> 2
  | Op_lookup -> 3
  | Op_replace -> 4
  | Op_enqueue -> 5
  | Op_dequeue -> 6
  | Op_push -> 7
  | Op_pop -> 8
  | Op_restart -> 9
  | Alloc_malloc -> 10
  | Alloc_free -> 11
  | Alloc_flush -> 12
  | Alloc_superblock -> 13
  | Reclaim_retire -> 14
  | Reclaim_scan -> 15
  | Reclaim_flush -> 16
  | Vmem_fault_in -> 17
  | Vmem_remap -> 18
  | Op_neutralized -> 19

let nframes = 20

let all_frames =
  [
    Op_insert; Op_delete; Op_contains; Op_lookup; Op_replace; Op_enqueue;
    Op_dequeue; Op_push; Op_pop; Op_restart; Alloc_malloc; Alloc_free;
    Alloc_flush; Alloc_superblock; Reclaim_retire; Reclaim_scan;
    Reclaim_flush; Vmem_fault_in; Vmem_remap; Op_neutralized;
  ]

let frame_name = function
  | Op_insert -> "op.insert"
  | Op_delete -> "op.delete"
  | Op_contains -> "op.contains"
  | Op_lookup -> "op.lookup"
  | Op_replace -> "op.replace"
  | Op_enqueue -> "op.enqueue"
  | Op_dequeue -> "op.dequeue"
  | Op_push -> "op.push"
  | Op_pop -> "op.pop"
  | Op_restart -> "restart"
  | Alloc_malloc -> "alloc.malloc"
  | Alloc_free -> "alloc.free"
  | Alloc_flush -> "alloc.flush"
  | Alloc_superblock -> "alloc.superblock"
  | Reclaim_retire -> "reclaim.retire"
  | Reclaim_scan -> "reclaim.scan"
  | Reclaim_flush -> "reclaim.flush"
  | Op_neutralized -> "neutralized"
  | Vmem_fault_in -> "vmem.fault_in"
  | Vmem_remap -> "vmem.remap"

(* The whole-operation frames (SLA views aggregate these; [Op_restart] and
   [Op_neutralized] are nested retry spans, not operations). *)
let op_frames =
  List.filter
    (fun f ->
      let n = frame_name f in
      String.length n > 3 && String.sub n 0 3 = "op.")
    all_frames

(* --- call trie ------------------------------------------------------------ *)

type node = {
  nframe : frame;
  parent : node option;  (* None for the root *)
  mutable children : node list;  (* insertion order; sorted at view time *)
  mutable self_cycles : int;
  mutable calls : int;
}

let fresh_node ?parent nframe =
  { nframe; parent; children = []; self_cycles = 0; calls = 0 }

(* log2 bucketing, matching Metrics: bucket b holds durations in
   (2^(b-1) - 1, 2^b - 1]; bucket 0 holds exactly 0. *)
let nbuckets = 63

let bucket_of v =
  let v = max 0 v in
  let rec go b bound = if v <= bound - 1 then b else go (b + 1) (bound * 2) in
  go 0 1

(* One log2 latency histogram: the profiler keeps one per frame, and
   Timeline one per frame and slice. *)
type hist = {
  hbuckets : int array;
  mutable hcount : int;
  mutable hsum : int;
  mutable hmax : int;
}

let fresh_hist () =
  { hbuckets = Array.make nbuckets 0; hcount = 0; hsum = 0; hmax = 0 }

let hist_observe h v =
  let b = min (nbuckets - 1) (bucket_of v) in
  h.hbuckets.(b) <- h.hbuckets.(b) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum + v;
  if v > h.hmax then h.hmax <- v

let hist_reset h =
  Array.fill h.hbuckets 0 nbuckets 0;
  h.hcount <- 0;
  h.hsum <- 0;
  h.hmax <- 0

(* --- contention table ----------------------------------------------------- *)

type contended = {
  mutable invs : int;
  mutable fails : int;
  (* owner spans: (trie node or None for "no span open", hit count), keyed
     by physical node identity; first-charged order breaks count ties *)
  mutable owners : (node option * int) list;
}

type t = {
  mutable on : bool;
  root : node;
  stacks : (node * int) list array;  (* per-tid: (span, enter time) *)
  hists : hist array;  (* per frame_index *)
  addrs : (int, contended) Hashtbl.t;
  mutable on_leave : frame -> now:int -> dur:int -> unit;
      (* span-close sink (Timeline); the default is a no-op so [leave]
         needs no option check *)
}

let no_leave _ ~now:_ ~dur:_ = ()

let create ~nthreads () =
  {
    on = false;
    root = fresh_node Op_insert (* frame of the root is never read *);
    stacks = Array.make (max 0 nthreads) [];
    hists = Array.init nframes (fun _ -> fresh_hist ());
    addrs = Hashtbl.create 256;
    on_leave = no_leave;
  }

let null = create ~nthreads:0 ()

let enabled t = t.on
let set_enabled t v = if Array.length t.stacks > 0 then t.on <- v
let nthreads t = Array.length t.stacks
let set_leave_hook t f = t.on_leave <- f

let rec reset_node n =
  n.self_cycles <- 0;
  n.calls <- 0;
  List.iter reset_node n.children;
  n.children <- []

let reset t =
  reset_node t.root;
  Array.fill t.stacks 0 (Array.length t.stacks) [];
  Array.iter hist_reset t.hists;
  Hashtbl.reset t.addrs

(* --- recording ------------------------------------------------------------ *)

let in_range t tid = tid >= 0 && tid < Array.length t.stacks

let enter t ~tid ~now frame =
  if t.on && in_range t tid then begin
    let parent =
      match t.stacks.(tid) with (n, _) :: _ -> n | [] -> t.root
    in
    let node =
      match List.find_opt (fun c -> c.nframe == frame) parent.children with
      | Some c -> c
      | None ->
          let c = fresh_node ~parent frame in
          parent.children <- parent.children @ [ c ];
          c
    in
    node.calls <- node.calls + 1;
    t.stacks.(tid) <- (node, now) :: t.stacks.(tid)
  end

let leave t ~tid ~now =
  if t.on && in_range t tid then
    match t.stacks.(tid) with
    | [] -> ()
    | (node, entered) :: rest ->
        t.stacks.(tid) <- rest;
        let dur = max 0 (now - entered) in
        hist_observe t.hists.(frame_index node.nframe) dur;
        t.on_leave node.nframe ~now ~dur

let charge t ~tid cycles =
  if t.on && in_range t tid then
    match t.stacks.(tid) with
    | (node, _) :: _ -> node.self_cycles <- node.self_cycles + cycles
    | [] -> t.root.self_cycles <- t.root.self_cycles + cycles

let owner_of t tid =
  if in_range t tid then
    match t.stacks.(tid) with (n, _) :: _ -> Some n | [] -> None
  else None

let contended_for t addr =
  match Hashtbl.find_opt t.addrs addr with
  | Some c -> c
  | None ->
      let c = { invs = 0; fails = 0; owners = [] } in
      Hashtbl.add t.addrs addr c;
      c

(* [owner_of] builds a fresh [Some] per call, so owners are compared by the
   node they carry, never by the option itself. *)
let same_owner a b =
  match (a, b) with
  | Some x, Some y -> x == y
  | None, None -> true
  | _ -> false

let charge_owner c owner =
  let rec bump = function
    | [] -> [ (owner, 1) ]
    | (o, n) :: rest when same_owner o owner -> (o, n + 1) :: rest
    | entry :: rest -> entry :: bump rest
  in
  c.owners <- bump c.owners

let note_cas_failure t ~tid ~addr =
  if t.on then begin
    let c = contended_for t addr in
    c.fails <- c.fails + 1;
    charge_owner c (owner_of t tid)
  end

let note_invalidation t ~tid ~addr =
  if t.on then begin
    let c = contended_for t addr in
    c.invs <- c.invs + 1;
    charge_owner c (owner_of t tid)
  end

(* --- views ---------------------------------------------------------------- *)

type span = {
  path : frame list;
  self_cycles : int;
  total_cycles : int;
  calls : int;
}

let sorted_children (n : node) =
  List.sort
    (fun a b -> compare (frame_index a.nframe) (frame_index b.nframe))
    n.children

let rec node_total (n : node) =
  List.fold_left (fun acc c -> acc + node_total c) n.self_cycles n.children

let spans t =
  let rec walk rev_path acc (n : node) =
    let rev_path = n.nframe :: rev_path in
    let s =
      {
        path = List.rev rev_path;
        self_cycles = n.self_cycles;
        total_cycles = node_total n;
        calls = n.calls;
      }
    in
    List.fold_left (walk rev_path) (s :: acc) (sorted_children n)
  in
  List.rev
    (List.fold_left (walk []) [] (sorted_children t.root))

let unattributed_cycles t = t.root.self_cycles
let total_cycles t = node_total t.root

(* --- latency -------------------------------------------------------------- *)

type latency = {
  lframe : frame;
  count : int;
  sum : int;
  max_cycles : int;
  buckets : (int * int) list;
}

let latency_of_hist lframe h =
  let buckets = ref [] in
  for b = nbuckets - 1 downto 0 do
    if h.hbuckets.(b) > 0 then
      buckets := ((1 lsl b) - 1, h.hbuckets.(b)) :: !buckets
  done;
  {
    lframe;
    count = h.hcount;
    sum = h.hsum;
    max_cycles = h.hmax;
    buckets = !buckets;
  }

let latencies t =
  List.filter_map
    (fun f ->
      let h = t.hists.(frame_index f) in
      if h.hcount = 0 then None else Some (latency_of_hist f h))
    all_frames

let merge_hists frames find =
  let merged = fresh_hist () in
  List.iter
    (fun f ->
      match find f with
      | None -> ()
      | Some h ->
          Array.iteri
            (fun b n -> merged.hbuckets.(b) <- merged.hbuckets.(b) + n)
            h.hbuckets;
          merged.hcount <- merged.hcount + h.hcount;
          merged.hsum <- merged.hsum + h.hsum;
          if h.hmax > merged.hmax then merged.hmax <- h.hmax)
    frames;
  match frames with
  | f :: _ when merged.hcount > 0 -> Some (latency_of_hist f merged)
  | _ -> None

let merged_latency t frames =
  merge_hists frames (fun f -> Some t.hists.(frame_index f))

(* Percentiles interpolate linearly inside the covering log2 bucket instead
   of snapping to its upper bound (which overestimated by up to 2x at high
   ranks).  The bucket holding rank r spans values [lo, hi] with
   lo = 2^(b-1) (0 for bucket 0) and hi = min (2^b - 1) max_cycles — the
   max clamp keeps the top bucket exact; lo + (hi - lo) * r_in / n reaches
   hi exactly at the bucket's last rank, so single-observation buckets and
   q = 1.0 keep their pre-interpolation exact values.  A histogram whose
   sum equals count * max holds only one distinct value (observations never
   exceed max), so every percentile is exactly max. *)
let percentile l q =
  if l.count = 0 then 0
  else if l.sum = l.count * l.max_cycles then l.max_cycles
  else begin
    let rank =
      max 1 (min l.count (int_of_float (ceil (q *. float_of_int l.count))))
    in
    let rec go cum = function
      | [] -> l.max_cycles
      | (le, n) :: rest ->
          if cum + n >= rank then begin
            let lo = if le = 0 then 0 else (le + 1) / 2 in
            let hi = min le l.max_cycles in
            lo + ((hi - lo) * (rank - cum) / n)
          end
          else go (cum + n) rest
    in
    min (go 0 l.buckets) l.max_cycles
  end

(* --- contention ----------------------------------------------------------- *)

type hot_addr = {
  addr : int;
  invalidations : int;
  cas_failures : int;
  owner : frame list;
}

(* Frames from the root (exclusive — its frame is synthetic) down to [n]. *)
let path_of_node (n : node) =
  let rec collect acc node =
    match node.parent with
    | None -> acc
    | Some p -> collect (node.nframe :: acc) p
  in
  collect [] n

let dominant_owner owners =
  match owners with
  | [] -> None
  | first :: _ ->
      fst
        (List.fold_left
           (fun ((_, best_n) as best) ((_, n) as cand) ->
             if n > best_n then cand else best)
           first owners)

let hot_addrs ?(top = 10) t =
  let all =
    Hashtbl.fold
      (fun addr c acc ->
        let owner =
          match dominant_owner c.owners with
          | Some n -> path_of_node n
          | None -> []
        in
        {
          addr;
          invalidations = c.invs;
          cas_failures = c.fails;
          owner;
        }
        :: acc)
      t.addrs []
  in
  let weight h = h.invalidations + h.cas_failures in
  let sorted =
    List.sort
      (fun a b ->
        let c = compare (weight b) (weight a) in
        if c <> 0 then c else compare a.addr b.addr)
      all
  in
  List.filteri (fun i _ -> i < top) sorted
