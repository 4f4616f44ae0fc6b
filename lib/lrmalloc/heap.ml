(* The LRMalloc heap: superblock management (paper §2.3, §3, §4).

   Superblocks are carved into blocks of one size class and tracked by
   descriptors.  A new superblock is born Full — all its blocks go straight
   into the requesting thread's cache.  Cache flushes return blocks one by
   one through [free_block], whose anchor CAS moves the superblock between
   Full, Partial and Empty exactly as in Fig. 2 of the paper:

   - non-persistent superblocks that become Empty are unmapped and their
     descriptor goes to the *generic* pool;
   - persistent superblocks under [Keep_resident] never reach Empty (the
     §3.1 design): they simply stay Partial with every block free;
   - persistent superblocks under [Madvise]/[Shared_map] are remapped — the
     physical frames are released while the virtual range stays readable —
     and the descriptor, still carrying its range, goes to the *persistent*
     pool (§3.2), from which new superblocks are built by priority (§4).

   Release protocol.  A descriptor is pushed onto its partial list exactly
   once per Full→Partial transition and removed only by [take_partial].
   When the popper finds the superblock already Empty (every block was
   freed back), the popper performs the release; when a superblock becomes
   Empty while still linked, release is deferred to the eventual pop (or to
   an explicit [trim]).  This keeps the lists free of recycled descriptors
   without extra synchronisation, at the price of empty superblocks being
   reclaimed lazily. *)

open Oamem_engine
open Oamem_vmem
module Trace = Oamem_obs.Trace
module Profile = Oamem_obs.Profile

type stats = {
  mutable sb_fresh : int;  (** superblocks built on a fresh virtual range *)
  mutable sb_range_reused : int;  (** built on a recycled persistent range *)
  mutable sb_released : int;  (** non-persistent: unmapped *)
  mutable sb_remapped : int;  (** persistent: madvise / shared remap *)
  mutable large_allocs : int;
  mutable large_frees : int;
  mutable pressure_recoveries : int;
      (** Out_of_frames events recovered by cache flush + trim *)
  mutable pressure_failures : int;  (** recoveries that ended in Out_of_memory *)
}

type t = {
  geom : Geometry.t;
  cfg : Config.t;
  classes : Size_class.t;
  vmem : Vmem.t;
  meta : Cell.heap;
  pagemap : Pagemap.t;
  mutable descs : Descriptor.t array;
  mutable ndescs : int;
  registry_lock : Mutex.t;
  mutable partial : Desc_list.t array;
      (* index: class * 2 + (persistent as int) *)
  mutable persistent_pool : Desc_list.t;
      (* descriptors keeping their range (§3.2) *)
  mutable generic_pool : Desc_list.t;  (* plain recycled descriptors *)
  stats : stats;
  mutable trace : Trace.t;
  mutable range_hook : (base:int -> npages:int -> event:range_event -> unit) option;
      (* observer for superblock range transitions (lifecycle sanitizer) *)
}

and range_event =
  | Range_carved  (** a fresh or recycled range was attached to a superblock *)
  | Range_released  (** non-persistent range unmapped (or a large free) *)
  | Range_remapped
      (** persistent range remapped: frames released, range stays readable *)

let get_desc t id = t.descs.(id)

let create ?(cfg = Config.default) ?(classes = Size_class.default) ~vmem ~meta
    () =
  let geom = Vmem.geometry vmem in
  let max_pages = Page_table.max_pages (Vmem.page_table vmem) in
  let dummy = Desc_list.create meta ~get:(fun _ -> assert false) in
  let t =
    {
      geom;
      cfg;
      classes;
      vmem;
      meta;
      pagemap = Pagemap.create ~geom ~max_pages;
      descs = Array.make 64 (Descriptor.make meta ~id:(-1));
      ndescs = 0;
      registry_lock = Mutex.create ();
      partial = [||];
      persistent_pool = dummy;
      generic_pool = dummy;
      stats =
        {
          sb_fresh = 0;
          sb_range_reused = 0;
          sb_released = 0;
          sb_remapped = 0;
          large_allocs = 0;
          large_frees = 0;
          pressure_recoveries = 0;
          pressure_failures = 0;
        };
      trace = Trace.null;
      range_hook = None;
    }
  in
  let get id = get_desc t id in
  t.partial <-
    Array.init
      (2 * Size_class.count classes)
      (fun _ -> Desc_list.create meta ~get);
  t.persistent_pool <- Desc_list.create meta ~get;
  t.generic_pool <- Desc_list.create meta ~get;
  t

let sb_words t = Config.sb_words t.geom t.cfg
let sb_pages t = t.cfg.Config.sb_pages
let set_trace t tr = t.trace <- tr
let trace t = t.trace
let set_range_hook t h = t.range_hook <- h

let notify_range t ~base ~npages event =
  match t.range_hook with
  | None -> ()
  | Some f -> f ~base ~npages ~event

(* Superblock lifecycle trace events: "fresh", "range_reused", "released",
   "remapped" (pool transitions) plus the anchor state names. *)
let emit_transition t ctx (d : Descriptor.t) state =
  if Trace.enabled t.trace then
    Trace.emit t.trace ~tid:(Engine.Mem.tid ctx) ~at:(Engine.Mem.now ctx)
      (Trace.Superblock_transition { desc = d.Descriptor.id; state })

let partial_list t ~cls ~persistent =
  t.partial.((2 * cls) + if persistent then 1 else 0)

(* Fresh descriptor; never reclaimed, as in the paper. *)
let new_descriptor t =
  Mutex.lock t.registry_lock;
  let id = t.ndescs in
  if id >= Array.length t.descs then begin
    let bigger = Array.make (2 * Array.length t.descs) t.descs.(0) in
    Array.blit t.descs 0 bigger 0 t.ndescs;
    t.descs <- bigger
  end;
  let d = Descriptor.make t.meta ~id in
  t.descs.(id) <- d;
  t.ndescs <- id + 1;
  Mutex.unlock t.registry_lock;
  d

let descriptor_count t = t.ndescs

(* --- superblock acquisition (§4 priority order) -------------------------- *)

(* Attach a fresh virtual range to [d]. *)
let attach_fresh_range t ctx d npages =
  let addr = Vmem.reserve t.vmem ~npages in
  Vmem.map_anon t.vmem ctx ~vpage:(Geometry.page_of_addr t.geom addr) ~npages;
  d.Descriptor.sb_start <- addr;
  d.Descriptor.pages <- npages;
  t.stats.sb_fresh <- t.stats.sb_fresh + 1;
  notify_range t ~base:addr ~npages Range_carved;
  emit_transition t ctx d "fresh"

(* Target number of blocks per cache fill for a class. *)
let fill_batch t cls =
  min
    (Size_class.blocks_per_superblock t.classes ~sb_words:(sb_words t) cls)
    t.cfg.Config.cache_blocks

(* Build a superblock for size class [cls], write its first [batch] blocks
   to [out] for the requesting cache and return [batch]; the remainder is
   carved into the superblock's free list and the superblock is published
   as partial.  Descriptor priority: persistent pool (range attached and
   size-class compatible), then generic pool, then a fresh descriptor
   (§4). *)
let acquire_superblock_raw t ctx ~cls ~persistent ~out =
  let npages = sb_pages t in
  let d =
    match Desc_list.pop t.persistent_pool ctx with
    | -1 -> (
        match Desc_list.pop t.generic_pool ctx with
        | -1 ->
            let d = new_descriptor t in
            attach_fresh_range t ctx d npages;
            d
        | id ->
            let d = get_desc t id in
            attach_fresh_range t ctx d npages;
            d)
    | id ->
        let d = get_desc t id in
        assert (d.Descriptor.pages = npages);
        (match t.cfg.Config.remap with
        | Config.Shared_map ->
            (* take the range back from the shared region *)
            Vmem.remap_private t.vmem ctx
              ~vpage:(Geometry.page_of_addr t.geom d.Descriptor.sb_start)
              ~npages
        | Config.Madvise | Config.Keep_resident -> ());
        t.stats.sb_range_reused <- t.stats.sb_range_reused + 1;
        notify_range t ~base:d.Descriptor.sb_start ~npages Range_carved;
        emit_transition t ctx d "range_reused";
        d
  in
  let bw = Size_class.block_words t.classes cls in
  d.Descriptor.size_class <- cls;
  d.Descriptor.block_words <- bw;
  d.Descriptor.max_count <-
    Size_class.blocks_per_superblock t.classes ~sb_words:(sb_words t) cls;
  d.Descriptor.persistent <- persistent;
  Pagemap.set_range t.pagemap ctx
    ~vpage:(Geometry.page_of_addr t.geom d.Descriptor.sb_start)
    ~npages ~desc_id:d.Descriptor.id;
  let batch = min (fill_batch t cls) d.Descriptor.max_count in
  for i = 0 to batch - 1 do
    out.(i) <- Descriptor.block_addr d i
  done;
  let tag = Descriptor.tag_of (Descriptor.peek_word d) + 1 in
  if batch = d.Descriptor.max_count then
    (* born Full: every block goes to the caller's cache *)
    Cell.set ctx d.Descriptor.anchor
      (Descriptor.make_anchor ~state:Descriptor.Full ~avail:0 ~count:0 ~tag)
  else begin
    (* carve the remainder into the free list and publish as partial *)
    for i = batch to d.Descriptor.max_count - 1 do
      Vmem.store t.vmem ctx (Descriptor.block_addr d i) (i + 1)
    done;
    Cell.set ctx d.Descriptor.anchor
      (Descriptor.make_anchor ~state:Descriptor.Partial ~avail:batch
         ~count:(d.Descriptor.max_count - batch)
         ~tag);
    Desc_list.push (partial_list t ~cls ~persistent) ctx d
  end;
  batch

(* Both superblock transitions run under an [Alloc_superblock] profiler
   span; nested remap syscalls show up as [Vmem_remap] children.  Wrappers
   are hand-eta-expanded so the disabled path allocates nothing. *)
let acquire_superblock t ctx ~cls ~persistent ~out =
  let p = Engine.Mem.profile ctx in
  if Profile.enabled p then begin
    let tid = (Engine.Mem.tid ctx) in
    Profile.enter p ~tid ~now:(Engine.Mem.now ctx) Profile.Alloc_superblock;
    match acquire_superblock_raw t ctx ~cls ~persistent ~out with
    | r ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        r
    | exception e ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        raise e
  end
  else acquire_superblock_raw t ctx ~cls ~persistent ~out

(* --- release ------------------------------------------------------------- *)

(* Release an Empty superblock.  Persistent ranges stay readable: they are
   remapped rather than unmapped, and keep their descriptor's range for the
   persistent pool. *)
let release_superblock_raw t ctx d =
  let base = d.Descriptor.sb_start in
  let vpage = Geometry.page_of_addr t.geom base in
  let npages = d.Descriptor.pages in
  Pagemap.clear_range t.pagemap ctx ~vpage ~npages;
  if d.Descriptor.persistent then begin
    (match t.cfg.Config.remap with
    | Config.Madvise -> Vmem.madvise_dontneed t.vmem ctx ~vpage ~npages
    | Config.Shared_map -> Vmem.map_shared t.vmem ctx ~vpage ~npages
    | Config.Keep_resident ->
        (* free_block never creates Empty persistent superblocks here *)
        assert false);
    t.stats.sb_remapped <- t.stats.sb_remapped + 1;
    notify_range t ~base ~npages Range_remapped;
    emit_transition t ctx d "remapped";
    Desc_list.push t.persistent_pool ctx d
  end
  else begin
    Vmem.unmap t.vmem ctx ~vpage ~npages;
    d.Descriptor.sb_start <- 0;
    t.stats.sb_released <- t.stats.sb_released + 1;
    notify_range t ~base ~npages Range_released;
    emit_transition t ctx d "released";
    Desc_list.push t.generic_pool ctx d
  end

let release_superblock t ctx d =
  let p = Engine.Mem.profile ctx in
  if Profile.enabled p then begin
    let tid = (Engine.Mem.tid ctx) in
    Profile.enter p ~tid ~now:(Engine.Mem.now ctx) Profile.Alloc_superblock;
    match release_superblock_raw t ctx d with
    | () -> Profile.leave p ~tid ~now:(Engine.Mem.now ctx)
    | exception e ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        raise e
  end
  else release_superblock_raw t ctx d

(* --- block free (anchor state machine, Fig. 2) --------------------------- *)

let rec free_block t ctx (d : Descriptor.t) addr =
  let idx = Descriptor.block_index d addr in
  let a = Descriptor.read_anchor ctx d in
  let state = Descriptor.state_of a in
  (* Thread the block onto the free list: its first word stores the index
     of the previous head.  Writing before the CAS is safe: the block is
     not visible to any allocator until the CAS succeeds, and optimistic
     readers ignore what they read here (the paper's §3.1 contract). *)
  Vmem.store t.vmem ctx addr (Descriptor.avail_of a);
  let new_count = Descriptor.count_of a + 1 in
  assert (new_count <= d.Descriptor.max_count);
  assert (state <> Descriptor.Empty);
  let keep_resident =
    d.Descriptor.persistent && t.cfg.Config.remap = Config.Keep_resident
  in
  let becomes_empty = new_count = d.Descriptor.max_count && not keep_resident in
  let new_state =
    if becomes_empty then Descriptor.Empty else Descriptor.Partial
  in
  let desired =
    Descriptor.make_anchor ~state:new_state ~avail:idx ~count:new_count
      ~tag:(Descriptor.tag_of a + 1)
  in
  if Descriptor.cas_anchor ctx d ~expect:a ~desired then begin
    if new_state <> state then
      emit_transition t ctx d (Descriptor.state_name new_state);
    if becomes_empty then
      (* If the descriptor is currently linked in its partial list the
         release is deferred to the popper; an unlinked descriptor can only
         become Empty through the popper itself (see take_partial), so
         releasing here is correct exactly when it was never re-linked,
         i.e. when the previous state was Full. *)
      (if state = Descriptor.Full then release_superblock t ctx d)
    else if state = Descriptor.Full then
      Desc_list.push
        (partial_list t ~cls:d.Descriptor.size_class
           ~persistent:d.Descriptor.persistent)
        ctx d
  end
  else begin
    Engine.Mem.pause ctx;
    free_block t ctx d addr
  end

(* --- partial reservation -------------------------------------------------- *)

(* Follow free-list links from block index [idx], writing the addresses of
   blocks [i, n) to [out]; returns the index past the last one, or -1 when
   a link read mid-race is out of range. *)
let rec walk t ctx (d : Descriptor.t) out i n idx =
  if idx < 0 || idx >= d.Descriptor.max_count then -1
  else if i = n then idx
  else begin
    let addr = Descriptor.block_addr d idx in
    out.(i) <- addr;
    walk t ctx d out (i + 1) n (Vmem.load t.vmem ctx addr)
  end

(* Pop a partial superblock of [cls] and reserve up to [max_blocks] of its
   free blocks: walk that many free-list links from the observed head, then
   CAS the anchor past them.  A concurrent free or reservation changes the
   anchor tag and fails the CAS, in which case the walk is redone — the
   links themselves are stable while the anchor still matches, because a
   block's link is only rewritten once the block has been taken through an
   anchor transition.  Writes the reserved block addresses (head first) to
   [out] and returns how many; 0 when no partial superblock is left.
   Empty superblocks encountered here are released on the spot. *)
let rec take_partial t ctx ~cls ~persistent ~max_blocks ~out =
  let list = partial_list t ~cls ~persistent in
  match Desc_list.pop list ctx with
  | -1 -> 0
  | id -> reserve t ctx list (get_desc t id) ~cls ~persistent ~max_blocks ~out

and reserve t ctx list d ~cls ~persistent ~max_blocks ~out =
  let a = Descriptor.read_anchor ctx d in
  match Descriptor.state_of a with
  | Descriptor.Empty ->
      release_superblock t ctx d;
      take_partial t ctx ~cls ~persistent ~max_blocks ~out
  | Descriptor.Full ->
      (* lost every block to races before we got here; drop it, it will be
         re-pushed on the next Full->Partial transition *)
      take_partial t ctx ~cls ~persistent ~max_blocks ~out
  | Descriptor.Partial ->
      let count = Descriptor.count_of a in
      assert (count > 0);
      let k = min count max_blocks in
      (* Collect k blocks and the link past the last one.  A racing owner
         may rewrite a link we read (making it garbage); any such race also
         bumps the anchor tag, so the CAS below fails and we retry — the
         range check merely keeps the stale walk from crashing. *)
      let next_avail =
        if k = count then begin
          (* taking everything: the trailing link is irrelevant *)
          let last = walk t ctx d out 0 (k - 1) (Descriptor.avail_of a) in
          if last < 0 then -1
          else begin
            out.(k - 1) <- Descriptor.block_addr d last;
            0
          end
        end
        else walk t ctx d out 0 k (Descriptor.avail_of a)
      in
      if next_avail < 0 then begin
        Engine.Mem.pause ctx;
        reserve t ctx list d ~cls ~persistent ~max_blocks ~out
      end
      else begin
        let tag = Descriptor.tag_of a + 1 in
        let desired =
          if k = count then
            Descriptor.make_anchor ~state:Descriptor.Full ~avail:0 ~count:0
              ~tag
          else
            Descriptor.make_anchor ~state:Descriptor.Partial
              ~avail:next_avail ~count:(count - k) ~tag
        in
        if Descriptor.cas_anchor ctx d ~expect:a ~desired then begin
          (* still partial: make it findable again *)
          if k < count then Desc_list.push list ctx d;
          k
        end
        else begin
          Engine.Mem.pause ctx;
          reserve t ctx list d ~cls ~persistent ~max_blocks ~out
        end
      end

(* Release every Empty superblock still sitting in the partial lists.
   Used at teardown and by the memory-release experiments. *)
let trim t ctx =
  Array.iter
    (fun list ->
      let rec drain keep =
        match Desc_list.pop list ctx with
        | -1 -> keep
        | id -> (
            let d = get_desc t id in
            match Descriptor.state_of (Descriptor.read_anchor ctx d) with
            | Descriptor.Empty ->
                release_superblock t ctx d;
                drain keep
            | Descriptor.Full | Descriptor.Partial -> drain (d :: keep))
      in
      let keep = drain [] in
      List.iter (fun d -> Desc_list.push list ctx d) keep)
    t.partial

(* --- large allocations (§4) ----------------------------------------------- *)

let alloc_large t ctx size =
  let pw = Geometry.page_words t.geom in
  let npages = (size + pw - 1) / pw in
  let d =
    match Desc_list.pop t.generic_pool ctx with
    | -1 -> new_descriptor t
    | id -> get_desc t id
  in
  attach_fresh_range t ctx d npages;
  d.Descriptor.size_class <- -1;
  d.Descriptor.block_words <- size;
  d.Descriptor.max_count <- 1;
  d.Descriptor.persistent <- false;
  Pagemap.set_range t.pagemap ctx
    ~vpage:(Geometry.page_of_addr t.geom d.Descriptor.sb_start)
    ~npages ~desc_id:d.Descriptor.id;
  let tag = Descriptor.tag_of (Descriptor.peek_word d) + 1 in
  Cell.set ctx d.Descriptor.anchor
    (Descriptor.make_anchor ~state:Descriptor.Full ~avail:0 ~count:0 ~tag);
  t.stats.large_allocs <- t.stats.large_allocs + 1;
  d.Descriptor.sb_start

let free_large t ctx (d : Descriptor.t) =
  let base = d.Descriptor.sb_start in
  let vpage = Geometry.page_of_addr t.geom base in
  Pagemap.clear_range t.pagemap ctx ~vpage ~npages:d.Descriptor.pages;
  Vmem.unmap t.vmem ctx ~vpage ~npages:d.Descriptor.pages;
  notify_range t ~base ~npages:d.Descriptor.pages Range_released;
  d.Descriptor.sb_start <- 0;
  let tag = Descriptor.tag_of (Descriptor.peek_word d) + 1 in
  Cell.set ctx d.Descriptor.anchor
    (Descriptor.make_anchor ~state:Descriptor.Empty ~avail:0 ~count:0 ~tag);
  t.stats.large_frees <- t.stats.large_frees + 1;
  Desc_list.push t.generic_pool ctx d

(* --- lookups -------------------------------------------------------------- *)

let lookup_desc t ctx addr =
  match Pagemap.lookup t.pagemap ctx addr with
  | -1 -> raise Not_found
  | id -> get_desc t id

let stats t = t.stats

let reset_stats t =
  let s = t.stats in
  s.sb_fresh <- 0;
  s.sb_range_reused <- 0;
  s.sb_released <- 0;
  s.sb_remapped <- 0;
  s.large_allocs <- 0;
  s.large_frees <- 0;
  s.pressure_recoveries <- 0;
  s.pressure_failures <- 0

let vmem t = t.vmem
let classes t = t.classes
let config t = t.cfg
let pagemap t = t.pagemap
let persistent_pool_size t = List.length (Desc_list.peek_ids t.persistent_pool)
let generic_pool_size t = List.length (Desc_list.peek_ids t.generic_pool)
