(* The simulated virtual-memory system (§2.1 and §3.2 of the paper).

   An address space maps virtual pages onto simulated physical frames with
   the same state machine modern kernels use for anonymous memory:

   - [map_anon] makes a range valid by pointing every page at the pinned
     copy-on-write zero frame; no physical memory is consumed.
   - The first *write* to such a page faults in a private zero-filled frame
     (charged as a minor fault).  Reads never fault: they read zeroes.
   - [madvise_dontneed] releases the private frames of a range and reverts it
     to the copy-on-write zero state — the paper's first remapping method.
   - [map_shared] points a range at a small shared region (default one
     frame), releasing private frames while keeping the range readable *and*
     writable into the shared frame — the paper's second remapping method.
     Chunked mappings model the syscalls-per-superblock trade-off of §3.2.
   - [unmap] invalidates the range; later access raises {!Segfault}, the
     simulated equivalent of the crash a real OA implementation would suffer
     if freed memory were returned to the operating system.

   A compare-and-swap on a copy-on-write page *faults a frame in even though
   the CAS then fails* — exactly the behaviour footnote 2 of the paper
   blames for memory leakage when VBR-style DWCAS hits reclaimed memory
   under the madvise method.

   Two resident-set metrics are exposed: [resident_pages] counts pages backed
   by a private frame (the truth), while [linux_rss_pages] also counts every
   page of a shared mapping (the "statistics go haywire" effect of §3.2). *)

open Oamem_engine
module Trace = Oamem_obs.Trace
module Profile = Oamem_obs.Profile

exception Segfault of int
exception Address_space_exhausted

type t = {
  geom : Geometry.t;
  frames : Frames.t;
  pt : Page_table.t;
  mutable reserve_next : int;  (* next unreserved vpage *)
  shared_region : int array;  (* frames backing the shared remap region *)
  mutable minor_faults : int;
  mutable cow_cas_faults : int;  (* faults triggered by CAS on a cow page *)
  mutable trace : Trace.t;
  mutable access_hook :
    (Engine.ctx -> addr:int -> kind:Engine.access_kind -> unit) option;
      (* observer for the costed word accesses (lifecycle sanitizer) *)
  (* Per-thread last-translation cache, keyed on the page-table epoch: a
     cached entry is valid iff no page-table entry has changed since it was
     filled, so mapping calls and fault-in races invalidate it for free.
     The epoch is compared on EVERY lookup, not once per scheduling slice:
     a thread holding an engine leader tenure runs many accesses without a
     context switch, and may itself unmap/remap a page mid-tenure — the
     per-access epoch check makes that self-remap (and any remap a drained
     peer performs while the holder is parked) visible on the very next
     access, with no tenure-boundary hook needed here.
     [tc_fw] is -1 for a copy-on-write page: reads are served from the
     cached zero frame but writes must take the fault-in slow path. *)
  mutable tc_enabled : bool;
  mutable tc_page : int array;  (* tid -> cached vpage, -1 empty *)
  mutable tc_fr : int array;  (* tid -> frame for reads *)
  mutable tc_fw : int array;  (* tid -> frame for writes, -1 = fault *)
  mutable tc_epoch : int array;  (* tid -> page-table epoch at fill *)
  mutable tc_hits : int;
  mutable tc_fills : int;
  (* Memoized residency census: the page-table scan behind the resident /
     rss / mapped / cow metrics, re-run only when the epoch moved. *)
  mutable census_epoch : int;  (* -1 = never scanned *)
  mutable census_resident : int;
  mutable census_rss : int;
  mutable census_mapped : int;
  mutable census_cow : int;
}

let create ?(max_pages = 1 lsl 20) ?frame_capacity ?frame_quota
    ?(shared_region_pages = 1) geom =
  if shared_region_pages <= 0 then invalid_arg "Vmem.create: shared region";
  let frames = Frames.create ?capacity:frame_capacity ?quota:frame_quota geom in
  let shared_region = Array.init shared_region_pages (fun _ -> Frames.alloc frames) in
  {
    geom;
    frames;
    pt = Page_table.create ~max_pages;
    (* Page 0 is never handed out so that address 0 can serve as a null
       pointer and stray small integers fault. *)
    reserve_next = 1;
    shared_region;
    minor_faults = 0;
    cow_cas_faults = 0;
    trace = Trace.null;
    access_hook = None;
    tc_enabled = true;
    tc_page = [||];
    tc_fr = [||];
    tc_fw = [||];
    tc_epoch = [||];
    tc_hits = 0;
    tc_fills = 0;
    census_epoch = -1;
    census_resident = 0;
    census_rss = 0;
    census_mapped = 0;
    census_cow = 0;
  }

let geometry t = t.geom
let page_table t = t.pt
let frames t = t.frames
let set_frame_quota t quota = Frames.set_quota t.frames quota
let shared_region_pages t = Array.length t.shared_region
let set_trace t tr = t.trace <- tr
let set_access_hook t h = t.access_hook <- h

(* Called on entry of every costed word access, before address translation,
   so the observer sees accesses to unmapped pages before {!Segfault} fires. *)
let observe_access t ctx addr kind =
  match t.access_hook with None -> () | Some f -> f ctx ~addr ~kind

let emit t ctx kind =
  if Trace.enabled t.trace then
    Trace.emit t.trace ~tid:(Engine.Mem.tid ctx) ~at:(Engine.Mem.now ctx) kind

(* --- translation cache --------------------------------------------------- *)

let set_translation_cache t on = t.tc_enabled <- on
let translation_cache t = t.tc_enabled
let tc_hits t = t.tc_hits
let tc_fills t = t.tc_fills

let flush_translation_cache t =
  Array.fill t.tc_page 0 (Array.length t.tc_page) (-1)

let tc_grow t tid =
  let old = Array.length t.tc_page in
  let len = max (tid + 1) (max 8 (2 * old)) in
  let extend a fillv =
    let b = Array.make len fillv in
    Array.blit a 0 b 0 old;
    b
  in
  t.tc_page <- extend t.tc_page (-1);
  t.tc_fr <- extend t.tc_fr (-1);
  t.tc_fw <- extend t.tc_fw (-1);
  t.tc_epoch <- extend t.tc_epoch (-1)

(* [epoch] must be read BEFORE the page-table entry was resolved: a fault-in
   yields inside the Minor_fault event, so other threads may remap the page
   before the fill happens — capturing the pre-resolution epoch makes any
   such fill (and any fresh fault-in, which itself bumps the epoch) stale on
   arrival rather than poisoning later accesses. *)
let[@inline] tc_fill t tid ~epoch ~vpage ~fr ~fw =
  if t.tc_enabled && tid >= 0 then begin
    if tid >= Array.length t.tc_page then tc_grow t tid;
    Array.unsafe_set t.tc_page tid vpage;
    Array.unsafe_set t.tc_fr tid fr;
    Array.unsafe_set t.tc_fw tid fw;
    Array.unsafe_set t.tc_epoch tid epoch;
    t.tc_fills <- t.tc_fills + 1
  end

(* Cached read (write) frame for [vpage], or -1 on a miss.  A hit means the
   page-table entry is unchanged since the fill, so the frame is still the
   page's backing frame and — for writes — the page needs no fault-in. *)
let[@inline] tc_lookup t tid vpage frames_of =
  if
    t.tc_enabled && tid >= 0
    && tid < Array.length t.tc_page
    && Array.unsafe_get t.tc_page tid = vpage
    && Array.unsafe_get t.tc_epoch tid = Page_table.epoch t.pt
  then Array.unsafe_get frames_of tid
  else -1

(* --- mapping calls ------------------------------------------------------- *)

let check_range t ~vpage ~npages =
  if npages <= 0 || vpage < 1 || vpage + npages > Page_table.max_pages t.pt
  then invalid_arg "Vmem: bad page range"

let reserve t ~npages =
  if npages <= 0 then invalid_arg "Vmem.reserve";
  let vpage = t.reserve_next in
  if vpage + npages > Page_table.max_pages t.pt then
    raise Address_space_exhausted;
  t.reserve_next <- vpage + npages;
  Geometry.addr_of_page t.geom vpage

(* Returns the number of frames given back (0 or 1) so mapping calls can
   report how much physical memory each syscall released. *)
let release_frame_of_entry t = function
  | Page_table.Frame f ->
      Frames.free t.frames f;
      1
  | Page_table.Unmapped | Page_table.Cow_zero | Page_table.Shared _ -> 0

let note_released t ctx released =
  if released > 0 then emit t ctx (Trace.Frames_released { count = released })

let map_anon t ctx ~vpage ~npages =
  check_range t ~vpage ~npages;
  Engine.Mem.event ctx Engine.Syscall;
  let released = ref 0 in
  for p = vpage to vpage + npages - 1 do
    released := !released + release_frame_of_entry t (Page_table.get t.pt p);
    Page_table.set t.pt p Page_table.Cow_zero;
    Engine.Mem.tlb_shootdown ctx p
  done;
  note_released t ctx !released

let unmap t ctx ~vpage ~npages =
  check_range t ~vpage ~npages;
  Engine.Mem.event ctx Engine.Syscall;
  let released = ref 0 in
  for p = vpage to vpage + npages - 1 do
    released := !released + release_frame_of_entry t (Page_table.get t.pt p);
    Page_table.set t.pt p Page_table.Unmapped;
    Engine.Mem.tlb_shootdown ctx p
  done;
  note_released t ctx !released

(* Run a remapping primitive under a profiler span.  The disabled path must
   stay allocation-free, hence the eta-expanded wrappers below rather than a
   closure-taking combinator. *)
let spanned frame f t ctx ~vpage ~npages =
  let p = Engine.Mem.profile ctx in
  if Profile.enabled p then begin
    let tid = (Engine.Mem.tid ctx) in
    Profile.enter p ~tid ~now:(Engine.Mem.now ctx) frame;
    match f t ctx ~vpage ~npages with
    | r ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        r
    | exception e ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        raise e
  end
  else f t ctx ~vpage ~npages

let madvise_dontneed_raw t ctx ~vpage ~npages =
  check_range t ~vpage ~npages;
  Engine.Mem.event ctx Engine.Syscall;
  let released = ref 0 in
  for p = vpage to vpage + npages - 1 do
    (match Page_table.get t.pt p with
    | Page_table.Unmapped -> raise (Segfault (Geometry.addr_of_page t.geom p))
    | e ->
        released := !released + release_frame_of_entry t e;
        Page_table.set t.pt p Page_table.Cow_zero);
    Engine.Mem.tlb_shootdown ctx p
  done;
  note_released t ctx !released

let madvise_dontneed t ctx ~vpage ~npages =
  spanned Profile.Vmem_remap madvise_dontneed_raw t ctx ~vpage ~npages

(* Map [npages] onto the shared region, page i to region page (i mod S).
   One syscall per chunk of S pages, as in §3.2. *)
let map_shared_raw t ctx ~vpage ~npages =
  check_range t ~vpage ~npages;
  let s = Array.length t.shared_region in
  let chunks = (npages + s - 1) / s in
  for _ = 1 to chunks do
    Engine.Mem.event ctx Engine.Syscall
  done;
  let released = ref 0 in
  for i = 0 to npages - 1 do
    let p = vpage + i in
    released := !released + release_frame_of_entry t (Page_table.get t.pt p);
    Page_table.set t.pt p (Page_table.Shared t.shared_region.(i mod s));
    Engine.Mem.tlb_shootdown ctx p
  done;
  note_released t ctx !released

let map_shared t ctx ~vpage ~npages =
  spanned Profile.Vmem_remap map_shared_raw t ctx ~vpage ~npages

(* mmap(MAP_FIXED | MAP_PRIVATE | MAP_ANON) over an existing range: one
   syscall regardless of size.  Used to take a superblock back from the
   shared region. *)
let remap_private_raw t ctx ~vpage ~npages =
  check_range t ~vpage ~npages;
  Engine.Mem.event ctx Engine.Syscall;
  let released = ref 0 in
  for p = vpage to vpage + npages - 1 do
    released := !released + release_frame_of_entry t (Page_table.get t.pt p);
    Page_table.set t.pt p Page_table.Cow_zero;
    Engine.Mem.tlb_shootdown ctx p
  done;
  note_released t ctx !released

let remap_private t ctx ~vpage ~npages =
  spanned Profile.Vmem_remap remap_private_raw t ctx ~vpage ~npages

(* --- word accesses ------------------------------------------------------- *)

let split t addr =
  (Geometry.page_of_addr t.geom addr, Geometry.offset_in_page t.geom addr)

(* Frame to read from; never faults. *)
let frame_for_read t addr vpage =
  let f = Page_table.frame_of t.pt vpage in
  if f >= 0 then f
  else if f = Page_table.cow then Frames.zero_frame
  else raise (Segfault addr)

(* Frame to write to, faulting in a private frame on a cow page. *)
let rec frame_for_write t ctx addr vpage =
  let f = Page_table.frame_of t.pt vpage in
  if f >= 0 then f
  else if f = Page_table.unmapped then raise (Segfault addr)
  else begin
    let f = Frames.alloc t.frames in
    if
      Page_table.cas t.pt vpage ~expect:Page_table.Cow_zero
        ~desired:(Page_table.Frame f)
    then begin
      t.minor_faults <- t.minor_faults + 1;
      let p = Engine.Mem.profile ctx in
      if Profile.enabled p then begin
        let tid = (Engine.Mem.tid ctx) in
        Profile.enter p ~tid ~now:(Engine.Mem.now ctx) Profile.Vmem_fault_in;
        Engine.Mem.event ctx Engine.Minor_fault;
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx)
      end
      else Engine.Mem.event ctx Engine.Minor_fault;
      if Trace.enabled t.trace then emit t ctx (Trace.Fault_in { vpage });
      f
    end
    else begin
      (* Lost a fault-in race; retry against the new entry. *)
      Frames.free t.frames f;
      frame_for_write t ctx addr vpage
    end
  end

(* Resolved read frame for [vpage], consulting the translation cache.  On a
   miss the cache is refilled from the page-table entry; [fw] is the frame
   writes may use without a fault (-1 for copy-on-write pages). *)
let[@inline] read_frame t tid addr vpage =
  let f = tc_lookup t tid vpage t.tc_fr in
  if f >= 0 then begin
    t.tc_hits <- t.tc_hits + 1;
    f
  end
  else begin
    let epoch = Page_table.epoch t.pt in
    let f = Page_table.frame_of t.pt vpage in
    if f >= 0 then begin
      tc_fill t tid ~epoch ~vpage ~fr:f ~fw:f;
      f
    end
    else if f = Page_table.cow then begin
      tc_fill t tid ~epoch ~vpage ~fr:Frames.zero_frame ~fw:(-1);
      Frames.zero_frame
    end
    else raise (Segfault addr)
  end

(* Resolved write frame.  A cache hit with [fw >= 0] proves the entry was
   Frame/Shared at the current epoch: no fault-in, no cow-CAS accounting.
   Everything else goes through [frame_for_write] (which bumps the epoch if
   it faults a frame in) and refills the cache afterwards, when the entry is
   guaranteed private or shared. *)
let[@inline] write_frame t ctx tid addr vpage =
  let f = tc_lookup t tid vpage t.tc_fw in
  if f >= 0 then begin
    t.tc_hits <- t.tc_hits + 1;
    f
  end
  else begin
    let epoch = Page_table.epoch t.pt in
    let f = frame_for_write t ctx addr vpage in
    tc_fill t tid ~epoch ~vpage ~fr:f ~fw:f;
    f
  end

(* As [write_frame], but counts a cow-CAS fault first: the MMU cannot know
   the CAS will fail, so a cow page faults a frame in regardless (§3.2,
   footnote 2).  A cache hit implies the page is not cow, so the counter is
   only consulted on the slow path. *)
let[@inline] rmw_frame t ctx tid addr vpage =
  let f = tc_lookup t tid vpage t.tc_fw in
  if f >= 0 then begin
    t.tc_hits <- t.tc_hits + 1;
    f
  end
  else begin
    let epoch = Page_table.epoch t.pt in
    if Page_table.frame_of t.pt vpage = Page_table.cow then
      t.cow_cas_faults <- t.cow_cas_faults + 1;
    let f = frame_for_write t ctx addr vpage in
    tc_fill t tid ~epoch ~vpage ~fr:f ~fw:f;
    f
  end

let load t ctx addr =
  observe_access t ctx addr Engine.Load;
  let vpage = Geometry.page_of_addr t.geom addr in
  let off = Geometry.offset_in_page t.geom addr in
  let f = read_frame t (Engine.Mem.tid ctx) addr vpage in
  Engine.Mem.access ctx ~vpage ~paddr:(Frames.paddr t.frames ~frame:f ~off)
    ~kind:Engine.Load;
  Atomic.get (Frames.word t.frames ~frame:f ~off)

let store t ctx addr v =
  observe_access t ctx addr Engine.Store;
  let vpage = Geometry.page_of_addr t.geom addr in
  let off = Geometry.offset_in_page t.geom addr in
  let f = write_frame t ctx (Engine.Mem.tid ctx) addr vpage in
  Engine.Mem.access ctx ~vpage ~paddr:(Frames.paddr t.frames ~frame:f ~off)
    ~kind:Engine.Store;
  (* Squashed under a revoked accessible flag (IMR): charged but dropped. *)
  if not (Engine.Mem.squashed ctx) then
    Atomic.set (Frames.word t.frames ~frame:f ~off) v

let cas t ctx addr ~expect ~desired =
  observe_access t ctx addr Engine.Rmw;
  let vpage = Geometry.page_of_addr t.geom addr in
  let off = Geometry.offset_in_page t.geom addr in
  let f = rmw_frame t ctx (Engine.Mem.tid ctx) addr vpage in
  Engine.Mem.access ctx ~vpage ~paddr:(Frames.paddr t.frames ~frame:f ~off)
    ~kind:Engine.Rmw;
  if Engine.Mem.squashed ctx then begin
    Engine.Mem.note_cas_failure ctx ~addr;
    false
  end
  else begin
    let ok =
      Atomic.compare_and_set (Frames.word t.frames ~frame:f ~off) expect
        desired
    in
    if not ok then Engine.Mem.note_cas_failure ctx ~addr;
    ok
  end

let fetch_and_add t ctx addr d =
  observe_access t ctx addr Engine.Rmw;
  let vpage = Geometry.page_of_addr t.geom addr in
  let off = Geometry.offset_in_page t.geom addr in
  let f = write_frame t ctx (Engine.Mem.tid ctx) addr vpage in
  Engine.Mem.access ctx ~vpage ~paddr:(Frames.paddr t.frames ~frame:f ~off)
    ~kind:Engine.Rmw;
  if Engine.Mem.squashed ctx then Atomic.get (Frames.word t.frames ~frame:f ~off)
  else Atomic.fetch_and_add (Frames.word t.frames ~frame:f ~off) d

(* Double-width CAS over two adjacent words (tagged-pointer ABA prevention,
   as used by VBR).  [addr] must be even so both words share a cache line.
   Atomic only under the simulation engine (single runner domain); real
   domains must not use it concurrently. *)
let dwcas t ctx addr ~expect0 ~expect1 ~desired0 ~desired1 =
  if addr land 1 <> 0 then invalid_arg "Vmem.dwcas: addr must be even";
  observe_access t ctx addr Engine.Rmw;
  let vpage, off = split t addr in
  let f = rmw_frame t ctx (Engine.Mem.tid ctx) addr vpage in
  Engine.Mem.access ctx ~vpage ~paddr:(Frames.paddr t.frames ~frame:f ~off)
    ~kind:Engine.Rmw;
  let w0 = Frames.word t.frames ~frame:f ~off in
  let w1 = Frames.word t.frames ~frame:f ~off:(off + 1) in
  if
    (not (Engine.Mem.squashed ctx))
    && Atomic.get w0 = expect0
    && Atomic.get w1 = expect1
  then begin
    Atomic.set w0 desired0;
    Atomic.set w1 desired1;
    true
  end
  else begin
    Engine.Mem.note_cas_failure ctx ~addr;
    false
  end

(* --- uncosted accessors (test setup and oracles) ------------------------- *)

let peek t addr =
  let vpage = Geometry.page_of_addr t.geom addr in
  let f = frame_for_read t addr vpage in
  Atomic.get
    (Frames.word t.frames ~frame:f ~off:(Geometry.offset_in_page t.geom addr))

let poke t addr v =
  let vpage, off = split t addr in
  let f = frame_for_write t (Engine.external_ctx ()) addr vpage in
  Atomic.set (Frames.word t.frames ~frame:f ~off) v

let mapped t addr =
  let vpage, _ = split t addr in
  match Page_table.get t.pt vpage with
  | Page_table.Unmapped -> false
  | Page_table.Cow_zero | Page_table.Frame _ | Page_table.Shared _ -> true

(* --- metrics ------------------------------------------------------------- *)

(* The residency metrics all derive from one page-table scan, memoized on
   the page-table epoch: a metrics snapshot reading all four costs one scan,
   and none at all if no mapping changed since the last one. *)
let census t =
  if t.census_epoch <> Page_table.epoch t.pt then begin
    let resident = ref 0 and rss = ref 0 and mapped = ref 0 and cow = ref 0 in
    for p = 0 to Page_table.max_pages t.pt - 1 do
      match Page_table.get t.pt p with
      | Page_table.Unmapped -> ()
      | Page_table.Cow_zero ->
          incr mapped;
          incr cow
      | Page_table.Frame _ ->
          incr mapped;
          incr resident;
          incr rss
      | Page_table.Shared _ ->
          incr mapped;
          incr rss
    done;
    t.census_resident <- !resident;
    t.census_rss <- !rss;
    t.census_mapped <- !mapped;
    t.census_cow <- !cow;
    t.census_epoch <- Page_table.epoch t.pt
  end

let frames_live t = Frames.live t.frames
let frames_peak t = Frames.peak t.frames
let minor_faults t = t.minor_faults
let cow_cas_faults t = t.cow_cas_faults

let resident_pages t =
  census t;
  t.census_resident

let linux_rss_pages t =
  census t;
  t.census_rss

let mapped_pages t =
  census t;
  t.census_mapped

let cow_pages t =
  census t;
  t.census_cow

(* Measurement reset: zero the monotone fault/release counters and drop
   cached translations, so the measured phase starts cold and consistent.
   Peak frame usage is deliberately kept — it is an instantaneous high-water
   mark, not a per-phase rate. *)
let reset_counters (t : t) =
  t.minor_faults <- 0;
  t.cow_cas_faults <- 0;
  t.tc_hits <- 0;
  t.tc_fills <- 0;
  flush_translation_cache t;
  Frames.reset_freed_total t.frames

let pp_residency ppf t =
  Fmt.pf ppf
    "frames=%d peak=%d resident=%dp rss=%dp mapped=%dp cow=%dp faults=%d \
     cas-faults=%d"
    (frames_live t) (frames_peak t) (resident_pages t) (linux_rss_pages t)
    (mapped_pages t) (cow_pages t) (minor_faults t) (cow_cas_faults t)
