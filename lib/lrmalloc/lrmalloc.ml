(* LRMalloc public interface: malloc / free / palloc (paper §2.3 + §3).

   [palloc] is the paper's contribution: it allocates exactly like [malloc]
   but marks the superblock persistent, guaranteeing the block's address
   range stays readable for the rest of the process lifetime even after the
   block is freed — precisely the contract the optimistic-access reclaimers
   need.  Persistent allocation is restricted to size-class sizes (§4).

   Persistent and regular blocks never share a superblock (a palloc'd block
   must come from a persistent superblock even when served from a cache), so
   thread caches and partial lists are keyed by (class, persistence).  Freed
   persistent blocks are reusable by *any* thread and any future [palloc] of
   that class — the cross-process-part reuse the paper gains over the
   original OA recycling pools. *)

open Oamem_engine
open Oamem_vmem
module Trace = Oamem_obs.Trace
module Profile = Oamem_obs.Profile

(* Lifecycle observer (the sanitizer): block hand-out / hand-back plus
   internal-section brackets.  Allocator internals write bookkeeping words
   (free-list links) *into* blocks; [enter]/[leave] bracket those sections so
   an access observer can tell them apart from application accesses. *)
type lifecycle = {
  block_alloc : Engine.ctx -> addr:int -> words:int -> persistent:bool -> unit;
  block_free : Engine.ctx -> addr:int -> words:int -> unit;
  enter : Engine.ctx -> unit;  (** entering allocator-internal code *)
  leave : Engine.ctx -> unit;  (** leaving allocator-internal code *)
}

type t = {
  heap : Heap.t;
  caches : Thread_cache.t;
  classes : Size_class.t;
  geom : Geometry.t;
  fill_bufs : int array array;
      (* per tid: the blocks of the cache fill in progress.  Per thread,
         because a fill yields between reserving its blocks and pushing
         them, and another thread may fill meanwhile. *)
  mutable lifecycle : lifecycle option;
}

let create ?(cfg = Config.default) ?(classes = Size_class.default) ~vmem ~meta
    ~nthreads () =
  let geom = Vmem.geometry vmem in
  let heap = Heap.create ~cfg ~classes ~vmem ~meta () in
  let caches = Thread_cache.create ~meta ~geom ~classes ~cfg ~nthreads in
  let fill_bufs =
    Array.init nthreads (fun _ -> Array.make cfg.Config.cache_blocks 0)
  in
  { heap; caches; classes; geom; fill_bufs; lifecycle = None }

let heap t = t.heap
let vmem t = Heap.vmem t.heap
let config t = Heap.config t.heap
let set_lifecycle t h = t.lifecycle <- h

(* The two wrappers below take their work as a closed top-level function
   [f] applied to [t ctx a b], so wrapping it builds no closure per call. *)

(* Run [f t ctx a b] under a profiler span.  The enabled check comes first
   so the disabled path costs one load and a branch. *)
let spanned frame f t ctx a b =
  let p = Engine.Mem.profile ctx in
  if not (Profile.enabled p) then f t ctx a b
  else begin
    let tid = Engine.Mem.tid ctx in
    Profile.enter p ~tid ~now:(Engine.Mem.now ctx) frame;
    match f t ctx a b with
    | r ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        r
    | exception e ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        raise e
  end

let leave_internal t ctx =
  (match t.lifecycle with None -> () | Some h -> h.leave ctx);
  Engine.Mem.leave_unconditional ctx

(* Run [f t ctx a b] as an allocator-internal section: exempt from
   conditional-access squashing (the allocator is trusted runtime code,
   not part of any scheme's optimistic protocol — a revoked thread must
   still be able to flush its cache or walk superblock anchors without its
   CASes failing forever), and flagged for the lifecycle observer when one
   is attached. *)
let internal f t ctx a b =
  Engine.Mem.enter_unconditional ctx;
  (match t.lifecycle with None -> () | Some h -> h.enter ctx);
  match f t ctx a b with
  | r ->
      leave_internal t ctx;
      r
  | exception e ->
      leave_internal t ctx;
      raise e

(* Fill an empty cache stack with one batch of blocks: from a partial
   superblock's free list if one exists, otherwise from a fresh superblock.
   Blocks are pushed in reverse so they pop in the order the heap returned
   them (ascending addresses for a fresh superblock — good locality). *)
let fill_cache t ctx ~cls ~persistent st =
  let out = t.fill_bufs.(Engine.Mem.tid ctx) in
  let max_blocks = Heap.fill_batch t.heap cls in
  let n =
    match Heap.take_partial t.heap ctx ~cls ~persistent ~max_blocks ~out with
    | 0 -> Heap.acquire_superblock t.heap ctx ~cls ~persistent ~out
    | n -> n
  in
  for i = n - 1 downto 0 do
    Thread_cache.push t.caches ctx st out.(i)
  done

let alloc_class_raw t ctx cls persistent =
  let st = Thread_cache.get t.caches ~tid:(Engine.Mem.tid ctx) ~cls ~persistent in
  if Thread_cache.is_empty st then fill_cache t ctx ~cls ~persistent st;
  Thread_cache.pop t.caches ctx st

let alloc_large_raw t ctx size () = Heap.alloc_large t.heap ctx size

let flush_stack t ctx st () =
  while not (Thread_cache.is_empty st) do
    let addr = Thread_cache.pop t.caches ctx st in
    Heap.free_block t.heap ctx (Heap.lookup_desc t.heap ctx addr) addr
  done

let flush_stacks t ctx () () =
  List.iter
    (fun st -> flush_stack t ctx st ())
    (Thread_cache.stacks_of_thread t.caches ~tid:(Engine.Mem.tid ctx))

let flush_spanned t ctx () () = internal flush_stacks t ctx () ()

(* Return every cached block of thread [tid] to the heap. *)
let flush_thread_cache t ctx =
  spanned Profile.Alloc_flush flush_spanned t ctx () ()

(* --- memory-pressure recovery --------------------------------------------- *)

exception Out_of_memory

(* When the frame pool runs dry, the allocator holds two kinds of hoarded
   memory it can give back: the calling thread's cached blocks, and empty
   persistent superblocks whose frames the configured remap strategy can
   release.  Flush both and retry.  The quota is lifted by a small reserve
   while recovery runs, because returning a cached block writes a free-list
   link into the block — which can itself fault a frame in on a page the
   original carve never touched.  Kernels solve the same bootstrapping
   problem with a reclaim reserve. *)
let recover_pressure t ctx =
  let frames = Vmem.frames (Heap.vmem t.heap) in
  let cfg = Heap.config t.heap in
  let saved = Frames.quota frames in
  Fun.protect
    ~finally:(fun () -> Frames.set_quota frames saved)
    (fun () ->
      Option.iter
        (fun q ->
          Frames.set_quota frames (Some (q + cfg.Config.pressure_reserve_frames)))
        saved;
      flush_thread_cache t ctx;
      Engine.Mem.unconditional ctx (fun () -> Heap.trim t.heap ctx));
  let hs = Heap.stats t.heap in
  hs.Heap.pressure_recoveries <- hs.Heap.pressure_recoveries + 1

(* The recovery round after attempt number [attempt] ran out of frames:
   recover and back off (giving other threads simulated time to free
   blocks) before the caller retries, or raise [Out_of_memory] once the
   retries are spent or recovery itself runs out of frames. *)
let relieve_pressure t ctx ~attempt =
  let fail () =
    let hs = Heap.stats t.heap in
    hs.Heap.pressure_failures <- hs.Heap.pressure_failures + 1;
    raise Out_of_memory
  in
  if attempt >= (Heap.config t.heap).Config.pressure_max_retries then fail ();
  match recover_pressure t ctx with
  | () ->
      for _ = 1 to 1 lsl attempt do
        Engine.Mem.pause ctx
      done
  | exception Frames.Out_of_frames -> fail ()

(* Run [f t ctx a b] (closed, like the wrappers above) under the recovery
   net: on [Frames.Out_of_frames], relieve the pressure and rerun it. *)
let rec recovering f t ctx a b ~attempt =
  match f t ctx a b with
  | r -> r
  | exception Frames.Out_of_frames ->
      relieve_pressure t ctx ~attempt;
      recovering f t ctx a b ~attempt:(attempt + 1)

let with_pressure_recovery t ctx f =
  recovering (fun _ _ f () -> f ()) t ctx f () ~attempt:0

(* The observer is told the block's *real* extent (the size-class block
   size, not the requested size) so its shadow state covers every word the
   block owns. *)
let notify_alloc t ctx ~addr ~size ~persistent =
  match t.lifecycle with
  | None -> ()
  | Some h ->
      let cls = Size_class.of_size t.classes size in
      let words = if cls >= 0 then Size_class.block_words t.classes cls else size in
      h.block_alloc ctx ~addr ~words ~persistent

(* [palloc] rejects large sizes before getting here. *)
let alloc_internal t ctx size persistent =
  let cls = Size_class.of_size t.classes size in
  if cls >= 0 then recovering alloc_class_raw t ctx cls persistent ~attempt:0
  else recovering alloc_large_raw t ctx size () ~attempt:0

let alloc_spanned t ctx size persistent =
  let addr = internal alloc_internal t ctx size persistent in
  notify_alloc t ctx ~addr ~size ~persistent;
  let tr = Heap.trace t.heap in
  if Trace.enabled tr then
    Trace.emit tr ~tid:(Engine.Mem.tid ctx) ~at:(Engine.Mem.now ctx)
      (Trace.Alloc { addr; words = size });
  addr

let malloc t ctx size = spanned Profile.Alloc_malloc alloc_spanned t ctx size false

(* Persistent allocation: the block's address range survives free (§3). *)
let palloc t ctx size =
  if Size_class.of_size t.classes size < 0 then
    invalid_arg
      "Lrmalloc.palloc: persistent allocation is restricted to size-class \
       sizes (paper, section 4)";
  spanned Profile.Alloc_malloc alloc_spanned t ctx size true

let free_internal t ctx (d : Descriptor.t) addr =
  if Descriptor.is_large d then Heap.free_large t.heap ctx d
  else begin
    let st =
      Thread_cache.get t.caches ~tid:(Engine.Mem.tid ctx)
        ~cls:d.Descriptor.size_class ~persistent:d.Descriptor.persistent
    in
    (* a full-cache flush writes free-list links, which can fault frames
       in: it runs under the recovery net too *)
    if Thread_cache.is_full st then recovering flush_stack t ctx st () ~attempt:0;
    Thread_cache.push t.caches ctx st addr
  end

let free_spanned t ctx addr () =
  match Heap.lookup_desc t.heap ctx addr with
  | exception Not_found -> invalid_arg "Lrmalloc.free: not an allocated block"
  | d ->
      (match t.lifecycle with
      | None -> ()
      | Some h -> h.block_free ctx ~addr ~words:d.Descriptor.block_words);
      let tr = Heap.trace t.heap in
      if Trace.enabled tr then
        Trace.emit tr ~tid:(Engine.Mem.tid ctx) ~at:(Engine.Mem.now ctx)
          (Trace.Free { addr });
      internal free_internal t ctx d addr

let free t ctx addr = spanned Profile.Alloc_free free_spanned t ctx addr ()

(* Teardown helper: flush all threads' caches (with their own tids encoded
   in the given contexts) and release lingering empty superblocks. *)
let flush_all t ctxs =
  List.iter (fun ctx -> flush_thread_cache t ctx) ctxs;
  match ctxs with
  | [] -> ()
  | ctx :: _ -> Engine.Mem.unconditional ctx (fun () -> Heap.trim t.heap ctx)

let stats t = Heap.stats t.heap
