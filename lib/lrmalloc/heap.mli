(** The LRMalloc heap: superblock management (paper §2.3, §3, §4).

    Tracks superblocks through descriptors whose packed anchors implement
    the Full/Partial/Empty state machine of Fig. 2.  Empty non-persistent
    superblocks are unmapped; empty persistent superblocks are remapped
    according to the configured strategy and their descriptors — still
    carrying their virtual range — go to the *persistent* recycling pool,
    which has priority when building new superblocks (§4). *)

open Oamem_engine
open Oamem_vmem

type stats = {
  mutable sb_fresh : int;  (** superblocks built on a fresh virtual range *)
  mutable sb_range_reused : int;  (** built on a recycled persistent range *)
  mutable sb_released : int;  (** non-persistent: unmapped *)
  mutable sb_remapped : int;  (** persistent: madvise / shared remap *)
  mutable large_allocs : int;
  mutable large_frees : int;
  mutable pressure_recoveries : int;
      (** [Out_of_frames] events recovered by cache flush + trim *)
  mutable pressure_failures : int;
      (** recoveries that ended in [Lrmalloc.Out_of_memory] *)
}

type t

type range_event =
  | Range_carved  (** a fresh or recycled range was attached to a superblock *)
  | Range_released  (** non-persistent range unmapped (or a large free) *)
  | Range_remapped
      (** persistent range remapped: frames released, range stays readable *)

val create :
  ?cfg:Config.t -> ?classes:Size_class.t -> vmem:Vmem.t -> meta:Cell.heap ->
  unit -> t

val sb_words : t -> int
val sb_pages : t -> int

val fill_batch : t -> int -> int
(** Target number of blocks per cache fill for a class. *)

val acquire_superblock :
  t -> Engine.ctx -> cls:int -> persistent:bool -> out:int array -> int
(** Build a superblock, write its first fill batch to [out] and return the
    batch size; the rest is carved into the superblock's free list and
    published as partial. *)

val take_partial :
  t ->
  Engine.ctx ->
  cls:int ->
  persistent:bool ->
  max_blocks:int ->
  out:int array ->
  int
(** Reserve up to [max_blocks] blocks from a partial superblock, writing
    their addresses to [out]; returns how many, 0 when no partial
    superblock is left.  Empty superblocks found on the way are
    released. *)

val free_block : t -> Engine.ctx -> Descriptor.t -> int -> unit
(** Return one block (the Fig. 2 anchor state machine). *)

val release_superblock : t -> Engine.ctx -> Descriptor.t -> unit
val trim : t -> Engine.ctx -> unit
(** Release every empty superblock still sitting in the partial lists. *)

val alloc_large : t -> Engine.ctx -> int -> int
val free_large : t -> Engine.ctx -> Descriptor.t -> unit

val lookup_desc : t -> Engine.ctx -> int -> Descriptor.t
(** Descriptor owning an address, via the pagemap (charged).  Raises
    [Not_found] for an address no superblock owns. *)

val get_desc : t -> int -> Descriptor.t
val descriptor_count : t -> int
val persistent_pool_size : t -> int
val generic_pool_size : t -> int

val stats : t -> stats

val reset_stats : t -> unit
(** Zero all heap counters (measurement reset). *)

val set_trace : t -> Oamem_obs.Trace.t -> unit
(** Attach an event trace: superblock lifecycle transitions are emitted as
    [Superblock_transition] events. *)

val set_range_hook :
  t -> (base:int -> npages:int -> event:range_event -> unit) option -> unit
(** Install an observer for superblock range transitions: carving (fresh
    range or recycled persistent range), release (unmap) and remapping
    (madvise / shared map).  Used by the lifecycle sanitizer to reset or
    keep its shadow state for the range; [None] uninstalls. *)

val trace : t -> Oamem_obs.Trace.t
val vmem : t -> Vmem.t
val classes : t -> Size_class.t
val config : t -> Config.t
val pagemap : t -> Pagemap.t
