(** Per-thread block caches (paper §2.3): one stack of free block addresses
    per (size class, persistence) pair, so malloc/palloc/free fast paths
    need no synchronisation.  Stacks are backed by simulated addresses so
    their footprint is visible to the cache model. *)

open Oamem_engine

type stack
type t

val create :
  meta:Cell.heap ->
  geom:Geometry.t ->
  classes:Size_class.t ->
  cfg:Config.t ->
  nthreads:int ->
  t

val capacity : t -> int -> int
val get : t -> tid:int -> cls:int -> persistent:bool -> stack
val is_full : stack -> bool
val is_empty : stack -> bool
val size : stack -> int
val push : t -> Engine.ctx -> stack -> int -> unit

val pop : t -> Engine.ctx -> stack -> int
(** The most recently pushed block; the stack must not be empty. *)

val stacks_of_thread : t -> tid:int -> stack list
val nthreads : t -> int
