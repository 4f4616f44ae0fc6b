(** Lock-free Treiber stack of descriptors with a tagged head (ABA-safe).
    Used for partial lists and the two descriptor recycling pools. *)

open Oamem_engine

type t

val create : Cell.heap -> get:(int -> Descriptor.t) -> t
(** [get] resolves descriptor ids (the registry lookup). *)

val push : t -> Engine.ctx -> Descriptor.t -> unit
val pop : t -> Engine.ctx -> int
(** Id of the popped descriptor, or [-1] when the list is empty. *)

val is_empty : Engine.ctx -> t -> bool

val peek_ids : t -> int list
(** Uncosted traversal (tests, metrics). *)
