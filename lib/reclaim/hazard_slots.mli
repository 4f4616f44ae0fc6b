(** Per-thread hazard-pointer slots (optionally cache-line padded). *)

open Oamem_engine

type t

val create : ?padded:bool -> Cell.heap -> nthreads:int -> k:int -> t
val set : Engine.ctx -> t -> slot:int -> int -> unit
val clear : Engine.ctx -> t -> unit

val snapshot : Engine.ctx -> t -> int list
(** Read every thread's slots (charged); the non-zero values, unordered
    and possibly repeated. *)

val protects : int list -> int -> bool
val peek_thread : t -> tid:int -> int array
