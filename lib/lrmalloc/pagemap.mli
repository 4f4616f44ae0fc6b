(** The pagemap: page -> owning descriptor (paper §2.3).  Lookups and
    updates are charged to the cost model at synthetic metadata addresses. *)

open Oamem_engine

type t

val create : geom:Geometry.t -> max_pages:int -> t
val set_range : t -> Engine.ctx -> vpage:int -> npages:int -> desc_id:int -> unit
val clear_range : t -> Engine.ctx -> vpage:int -> npages:int -> unit

val lookup : t -> Engine.ctx -> int -> int
(** Descriptor id owning the page of [addr], or [-1]. *)

val peek : t -> int -> int option
(** Uncosted lookup (tests, assertions). *)
