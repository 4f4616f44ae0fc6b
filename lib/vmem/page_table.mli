(** Per-address-space page table with atomically updatable entries. *)

type entry =
  | Unmapped
  | Cow_zero  (** mapped, backed by the pinned zero frame until written *)
  | Frame of int  (** private frame *)
  | Shared of int  (** shared mapping; writes hit the shared frame *)

type t

val create : max_pages:int -> t
val max_pages : t -> int

val epoch : t -> int
(** Mutation counter, bumped by every {!set} and every {!cas} attempt.
    Translation caches key entries on it: a cached translation is valid iff
    its fill epoch equals the current one. *)

val in_range : t -> int -> bool

val get : t -> int -> entry
(** Out-of-range pages read as [Unmapped]. *)

val cow : int
val unmapped : int

val frame_of : t -> int -> int
(** {!get} without allocating: the frame backing [vpage] ([Frame] or
    [Shared]), or {!cow} for [Cow_zero], or {!unmapped} for [Unmapped]
    (including out-of-range pages). *)

val set : t -> int -> entry -> unit
val cas : t -> int -> expect:entry -> desired:entry -> bool

val fold_range :
  t -> vpage:int -> npages:int -> init:'a -> f:('a -> int -> entry -> 'a) -> 'a

val pp_entry : Format.formatter -> entry -> unit
