(** Size classes: requests round up to the nearest class; larger requests go
    to the large-allocation path.  All sizes are even so block addresses keep
    bit 0 free for pointer marks. *)

type t

val make : int list -> t
(** Sizes must be even and at least 2; duplicates are removed. *)

val default : t
(** 2..2048 words (16 B .. 16 KiB at 8-byte words), LRMalloc's range. *)

val count : t -> int
val block_words : t -> int -> int
val max_size : t -> int

val of_size : t -> int -> int
(** Smallest covering class, or [-1] for large requests. *)

val blocks_per_superblock : t -> sb_words:int -> int -> int
val pp : Format.formatter -> t -> unit
