(** Superblock descriptors with the packed atomic anchor
    (state, free-list head, free count, ABA tag) updated by single CAS. *)

open Oamem_engine

type state = Full | Partial | Empty

val state_name : state -> string
(** ["full"] / ["partial"] / ["empty"] — trace and log labels. *)

(** {2 The packed anchor word}

    The allocator reads, tests and CASes the packed word itself, so its
    hot paths never build an [anchor] record. *)

val make_anchor : state:state -> avail:int -> count:int -> tag:int -> int
(** Pack the fields; the tag wraps at its field width. *)

val state_of : int -> state
val avail_of : int -> int
val count_of : int -> int
val tag_of : int -> int

type anchor = { state : state; avail : int; count : int; tag : int }
(** An unpacked view of the word (tests, printing). *)

val pack : anchor -> int
val unpack : int -> anchor

type t = {
  id : int;
  anchor : Cell.t;
  next : Cell.t;
  mutable sb_start : int;  (** base word address; 0 = none attached *)
  mutable size_class : int;  (** class index; -1 = large allocation *)
  mutable block_words : int;
  mutable max_count : int;
  mutable persistent : bool;
  mutable pages : int;
}

val make : Cell.heap -> id:int -> t

val read_anchor : Engine.ctx -> t -> int
(** Charged load of the packed anchor word. *)

val cas_anchor : Engine.ctx -> t -> expect:int -> desired:int -> bool

val peek_word : t -> int
(** Uncosted read of the packed anchor word. *)

val peek_anchor : t -> anchor
(** Uncosted, unpacked (tests, printing). *)

val block_addr : t -> int -> int
val block_index : t -> int -> int
val is_large : t -> bool
val pp : Format.formatter -> t -> unit
