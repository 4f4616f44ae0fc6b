(** Harris–Michael lock-free ordered list (set of int keys), written against
    the generic reclamation interface so the same code runs under NR, the
    original OA, OA-BIT, OA-VER, hazard pointers and EBR.  Operations retry
    from the head whenever the scheme raises [Restart]. *)

open Oamem_engine
open Oamem_vmem
open Oamem_reclaim

val slots_needed : int
(** Hazard slots per thread the list requires (traversal rotation + write
    window). *)

type t

val create : Engine.ctx -> scheme:Scheme.ops -> vmem:Vmem.t -> t
(** A fresh set (2-word nodes) with its own never-reclaimed head word. *)

val create_kv : Engine.ctx -> scheme:Scheme.ops -> vmem:Vmem.t -> t
(** A fresh key-value map (3-word nodes). *)

val at_head : ?node_words:int -> scheme:Scheme.ops -> vmem:Vmem.t -> int -> t
(** A list living at an externally owned head word (hash-table buckets). *)

val insert : t -> Engine.ctx -> int -> bool
(** [true] if the key was absent. *)

val delete : t -> Engine.ctx -> int -> bool
(** [true] if the key was present (logical deletion is the linearization
    point; physical unlinking is best-effort/helped). *)

val contains : t -> Engine.ctx -> int -> bool
(** Membership, helping unlink marked nodes on the way (Michael's Find). *)

val contains_readonly : t -> Engine.ctx -> int -> bool
(** Membership that never helps: no CAS on the read path. *)

(** {2 Key-value operations} (lists built with {!create_kv}) *)

val insert_kv : t -> Engine.ctx -> int -> int -> bool
(** [insert_kv t ctx key value]: [false] (no change) if the key exists. *)

val lookup : t -> Engine.ctx -> int -> int option
val replace : t -> Engine.ctx -> int -> int -> int option
(** Atomically replace an existing binding's value; returns the previous
    value, or [None] if the key is absent. *)

(** {2 Sibling lists}

    A list created by {!at_head} can also run each operation on another
    list sharing its scheme, memory and node size, living at the head word
    [head] (the other buckets of a hash table), without building a [t] per
    operation. *)

val contains_at : t -> Engine.ctx -> head:int -> int -> bool
val insert_at : t -> Engine.ctx -> head:int -> int -> bool
val delete_at : t -> Engine.ctx -> head:int -> int -> bool
val insert_kv_at : t -> Engine.ctx -> head:int -> int -> int -> bool
val lookup_at : t -> Engine.ctx -> head:int -> int -> int option
val replace_at : t -> Engine.ctx -> head:int -> int -> int -> int option

val length_at : t -> head:int -> int
(** Uncosted: {!length} of the sibling list at [head]. *)

val build_sorted : t -> Engine.ctx -> int list -> unit
(** Sequential bulk construction for setup/prefill (empty list, one caller). *)

val to_list : t -> int list
(** Uncosted snapshot (quiescent state): keys of unmarked nodes, sorted. *)

val length : t -> int
