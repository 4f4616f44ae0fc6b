(* Superblock descriptors (paper §2.3, Fig. 2).

   A descriptor carries the metadata of one superblock: where it starts, its
   size class and block count, and the atomic *anchor* that packs the
   superblock state together with the free-list head and the free count so
   that all three can be updated in a single CAS — the core LRMalloc trick.

   Anchor layout (in one simulated word):
     bits 0..1   state (0 = Full, 1 = Partial, 2 = Empty)
     bits 2..21  avail — block index of the free-list head
     bits 22..41 count — number of free blocks
     bits 42..61 tag   — ABA counter

   Descriptors are never reclaimed, only recycled through the pools
   (paper §3.2 and §4); the non-anchor fields are only rewritten while the
   descriptor is owned by a single thread taking it out of a pool. *)

open Oamem_engine

type state = Full | Partial | Empty

let state_to_int = function Full -> 0 | Partial -> 1 | Empty -> 2
let state_of_int = function 0 -> Full | 1 -> Partial | _ -> Empty
let state_name = function Full -> "full" | Partial -> "partial" | Empty -> "empty"

let field_bits = 20
let field_mask = (1 lsl field_bits) - 1
let tag_mask = field_mask

(* The allocator reads, tests and CASes the packed word itself; the
   [anchor] record is only a view for tests and printing. *)
let make_anchor ~state ~avail ~count ~tag =
  assert (avail >= 0 && avail <= field_mask);
  assert (count >= 0 && count <= field_mask);
  state_to_int state
  lor (avail lsl 2)
  lor (count lsl (2 + field_bits))
  lor ((tag land tag_mask) lsl (2 + (2 * field_bits)))

let state_of w = state_of_int (w land 3)
let avail_of w = (w lsr 2) land field_mask
let count_of w = (w lsr (2 + field_bits)) land field_mask
let tag_of w = (w lsr (2 + (2 * field_bits))) land tag_mask

type anchor = { state : state; avail : int; count : int; tag : int }

let pack a =
  make_anchor ~state:a.state ~avail:a.avail ~count:a.count ~tag:a.tag

let unpack w =
  { state = state_of w; avail = avail_of w; count = count_of w; tag = tag_of w }

type t = {
  id : int;
  anchor : Cell.t;
  next : Cell.t;  (* link used by descriptor lists/pools *)
  mutable sb_start : int;  (* base word address; 0 = no superblock attached *)
  mutable size_class : int;  (* class index; -1 = large allocation *)
  mutable block_words : int;
  mutable max_count : int;
  mutable persistent : bool;
  mutable pages : int;  (* pages spanned by the superblock *)
}

let make heap ~id =
  {
    id;
    anchor =
      Cell.make ~pad:true heap
        (make_anchor ~state:Empty ~avail:0 ~count:0 ~tag:0);
    next = Cell.make heap 0;
    sb_start = 0;
    size_class = -1;
    block_words = 0;
    max_count = 0;
    persistent = false;
    pages = 0;
  }

let read_anchor ctx t = Cell.get ctx t.anchor
let cas_anchor ctx t ~expect ~desired = Cell.cas ctx t.anchor ~expect ~desired
let peek_word t = Cell.peek t.anchor
let peek_anchor t = unpack (peek_word t)

let block_addr t idx =
  assert (idx >= 0 && idx < t.max_count);
  t.sb_start + (idx * t.block_words)

let block_index t addr =
  let off = addr - t.sb_start in
  assert (off >= 0 && off mod t.block_words = 0);
  off / t.block_words

let is_large t = t.size_class < 0

let pp ppf t =
  let a = peek_anchor t in
  Fmt.pf ppf "desc%d{sb=%#x cls=%d n=%d %s avail=%d count=%d%s}" t.id
    t.sb_start t.size_class t.max_count
    (match a.state with Full -> "full" | Partial -> "partial" | Empty -> "empty")
    a.avail a.count
    (if t.persistent then " persistent" else "")
