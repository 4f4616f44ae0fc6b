(* Lock-free Treiber stack of descriptors with a tagged head.

   Used for the per-class partial lists and for the two descriptor recycling
   pools.  The head cell packs (descriptor id + 1, tag); the tag is bumped on
   every successful CAS, which defeats ABA when a descriptor is popped,
   recycled and pushed again.  The [next] link lives in the descriptor and
   stores a plain id, which is safe because a descriptor's link is only
   written by the thread currently pushing it. *)

open Oamem_engine

type t = {
  head : Cell.t;
  get : int -> Descriptor.t;  (* descriptor registry lookup *)
}

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

let pack ~id ~tag = (id + 1) lor (tag lsl id_bits)
let head_id w = (w land id_mask) - 1
let head_tag w = w lsr id_bits

let create heap ~get = { head = Cell.make ~pad:true heap (pack ~id:(-1) ~tag:0); get }

let rec push t ctx (d : Descriptor.t) =
  let h = Cell.get ctx t.head in
  Cell.set ctx d.Descriptor.next (head_id h);
  let desired = pack ~id:d.Descriptor.id ~tag:(head_tag h + 1) in
  if not (Cell.cas ctx t.head ~expect:h ~desired) then begin
    Engine.Mem.pause ctx;
    push t ctx d
  end

let rec pop t ctx =
  let h = Cell.get ctx t.head in
  match head_id h with
  | -1 -> -1
  | id ->
      let d = t.get id in
      let next = Cell.get ctx d.Descriptor.next in
      let desired = pack ~id:next ~tag:(head_tag h + 1) in
      if Cell.cas ctx t.head ~expect:h ~desired then id
      else begin
        Engine.Mem.pause ctx;
        pop t ctx
      end

let is_empty ctx t = head_id (Cell.get ctx t.head) = -1

(* Uncosted traversal for tests and invariant checks. *)
let peek_ids t =
  let rec go acc id =
    if id = -1 then List.rev acc
    else go (id :: acc) (Cell.peek (t.get id).Descriptor.next)
  in
  go [] (head_id (Cell.peek t.head))
