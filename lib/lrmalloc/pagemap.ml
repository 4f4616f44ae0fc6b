(* The pagemap (paper §2.3): page -> descriptor.

   Superblocks are page-aligned and span whole pages, so every block in a
   page belongs to the same superblock; mapping pages to descriptor ids is
   enough to find the descriptor (and hence size class) of any block handed
   to [free].

   The table itself occupies simulated memory: each lookup/update charges a
   cache access at a synthetic address in a dedicated metadata range, so the
   pagemap's footprint and contention are part of the cost model, as in the
   real allocator. *)

open Oamem_engine

(* Above the cell heap's default base, far from any frame address, and
   below the engine's accessible-flag lines (1 lsl 53). *)
let table_base = 1 lsl 52

type t = {
  entries : int Atomic.t array;  (* vpage -> desc id + 1; 0 = none *)
  geom : Geometry.t;
  max_pages : int;
}

let create ~geom ~max_pages =
  {
    entries = Array.init max_pages (fun _ -> Atomic.make 0);
    geom;
    max_pages;
  }

let account ctx t vpage kind =
  let paddr = table_base + vpage in
  Engine.Mem.access ctx ~vpage:(Geometry.page_of_addr t.geom paddr) ~paddr ~kind

let set_range t ctx ~vpage ~npages ~desc_id =
  if vpage < 0 || vpage + npages > t.max_pages then
    invalid_arg "Pagemap.set_range";
  for p = vpage to vpage + npages - 1 do
    account ctx t p Engine.Store;
    Atomic.set t.entries.(p) (desc_id + 1)
  done

let clear_range t ctx ~vpage ~npages =
  for p = vpage to vpage + npages - 1 do
    account ctx t p Engine.Store;
    Atomic.set t.entries.(p) 0
  done

(* Descriptor id owning [addr], or -1. *)
let lookup t ctx addr =
  let vpage = Geometry.page_of_addr t.geom addr in
  if vpage < 0 || vpage >= t.max_pages then -1
  else begin
    account ctx t vpage Engine.Load;
    Atomic.get t.entries.(vpage) - 1
  end

let peek t addr =
  let vpage = Geometry.page_of_addr t.geom addr in
  if vpage < 0 || vpage >= t.max_pages then None
  else match Atomic.get t.entries.(vpage) with 0 -> None | id -> Some (id - 1)
