(* Per-thread limbo list of retired nodes awaiting reclamation.

   A plain growable int buffer backed by a simulated address range so its
   footprint is visible to the cache model.  Only its owning thread touches
   it — the whole point of the paper's simplified schemes is that retirement
   needs no shared pool. *)

open Oamem_engine
module Profile = Oamem_obs.Profile

type t = {
  geom : Geometry.t;
  meta : Cell.heap;
  mutable arr : int array;  (* entry [i] lives at [base_addr + i] *)
  mutable len : int;
  mutable base_addr : int;  (* simulated range of [Array.length arr] words *)
}

let create meta ~geom ~capacity_hint =
  let words = max 8 (2 * capacity_hint) in
  {
    geom;
    meta;
    arr = Array.make words 0;
    len = 0;
    base_addr = Cell.alloc_words meta ~pad:true words;
  }

let account t ctx i kind =
  let paddr = t.base_addr + i in
  Engine.Mem.access ctx ~vpage:(Geometry.page_of_addr t.geom paddr) ~paddr ~kind

let size t = t.len

(* A full bag moves to a fresh simulated range twice the size, as a
   realloc would, so no entry is ever charged past the range it reserved;
   the copy itself is not charged. *)
let add t ctx addr =
  if t.len >= Array.length t.arr then begin
    let words = 2 * Array.length t.arr in
    let bigger = Array.make words 0 in
    Array.blit t.arr 0 bigger 0 t.len;
    t.arr <- bigger;
    t.base_addr <- Cell.alloc_words t.meta ~pad:true words
  end;
  account t ctx t.len Engine.Store;
  t.arr.(t.len) <- addr;
  t.len <- t.len + 1

(* Remove (and pass to [free]) every node not satisfying [protected];
   returns how many were freed.  Each examined entry is charged. *)
let sweep_raw t ctx ~protected ~free =
  let kept = ref 0 in
  let freed = ref 0 in
  for i = 0 to t.len - 1 do
    account t ctx i Engine.Load;
    let n = t.arr.(i) in
    if protected n then begin
      t.arr.(!kept) <- n;
      incr kept
    end
    else begin
      free n;
      incr freed
    end
  done;
  t.len <- !kept;
  !freed

(* The sweep is the scan phase of every limbo-based scheme (HP, EBR, IBR,
   OA-BIT, OA-VER), so one [Reclaim_scan] span here covers them all; the
   [free] callbacks open their own [Alloc_free] child spans. *)
let sweep t ctx ~protected ~free =
  let p = Engine.Mem.profile ctx in
  if Profile.enabled p then begin
    let tid = (Engine.Mem.tid ctx) in
    Profile.enter p ~tid ~now:(Engine.Mem.now ctx) Profile.Reclaim_scan;
    match sweep_raw t ctx ~protected ~free with
    | n ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        n
    | exception e ->
        Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
        raise e
  end
  else sweep_raw t ctx ~protected ~free

let to_list t = Array.to_list (Array.sub t.arr 0 t.len)
