(* Per-thread block caches (paper §2.3).

   Each thread owns one stack of free block addresses per (size class,
   persistence) pair, so the fast path of malloc/palloc/free is a push or a
   pop with no synchronisation.  Stacks are created lazily and backed by a
   simulated address range from the metadata heap, so the cost model sees
   their footprint: a large hot cache genuinely competes for L1 space with
   the application's data, one of the effects discussed in the paper's §5.2.

   Capacity is [cache_multiplier] superblocks worth of blocks; a fill of a
   whole newly-built superblock always fits in an empty stack. *)

open Oamem_engine

type stack = {
  mutable arr : int array;
  mutable top : int;
  cap : int;
  base_addr : int;  (* simulated address of slot 0 *)
}

type t = {
  meta : Cell.heap;
  geom : Geometry.t;
  classes : Size_class.t;
  cfg : Config.t;
  stacks : stack option array array;  (* tid -> class*2 + persistent *)
}

let create ~meta ~geom ~classes ~cfg ~nthreads =
  {
    meta;
    geom;
    classes;
    cfg;
    stacks =
      Array.init nthreads (fun _ ->
          Array.make (2 * Size_class.count classes) None);
  }

let capacity t cls =
  let batch =
    min
      (Size_class.blocks_per_superblock t.classes
         ~sb_words:(Config.sb_words t.geom t.cfg)
         cls)
      t.cfg.Config.cache_blocks
  in
  t.cfg.Config.cache_multiplier * batch

let get t ~tid ~cls ~persistent =
  let idx = (2 * cls) + if persistent then 1 else 0 in
  match t.stacks.(tid).(idx) with
  | Some st -> st
  | None ->
      let cap = capacity t cls in
      let st =
        {
          arr = Array.make cap 0;
          top = 0;
          cap;
          base_addr = Cell.alloc_words t.meta ~pad:true cap;
        }
      in
      t.stacks.(tid).(idx) <- Some st;
      st

let account t ctx st kind =
  let paddr = st.base_addr + st.top in
  Engine.Mem.access ctx ~vpage:(Geometry.page_of_addr t.geom paddr) ~paddr ~kind

let is_full st = st.top >= st.cap
let is_empty st = st.top = 0
let size st = st.top

let push t ctx st addr =
  assert (not (is_full st));
  account t ctx st Engine.Store;
  st.arr.(st.top) <- addr;
  st.top <- st.top + 1

let pop t ctx st =
  assert (not (is_empty st));
  st.top <- st.top - 1;
  account t ctx st Engine.Load;
  st.arr.(st.top)

(* Every live stack of one thread (teardown). *)
let stacks_of_thread t ~tid =
  Array.to_list t.stacks.(tid) |> List.filter_map Fun.id

let nthreads t = Array.length t.stacks
