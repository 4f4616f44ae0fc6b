(* Per-address-space page table.

   Each virtual page maps to one of four states.  Entries are encoded into a
   single int so they can be updated atomically — fault-in races between
   simulated threads (or real domains) are resolved with a CAS on the entry.

   Encoding: 0 = Unmapped, 1 = Cow_zero, (f lsl 2) lor 2 = Frame f,
   (f lsl 2) lor 3 = Shared f. *)

type entry =
  | Unmapped
  | Cow_zero  (** mapped, backed by the pinned zero frame until written *)
  | Frame of int  (** private frame *)
  | Shared of int  (** shared mapping; writes hit the shared frame *)

let encode = function
  | Unmapped -> 0
  | Cow_zero -> 1
  | Frame f -> (f lsl 2) lor 2
  | Shared f -> (f lsl 2) lor 3

let decode = function
  | 0 -> Unmapped
  | 1 -> Cow_zero
  | w when w land 3 = 2 -> Frame (w lsr 2)
  | w -> Shared (w lsr 2)

(* [epoch] counts entry mutations.  Translation caches above (Vmem's
   per-thread last-translation cache, the memoized residency census) key
   their entries on it: any [set] or successful [cas] bumps it, so a cached
   translation is valid iff its fill epoch is still current. *)
type t = {
  entries : int Atomic.t array;
  max_pages : int;
  mutable epoch : int;
}

let create ~max_pages =
  if max_pages <= 0 then invalid_arg "Page_table.create";
  {
    entries = Array.init max_pages (fun _ -> Atomic.make (encode Unmapped));
    max_pages;
    epoch = 0;
  }

let max_pages t = t.max_pages
let epoch t = t.epoch

let in_range t vpage = vpage >= 0 && vpage < t.max_pages

let get t vpage =
  if not (in_range t vpage) then Unmapped
  else decode (Atomic.get t.entries.(vpage))

(* [get] without the entry box, for the translation paths: the frame a
   page is backed by (private or shared), [cow] for a copy-on-write page,
   [unmapped] for an unmapped or out-of-range one. *)
let cow = -1
let unmapped = -2

let frame_of t vpage =
  if not (in_range t vpage) then unmapped
  else
    match Atomic.get t.entries.(vpage) with
    | 0 -> unmapped
    | 1 -> cow
    | w -> w lsr 2

let set t vpage e =
  if not (in_range t vpage) then invalid_arg "Page_table.set: out of range";
  t.epoch <- t.epoch + 1;
  Atomic.set t.entries.(vpage) (encode e)

let cas t vpage ~expect ~desired =
  if not (in_range t vpage) then invalid_arg "Page_table.cas: out of range";
  t.epoch <- t.epoch + 1;
  Atomic.compare_and_set t.entries.(vpage) (encode expect) (encode desired)

(* Fold over a page range (metrics, invariants). *)
let fold_range t ~vpage ~npages ~init ~f =
  let acc = ref init in
  for p = vpage to vpage + npages - 1 do
    acc := f !acc p (get t p)
  done;
  !acc

let pp_entry ppf = function
  | Unmapped -> Fmt.string ppf "unmapped"
  | Cow_zero -> Fmt.string ppf "cow-zero"
  | Frame f -> Fmt.pf ppf "frame:%d" f
  | Shared f -> Fmt.pf ppf "shared:%d" f
