(* Size classes (paper §2.2, §4).

   Allocation requests up to [max_size] words are rounded up to the nearest
   class; larger requests bypass the class machinery entirely (handled by
   the allocator's large-allocation path).  All class sizes are even so that
   every block address is even, leaving bit 0 of any pointer free for the
   mark bits lock-free data structures need.

   The default table spans 2..2048 words — with 8-byte words that is
   16 bytes to 16 KiB, matching LRMalloc's published class range. *)

type t = { sizes : int array }

let make sizes =
  let sizes = Array.of_list (List.sort_uniq compare sizes) in
  if Array.length sizes = 0 then invalid_arg "Size_class.make: empty";
  Array.iter
    (fun s ->
      if s < 2 || s land 1 <> 0 then
        invalid_arg "Size_class.make: sizes must be even and >= 2")
    sizes;
  { sizes }

let default =
  make
    [ 2; 4; 8; 12; 16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768;
      1024; 1536; 2048 ]

let count t = Array.length t.sizes
let block_words t cls = t.sizes.(cls)
let max_size t = t.sizes.(Array.length t.sizes - 1)

(* Smallest class whose block size covers [size]; -1 for large requests.
   Binary search over the (small, sorted) table. *)
let of_size t size =
  if size <= 0 then invalid_arg "Size_class.of_size: size must be positive";
  if size > max_size t then -1
  else begin
    let lo = ref 0 and hi = ref (Array.length t.sizes - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.sizes.(mid) >= size then hi := mid else lo := mid + 1
    done;
    !lo
  end

let blocks_per_superblock t ~sb_words cls =
  let bw = block_words t cls in
  let n = sb_words / bw in
  if n < 1 then invalid_arg "Size_class: superblock smaller than block";
  n

let pp ppf t =
  Fmt.pf ppf "classes[%a]" Fmt.(array ~sep:(any ";") int) t.sizes
