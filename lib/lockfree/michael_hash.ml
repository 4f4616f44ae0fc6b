(* Michael's lock-free hash table (SPAA 2002): a fixed array of buckets,
   each an independent Harris–Michael list.

   The bucket array is one large allocation that lives for the lifetime of
   the structure — exactly the pattern §4 of the paper gives for why
   restricting persistent allocation to size-class sizes is acceptable.
   Chains are short (the benchmarks use a 0.75 load factor), which is why
   the warning-mechanism difference between OA-BIT and OA-VER fades on hash
   tables (§5.2). *)

open Oamem_vmem
open Oamem_reclaim

type t = {
  scheme : Scheme.ops;
  vmem : Vmem.t;
  buckets : int;  (* base address of the bucket array *)
  nbuckets : int;
  node_words : int;  (* 2 for sets, 3 for key-value maps *)
  chains : Hm_list.t;
      (* the list at bucket 0; its [_at] operations serve every bucket *)
}

(* Fibonacci-style multiplicative mixing, good enough to spread dense keys. *)
let hash_key key =
  let h = key * 0x9e3779b97f4a7c1 land max_int in
  h lxor (h lsr 29)

let bucket_head t key = t.buckets + (hash_key key mod t.nbuckets)

let create_sized ctx ~scheme ~vmem ~alloc ~expected_size ~load_factor
    ~node_words =
  if expected_size <= 0 then invalid_arg "Michael_hash.create";
  let nbuckets =
    max 1 (int_of_float (ceil (float_of_int expected_size /. load_factor)))
  in
  (* the bucket array is a plain (usually large) allocation *)
  let buckets = Oamem_lrmalloc.Lrmalloc.malloc alloc ctx nbuckets in
  for b = 0 to nbuckets - 1 do
    Vmem.store vmem ctx (buckets + b) Node.null
  done;
  let chains = Hm_list.at_head ~node_words ~scheme ~vmem buckets in
  { scheme; vmem; buckets; nbuckets; node_words; chains }

let create ctx ~scheme ~vmem ~alloc ~expected_size ~load_factor =
  create_sized ctx ~scheme ~vmem ~alloc ~expected_size ~load_factor
    ~node_words:Node.words

let create_kv ctx ~scheme ~vmem ~alloc ~expected_size ~load_factor =
  create_sized ctx ~scheme ~vmem ~alloc ~expected_size ~load_factor
    ~node_words:Node.kv_words

let contains t ctx key =
  Hm_list.contains_at t.chains ctx ~head:(bucket_head t key) key

let insert t ctx key =
  Hm_list.insert_at t.chains ctx ~head:(bucket_head t key) key

let delete t ctx key =
  Hm_list.delete_at t.chains ctx ~head:(bucket_head t key) key

let insert_kv t ctx key value =
  Hm_list.insert_kv_at t.chains ctx ~head:(bucket_head t key) key value

let lookup t ctx key =
  Hm_list.lookup_at t.chains ctx ~head:(bucket_head t key) key

let replace t ctx key value =
  Hm_list.replace_at t.chains ctx ~head:(bucket_head t key) key value

let nbuckets t = t.nbuckets

(* Sequential bulk construction for setup/prefill phases (empty table,
   single caller). *)
let prefill t ctx keys =
  let per_bucket = Array.make t.nbuckets [] in
  List.iter
    (fun k ->
      let b = hash_key k mod t.nbuckets in
      per_bucket.(b) <- k :: per_bucket.(b))
    keys;
  Array.iteri
    (fun b ks ->
      if ks <> [] then
        Hm_list.build_sorted
          (Hm_list.at_head ~scheme:t.scheme ~vmem:t.vmem (t.buckets + b))
          ctx ks)
    per_bucket

(* Uncosted snapshot for tests. *)
let to_list t =
  List.concat
    (List.init t.nbuckets (fun b ->
         Hm_list.to_list
           (Hm_list.at_head ~node_words:t.node_words ~scheme:t.scheme
              ~vmem:t.vmem (t.buckets + b))))

(* Uncosted and allocation-free: benchmarks check it between phases. *)
let length t =
  let n = ref 0 in
  for b = 0 to t.nbuckets - 1 do
    n := !n + Hm_list.length_at t.chains ~head:(t.buckets + b)
  done;
  !n

(* Longest chain (diagnostics for the load-factor claim). *)
let max_chain t =
  let m = ref 0 in
  for b = 0 to t.nbuckets - 1 do
    m := max !m (Hm_list.length_at t.chains ~head:(t.buckets + b))
  done;
  !m
