(* Harris–Michael lock-free ordered linked list (Michael, SPAA 2002), the
   paper's benchmark structure, written against the generic reclamation
   interface so that the same code runs under NR, the original OA, OA-BIT,
   OA-VER, hazard pointers and EBR.

   Scheme hooks are placed exactly where each method's protocol demands:

   - after every optimistic load: [read_check] (OA warning / version check);
   - before dereferencing a traversal pointer: [traverse_protect]
     (hazard-pointer publish + fence + re-verify; no-op for OA);
   - before every CAS: [write_protect] on every node the CAS involves —
     the node written to, the node being linked in — then one [validate]
     (OA's single fence + warning check of §2.4).

   Hazard slot assignment: slots 0/1 alternate between cur and its
   predecessor during traversal (the classic two-pointer rotation), and
   slots 2/3/4 are used for the write window, so publishing for a CAS never
   momentarily unprotects a traversal pointer.

   Operations are retried from the list head whenever the scheme raises
   [Restart] — the optimistic-access restart contract. *)

open Oamem_engine
open Oamem_vmem
open Oamem_reclaim
module Profile = Oamem_obs.Profile

let slots_needed = 5

(* One thread's in-flight operation on a list: its arguments, [find]'s
   result and [delete]'s short-circuit flag, in a record reused by every
   operation of that thread, so an operation allocates nothing on the
   host. *)
type cursor = {
  mutable head : int;  (* address of the word holding the first-node pointer *)
  mutable key : int;
  mutable value : int;  (* key-value operations *)
  mutable deleted : bool;
      (* set right after [delete]'s marking CAS takes effect (no yield in
         between): if a neutralization unwinds the best-effort physical-
         unlink epilogue, the checkpoint retry must report the delete that
         already linearized instead of re-traversing and finding nothing *)
  (* [find]'s result *)
  mutable prev : int;  (* address of the link word pointing to cur *)
  mutable prev_node : int;  (* node containing [prev], or 0 when it is the head *)
  mutable cur : int;  (* first node with key >= target, or 0 *)
  mutable cur_key : int;
  mutable next : int;  (* unmarked successor of cur *)
}

type t = {
  scheme : Scheme.ops;
  vmem : Vmem.t;
  head : int;  (* address of the word holding the first-node pointer *)
  node_words : int;  (* 2 for sets, 3 for key-value maps *)
  mutable cursors : cursor array;  (* per tid, grown on first use *)
}

let make ~scheme ~vmem ~node_words head =
  { scheme; vmem; head; node_words; cursors = [||] }

(* The head word must never be reclaimed; we take it from the scheme's own
   allocator so OA-orig's pool discipline also covers it. *)
let create_sized ctx ~scheme ~vmem ~node_words =
  let head = scheme.Scheme.alloc ctx node_words in
  Vmem.store vmem ctx head Node.null;
  (* the spare words of the head block stay unused *)
  make ~scheme ~vmem ~node_words head

let create ctx ~scheme ~vmem =
  create_sized ctx ~scheme ~vmem ~node_words:Node.words

let create_kv ctx ~scheme ~vmem =
  create_sized ctx ~scheme ~vmem ~node_words:Node.kv_words

(* A list living at an externally owned head word (hash-table buckets). *)
let at_head ?(node_words = Node.words) ~scheme ~vmem head =
  make ~scheme ~vmem ~node_words head

let retire_node = Op.retire_node
let cancel_node = Op.cancel_node

let fresh_cursor () =
  {
    head = 0;
    key = 0;
    value = 0;
    deleted = false;
    prev = 0;
    prev_node = 0;
    cur = 0;
    cur_key = 0;
    next = 0;
  }

(* The calling thread's cursor, set up for an operation on [head]. *)
let cursor t ctx ~head ~key =
  let tid = Engine.Mem.tid ctx in
  if tid >= Array.length t.cursors then begin
    let grown = Array.init (tid + 1) (fun _ -> fresh_cursor ()) in
    Array.blit t.cursors 0 grown 0 (Array.length t.cursors);
    t.cursors <- grown
  end;
  let c = t.cursors.(tid) in
  c.head <- head;
  c.key <- key;
  c

let found (c : cursor) ~prev ~prev_node ~cur ~cur_key ~next =
  c.prev <- prev;
  c.prev_node <- prev_node;
  c.cur <- cur;
  c.cur_key <- cur_key;
  c.next <- next

(* Traverse from [c.head] to the first node with key >= [c.key], unlinking
   logically deleted nodes on the way; the result lands in [c].  Raises
   [Scheme.Restart]. *)
let rec find_from t ctx (c : cursor) ~prev ~prev_node ~cur ~parity =
  let sch = t.scheme and vm = t.vmem in
  if cur = Node.null then found c ~prev ~prev_node ~cur:0 ~cur_key:0 ~next:0
  else begin
    let n = Node.unmark cur in
    (* hazard-pointer schemes publish n and re-verify the link *)
    sch.Scheme.traverse_protect ctx ~slot:parity ~addr:n ~link:prev
      ~expect:cur;
    let next = Vmem.load vm ctx (Node.next_of n) in
    sch.Scheme.read_check ctx;
    let nkey = Vmem.load vm ctx (Node.key_of n) in
    sch.Scheme.read_check ctx;
    if Node.is_marked next then begin
      (* n is logically deleted: unlink it.  The CAS writes into
         [prev_node] and links [next]; protect both, validate once. *)
      let succ = Node.unmark next in
      sch.Scheme.write_protect ctx ~slot:2
        (if prev_node = 0 then c.head else prev_node);
      sch.Scheme.write_protect ctx ~slot:3 n;
      if succ <> 0 then sch.Scheme.write_protect ctx ~slot:4 succ;
      sch.Scheme.validate ctx;
      if Vmem.cas vm ctx prev ~expect:cur ~desired:succ then begin
        retire_node sch ctx n;
        find_from t ctx c ~prev ~prev_node ~cur:succ ~parity
      end
      else raise Scheme.Restart
    end
    else if nkey >= c.key then
      found c ~prev ~prev_node ~cur:n ~cur_key:nkey ~next
    else
      find_from t ctx c ~prev:(Node.next_of n) ~prev_node:n ~cur:next
        ~parity:(1 - parity)
  end

let find t ctx (c : cursor) =
  let cur = Vmem.load t.vmem ctx c.head in
  t.scheme.Scheme.read_check ctx;
  find_from t ctx c ~prev:c.head ~prev_node:0 ~cur ~parity:0

let present (c : cursor) = c.cur <> 0 && c.cur_key = c.key

(* Operation bodies, run under the scheme's operation protocol by
   {!Op.run} (see it for the restart-attribution and checkpoint contract).
   Each one is a closed function of the list and the calling thread's
   cursor. *)

let contains_body t ctx (c : cursor) =
  find t ctx c;
  present c

let contains_at t ctx ~head key =
  Op.run t.scheme ctx Profile.Op_contains contains_body t
    (cursor t ctx ~head ~key)

let contains t ctx key = contains_at t ctx ~head:t.head key

(* Wait-free-style membership test that never helps with unlinking (the
   search style Michael's hash tables use for read-mostly workloads):
   marked nodes are skipped, not removed, so a pure lookup performs no CAS
   at all.  Under hazard pointers this still publishes/validates each hop;
   under the OA schemes it is read-checks only. *)
let rec scan_from t ctx (c : cursor) ~prev ~cur ~parity =
  let sch = t.scheme and vm = t.vmem in
  let n = Node.unmark cur in
  if n = Node.null then false
  else begin
    sch.Scheme.traverse_protect ctx ~slot:parity ~addr:n ~link:prev
      ~expect:cur;
    let next = Vmem.load vm ctx (Node.next_of n) in
    sch.Scheme.read_check ctx;
    let nkey = Vmem.load vm ctx (Node.key_of n) in
    sch.Scheme.read_check ctx;
    if nkey > c.key then false
    else if nkey = c.key then not (Node.is_marked next)
    else
      scan_from t ctx c ~prev:(Node.next_of n) ~cur:next ~parity:(1 - parity)
  end

let contains_readonly_body t ctx (c : cursor) =
  let cur = Vmem.load t.vmem ctx c.head in
  t.scheme.Scheme.read_check ctx;
  scan_from t ctx c ~prev:c.head ~cur ~parity:0

let contains_readonly t ctx key =
  Op.run t.scheme ctx Profile.Op_contains contains_readonly_body t
    (cursor t ctx ~head:t.head ~key)

(* Link a fresh node holding [c.key] (and [c.value] when [kv]) in front of
   [c.cur].  The CAS writes into prev_node and links the node; if
   validation demands a restart — or a neutralization unwinds the attempt —
   the unpublished node must be returned, not leaked. *)
let link_new t ctx (c : cursor) ~kv =
  let sch = t.scheme and vm = t.vmem in
  let node = sch.Scheme.alloc ctx t.node_words in
  match
    Vmem.store vm ctx (Node.key_of node) c.key;
    if kv then Vmem.store vm ctx (Node.value_of node) c.value;
    Vmem.store vm ctx (Node.next_of node) c.cur;
    sch.Scheme.write_protect ctx ~slot:2
      (if c.prev_node = 0 then c.head else c.prev_node);
    sch.Scheme.write_protect ctx ~slot:3 node;
    sch.Scheme.validate ctx
  with
  | () ->
      if Vmem.cas vm ctx c.prev ~expect:c.cur ~desired:node then true
      else begin
        cancel_node sch ctx node;
        raise Scheme.Restart
      end
  | exception ((Scheme.Restart | Engine.Neutralized) as e) ->
      cancel_node sch ctx node;
      raise e

let insert_body t ctx (c : cursor) =
  find t ctx c;
  if present c then false else link_new t ctx c ~kv:false

let insert_at t ctx ~head key =
  Op.run t.scheme ctx Profile.Op_insert insert_body t (cursor t ctx ~head ~key)

let insert t ctx key = insert_at t ctx ~head:t.head key

(* Key-value operations (3-word nodes). *)

let insert_kv_body t ctx (c : cursor) =
  find t ctx c;
  if present c then false else link_new t ctx c ~kv:true

(* [insert_kv] adds a binding; [false] (and no change) if the key exists. *)
let insert_kv_at t ctx ~head key value =
  assert (t.node_words >= Node.kv_words);
  let c = cursor t ctx ~head ~key in
  c.value <- value;
  Op.run t.scheme ctx Profile.Op_insert insert_kv_body t c

let insert_kv t ctx key value = insert_kv_at t ctx ~head:t.head key value

(* Value bound to [key], if present.  The value read is validated like any
   other optimistic read. *)
let lookup_body t ctx (c : cursor) =
  find t ctx c;
  if not (present c) then None
  else begin
    let v = Vmem.load t.vmem ctx (Node.value_of c.cur) in
    t.scheme.Scheme.read_check ctx;
    Some v
  end

let lookup_at t ctx ~head key =
  assert (t.node_words >= Node.kv_words);
  Op.run t.scheme ctx Profile.Op_lookup lookup_body t (cursor t ctx ~head ~key)

let lookup t ctx key = lookup_at t ctx ~head:t.head key

(* Atomically replace the value of an existing binding; [None] if absent,
   otherwise the previous value.  The CAS-loop on the value word makes
   concurrent replacements linearizable. *)
let rec swap t ctx (c : cursor) =
  let vm = t.vmem in
  let old = Vmem.load vm ctx (Node.value_of c.cur) in
  t.scheme.Scheme.read_check ctx;
  if Vmem.cas vm ctx (Node.value_of c.cur) ~expect:old ~desired:c.value then
    Some old
  else begin
    Engine.Mem.pause ctx;
    swap t ctx c
  end

let replace_body t ctx (c : cursor) =
  find t ctx c;
  if not (present c) then None
  else begin
    (* the CAS writes into cur: protect it, validate once *)
    t.scheme.Scheme.write_protect ctx ~slot:2 c.cur;
    t.scheme.Scheme.validate ctx;
    swap t ctx c
  end

let replace_at t ctx ~head key value =
  assert (t.node_words >= Node.kv_words);
  let c = cursor t ctx ~head ~key in
  c.value <- value;
  Op.run t.scheme ctx Profile.Op_replace replace_body t c

let replace t ctx key value = replace_at t ctx ~head:t.head key value

let delete_body t ctx (c : cursor) =
  let sch = t.scheme and vm = t.vmem in
  if c.deleted then true
  else begin
    find t ctx c;
    if not (present c) then false
    else begin
      (* logical deletion: mark cur's next.  The CAS writes into cur. *)
      sch.Scheme.write_protect ctx ~slot:2 c.cur;
      if c.next <> 0 then sch.Scheme.write_protect ctx ~slot:3 c.next;
      sch.Scheme.validate ctx;
      if
        not
          (Vmem.cas vm ctx (Node.next_of c.cur) ~expect:c.next
             ~desired:(Node.mark c.next))
      then raise Scheme.Restart
      else begin
        c.deleted <- true;
        (* The marking succeeded, so the delete has taken effect; the
           physical unlink below is best-effort and must never restart
           the operation (a traversal will finish the unlink and retire
           the node if we cannot).  A neutralization here does unwind —
           continuing to touch nodes after the poster advanced the epoch
           would be unsound — and the retry short-circuits on [deleted]. *)
        (try
           sch.Scheme.write_protect ctx ~slot:2
             (if c.prev_node = 0 then c.head else c.prev_node);
           sch.Scheme.write_protect ctx ~slot:3 c.cur;
           if c.next <> 0 then sch.Scheme.write_protect ctx ~slot:4 c.next;
           sch.Scheme.validate ctx;
           if Vmem.cas vm ctx c.prev ~expect:c.cur ~desired:c.next then
             retire_node sch ctx c.cur
         with Scheme.Restart -> ());
        true
      end
    end
  end

let delete_at t ctx ~head key =
  let c = cursor t ctx ~head ~key in
  c.deleted <- false;
  Op.run t.scheme ctx Profile.Op_delete delete_body t c

let delete t ctx key = delete_at t ctx ~head:t.head key

(* Sequential bulk construction for setup/prefill phases: builds the chain
   directly instead of paying O(n) traversal per insert.  The list must be
   empty and the caller single-threaded (use an external/uncosted ctx for
   benchmark prefills). *)
let build_sorted t ctx keys =
  let keys = List.sort_uniq compare keys in
  let rec link prev_link = function
    | [] -> Vmem.store t.vmem ctx prev_link Node.null
    | k :: rest ->
        let n = t.scheme.Scheme.alloc ctx t.node_words in
        Vmem.store t.vmem ctx (Node.key_of n) k;
        Vmem.store t.vmem ctx prev_link n;
        link (Node.next_of n) rest
  in
  link t.head keys

(* Uncosted sequential snapshot for tests: keys of unmarked nodes. *)
let to_list t =
  let rec go acc cur =
    (* the walked value may carry a mark (a logically deleted node never
       physically unlinked), including a marked null at the tail *)
    let c = Node.unmark cur in
    if c = Node.null then List.rev acc
    else
      let next = Vmem.peek t.vmem (Node.next_of c) in
      let key = Vmem.peek t.vmem (Node.key_of c) in
      if Node.is_marked next then go acc next
      else go (key :: acc) next
  in
  go [] (Vmem.peek t.vmem t.head)

(* Uncosted count of the unmarked nodes of the list at [head] (quiescent
   state), walked without building a list. *)
let rec count vm acc cur =
  let c = Node.unmark cur in
  if c = Node.null then acc
  else
    let next = Vmem.peek vm (Node.next_of c) in
    count vm (if Node.is_marked next then acc else acc + 1) next

let length_at t ~head = count t.vmem 0 (Vmem.peek t.vmem head)
let length t = length_at t ~head:t.head
