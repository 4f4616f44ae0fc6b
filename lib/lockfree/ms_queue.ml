(* Michael & Scott's lock-free FIFO queue over simulated memory, reclaimed
   through the generic scheme interface.

   The queue keeps a sentinel node; [head] and [tail] live in one block
   (words 0 and 1).  Dequeue retires the outgoing sentinel — under the
   optimistic-access schemes the retired sentinel's memory flows back
   through palloc like any other node, which the original OA's fixed pools
   could not offer to the rest of the process.

   Node layout: word 0 = value, word 1 = next. *)

open Oamem_engine
open Oamem_vmem
open Oamem_reclaim
module Profile = Oamem_obs.Profile

type t = {
  scheme : Scheme.ops;
  vmem : Vmem.t;
  head : int;  (* word holding the sentinel pointer *)
  tail : int;  (* word holding the tail hint *)
}

let create ctx ~scheme ~vmem =
  let anchor = scheme.Scheme.alloc ctx Node.words in
  let head = anchor and tail = anchor + 1 in
  let sentinel = scheme.Scheme.alloc ctx Node.words in
  Vmem.store vmem ctx (Node.next_of sentinel) Node.null;
  Vmem.store vmem ctx head sentinel;
  Vmem.store vmem ctx tail sentinel;
  { scheme; vmem; head; tail }

(* Same restart-attribution and checkpoint protocol as [Hm_list] — see
   {!Op.run}.  The bodies here are closures built per operation. *)
let run_op t ctx frame f = Op.run t.scheme ctx frame (fun f _ () -> f ()) f ()

let enqueue t ctx value =
  let sch = t.scheme and vm = t.vmem in
  run_op t ctx Profile.Op_enqueue (fun () ->
      let node = sch.Scheme.alloc ctx Node.words in
      match
        Vmem.store vm ctx node value;
        Vmem.store vm ctx (Node.next_of node) Node.null;
        let rec loop () =
          let tl = Vmem.load vm ctx t.tail in
          sch.Scheme.read_check ctx;
          sch.Scheme.traverse_protect ctx ~slot:0 ~addr:tl ~link:t.tail
            ~expect:tl;
          let next = Vmem.load vm ctx (Node.next_of tl) in
          sch.Scheme.read_check ctx;
          if next = Node.null then begin
            (* the CAS writes into tl and links the private node *)
            sch.Scheme.write_protect ctx ~slot:2 tl;
            sch.Scheme.validate ctx;
            if
              Vmem.cas vm ctx (Node.next_of tl) ~expect:Node.null
                ~desired:node
            then
              (* swing the tail hint; losing this race is harmless.  The
                 node is published from here on: mask the swing so a signal
                 cannot unwind between linearization and return. *)
              Op.masked_when_neutralizable sch ctx (fun () ->
                  ignore (Vmem.cas vm ctx t.tail ~expect:tl ~desired:node))
            else begin
              Engine.Mem.pause ctx;
              loop ()
            end
          end
          else begin
            (* help a lagging enqueuer move the tail hint forward *)
            sch.Scheme.write_protect ctx ~slot:2 tl;
            sch.Scheme.write_protect ctx ~slot:3 next;
            sch.Scheme.validate ctx;
            ignore (Vmem.cas vm ctx t.tail ~expect:tl ~desired:next);
            Engine.Mem.pause ctx;
            loop ()
          end
        in
        loop ()
      with
      | () -> ()
      | exception ((Scheme.Restart | Engine.Neutralized) as e) ->
          (* only reachable pre-publish: the node is still private, so
             reclaim it before the retry allocates a fresh one *)
          Op.cancel_node sch ctx node;
          raise e)

let dequeue t ctx =
  let sch = t.scheme and vm = t.vmem in
  run_op t ctx Profile.Op_dequeue (fun () ->
      let rec loop () =
        let hd = Vmem.load vm ctx t.head in
        sch.Scheme.read_check ctx;
        sch.Scheme.traverse_protect ctx ~slot:0 ~addr:hd ~link:t.head
          ~expect:hd;
        let tl = Vmem.load vm ctx t.tail in
        sch.Scheme.read_check ctx;
        let next = Vmem.load vm ctx (Node.next_of hd) in
        sch.Scheme.read_check ctx;
        if hd = tl then
          if next = Node.null then None
          else begin
            (* tail is lagging: help before retrying *)
            sch.Scheme.write_protect ctx ~slot:2 tl;
            sch.Scheme.write_protect ctx ~slot:3 next;
            sch.Scheme.validate ctx;
            ignore (Vmem.cas vm ctx t.tail ~expect:tl ~desired:next);
            Engine.Mem.pause ctx;
            loop ()
          end
        else begin
          sch.Scheme.traverse_protect ctx ~slot:1 ~addr:next
            ~link:(Node.next_of hd) ~expect:next;
          let value = Vmem.load vm ctx next in
          sch.Scheme.read_check ctx;
          sch.Scheme.write_protect ctx ~slot:2 hd;
          sch.Scheme.write_protect ctx ~slot:3 next;
          sch.Scheme.validate ctx;
          if Vmem.cas vm ctx t.head ~expect:hd ~desired:next then begin
            (* the outgoing sentinel is ours to retire; no yield separates
               the CAS from the masked retire, so the linearized dequeue
               cannot be unwound before the node reaches a limbo bag *)
            Op.retire_node sch ctx hd;
            Some value
          end
          else begin
            Engine.Mem.pause ctx;
            loop ()
          end
        end
      in
      loop ())

let is_empty t ctx =
  let hd = Vmem.load t.vmem ctx t.head in
  t.scheme.Scheme.read_check ctx;
  let next = Vmem.load t.vmem ctx (Node.next_of hd) in
  t.scheme.Scheme.read_check ctx;
  next = Node.null

(* Uncosted snapshot for tests (quiescent state only): front first. *)
let to_list t =
  let sentinel = Vmem.peek t.vmem t.head in
  let rec go acc cur =
    if cur = Node.null then List.rev acc
    else go (Vmem.peek t.vmem cur :: acc) (Vmem.peek t.vmem (Node.next_of cur))
  in
  go [] (Vmem.peek t.vmem (Node.next_of sentinel))

let length t = List.length (to_list t)
