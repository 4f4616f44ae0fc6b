(* Treiber's lock-free stack over simulated memory, reclaimed through the
   generic scheme interface.

   The stack is the canonical ABA victim: a pop's CAS can succeed against a
   head node that was popped, freed, reused and pushed back with a stale
   next pointer.  Under the OA schemes the [validate] before the CAS (which
   observes any warning fired by the free) is what makes the CAS safe; under
   hazard pointers the pre-read protection does.  This makes the stack a
   good minimal exerciser of the reclamation contract beyond lists.

   Node layout: word 0 = value, word 1 = next. *)

open Oamem_engine
open Oamem_vmem
open Oamem_reclaim
module Profile = Oamem_obs.Profile

type t = {
  scheme : Scheme.ops;
  vmem : Vmem.t;
  top : int;  (* address of the word holding the top-node pointer *)
}

let create ctx ~scheme ~vmem =
  let top = scheme.Scheme.alloc ctx Node.words in
  Vmem.store vmem ctx top Node.null;
  { scheme; vmem; top }

(* Same restart-attribution and checkpoint protocol as [Hm_list] — see
   {!Op.run}.  The bodies here are closures built per operation. *)
let run_op t ctx frame f = Op.run t.scheme ctx frame (fun f _ () -> f ()) f ()

let push t ctx value =
  let sch = t.scheme and vm = t.vmem in
  run_op t ctx Profile.Op_push (fun () ->
      let node = sch.Scheme.alloc ctx Node.words in
      match
        Vmem.store vm ctx node value;
        let rec loop () =
          let head = Vmem.load vm ctx t.top in
          sch.Scheme.read_check ctx;
          Vmem.store vm ctx (Node.next_of node) head;
          (* the CAS writes only into the never-reclaimed top word and links
             the still-private node: nothing to hazard beyond validation *)
          sch.Scheme.validate ctx;
          if Vmem.cas vm ctx t.top ~expect:head ~desired:node then ()
          else begin
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

let pop t ctx =
  let sch = t.scheme and vm = t.vmem in
  run_op t ctx Profile.Op_pop (fun () ->
      let rec loop () =
        let head = Vmem.load vm ctx t.top in
        sch.Scheme.read_check ctx;
        if head = Node.null then None
        else begin
          (* hazard-pointer schemes must pin head before dereferencing *)
          sch.Scheme.traverse_protect ctx ~slot:0 ~addr:head ~link:t.top
            ~expect:head;
          let next = Vmem.load vm ctx (Node.next_of head) in
          sch.Scheme.read_check ctx;
          let value = Vmem.load vm ctx head in
          sch.Scheme.read_check ctx;
          sch.Scheme.write_protect ctx ~slot:2 head;
          if next <> Node.null then sch.Scheme.write_protect ctx ~slot:3 next;
          sch.Scheme.validate ctx;
          if Vmem.cas vm ctx t.top ~expect:head ~desired:next then begin
            (* no yield separates the CAS from the masked retire, so the
               linearized pop cannot be unwound before the node reaches a
               limbo bag *)
            Op.retire_node sch ctx head;
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
  let v = Vmem.load t.vmem ctx t.top in
  t.scheme.Scheme.read_check ctx;
  v = Node.null

(* Uncosted snapshot for tests (quiescent state only). *)
let to_list t =
  let rec go acc cur =
    if cur = Node.null then List.rev acc
    else
      go (Vmem.peek t.vmem cur :: acc) (Vmem.peek t.vmem (Node.next_of cur))
  in
  go [] (Vmem.peek t.vmem t.top)

let length t = List.length (to_list t)
