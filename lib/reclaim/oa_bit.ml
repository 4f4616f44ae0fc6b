(* OA-BIT — the paper's simplified optimistic-access reclaimer with one
   warning bit per thread (Algorithm 1).

   Nodes are allocated with [palloc], so their address ranges stay readable
   after free; the recycling pools of the original OA disappear entirely.
   Retired nodes go to the retiring thread's private limbo list; when it
   reaches the threshold the thread sets every other thread's warning bit,
   fences, snapshots all hazard pointers and frees the unprotected nodes
   back to the allocator — where they become reusable by the whole process.

   Traversals only pay one (usually cached) load of their own warning bit
   per node plus a compiler barrier — the §2.4 cost argument; writes pay
   one full fence for any number of hazard pointers. *)

open Oamem_engine

type thread_state = { warning : Cell.t; limbo : Limbo.t }

let caps : Scheme.caps =
  {
    hazard_writes = true;
    neutralizes = false;
    recycles_retired = false;
    leaks_by_design = false;
    conditional_access = false;
    frees_immediately = false;
  }

let make (cfg : Scheme.config) ~alloc:(lr : Oamem_lrmalloc.Lrmalloc.t) ~meta
    ~nthreads : Scheme.ops =
  let geom = Oamem_vmem.Vmem.geometry (Oamem_lrmalloc.Lrmalloc.vmem lr) in
  let hazards =
    Hazard_slots.create ~padded:cfg.Scheme.hazard_padded meta ~nthreads
      ~k:cfg.Scheme.slots_per_thread
  in
  let threads =
    Array.init nthreads (fun _ ->
        {
          warning = Cell.make ~pad:true meta 0;
          limbo = Limbo.create meta ~geom ~capacity_hint:cfg.Scheme.threshold;
        })
  in
  let sink = Scheme.fresh_sink () in
  let my ctx = threads.((Engine.Mem.tid ctx)) in
  (* One optimistic-read validation: a load of the thread's own bit (cache
     hit unless someone warned us) behind a compiler-only barrier (TSO). *)
  let read_check ctx =
    Engine.Mem.fence ctx Engine.Compiler;
    let t = my ctx in
    if Cell.get ctx t.warning <> 0 then begin
      (* consume the warning atomically so a concurrent setter is not lost *)
      ignore (Cell.exchange ctx t.warning 0);
      raise Scheme.Restart
    end
  in
  let reclaim ctx =
    let t = my ctx in
    (* warn every thread (Alg. 1 warns all, including the reclaimer), then
       make the warnings visible *)
    for tid = 0 to nthreads - 1 do
      Cell.set ctx threads.(tid).warning 1;
      Scheme.note_warning sink ctx ~piggybacked:false
    done;
    Engine.Mem.fence ctx Engine.Full;
    let snapshot = Hazard_slots.snapshot ctx hazards in
    let freed =
      Limbo.sweep t.limbo ctx
        ~protected:(fun n -> Hazard_slots.protects snapshot n)
        ~free:(fun n -> Oamem_lrmalloc.Lrmalloc.free lr ctx n)
    in
    Scheme.note_reclaim_phase sink ctx ~freed
  in
  {
    Scheme.name = "oa-bit";
    caps;
    alloc = (fun ctx size -> Oamem_lrmalloc.Lrmalloc.palloc lr ctx size);
    retire =
      (fun ctx addr ->
        let t = my ctx in
        Limbo.add t.limbo ctx addr;
        Scheme.note_retired sink ctx addr;
        if Limbo.size t.limbo >= cfg.Scheme.threshold then reclaim ctx);
    cancel = (fun ctx addr -> Oamem_lrmalloc.Lrmalloc.free lr ctx addr);
    begin_op = (fun _ -> ());
    end_op = (fun _ -> ());
    read_check;
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun ctx ~slot addr -> Hazard_slots.set ctx hazards ~slot addr);
    validate =
      (fun ctx ->
        (* one fence + one warning check covers all hazard pointers set *)
        Engine.Mem.fence ctx Engine.Full;
        read_check ctx);
    clear = (fun ctx -> Hazard_slots.clear ctx hazards);
    flush =
      (fun ctx ->
        let t = my ctx in
        if Limbo.size t.limbo > 0 then reclaim ctx);
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
