(* HP — classic hazard pointers (Michael 2004), an extra baseline.

   The contrast with OA is the paper's §2.4 cost argument: hazard pointers
   publish a pointer (a store that invalidates remote cache copies) plus a
   full store-load fence *per node traversed*, then re-verify the link;
   OA replaces all of that with one cached load per node. *)

open Oamem_engine

type thread_state = { limbo : Limbo.t }

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
  let vmem = Oamem_lrmalloc.Lrmalloc.vmem lr in
  let geom = Oamem_vmem.Vmem.geometry vmem in
  let hazards =
    Hazard_slots.create ~padded:cfg.Scheme.hazard_padded meta ~nthreads
      ~k:cfg.Scheme.slots_per_thread
  in
  let threads =
    Array.init nthreads (fun _ ->
        { limbo = Limbo.create meta ~geom ~capacity_hint:cfg.Scheme.threshold })
  in
  let sink = Scheme.fresh_sink () in
  let my ctx = threads.((Engine.Mem.tid ctx)) in
  let scan ctx =
    let t = my ctx in
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
    Scheme.name = "hp";
    caps;
    alloc = (fun ctx size -> Oamem_lrmalloc.Lrmalloc.malloc lr ctx size);
    retire =
      (fun ctx addr ->
        let t = my ctx in
        Limbo.add t.limbo ctx addr;
        Scheme.note_retired sink ctx addr;
        if Limbo.size t.limbo >= cfg.Scheme.threshold then scan ctx);
    cancel = (fun ctx addr -> Oamem_lrmalloc.Lrmalloc.free lr ctx addr);
    begin_op = (fun _ -> ());
    end_op = (fun _ -> ());
    read_check = (fun _ -> ());
    traverse_protect =
      (fun ctx ~slot ~addr ~link ~expect ->
        (* publish, fence, re-verify the source link: the per-node cost *)
        Hazard_slots.set ctx hazards ~slot addr;
        Engine.Mem.fence ctx Engine.Full;
        if Oamem_vmem.Vmem.load vmem ctx link <> expect then
          raise Scheme.Restart);
    write_protect = (fun ctx ~slot addr -> Hazard_slots.set ctx hazards ~slot addr);
    validate = (fun _ -> ());
    clear = (fun ctx -> Hazard_slots.clear ctx hazards);
    flush =
      (fun ctx ->
        let t = my ctx in
        if Limbo.size t.limbo > 0 then scan ctx);
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
