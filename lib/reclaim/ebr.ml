(* EBR — epoch-based reclamation, an extra baseline.

   Threads announce the global epoch on every operation; a node retired in
   epoch [e] is freed once the epoch has advanced twice past it, which
   guarantees no thread still executes an operation that began while the
   node was reachable.  Cheap steady-state reads, but a single stalled
   thread blocks reclamation entirely — the classic EBR weakness (and one
   reason the paper's OA schemes are attractive). *)

open Oamem_engine

type thread_state = {
  buckets : Limbo.t array;  (* 3 buckets, indexed by epoch mod 3 *)
}

let caps : Scheme.caps =
  {
    hazard_writes = false;
    neutralizes = false;
    recycles_retired = false;
    leaks_by_design = false;
    conditional_access = false;
    frees_immediately = false;
  }

let make (cfg : Scheme.config) ~alloc:(lr : Oamem_lrmalloc.Lrmalloc.t) ~meta
    ~nthreads : Scheme.ops =
  let geom = Oamem_vmem.Vmem.geometry (Oamem_lrmalloc.Lrmalloc.vmem lr) in
  let global_epoch = Cell.make ~pad:true meta 2 in
  (* announce = epoch while active, 0 while idle *)
  let announces = Array.init nthreads (fun _ -> Cell.make ~pad:true meta 0) in
  let threads =
    Array.init nthreads (fun _ ->
        {
          buckets =
            Array.init 3 (fun _ ->
                Limbo.create meta ~geom ~capacity_hint:cfg.Scheme.threshold);
        })
  in
  let sink = Scheme.fresh_sink () in
  let my ctx = threads.((Engine.Mem.tid ctx)) in
  (* Free the bucket holding nodes retired in epoch [e - 2]: once the
     global epoch has reached [e], every operation that could still hold a
     reference to them has completed. *)
  let free_old_bucket ctx e =
    let t = my ctx in
    let b = t.buckets.((e - 2) mod 3) in
    if Limbo.size b > 0 then begin
      let freed =
        Limbo.sweep b ctx
          ~protected:(fun _ -> false)
          ~free:(fun n -> Oamem_lrmalloc.Lrmalloc.free lr ctx n)
      in
      Scheme.note_reclaim_phase sink ctx ~freed
    end
  in
  let try_advance ctx =
    let e = Cell.get ctx global_epoch in
    let all_current = ref true in
    Array.iter
      (fun a ->
        let v = Cell.get ctx a in
        if v <> 0 && v <> e then all_current := false)
      announces;
    if !all_current then
      if Cell.cas ctx global_epoch ~expect:e ~desired:(e + 1) then
        Scheme.note_warning sink ctx ~piggybacked:false
  in
  {
    Scheme.name = "ebr";
    caps;
    alloc = (fun ctx size -> Oamem_lrmalloc.Lrmalloc.malloc lr ctx size);
    retire =
      (fun ctx addr ->
        let t = my ctx in
        let e = Cell.get ctx global_epoch in
        (* drain the bucket two epochs back before reusing its slot *)
        free_old_bucket ctx e;
        let b = t.buckets.(e mod 3) in
        Limbo.add b ctx addr;
        Scheme.note_retired sink ctx addr;
        if Limbo.size b >= cfg.Scheme.threshold then try_advance ctx);
    cancel = (fun ctx addr -> Oamem_lrmalloc.Lrmalloc.free lr ctx addr);
    begin_op =
      (fun ctx ->
        let e = Cell.get ctx global_epoch in
        Cell.set ctx announces.((Engine.Mem.tid ctx)) e;
        Engine.Mem.fence ctx Engine.Full);
    end_op = (fun ctx -> Cell.set ctx announces.((Engine.Mem.tid ctx)) 0);
    read_check = (fun _ -> ());
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun _ctx ~slot:_ _ -> ());
    validate = (fun _ -> ());
    clear = (fun _ -> ());
    flush =
      (fun ctx ->
        (* teardown: the caller guarantees quiescence, so everything goes *)
        let t = my ctx in
        Array.iter
          (fun b ->
            let freed =
              Limbo.sweep b ctx
                ~protected:(fun _ -> false)
                ~free:(fun n -> Oamem_lrmalloc.Lrmalloc.free lr ctx n)
            in
            Scheme.note_freed sink freed)
          t.buckets);
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
