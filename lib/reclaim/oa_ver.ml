(* OA-VER — the paper's monotonic-global-clock variant (Algorithm 2),
   borrowing the warning mechanism of VBR.

   Instead of one warning bit per thread, a single global clock is bumped to
   warn everybody at once; readers compare it against the value they last
   saw.  Warnings are *atomic*, so threads can piggy-back on each other:
   a thread about to reclaim can skip firing its own warning if the clock
   already moved since its last retirement — including when its CAS on the
   clock fails because another thread just fired.  This is what lets OA-VER
   fire far fewer warnings (and hence cause far fewer restarts) than OA-BIT
   on long-chain structures such as linked lists (§5.2, Fig. 4a). *)

open Oamem_engine

type thread_state = {
  limbo : Limbo.t;
  mutable local_clock : int;
  mutable last_retire_time : int;
}

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
  let global_clock = Cell.make ~pad:true meta 1 in
  let threads =
    Array.init nthreads (fun _ ->
        {
          limbo = Limbo.create meta ~geom ~capacity_hint:cfg.Scheme.threshold;
          local_clock = 1;
          last_retire_time = 0;
        })
  in
  let sink = Scheme.fresh_sink () in
  let my ctx = threads.((Engine.Mem.tid ctx)) in
  let read_check ctx =
    Engine.Mem.fence ctx Engine.Compiler;
    let t = my ctx in
    let g = Cell.get ctx global_clock in
    if g <> t.local_clock then begin
      t.local_clock <- g;
      raise Scheme.Restart
    end
  in
  let do_reclaim ctx =
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
  (* Algorithm 2, with one refinement found by the race tests: the paper's
     pseudocode records [LastRetireTime <- LocalClock], but [LocalClock] can
     lag the global clock, letting a thread piggy-back on a warning that was
     fired *before* its nodes were retired — a reader that captured the
     already-bumped clock then sees no change when those nodes are freed,
     and a writer's validation can pass over freed memory.  Recording the
     retirement time with a fresh read of the global clock closes the
     window: reclaiming still requires a warning that strictly postdates
     every retirement in the limbo list, and the piggy-backing benefit on
     genuinely newer warnings is preserved. *)
  let retire ctx addr =
    let t = my ctx in
    if Limbo.size t.limbo >= cfg.Scheme.threshold then begin
      if t.last_retire_time >= t.local_clock then begin
        (* no warning since our last retirement: fire one (or piggy-back on
           a concurrent thread's successful fire when our CAS fails) *)
        if
          Cell.cas ctx global_clock ~expect:t.local_clock
            ~desired:(t.local_clock + 1)
        then Scheme.note_warning sink ctx ~piggybacked:false
        else Scheme.note_warning sink ctx ~piggybacked:true;
        t.local_clock <- Cell.get ctx global_clock
      end
      else Scheme.note_warning sink ctx ~piggybacked:true
    end;
    if
      t.last_retire_time < t.local_clock
      && Limbo.size t.limbo >= cfg.Scheme.threshold
    then do_reclaim ctx;
    (* fresh read: the retirement is stamped against the real clock *)
    t.last_retire_time <- Cell.get ctx global_clock;
    Limbo.add t.limbo ctx addr;
    Scheme.note_retired sink ctx addr
  in
  {
    Scheme.name = "oa-ver";
    caps;
    alloc = (fun ctx size -> Oamem_lrmalloc.Lrmalloc.palloc lr ctx size);
    retire;
    cancel = (fun ctx addr -> Oamem_lrmalloc.Lrmalloc.free lr ctx addr);
    begin_op =
      (fun ctx ->
        let t = my ctx in
        t.local_clock <- Cell.get ctx global_clock);
    end_op = (fun _ -> ());
    read_check;
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun ctx ~slot addr -> Hazard_slots.set ctx hazards ~slot addr);
    validate =
      (fun ctx ->
        Engine.Mem.fence ctx Engine.Full;
        read_check ctx);
    clear = (fun ctx -> Hazard_slots.clear ctx hazards);
    flush =
      (fun ctx ->
        let t = my ctx in
        if Limbo.size t.limbo > 0 then begin
          (* force a fresh warning so everything unprotected can go *)
          ignore
            (Cell.cas ctx global_clock ~expect:t.local_clock
               ~desired:(t.local_clock + 1));
          Scheme.note_warning sink ctx ~piggybacked:false;
          t.local_clock <- Cell.get ctx global_clock;
          do_reclaim ctx;
          t.last_retire_time <- t.local_clock
        end);
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
