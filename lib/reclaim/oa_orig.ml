(* OA — the original optimistic-access method (Cohen & Petrank, SPAA 2015),
   as the paper's §5 baseline.

   A fixed pool of nodes is allocated with regular malloc once, up front;
   the method then recycles nodes internally through three shared pools
   (§2.4): [ready] (allocatable), [retire] (retired this phase) and
   [processing] (being recycled).  When [ready] runs dry a recycling phase
   starts: the retire pool is detached into processing, every thread's
   warning bit is set, all hazard pointers are collected, and each
   processing node goes back to [ready] (unprotected) or [retire]
   (protected).

   Because the pools are shared and fixed-size, every allocation and
   retirement contends on global stack heads, and higher throughput means
   more phases — the scalability ceiling visible in Figs. 5 and 6.  Phase
   mutual exclusion is a CAS-guarded flag with waiting rather than the full
   helping protocol of the original paper; the synchronisation traffic it
   models (pool contention, full scans, stalls during phases) is the same,
   which is what the evaluation compares.  Memory is never returned to the
   allocator — the exact limitation the paper removes. *)

open Oamem_engine

type thread_state = { warning : Cell.t }

let caps : Scheme.caps =
  {
    hazard_writes = true;
    neutralizes = false;
    recycles_retired = true;
    leaks_by_design = true;
    conditional_access = false;
    frees_immediately = false;
  }

let make (cfg : Scheme.config) ~alloc:(lr : Oamem_lrmalloc.Lrmalloc.t) ~meta
    ~nthreads : Scheme.ops =
  let vmem = Oamem_lrmalloc.Lrmalloc.vmem lr in
  let hazards =
    Hazard_slots.create ~padded:cfg.Scheme.hazard_padded meta ~nthreads
      ~k:cfg.Scheme.slots_per_thread
  in
  let threads =
    Array.init nthreads (fun _ -> { warning = Cell.make ~pad:true meta 0 })
  in
  let ready = Addr_stack.create meta vmem in
  let retire_pool = Addr_stack.create meta vmem in
  (* the "processing pool" is the chain detached from [retire_pool] during a
     phase; the phase owner walks it exclusively *)
  let phase_flag = Cell.make ~pad:true meta 0 in
  let sink = Scheme.fresh_sink () in
  (* Build the fixed memory pool before the benchmark begins, with the
     regular allocator (uncosted, as in the paper's methodology §5.1). *)
  let () =
    let ctx0 = Engine.external_ctx () in
    for _ = 1 to cfg.Scheme.pool_nodes do
      Addr_stack.push ready ctx0
        (Oamem_lrmalloc.Lrmalloc.malloc lr ctx0 cfg.Scheme.node_words)
    done
  in
  let my ctx = threads.((Engine.Mem.tid ctx)) in
  let read_check ctx =
    Engine.Mem.fence ctx Engine.Compiler;
    let t = my ctx in
    if Cell.get ctx t.warning <> 0 then begin
      ignore (Cell.exchange ctx t.warning 0);
      raise Scheme.Restart
    end
  in
  (* One recycling phase; the caller holds the phase flag. *)
  let run_phase ctx =
    let head = Addr_stack.take_all retire_pool ctx in
    for tid = 0 to nthreads - 1 do
      if tid <> (Engine.Mem.tid ctx) then begin
        Cell.set ctx threads.(tid).warning 1;
        Scheme.note_warning sink ctx ~piggybacked:false
      end
    done;
    Engine.Mem.fence ctx Engine.Full;
    let snapshot = Hazard_slots.snapshot ctx hazards in
    let freed = ref 0 in
    Addr_stack.iter_chain retire_pool ctx head (fun n ->
        if Hazard_slots.protects snapshot n then Addr_stack.push retire_pool ctx n
        else begin
          Addr_stack.push ready ctx n;
          incr freed
        end);
    Scheme.note_reclaim_phase sink ctx ~freed:!freed
  in
  let rec alloc ctx size =
    if size > cfg.Scheme.node_words then
      invalid_arg "Oa_orig.alloc: node larger than the pool's node size";
    match Addr_stack.pop ready ctx with
    | Some addr -> addr
    | None ->
        if Cell.cas ctx phase_flag ~expect:0 ~desired:1 then begin
          run_phase ctx;
          Cell.set ctx phase_flag 0
        end
        else begin
          (* another thread is recycling; wait for it *)
          while Cell.get ctx phase_flag = 1 do
            Engine.Mem.pause ctx
          done
        end;
        Engine.Mem.pause ctx;
        alloc ctx size
  in
  {
    Scheme.name = "oa";
    caps;
    alloc;
    retire =
      (fun ctx addr ->
        Addr_stack.push retire_pool ctx addr;
        Scheme.note_retired sink ctx addr);
    cancel = (fun ctx addr -> Addr_stack.push ready ctx addr);
    begin_op = (fun _ -> ());
    end_op = (fun _ -> ());
    read_check;
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun ctx ~slot addr -> Hazard_slots.set ctx hazards ~slot addr);
    validate =
      (fun ctx ->
        Engine.Mem.fence ctx Engine.Full;
        read_check ctx);
    clear = (fun ctx -> Hazard_slots.clear ctx hazards);
    flush = (fun _ -> ());
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
