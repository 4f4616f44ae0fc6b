(* IBR — 2GE interval-based reclamation (Wen et al., PPoPP 2018), one of the
   amortized methods the paper positions itself against (§1).

   Every node carries a hidden two-word header holding its birth and retire
   eras (the scheme over-allocates by two words and hands out the address
   past the header).  Each thread publishes the interval of eras its current
   operation has observed: [lo] is the era at operation start and [hi] is
   advanced — without restarting — whenever a read notices the global era
   moved.  A retired node is freed once no thread's published interval
   overlaps the node's lifetime interval.

   Unlike the OA schemes there are no restarts at all; unlike EBR a stalled
   thread only pins nodes whose lifetimes overlap its interval, not every
   retired node.  The cost is the header traffic and the per-read era
   check. *)

open Oamem_engine
open Oamem_vmem

type thread_state = {
  lo : Cell.t;  (* published interval; 0 = inactive *)
  hi : Cell.t;
  limbo : Limbo.t;  (* addresses of retired nodes (header addresses) *)
}

let header_words = 2

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
  let vmem = Oamem_lrmalloc.Lrmalloc.vmem lr in
  let geom = Vmem.geometry vmem in
  let era = Cell.make ~pad:true meta 1 in
  let threads =
    Array.init nthreads (fun _ ->
        {
          lo = Cell.make ~pad:true meta 0;
          hi = Cell.make meta 0;
          limbo = Limbo.create meta ~geom ~capacity_hint:cfg.Scheme.threshold;
        })
  in
  let sink = Scheme.fresh_sink () in
  let my ctx = threads.((Engine.Mem.tid ctx)) in
  (* bump the era every [threshold] retirements: the 2GE amortization *)
  let retire_count = ref 0 in
  let birth_of ctx header = Vmem.load vmem ctx header in
  let retire_of ctx header = Vmem.load vmem ctx (header + 1) in
  let sweep ctx =
    let t = my ctx in
    (* snapshot every thread's published interval (charged reads) *)
    let intervals =
      Array.to_list threads
      |> List.filter_map (fun th ->
             let lo = Cell.get ctx th.lo in
             if lo = 0 then None else Some (lo, Cell.get ctx th.hi))
    in
    let freed =
      Limbo.sweep t.limbo ctx
        ~protected:(fun header ->
          let birth = birth_of ctx header in
          let retired = retire_of ctx header in
          List.exists (fun (lo, hi) -> birth <= hi && retired >= lo) intervals)
        ~free:(fun header -> Oamem_lrmalloc.Lrmalloc.free lr ctx header)
    in
    Scheme.note_reclaim_phase sink ctx ~freed
  in
  {
    Scheme.name = "ibr";
    caps;
    alloc =
      (fun ctx size ->
        let header = Oamem_lrmalloc.Lrmalloc.malloc lr ctx (size + header_words) in
        Vmem.store vmem ctx header (Cell.get ctx era);
        Vmem.store vmem ctx (header + 1) max_int;
        header + header_words);
    retire =
      (fun ctx addr ->
        let t = my ctx in
        let header = addr - header_words in
        Vmem.store vmem ctx (header + 1) (Cell.get ctx era);
        Limbo.add t.limbo ctx header;
        Scheme.note_retired sink ctx addr;
        incr retire_count;
        if !retire_count mod cfg.Scheme.threshold = 0 then begin
          ignore (Cell.fetch_and_add ctx era 1);
          Scheme.note_warning sink ctx ~piggybacked:false
        end;
        if Limbo.size t.limbo >= cfg.Scheme.threshold then sweep ctx);
    cancel =
      (fun ctx addr ->
        Oamem_lrmalloc.Lrmalloc.free lr ctx (addr - header_words));
    begin_op =
      (fun ctx ->
        let t = my ctx in
        let e = Cell.get ctx era in
        Cell.set ctx t.lo e;
        Cell.set ctx t.hi e;
        Engine.Mem.fence ctx Engine.Full);
    end_op =
      (fun ctx ->
        let t = my ctx in
        Cell.set ctx t.lo 0);
    read_check =
      (fun ctx ->
        (* no restarts: extend the published interval instead *)
        let t = my ctx in
        let e = Cell.get ctx era in
        if Cell.peek t.hi <> e then begin
          Cell.set ctx t.hi e;
          Engine.Mem.fence ctx Engine.Full
        end);
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun _ctx ~slot:_ _ -> ());
    validate = (fun _ -> ());
    clear = (fun _ -> ());
    flush =
      (fun ctx ->
        let t = my ctx in
        if Limbo.size t.limbo > 0 then begin
          ignore (Cell.fetch_and_add ctx era 1);
          sweep ctx
        end);
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
