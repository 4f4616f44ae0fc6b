(* NR — no reclamation (paper §5 baseline).

   Memory is never reclaimed, reused or freed; allocation goes through the
   regular malloc path.  All validation hooks are no-ops. *)

open Oamem_engine

let caps : Scheme.caps =
  {
    hazard_writes = false;
    neutralizes = false;
    recycles_retired = false;
    leaks_by_design = true;
    conditional_access = false;
    frees_immediately = false;
  }

let make (_cfg : Scheme.config) ~alloc:(lr : Oamem_lrmalloc.Lrmalloc.t)
    ~meta:(_ : Cell.heap) ~nthreads:(_ : int) : Scheme.ops =
  let sink = Scheme.fresh_sink () in
  {
    Scheme.name = "nr";
    caps;
    alloc = (fun ctx size -> Oamem_lrmalloc.Lrmalloc.malloc lr ctx size);
    retire =
      (fun ctx addr ->
        (* leak, deliberately *)
        Scheme.note_retired sink ctx addr);
    cancel = (fun _ctx _addr -> ());
    begin_op = (fun _ -> ());
    end_op = (fun _ -> ());
    read_check = (fun _ -> ());
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun _ctx ~slot:_ _ -> ());
    validate = (fun _ -> ());
    clear = (fun _ -> ());
    flush = (fun _ -> ());
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
