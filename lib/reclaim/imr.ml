(* IMR — immediate memory reclamation over conditional access.

   The scheme the paper's conditional-access hardware sketch enables: a
   retired node is freed *immediately*, with no limbo list, no hazard
   pointers and no grace period.  Safety comes from the engine's revocable
   per-thread accessible flag: before freeing, the retiring thread revokes
   the flag of every other thread that has entered the scheme's protocol
   (begun an op, allocated, or read-checked), so any store or CAS a
   concurrent optimistic
   traversal commits from then on is squashed by the (simulated) hardware
   and CASes report failure.  A revoked thread discovers the revocation at
   its next [read_check]/[validate], re-grants its own flag and restarts
   from a safe location — the same restart contract the OA schemes use,
   with the revocation playing the role of the warning bit.

   Why this is safe with an immediate free: the unlink CAS that retired the
   node happens before retire -> revoke-all -> free, so any traversal that
   starts (or restarts) after the revocation can no longer reach the node;
   traversals that were already past the unlink can still *load* freed
   memory (palloc keeps the pages mapped, exactly as for OA-BIT) but every
   store they attempt is squashed until they restart.  The squash closes
   the validate->CAS window that hazard pointers close for HP/OA.

   Scheme-internal code (allocator free lists, this module's own
   bookkeeping) must not be squashed when the *current* thread's flag is
   revoked — an allocator CAS retry loop would otherwise livelock — so
   every entry point that mutates scheme or allocator state self-masks via
   [Engine.Mem.masked], mirroring what [Op]-level masking does for
   neutralizable schemes. *)

open Oamem_engine

let caps : Scheme.caps =
  {
    hazard_writes = false;
    neutralizes = false;
    recycles_retired = false;
    leaks_by_design = false;
    conditional_access = true;
    frees_immediately = true;
  }

let make (_cfg : Scheme.config) ~alloc:(lr : Oamem_lrmalloc.Lrmalloc.t)
    ~meta:(_ : Cell.heap) ~nthreads : Scheme.ops =
  let sink = Scheme.fresh_sink () in
  (* Only threads that entered the scheme's protocol can hold optimistic
     pointers into retired nodes, so retire revokes exactly those.  A
     bystander engine thread (a sampler, a ballast allocator) never begins
     an op; revoking it would squash allocator CASes it retries forever,
     with nothing ever re-granting its flag. *)
  let participants = Array.make nthreads false in
  let join ctx =
    let tid = Engine.Mem.tid ctx in
    if tid >= 0 && tid < nthreads && not participants.(tid) then
      participants.(tid) <- true
  in
  (* Failed conditional access: re-grant our own flag (idempotent, and not
     subject to squashing — it is the hardware primitive itself) and
     restart from a safe location. *)
  let check ctx =
    if not (Engine.Mem.cond_access ctx) then begin
      Scheme.note_cond_fail sink ctx;
      Engine.Mem.grant_access ctx;
      raise Scheme.Restart
    end
  in
  let read_check ctx =
    join ctx;
    Engine.Mem.fence ctx Engine.Compiler;
    check ctx
  in
  {
    Scheme.name = "imr";
    caps;
    (* palloc: freed nodes may still be loaded by doomed traversals, so
       their pages must stay mapped (same contract as OA-BIT/OA-VER). *)
    alloc =
      (fun ctx size ->
        join ctx;
        Engine.Mem.masked ctx (fun () ->
            Oamem_lrmalloc.Lrmalloc.palloc lr ctx size));
    retire =
      (fun ctx addr ->
        Scheme.note_retired sink ctx addr;
        Engine.Mem.masked ctx (fun () ->
            let tid = Engine.Mem.tid ctx in
            for v = 0 to nthreads - 1 do
              if v <> tid && participants.(v) then
                match Engine.Mem.revoke ctx ~victim:v with
                | Engine.Posted ->
                    (* a revocation is IMR's warning broadcast *)
                    Scheme.note_warning sink ctx ~piggybacked:false
                | Engine.Already_pending | Engine.Dead -> ()
            done;
            (* order the revocations before the free *)
            Engine.Mem.fence ctx Engine.Full;
            Oamem_lrmalloc.Lrmalloc.free lr ctx addr;
            Scheme.note_freed sink 1));
    cancel =
      (fun ctx addr ->
        (* never published: plain free, no revocation needed *)
        Engine.Mem.masked ctx (fun () ->
            Oamem_lrmalloc.Lrmalloc.free lr ctx addr));
    begin_op = join;
    end_op = (fun _ -> ());
    read_check;
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun _ctx ~slot:_ _ -> ());
    validate =
      (fun ctx ->
        Engine.Mem.fence ctx Engine.Full;
        check ctx);
    clear =
      (fun ctx ->
        (* end of operation: a revocation that landed after the last check
           must not leak into the next operation (no optimistic pointers
           survive an op boundary, so re-granting here is sound) *)
        if not (Engine.Mem.cond_access ctx) then Engine.Mem.grant_access ctx);
    flush = (fun _ -> () (* nothing is ever deferred *));
    neutralizable = false;
    recover = (fun _ -> ());
    stats = sink.Scheme.stats;
    sink;
  }
