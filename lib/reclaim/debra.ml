(* DEBRA+ — epoch-based reclamation with neutralization (Brown, PODC'15).

   The epoch core is EBR's: threads announce the global epoch on every
   operation, retired nodes go into three per-thread limbo buckets indexed
   by retire epoch mod 3, and a bucket is freed once the epoch has advanced
   twice past it.  What EBR cannot do is advance past a thread that stopped
   moving — one stalled announce pins the epoch and garbage grows without
   bound (E13).  DEBRA+ adds the recovery path:

   - every failed epoch advance counts, per blocking thread, how many
     consecutive attempts that thread's stale announce has defeated;
   - past a small patience bound the advancing thread *neutralizes* the
     laggard — posts it an async signal via {!Engine.Mem.neutralize} — and
     may immediately treat it as quiesced (the engine guarantees the victim
     executes no further access before the signal unwinds it to its
     operation checkpoint), so the poster voids the stale announce itself
     and the epoch advances;
   - a victim that turns out to be dead ([Dead] post outcome: crashed, in
     our fault model) additionally has its limbo buckets *seized* — their
     contents migrate into the seizing thread's current bucket, so a
     crashed thread pins at most nothing instead of its whole backlog.

   The "A" in DEBRA is amortization, and it is what pays for the per-op
   checkpoint: announcements are refreshed once per [batch] operations, not
   per operation, so the epoch read + announce store + full fence that EBR
   pays on every op is spread over the batch.  Between refreshes the thread
   simply stays announced — it is in one long logical operation spanning
   the batch — which is sound here because a posted signal is always
   delivered before the victim's next simulated access executes: a thread
   whose announce was voided by a poster cannot touch shared memory again
   before it is unwound to its checkpoint and re-announces.  The price is
   grace-period lag of up to one batch per thread, bounded and paid only in
   reclamation latency.

   Data structures must run operations under a checkpoint ([neutralizable]
   is true); [recover] just resets the thread's announce — the retried
   operation re-announces a fresh epoch.  Scheme-internal sections (alloc,
   retire, cancel, flush) run signal-masked: unwinding out of a half-done
   limbo append or allocator call would corrupt host-side bookkeeping,
   exactly the sections DEBRA+'s handler refuses to longjmp out of. *)

open Oamem_engine

(* Consecutive failed advances a stale announce survives before its owner
   is neutralized.  Small: advance attempts happen at most once per batch,
   so a healthy peer re-announces the current epoch between any two of
   them — only a thread that stopped crossing batch boundaries altogether
   can accumulate lag. *)
let patience = 3

(* Operations per announcement refresh, capped by the reclamation
   threshold so tiny-threshold configs (tests, fuzz) still refresh — and
   attempt to advance — every operation.  Advance attempts run only at a
   refresh, i.e. at a batch boundary where the thread has just announced
   the current epoch and holds no references: attempting mid-operation
   would find the thread's *own* announce stale for the rest of its batch
   (it cannot safely bump it while holding references), and a single
   thread would end up neutralizing itself. *)
let max_batch = 16

type thread_state = {
  buckets : Limbo.t array;  (* 3 buckets, indexed by epoch mod 3 *)
}

let caps : Scheme.caps =
  {
    hazard_writes = false;
    neutralizes = true;
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
  (* host-side recovery bookkeeping (the poster's private state) *)
  let lags = Array.make nthreads 0 in
  let seized_from = Array.make nthreads false in
  (* amortization bookkeeping: the epoch each thread last announced (0 =
     not announced) and how many ops it has run on that announcement *)
  let batch = max 1 (min max_batch cfg.Scheme.threshold) in
  let announced = Array.make nthreads 0 in
  let batch_ops = Array.make nthreads 0 in
  let sink = Scheme.fresh_sink () in
  let my ctx = threads.((Engine.Mem.tid ctx)) in
  let free_node ctx n = Oamem_lrmalloc.Lrmalloc.free lr ctx n in
  let free_old_bucket ctx e =
    let t = my ctx in
    let b = t.buckets.((e - 2) mod 3) in
    if Limbo.size b > 0 then begin
      let freed =
        Limbo.sweep b ctx ~protected:(fun _ -> false) ~free:(free_node ctx)
      in
      Scheme.note_reclaim_phase sink ctx ~freed
    end
  in
  (* Take over a dead thread's backlog: its bucket contents migrate into
     the seizing thread's *current* bucket, so they obey the normal
     two-epoch grace period from now on instead of being pinned forever.
     The victim is fail-stopped, so its host-side bags are quiescent. *)
  let seize ctx victim =
    let e = Cell.get ctx global_epoch in
    let mine = (my ctx).buckets.(e mod 3) in
    let taken = ref 0 in
    Array.iter
      (fun b ->
        taken :=
          !taken
          + Limbo.sweep b ctx
              ~protected:(fun _ -> false)
              ~free:(fun n -> Limbo.add mine ctx n))
      threads.(victim).buckets;
    if !taken > 0 then Scheme.note_seized sink !taken
  in
  let try_advance ctx =
    let e = Cell.get ctx global_epoch in
    let blocking = ref [] in
    Array.iteri
      (fun v a ->
        let x = Cell.get ctx a in
        if x <> 0 && x <> e then blocking := (v, x) :: !blocking
        else lags.(v) <- 0)
      announces;
    match !blocking with
    | [] ->
        if Cell.cas ctx global_epoch ~expect:e ~desired:(e + 1) then
          Scheme.note_warning sink ctx ~piggybacked:false
    | vs ->
        List.iter
          (fun (v, x) ->
            lags.(v) <- lags.(v) + 1;
            if cfg.Scheme.neutralize && lags.(v) > patience then begin
              lags.(v) <- 0;
              match Engine.Mem.neutralize ctx ~victim:v with
              | Engine.Posted | Engine.Already_pending ->
                  (* the victim is quiesced from here on: void its stale
                     announce ourselves so the epoch can move.  CAS, not
                     set — if the victim was already unwound and retried,
                     its fresh announce must survive. *)
                  ignore (Cell.cas ctx announces.(v) ~expect:x ~desired:0)
              | Engine.Dead ->
                  ignore (Cell.cas ctx announces.(v) ~expect:x ~desired:0);
                  if not seized_from.(v) then begin
                    seized_from.(v) <- true;
                    seize ctx v
                  end
            end)
          vs
  in
  let masked ctx f = Engine.Mem.masked ctx f in
  {
    Scheme.name = "debra";
    (* [neutralizes] tracks the config switch: with [neutralize = false]
       the scheme degrades to plain EBR and never posts a signal. *)
    caps = { caps with Scheme.neutralizes = cfg.Scheme.neutralize };
    alloc =
      (fun ctx size ->
        masked ctx (fun () -> Oamem_lrmalloc.Lrmalloc.malloc lr ctx size));
    retire =
      (fun ctx addr ->
        masked ctx (fun () ->
            let t = my ctx in
            let e = Cell.get ctx global_epoch in
            (* drain the bucket two epochs back before reusing its slot *)
            free_old_bucket ctx e;
            let b = t.buckets.(e mod 3) in
            Limbo.add b ctx addr;
            Scheme.note_retired sink ctx addr
            (* no advance attempt here: retire runs mid-operation, where
               this thread's own announce may be stale and cannot safely
               be bumped.  The attempt happens at the next batch boundary
               (begin_op), right after a fresh announce. *)));
    cancel = (fun ctx addr -> masked ctx (fun () -> free_node ctx addr));
    begin_op =
      (fun ctx ->
        (* amortized announcement: refresh once per [batch] ops, stay
           announced in between (host mirror [announced] tracks it so the
           common case touches no simulated memory at all) *)
        let tid = Engine.Mem.tid ctx in
        if announced.(tid) = 0 || batch_ops.(tid) >= batch then begin
          let e = Cell.get ctx global_epoch in
          Cell.set ctx announces.(tid) e;
          Engine.Mem.fence ctx Engine.Full;
          announced.(tid) <- e;
          batch_ops.(tid) <- 0;
          (* freshly announced and holding no references: the one safe
             point to push the epoch along, and the rate limit that keeps
             scans spaced a full batch apart (see [patience]).  Masked: a
             signal unwinding out of a half-done seize would tear the
             bag migration. *)
          if Limbo.size (my ctx).buckets.(e mod 3) >= cfg.Scheme.threshold
          then Engine.Mem.masked ctx (fun () -> try_advance ctx)
        end;
        batch_ops.(tid) <- batch_ops.(tid) + 1);
    end_op = (fun _ -> () (* still announced: the batch spans ops *));
    read_check = (fun _ -> ());
    traverse_protect = (fun _ctx ~slot:_ ~addr:_ ~link:_ ~expect:_ -> ());
    write_protect = (fun _ctx ~slot:_ _ -> ());
    validate = (fun _ -> ());
    clear = (fun _ -> ());
    flush =
      (fun ctx ->
        (* teardown: the caller guarantees quiescence, so everything goes —
           including the backlog of threads that fail-stopped and will
           never flush for themselves *)
        masked ctx (fun () ->
            let drain t =
              Array.iter
                (fun b ->
                  let freed =
                    Limbo.sweep b ctx
                      ~protected:(fun _ -> false)
                      ~free:(free_node ctx)
                  in
                  Scheme.note_freed sink freed)
                t.buckets
            in
            drain (my ctx);
            for v = 0 to nthreads - 1 do
              if Engine.Mem.peer_crashed ctx ~tid:v && not seized_from.(v)
              then begin
                seized_from.(v) <- true;
                let before = sink.Scheme.stats.freed in
                drain threads.(v);
                Scheme.note_seized sink (sink.Scheme.stats.freed - before)
              end
            done));
    neutralizable = cfg.Scheme.neutralize;
    recover =
      (fun ctx ->
        (* idempotent: resetting the host mirror forces the retried
           operation's begin_op down the full re-announce path *)
        let tid = Engine.Mem.tid ctx in
        Cell.set ctx announces.(tid) 0;
        announced.(tid) <- 0;
        batch_ops.(tid) <- 0);
    stats = sink.Scheme.stats;
    sink;
  }
