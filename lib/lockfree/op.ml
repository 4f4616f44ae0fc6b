(* Shared operation protocol for the lock-free structures: run a body under
   a reclamation scheme's begin/clear/end envelope, restarting on demand,
   with per-operation restart attribution in the profiler.

   Under profiling the whole operation runs in a [frame] span; from the
   first restart on, every retry (including its backoff pause) accrues in a
   nested [Op_restart] child, so a profile separates first-attempt cost
   from restart-induced cost per operation kind.  Retries forced by a
   delivered neutralization signal accrue the same way in an
   [Op_neutralized] child.

   For a neutralizable scheme (DEBRA) the whole operation runs under an
   {!Engine.Mem.checkpoint}: a delivered signal unwinds to the operation
   entry, the scheme's [recover] resets its per-thread state, and the body
   is retried.  The body must therefore be restart-safe — already-
   linearized effects must not repeat on retry (see the short-circuit
   flags in the individual structures).  The success epilogue
   (clear + end_op) runs signal-masked so a late delivery cannot discard a
   computed result. *)

open Oamem_engine
open Oamem_reclaim
module Profile = Oamem_obs.Profile

(* Retire/cancel under a signal mask when the scheme neutralizes: the
   observation wrapper runs *around* the scheme's own masked body, and an
   unwind between the two would strand a node outside any limbo bag. *)
let masked_when_neutralizable (sch : Scheme.ops) ctx f =
  if sch.Scheme.neutralizable then Engine.Mem.masked ctx f else f ()

let retire_node (sch : Scheme.ops) ctx c =
  if sch.Scheme.neutralizable then
    Engine.Mem.masked ctx (fun () -> sch.Scheme.retire ctx c)
  else sch.Scheme.retire ctx c

let cancel_node (sch : Scheme.ops) ctx c =
  if sch.Scheme.neutralizable then
    Engine.Mem.masked ctx (fun () -> sch.Scheme.cancel ctx c)
  else sch.Scheme.cancel ctx c

(* The in-retry flag of an unprofiled operation.  [attempt] reads and
   writes its flag only under profiling, so every unprofiled operation can
   share this cell, which is never written. *)
let unprofiled = ref false

let close p ~profiling ~tid ~in_retry ctx =
  if profiling then begin
    if !in_retry then Profile.leave p ~tid ~now:(Engine.Mem.now ctx);
    Profile.leave p ~tid ~now:(Engine.Mem.now ctx)
  end

let epilogue (sch : Scheme.ops) ctx =
  sch.Scheme.clear ctx;
  sch.Scheme.end_op ctx

(* One attempt of [f a ctx b], retried in place on [Scheme.Restart].  A
   top-level function with every piece of state passed in, so an operation
   that never restarts allocates nothing.  [in_retry] is true once a nested
   retry span (Op_restart or Op_neutralized) is open. *)
let rec attempt (sch : Scheme.ops) ctx p ~profiling ~tid ~in_retry
    ~neutralizable f a b =
  sch.Scheme.begin_op ctx;
  match f a ctx b with
  | r ->
      if neutralizable then Engine.Mem.masked ctx (fun () -> epilogue sch ctx)
      else epilogue sch ctx;
      close p ~profiling ~tid ~in_retry ctx;
      r
  | exception Scheme.Restart ->
      Scheme.note_restart sch.Scheme.sink ctx;
      epilogue sch ctx;
      if profiling && not !in_retry then begin
        in_retry := true;
        Profile.enter p ~tid ~now:(Engine.Mem.now ctx) Profile.Op_restart
      end;
      Engine.Mem.pause ctx;
      attempt sch ctx p ~profiling ~tid ~in_retry ~neutralizable f a b
  | exception Engine.Neutralized ->
      (* unwinding to the operation checkpoint: the op span (and any open
         retry span) stays open — the recovery retry continues inside it *)
      if profiling && not !in_retry then begin
        in_retry := true;
        Profile.enter p ~tid ~now:(Engine.Mem.now ctx) Profile.Op_neutralized
      end;
      raise Engine.Neutralized
  | exception e ->
      (* keep the span stack balanced on foreign exceptions (OOM, frame
         exhaustion, injected crashes) *)
      close p ~profiling ~tid ~in_retry ctx;
      raise e

let run (sch : Scheme.ops) ctx frame f a b =
  let p = Engine.Mem.profile ctx in
  let profiling = Profile.enabled p in
  let tid = Engine.Mem.tid ctx in
  if profiling then Profile.enter p ~tid ~now:(Engine.Mem.now ctx) frame;
  let in_retry = if profiling then ref false else unprofiled in
  let neutralizable = sch.Scheme.neutralizable && Engine.Mem.costed ctx in
  if neutralizable then
    Engine.Mem.checkpoint ctx
      ~recover:(fun () ->
        Scheme.note_neutralized sch.Scheme.sink ctx;
        sch.Scheme.clear ctx;
        sch.Scheme.recover ctx)
      (fun () ->
        attempt sch ctx p ~profiling ~tid ~in_retry ~neutralizable f a b)
  else attempt sch ctx p ~profiling ~tid ~in_retry ~neutralizable f a b
