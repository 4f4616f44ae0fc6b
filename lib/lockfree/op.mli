(** Shared operation protocol for the lock-free structures.

    [run sch ctx frame f a b] executes [f a ctx b] under [sch]'s operation
    envelope (begin_op / clear / end_op), retrying on
    {!Oamem_reclaim.Scheme.Restart} with restart attribution in the
    profiler, and — when the scheme is neutralizable — under an
    {!Oamem_engine.Engine.Mem.checkpoint} whose recovery resets the
    scheme's per-thread state before the retry.  [f] must be restart-safe:
    an already-linearized effect must not repeat when [f] reruns after an
    unwind. *)

open Oamem_engine
open Oamem_reclaim

val run :
  Scheme.ops ->
  Engine.ctx ->
  Oamem_obs.Profile.frame ->
  ('a -> Engine.ctx -> 'b -> 'r) ->
  'a ->
  'b ->
  'r
(** [run sch ctx frame f a b] runs the body [f a ctx b].  Passing a closed
    (top-level) [f] and its arguments separately keeps an operation that
    needs no restart allocation-free on an unneutralizable scheme; a
    neutralizable one registers its checkpoint through closures. *)

val masked_when_neutralizable : Scheme.ops -> Engine.ctx -> (unit -> 'a) -> 'a
(** Run the callback signal-masked when the scheme neutralizes, plain
    otherwise. *)

val retire_node : Scheme.ops -> Engine.ctx -> int -> unit
(** [retire] under {!masked_when_neutralizable}: the observation wrapper
    runs around the scheme's own masked body, and an unwind between the two
    would strand the node outside any limbo bag. *)

val cancel_node : Scheme.ops -> Engine.ctx -> int -> unit
