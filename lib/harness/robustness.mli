(** Robustness runs: garbage growth under a stalled or crashed thread.

    EBR garbage grows with the healthy threads' work once one thread is
    parked mid-operation; hazard pointers and the optimistic-access schemes
    keep it bounded; IBR is bounded by what was live at the stall; NR leaks
    in both variants.  DEBRA neutralizes the laggard past a patience bound
    (and seizes a crashed thread's limbo bags), keeping its garbage bounded
    where EBR's is not. *)

type fault = No_fault | Stall | Crash

val fault_name : fault -> string

type spec = {
  scheme : string;
  workers : int;  (** workload threads, one engine slot each *)
  initial : int;
  horizon_cycles : int;
      (** run length; the garbage curve samples it at 40 evenly spaced
          points (every [horizon_cycles / 40] cycles, from 0) *)
  stall_at_yield : int;  (** thread 0 faults at this (1-based) yield *)
  threshold : int;
  seed : int;
  fault : fault;  (** what happens to thread 0 *)
  neutralize : bool;  (** let neutralizing schemes post signals *)
  sanitize : bool;  (** run under the memory-lifecycle sanitizer *)
}

val default_spec : spec

type sample = {
  at_cycles : int;  (** a sample boundary *)
  unreclaimed : int;  (** {!Oamem_reclaim.Scheme.unreclaimed} there *)
}

type result = {
  spec : spec;
  samples : sample list;  (** the garbage curve, in time order *)
  max_unreclaimed : int;
  final_unreclaimed : int;
  final_pinned : int;
      (** final unreclaimed minus nodes seized from dead threads' bags —
          the garbage no live thread can ever free *)
  ops : int;  (** completed by the healthy workers *)
  stalls_injected : int;
  crashed : bool;  (** thread 0 was fail-stopped *)
  neutralized : int;  (** signals delivered, summed over all threads *)
  seized : int;  (** limbo nodes taken over from dead threads' bags *)
}

val robust_bound : spec -> int
(** Unreclaimed-node bound the stall-robust schemes must respect. *)

val run : spec -> result
(** Deterministic under a fixed [seed] ([Min_clock]). *)

val run_pair : spec -> result * result
(** [(faulted, control)] of the same spec; a [No_fault] spec is promoted to
    [Stall] for the faulted leg. *)
