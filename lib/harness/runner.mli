(** One benchmark run: build a system, prefill the structure, churn to a
    steady-state memory layout (warmup), then drive T simulated threads for
    a fixed simulated-time horizon and report throughput plus per-subsystem
    statistics.  {!drive} is the closed loop itself, shared with
    [Robustness] and [Service]. *)

open Oamem_engine
open Oamem_lrmalloc

type structure = List_set | Hash_set

val structure_name : structure -> string

type spec = {
  scheme : string;
  threads : int;
  structure : structure;
  workload : Workload.t;
  horizon_cycles : int;
  warmup_ops : int;
      (** operations before the measured window; 0 = auto (3x initial) *)
  threshold : int;
  remap : Config.remap_strategy;
  sb_pages : int;
  seed : int;
  hazard_padded : bool;
  cache_cfg : Hierarchy.config option;
  trace : bool;  (** record events into the system trace during the run *)
  profile : bool;  (** cycle-attribution profiling during the run *)
  fused : bool;
      (** engine inline fast path + vmem translation cache (default [true]);
          [false] runs the pre-fusion slow path — simulated results are
          identical either way, only host speed differs *)
}

val default_spec : spec

type result = {
  spec : spec;
  ops : int;
  searches : int;
  inserts : int;
  deletes : int;
  sim_seconds : float;
  throughput_mops : float;
  host_seconds : float;  (** host wall-clock of the measured phase *)
  host_steps : int;  (** simulated yield points in the measured phase *)
  host_steps_per_sec : float;
      (** simulated steps per host second — the simulator-speed number *)
  metrics : Oamem_obs.Metrics.snapshot;
      (** one named view over every subsystem's counters (measured window
          only — warmup is reset away) *)
  trace : Oamem_obs.Trace.t;
      (** the system trace: the measured window's events when [spec.trace]
          was set, empty and disabled otherwise *)
  profile : Oamem_obs.Profile.t;
      (** the system profiler: the measured window's spans, latency
          histograms and contention table when [spec.profile] was set,
          empty and disabled otherwise *)
}

type target = {
  insert : Engine.ctx -> int -> bool;
  delete : Engine.ctx -> int -> bool;
  contains : Engine.ctx -> int -> bool;
}

val make_system : spec -> Oamem_core.System.t

val build_target : Oamem_core.System.t -> structure -> Workload.t -> target
(** Create the structure, prefilled with {!Workload.prefill_keys}. *)

val default_warmup : structure -> Workload.t -> int
(** Warmup ops when [spec.warmup_ops = 0]. *)

type stop = Until_cycles of int | Until_ops of int
(** Each thread's clock passes a horizon, or an op quota shared by all
    threads runs out. *)

type tally = {
  mutable searches : int;
  mutable inserts : int;
  mutable deletes : int;
}

val new_tally : unit -> tally
val tally_ops : tally -> int

val drive :
  Oamem_core.System.t -> threads:int -> target -> Workload.t -> stop:stop ->
  seed_base:int -> tally -> unit
(** The closed loop of §5.1: thread [tid] draws {!Workload.next_op} from a
    [Prng] seeded [seed_base + 1000 * tid], charging the cost model's
    [op_base] before each op, until [stop], and counts completed ops in the
    tally.  Ends in [System.run]: install samplers and spawn other threads
    first. *)

val run : spec -> result
val pp_result : Format.formatter -> result -> unit

type summary = {
  trials : result list;
  median_mops : float;
  min_mops : float;
  max_mops : float;
}

val run_trials : ?trials:int -> spec -> summary
(** Independent trials with derived seeds; figures use the median. *)
