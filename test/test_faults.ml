(* Tests for the fault-injection subsystem: fault plans honoured by the
   engine (stalls, crashes, jitter), typed resource exhaustion in the
   simulated VM, memory-pressure recovery in the allocator, and the
   stalled-thread robustness contrast between reclamation schemes. *)

open Oamem_engine
open Oamem_vmem
open Oamem_lrmalloc
open Oamem_faults
open Oamem_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Fault_plan validation ------------------------------------------------ *)

let test_plan_validation () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  rejects (fun () ->
      Fault_plan.make [ Fault_plan.Stall { tid = -1; at_yield = 1; cycles = 10 } ]);
  rejects (fun () ->
      Fault_plan.make [ Fault_plan.Stall { tid = 0; at_yield = 0; cycles = 10 } ]);
  rejects (fun () ->
      Fault_plan.make [ Fault_plan.Stall { tid = 0; at_yield = 1; cycles = -1 } ]);
  rejects (fun () ->
      Fault_plan.make [ Fault_plan.Crash { tid = 0; at_yield = 0 } ]);
  rejects (fun () ->
      Fault_plan.make [ Fault_plan.Jitter { seed = 1; max_cycles = -2 } ]);
  check_bool "none is trivial" true (Fault_plan.is_trivial Fault_plan.none);
  check_bool "stall plan is not trivial" false
    (Fault_plan.is_trivial (Scenario.stall_one ~tid:0 ~at_yield:1 ~cycles:5))

(* --- Engine: stalls ------------------------------------------------------- *)

(* Two horizon-bounded counting threads; thread 0 stalls at its 5th yield
   for far longer than the horizon, so it wakes past the horizon and stops
   at 5 iterations while the healthy thread keeps going.  Only yield points
   (pause/access/fence/event) consult the plan — a bare [charge] does not. *)
let test_engine_stall () =
  let eng = Engine.create ~nthreads:2 () in
  Engine.set_fault_plan eng
    (Scenario.stall_one ~tid:0 ~at_yield:5 ~cycles:1_000_000);
  let ops = [| 0; 0 |] in
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun ctx ->
        while Engine.Mem.now ctx < 50_000 do
          Engine.Mem.charge ctx 10;
          ops.(tid) <- ops.(tid) + 1;
          Engine.Mem.pause ctx
        done)
  done;
  Engine.run eng;
  check_int "stalled thread froze at the stall" 5 ops.(0);
  check_bool "healthy thread kept going" true (ops.(1) > 100);
  let fs = Engine.fault_stats eng ~tid:0 in
  check_int "one stall injected" 1 fs.Engine.stalls_injected;
  check_int "stall cycles accounted" 1_000_000 fs.Engine.stall_cycles;
  check_bool "stalled clock includes the stall" true
    (Engine.clock eng ~tid:0 >= 1_000_000);
  check_bool "healthy clock bounded by the horizon" true
    (Engine.clock eng ~tid:1 < 60_000)

(* --- Engine: crashes ------------------------------------------------------ *)

let test_engine_crash () =
  let eng = Engine.create ~nthreads:2 () in
  Engine.set_fault_plan eng (Scenario.crash_one ~tid:0 ~at_yield:3);
  let ops = [| 0; 0 |] in
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun ctx ->
        for _ = 1 to 50 do
          Engine.Mem.charge ctx 10;
          ops.(tid) <- ops.(tid) + 1;
          Engine.Mem.pause ctx
        done)
  done;
  Engine.run eng;
  check_int "crashed thread stopped mid-run" 3 ops.(0);
  check_int "healthy thread completed" 50 ops.(1);
  check_bool "slot reported crashed" true (Engine.crashed eng ~tid:0);
  check_bool "healthy slot not crashed" false (Engine.crashed eng ~tid:1);
  (match Engine.spawn eng ~tid:0 (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "spawn on a crashed slot must be rejected");
  (* a second run with the survivor only must still terminate *)
  Engine.spawn eng ~tid:1 (fun ctx -> Engine.Mem.charge ctx 1);
  Engine.run eng

(* --- Engine: jitter determinism ------------------------------------------- *)

let jitter_run plan =
  let eng = Engine.create ~nthreads:2 () in
  Engine.set_fault_plan eng plan;
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun ctx ->
        for _ = 1 to 200 do
          Engine.Mem.charge ctx 7;
          Engine.Mem.pause ctx
        done)
  done;
  Engine.run eng;
  (Engine.clock eng ~tid:0, Engine.clock eng ~tid:1)

let test_jitter_deterministic () =
  let a = jitter_run (Scenario.jittery ~seed:11 ~max_cycles:50)
  and b = jitter_run (Scenario.jittery ~seed:11 ~max_cycles:50)
  and c = jitter_run (Scenario.jittery ~seed:12 ~max_cycles:50)
  and quiet = jitter_run Fault_plan.none in
  check_bool "same seed, same clocks" true (a = b);
  check_bool "jitter actually delayed" true
    (fst a > fst quiet && snd a > snd quiet);
  check_bool "different seed, different clocks" true (a <> c)

(* --- Vmem: typed exhaustion ----------------------------------------------- *)

let test_address_space_exhausted () =
  let vm = Vmem.create ~max_pages:8 Geometry.default in
  ignore (Vmem.reserve vm ~npages:4);
  match Vmem.reserve vm ~npages:16 with
  | exception Vmem.Address_space_exhausted -> ()
  | _ -> Alcotest.fail "expected Address_space_exhausted"

let test_frame_quota () =
  let vm = Vmem.create ~max_pages:64 ~frame_quota:2 Geometry.default in
  let ctx = Engine.external_ctx () in
  let base = Vmem.reserve vm ~npages:8 in
  let pw = Geometry.page_words (Vmem.geometry vm) in
  Vmem.map_anon vm ctx ~vpage:(base / pw) ~npages:8;
  (* faulting in more distinct pages than the quota must raise *)
  match
    for p = 0 to 7 do
      Vmem.store vm ctx (base + (p * pw)) 1
    done
  with
  | exception Frames.Out_of_frames ->
      check_int "live frames capped at quota" 2 (Frames.live (Vmem.frames vm))
  | _ -> Alcotest.fail "expected Out_of_frames"

(* --- Lrmalloc: memory-pressure recovery ----------------------------------- *)

let test_pressure_recovers_madvise () =
  let r = Pressure.run ~remap:Config.Madvise () in
  check_bool "no OOM" false r.Pressure.oom;
  check_int "all rounds completed" 3 r.Pressure.rounds_completed;
  check_bool "recovered at least once" true (r.Pressure.recoveries >= 1);
  check_int "no failed recoveries" 0 r.Pressure.failures;
  check_bool "released persistent superblocks" true (r.Pressure.sb_remapped >= 1)

let test_pressure_recovers_shared () =
  let r = Pressure.run ~remap:Config.Shared_map () in
  check_bool "no OOM" false r.Pressure.oom;
  check_int "all rounds completed" 3 r.Pressure.rounds_completed

let test_pressure_keep_resident_ooms () =
  let r = Pressure.run ~remap:Config.Keep_resident () in
  check_bool "typed OOM" true r.Pressure.oom;
  check_bool "some rounds still completed" true (r.Pressure.rounds_completed >= 1);
  check_bool "recovery was attempted" true (r.Pressure.recoveries >= 1);
  check_bool "final recovery failed" true (r.Pressure.failures >= 1)

(* --- Neutralization: the checkpoint/signal primitive ----------------------- *)

(* A victim looping over cheap same-line loads is the permanent fused-path
   leader; delivery happens only at scheduler yields, so the signal landing
   at all proves a pending signal forces the slow path. *)
let test_neutralize_forces_slow_path () =
  let eng = Engine.create ~nthreads:2 () in
  let outcome = ref None in
  let restarted = ref false in
  let iters = ref 0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.checkpoint ctx
        ~recover:(fun () -> restarted := true)
        (fun () ->
          if not !restarted then
            for i = 1 to 10_000 do
              incr iters;
              Engine.Mem.access ctx ~vpage:(-1) ~paddr:(i land 7)
                ~kind:Engine.Load
            done));
  Engine.spawn eng ~tid:1 (fun ctx ->
      Engine.Mem.charge ctx 50;
      Engine.Mem.pause ctx;
      outcome := Some (Engine.Mem.neutralize ctx ~victim:0));
  Engine.run eng;
  check_bool "posted" true (!outcome = Some Engine.Posted);
  check_bool "recovery closure ran" true !restarted;
  check_bool "victim interrupted mid-run" true (!iters < 10_000);
  check_int "one signal delivered" 1
    (Engine.fault_stats eng ~tid:0).Engine.neutralized

let test_neutralize_dead_is_noop () =
  let eng = Engine.create ~nthreads:2 () in
  Engine.set_fault_plan eng (Scenario.crash_one ~tid:0 ~at_yield:3);
  let outcome = ref None in
  Engine.spawn eng ~tid:0 (fun ctx ->
      for _ = 1 to 50 do
        Engine.Mem.pause ctx
      done);
  Engine.spawn eng ~tid:1 (fun ctx ->
      (* outlive the victim's crash before posting *)
      for _ = 1 to 20 do
        Engine.Mem.pause ctx
      done;
      outcome := Some (Engine.Mem.neutralize ctx ~victim:0));
  Engine.run eng;
  check_bool "victim crashed" true (Engine.crashed eng ~tid:0);
  check_bool "typed Dead outcome" true (!outcome = Some Engine.Dead);
  check_int "nothing delivered" 0
    (Engine.fault_stats eng ~tid:0).Engine.neutralized

let test_nested_checkpoint_rejected () =
  let eng = Engine.create ~nthreads:1 () in
  let rejected = ref false in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.checkpoint ctx ~recover:ignore (fun () ->
          match Engine.Mem.checkpoint ctx ~recover:ignore (fun () -> ()) with
          | () -> ()
          | exception Invalid_argument _ -> rejected := true));
  Engine.run eng;
  check_bool "nested registration rejected" true !rejected

(* Full-system determinism of the delivery machinery: two same-seed
   DEBRA-under-stall runs must produce byte-identical event traces,
   neutralization events included. *)
let debra_trace_run () =
  let module System = Oamem_core.System in
  let module Scheme = Oamem_reclaim.Scheme in
  let sys =
    System.create
      (System.Config.make ~nthreads:2 ~scheme:"debra" ~trace:true
         ~trace_capacity:(1 lsl 14)
         ~max_pages:(1 lsl 16)
         ~scheme_cfg:
           {
             Scheme.threshold = 2;
             slots_per_thread = Oamem_lockfree.Hm_list.slots_needed;
             pool_nodes = 4096;
             node_words = Oamem_lockfree.Node.kv_words;
             hazard_padded = true;
             neutralize = true;
           }
         ())
  in
  System.set_fault_plan sys
    (Scenario.stall_one ~tid:0 ~at_yield:40 ~cycles:500_000);
  for tid = 0 to 1 do
    System.spawn sys ~tid (fun ctx ->
        let h = System.hash_set sys ctx ~expected_size:64 in
        let module MH = Oamem_lockfree.Michael_hash in
        for i = 1 to 60 do
          let k = (tid * 1000) + i in
          ignore (MH.insert h ctx k);
          ignore (MH.delete h ctx k)
        done)
  done;
  System.run sys;
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let posts = ref 0 and delivered = ref 0 in
  List.iter
    (fun ev ->
      (match ev.Oamem_obs.Trace.kind with
      | Oamem_obs.Trace.Neutralize_post _ -> incr posts
      | Oamem_obs.Trace.Neutralized -> incr delivered
      | _ -> ());
      Format.fprintf ppf "%a@." Oamem_obs.Trace.pp_event ev)
    (Oamem_obs.Trace.events (System.trace sys));
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, !posts, !delivered)

let test_neutralize_trace_deterministic () =
  let ta, pa, da = debra_trace_run () in
  let tb, pb, db = debra_trace_run () in
  check_bool "neutralization posted" true (pa >= 1);
  check_bool "neutralization delivered" true (da >= 1);
  check_int "same posts" pa pb;
  check_int "same deliveries" da db;
  check_bool "byte-identical traces" true (String.equal ta tb)

(* --- Robustness: stalled-thread garbage growth ---------------------------- *)

(* Shorter horizon than the experiment default to keep the suite quick; the
   contrast is already unambiguous at 200K cycles. *)
let robustness_spec scheme =
  {
    Robustness.default_spec with
    Robustness.scheme;
    horizon_cycles = 200_000;
  }

let test_robustness_ebr_unbounded () =
  let spec = robustness_spec "ebr" in
  let stalled, control = Robustness.run_pair spec in
  let bound = Robustness.robust_bound spec in
  check_int "stall injected" 1 stalled.Robustness.stalls_injected;
  check_int "control has no stall" 0 control.Robustness.stalls_injected;
  check_bool "EBR garbage exceeds the robust bound" true
    (stalled.Robustness.final_unreclaimed > bound);
  check_bool "EBR garbage far above healthy control" true
    (stalled.Robustness.final_unreclaimed
    >= 2 * max 1 control.Robustness.final_unreclaimed);
  (* the stalled run's garbage keeps growing: the last sample is the max *)
  check_int "garbage never shrinks after the stall"
    stalled.Robustness.max_unreclaimed stalled.Robustness.final_unreclaimed

let test_robustness_bounded scheme () =
  let spec = robustness_spec scheme in
  let stalled, _ = Robustness.run_pair spec in
  let bound = Robustness.robust_bound spec in
  check_int "stall injected" 1 stalled.Robustness.stalls_injected;
  check_bool
    (Printf.sprintf "%s stays under the bound (%d <= %d)" scheme
       stalled.Robustness.max_unreclaimed bound)
    true
    (stalled.Robustness.max_unreclaimed <= bound);
  check_bool "healthy workers made progress" true (stalled.Robustness.ops > 1_000)

let test_robustness_deterministic () =
  let spec = robustness_spec "ebr" in
  let a = Robustness.run spec and b = Robustness.run spec in
  check_bool "identical samples under a fixed seed" true
    (a.Robustness.samples = b.Robustness.samples);
  check_int "identical ops" a.Robustness.ops b.Robustness.ops

(* --- DEBRA: bounded under faults, EBR-like without neutralization ---------- *)

let test_debra_stall_bounded () =
  let spec = robustness_spec "debra" in
  let stalled, control = Robustness.run_pair spec in
  check_int "stall injected" 1 stalled.Robustness.stalls_injected;
  check_bool "neutralization fired" true (stalled.Robustness.neutralized >= 1);
  check_bool "garbage bounded within 2x of healthy control" true
    (stalled.Robustness.final_unreclaimed
    <= 2 * max 1 control.Robustness.final_unreclaimed);
  check_bool "healthy workers made progress" true
    (stalled.Robustness.ops > 1_000)

let test_debra_no_neutralize_degenerates () =
  let spec =
    { (robustness_spec "debra") with Robustness.neutralize = false }
  in
  let stalled, control = Robustness.run_pair spec in
  check_int "no signal delivered" 0 stalled.Robustness.neutralized;
  check_bool "garbage grows with healthy work, like EBR" true
    (stalled.Robustness.final_unreclaimed
    >= 2 * max 1 control.Robustness.final_unreclaimed);
  check_bool "exceeds the robust bound" true
    (stalled.Robustness.final_unreclaimed > Robustness.robust_bound spec)

let test_debra_crash_seizes () =
  let spec =
    { (robustness_spec "debra") with Robustness.fault = Robustness.Crash }
  in
  let r = Robustness.run spec in
  check_bool "thread fail-stopped" true r.Robustness.crashed;
  check_bool "dead thread's limbo bags were seized" true
    (r.Robustness.seized > 0);
  check_bool "pinned garbage stays under the robust bound" true
    (r.Robustness.final_pinned <= Robustness.robust_bound spec)

let suite =
  [
    ("plan validation", `Quick, test_plan_validation);
    ("engine stall", `Quick, test_engine_stall);
    ("engine crash", `Quick, test_engine_crash);
    ("jitter deterministic", `Quick, test_jitter_deterministic);
    ("address space exhausted", `Quick, test_address_space_exhausted);
    ("frame quota", `Quick, test_frame_quota);
    ("pressure recovers (madvise)", `Quick, test_pressure_recovers_madvise);
    ("pressure recovers (shared)", `Quick, test_pressure_recovers_shared);
    ("pressure OOM (keep resident)", `Quick, test_pressure_keep_resident_ooms);
    ("neutralize: forces slow path", `Quick, test_neutralize_forces_slow_path);
    ("neutralize: dead victim no-op", `Quick, test_neutralize_dead_is_noop);
    ("neutralize: nested checkpoint", `Quick, test_nested_checkpoint_rejected);
    ( "neutralize: trace deterministic",
      `Slow,
      test_neutralize_trace_deterministic );
    ("robustness: ebr unbounded", `Slow, test_robustness_ebr_unbounded);
    ("robustness: hp bounded", `Slow, test_robustness_bounded "hp");
    ("robustness: oa-bit bounded", `Slow, test_robustness_bounded "oa-bit");
    ("robustness: oa-ver bounded", `Slow, test_robustness_bounded "oa-ver");
    ("robustness: deterministic", `Slow, test_robustness_deterministic);
    ("debra: stall bounded", `Slow, test_debra_stall_bounded);
    ("debra: no-neut degenerates", `Slow, test_debra_no_neutralize_degenerates);
    ("debra: crash seizes", `Slow, test_debra_crash_seizes);
  ]

let () = Alcotest.run "faults" [ ("faults", suite) ]
