(* Tests for the simulated-time timeline: window and phase charging rules,
   gauge registration and sampling, the allocation-free disabled path, the
   JSON/CSV exporters, and end-to-end byte-identity of a service-scenario
   timeline across repeated runs. *)

open Oamem_obs
open Oamem_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ev ~at kind = { Trace.tid = 0; at; kind }

(* --- window charging ------------------------------------------------------- *)

let test_window_math () =
  let tl = Timeline.create ~width:100 () in
  Timeline.set_enabled tl true;
  Timeline.note_event tl (ev ~at:5 (Trace.Alloc { addr = 0; words = 2 }));
  Timeline.note_event tl (ev ~at:199 (Trace.Free { addr = 0 }));
  Timeline.note_event tl (ev ~at:250 Trace.Restart);
  (* a span is charged to the window of its completion time *)
  Timeline.note_latency tl Profile.Op_insert ~now:105 ~dur:10;
  let ws = Timeline.window_aggs tl in
  check_int "three populated windows" 3 (List.length ws);
  List.iter2
    (fun expect (i, _) -> check_int "window index" expect i)
    [ 0; 1; 2 ] ws;
  let agg i = List.assoc i ws in
  check_int "alloc in window 0" 1 (Timeline.agg_count (agg 0) Timeline.Allocs);
  check_int "free in window 1" 1 (Timeline.agg_count (agg 1) Timeline.Frees);
  check_int "restart in window 2" 1
    (Timeline.agg_count (agg 2) Timeline.Restarts);
  (match Timeline.agg_latency (agg 1) Profile.Op_insert with
  | None -> Alcotest.fail "span missing from its completion window"
  | Some l ->
      check_int "one span" 1 l.Profile.count;
      check_int "exact max" 10 l.Profile.max_cycles;
      check_int "p99 of a singleton is the value" 10
        (Profile.percentile l 0.99));
  check_bool "window 0 has no spans" true
    (Timeline.agg_latency (agg 0) Profile.Op_insert = None)

(* Carried amounts: Reclaim_freed and Frames_released sum their payloads,
   not just count events. *)
let test_carried_amounts () =
  let tl = Timeline.create ~width:100 () in
  Timeline.set_enabled tl true;
  Timeline.note_event tl (ev ~at:10 (Trace.Reclaim_phase { freed = 7 }));
  Timeline.note_event tl (ev ~at:20 (Trace.Reclaim_phase { freed = 5 }));
  Timeline.note_event tl (ev ~at:30 (Trace.Frames_released { count = 3 }));
  let agg = List.assoc 0 (Timeline.window_aggs tl) in
  check_int "two reclaim phases" 2
    (Timeline.agg_count agg Timeline.Reclaim_phases);
  check_int "freed sums payloads" 12
    (Timeline.agg_count agg Timeline.Reclaim_freed);
  check_int "released sums counts" 3
    (Timeline.agg_count agg Timeline.Frames_released)

(* --- phase charging -------------------------------------------------------- *)

let test_phase_marker_order () =
  let tl = Timeline.create ~width:100 () in
  Timeline.set_enabled tl true;
  Timeline.note_event tl (ev ~at:50 (Trace.Alloc { addr = 0; words = 2 }));
  Timeline.phase tl ~at:100 "a";
  (* ingestion-time charging: this event's clock (80) predates the marker,
     but it arrives after — it belongs to "a" (a thread overshooting the
     phase horizon by one op) *)
  Timeline.note_event tl (ev ~at:80 (Trace.Free { addr = 0 }));
  Timeline.phase tl ~at:300 "b";
  Timeline.note_event tl (ev ~at:310 Trace.Restart);
  (* re-marking accumulates into the existing phase *)
  Timeline.phase tl ~at:400 "a";
  Timeline.note_event tl (ev ~at:410 (Trace.Free { addr = 4 }));
  let ps = Timeline.phase_aggs tl in
  check_string "first-marker order" "init,a,b"
    (String.concat "," (List.map fst ps));
  let agg name = List.assoc name ps in
  check_int "init got the pre-marker event" 1
    (Timeline.agg_count (agg "init") Timeline.Allocs);
  check_int "a got the overshoot event and the re-mark event" 2
    (Timeline.agg_count (agg "a") Timeline.Frees);
  check_int "b got its restart" 1
    (Timeline.agg_count (agg "b") Timeline.Restarts);
  (* labeling (by cycle) is distinct from charging (by marker order) *)
  check_string "cycle 0 labels init" "init" (Timeline.phase_of_cycle tl 0);
  check_string "cycle 150 labels a" "a" (Timeline.phase_of_cycle tl 150);
  check_string "cycle 350 labels b" "b" (Timeline.phase_of_cycle tl 350);
  check_string "cycle 500 labels the re-mark" "a"
    (Timeline.phase_of_cycle tl 500)

let test_empty_init_dropped () =
  let tl = Timeline.create ~width:100 () in
  Timeline.set_enabled tl true;
  Timeline.phase tl ~at:0 "only";
  Timeline.note_event tl (ev ~at:1 Trace.Restart);
  check_string "empty init dropped" "only"
    (String.concat "," (List.map fst (Timeline.phase_aggs tl)))

(* --- gauges ---------------------------------------------------------------- *)

let test_gauges () =
  let tl = Timeline.create ~width:100 () in
  let g0 = Timeline.register_gauge tl "unreclaimed" in
  let g1 = Timeline.register_gauge tl "frames_live" in
  check_int "dense ids" 0 g0;
  check_int "dense ids" 1 g1;
  check_int "re-register returns existing id" g0
    (Timeline.register_gauge tl "unreclaimed");
  check_string "names in id order" "unreclaimed,frames_live"
    (String.concat "," (Timeline.gauges tl));
  Timeline.set_enabled tl true;
  Timeline.phase tl ~at:0 "p";
  Timeline.sample_gauge tl ~at:10 g0 5;
  Timeline.sample_gauge tl ~at:20 g0 9;
  Timeline.sample_gauge tl ~at:120 g0 3;
  (match Timeline.agg_gauge (List.assoc 0 (Timeline.window_aggs tl)) g0 with
  | Some (last, mx) ->
      check_int "window last" 9 last;
      check_int "window max" 9 mx
  | None -> Alcotest.fail "window 0 should carry samples");
  (match Timeline.agg_gauge (List.assoc "p" (Timeline.phase_aggs tl)) g0 with
  | Some (last, mx) ->
      check_int "phase last" 3 last;
      check_int "phase max" 9 mx
  | None -> Alcotest.fail "phase should carry samples");
  check_bool "unsampled gauge is None" true
    (Timeline.agg_gauge (List.assoc "p" (Timeline.phase_aggs tl)) g1 = None)

(* --- reset ----------------------------------------------------------------- *)

let test_reset () =
  let tl = Timeline.create ~width:100 () in
  let g = Timeline.register_gauge tl "g" in
  Timeline.set_enabled tl true;
  Timeline.phase tl ~at:0 "warmup";
  Timeline.note_event tl (ev ~at:10 Trace.Restart);
  Timeline.sample_gauge tl ~at:10 g 1;
  Timeline.reset tl;
  check_int "windows dropped" 0 (List.length (Timeline.window_aggs tl));
  check_int "phases dropped" 0 (List.length (Timeline.phase_aggs tl));
  check_bool "still enabled" true (Timeline.enabled tl);
  check_int "gauge registration survives" g (Timeline.register_gauge tl "g");
  Timeline.note_event tl (ev ~at:500 Trace.Restart);
  check_int "ingestion works after reset" 1
    (List.length (Timeline.window_aggs tl))

(* --- disabled path is allocation-free -------------------------------------- *)

let test_disabled_allocation_free () =
  let tl = Timeline.create ~width:100 () in
  let e = ev ~at:42 Trace.Restart in
  Timeline.note_event tl e;
  Timeline.note_latency tl Profile.Op_lookup ~now:100 ~dur:3;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Timeline.note_event tl e;
    Timeline.note_latency tl Profile.Op_lookup ~now:100 ~dur:3
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "disabled ingestion allocates nothing (%.0f words)"
       allocated)
    true (allocated < 64.)

(* --- exporters ------------------------------------------------------------- *)

let small_service_spec scheme =
  {
    Service.scheme;
    threads = 2;
    initial = 256;
    window = 1_000;
    seed = 11;
    phases = Service.default_phases ~horizon_cycles:40_000;
  }

let test_export_structure () =
  let r = Service.run (small_service_spec "oa-ver") in
  let j = Export.timeline_json r.Service.timeline in
  check_int "window_cycles" 1_000 Json.(to_int (member "window_cycles" j));
  let phases = Json.(to_list (member "phases" j)) in
  check_string "phase order follows the script" "steady,flash_crowd,churn_storm,pressure_wave"
    (String.concat ","
       (List.map (fun p -> Json.(to_str (member "name" p))) phases));
  check_int "windows populated" (List.length (Timeline.window_aggs r.Service.timeline))
    (List.length Json.(to_list (member "windows" j)));
  (* CSV: header and every row agree on width; one row per window *)
  let header, rows = Export.timeline_csv r.Service.timeline in
  check_int "csv rows = windows" (List.length (Timeline.window_aggs r.Service.timeline))
    (List.length rows);
  List.iter
    (fun row -> check_int "csv row width" (List.length header) (List.length row))
    rows;
  (* chrome counter tracks exist for the sampled gauges *)
  let counters = Export.timeline_counter_events r.Service.timeline in
  check_bool "counter tracks present" true (List.length counters > 0)

let test_service_byte_identical_across_runs () =
  let render r =
    Json.to_string (Export.timeline_json r.Service.timeline)
    ^
    let header, rows = Export.timeline_csv r.Service.timeline in
    String.concat "\n" (List.map (String.concat ",") (header :: rows))
  in
  let a = Service.run (small_service_spec "oa") in
  let b = Service.run (small_service_spec "oa") in
  check_string "same spec, byte-identical timeline" (render a) (render b);
  (* and the distilled SLA stats agree too *)
  let stats r =
    Format.asprintf "%a"
      (Format.pp_print_list Service.pp_phase_stats)
      (r.Service.per_phase @ [ r.Service.overall ])
  in
  check_string "same spec, identical phase stats" (stats a) (stats b)

(* Regression: the service scenario livelocked under imr — retire revoked
   the pressure ballast, a bystander thread outside the workload, whose
   squashed allocator anchor CASes then retried forever in the pressure
   wave.  The run must complete with every phase (the pressure wave
   included) reporting ops. *)
let test_service_completes_under_imr () =
  let r = Service.run (small_service_spec "imr") in
  check_int "all four phases reported" 4 (List.length r.Service.per_phase);
  List.iter
    (fun st ->
      check_bool (st.Service.phase ^ " made progress") true
        (st.Service.ops > 0))
    r.Service.per_phase;
  let wave = List.nth r.Service.per_phase 3 in
  check_bool "pressure wave exercised recovery" true
    (wave.Service.pressure_recoveries > 0)

let suite =
  [
    ("window math", `Quick, test_window_math);
    ("carried amounts", `Quick, test_carried_amounts);
    ("phase marker order", `Quick, test_phase_marker_order);
    ("empty init dropped", `Quick, test_empty_init_dropped);
    ("gauges", `Quick, test_gauges);
    ("reset", `Quick, test_reset);
    ("disabled path allocation-free", `Quick, test_disabled_allocation_free);
    ("export structure", `Quick, test_export_structure);
    ( "service timeline byte-identical",
      `Quick,
      test_service_byte_identical_across_runs );
    ( "service completes under imr",
      `Quick,
      test_service_completes_under_imr );
  ]

let () = Alcotest.run "timeline" [ ("timeline", suite) ]
