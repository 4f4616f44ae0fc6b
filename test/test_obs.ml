(* Tests for the observability layer: the trace ring buffers, the metrics
   registry, the JSON/Chrome-trace exporters, and the redesigned System
   metrics API (snapshot agreement with the per-subsystem stats records, and
   the reset_measurement regression: a post-reset snapshot must be zeroed). *)

open Oamem_engine
open Oamem_core
open Oamem_lockfree
open Oamem_reclaim
module Trace = Oamem_obs.Trace
module Metrics = Oamem_obs.Metrics
module Json = Oamem_obs.Json
module Export = Oamem_obs.Export

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(nthreads = 4) ?(trace = false) scheme =
  System.create
    (System.Config.make ~nthreads ~scheme
       ~max_pages:(1 lsl 16)
       ~scheme_cfg:
         {
           Scheme.default_config with
           Scheme.threshold = 8;
           slots_per_thread = Hm_list.slots_needed;
         }
       ~trace ())

(* Drive a short multi-thread churn so every subsystem emits something. *)
let churn ?(nthreads = 4) sys =
  let set = ref None in
  System.run_on_thread0 sys (fun ctx ->
      let s = System.list_set sys ctx in
      for k = 0 to 31 do
        ignore (Hm_list.insert s ctx k)
      done;
      set := Some s);
  let s = Option.get !set in
  for tid = 0 to nthreads - 1 do
    System.spawn sys ~tid (fun ctx ->
        for k = 0 to 63 do
          ignore (Hm_list.delete s ctx ((16 * tid) + (k mod 16)));
          ignore (Hm_list.insert s ctx ((16 * tid) + (k mod 16)))
        done)
  done;
  System.run sys

(* --- trace --------------------------------------------------------------- *)

let test_trace_basic () =
  let tr = Trace.create ~capacity:16 ~nthreads:2 () in
  check_bool "disabled by default" false (Trace.enabled tr);
  Trace.emit tr ~tid:0 ~at:1 Trace.Restart;
  check_int "emit while disabled drops" 0 (Trace.recorded tr);
  Trace.set_enabled tr true;
  Trace.emit tr ~tid:0 ~at:1 Trace.Restart;
  Trace.emit tr ~tid:1 ~at:2 (Trace.Alloc { addr = 64; words = 2 });
  Trace.emit tr ~tid:99 ~at:3 Trace.Restart;
  check_int "out-of-range tid ignored" 2 (Trace.recorded tr);
  Trace.clear tr;
  check_int "clear drops everything" 0 (Trace.recorded tr)

let test_trace_ring_wraps () =
  let tr = Trace.create ~capacity:8 ~nthreads:1 () in
  Trace.set_enabled tr true;
  for i = 1 to 20 do
    Trace.emit tr ~tid:0 ~at:i Trace.Restart
  done;
  check_int "ring keeps capacity" 8 (Trace.recorded tr);
  check_int "ring counts drops" 12 (Trace.dropped tr);
  match Trace.thread_events tr ~tid:0 with
  | [] -> Alcotest.fail "ring empty"
  | e :: _ -> check_int "oldest survivor" 13 e.Trace.at

let test_trace_per_thread_monotone () =
  let sys = mk ~trace:true "oa-ver" in
  churn sys;
  let tr = System.trace sys in
  check_bool "events recorded" true (Trace.recorded tr > 0);
  for tid = 0 to System.nthreads sys - 1 do
    let es = Trace.thread_events tr ~tid in
    check_bool
      (Printf.sprintf "thread %d has events" tid)
      true (es <> []);
    ignore
      (List.fold_left
         (fun prev e ->
           check_bool
             (Printf.sprintf "tid %d monotone at %d" tid e.Trace.at)
             true
             (e.Trace.at >= prev);
           e.Trace.at)
         min_int es)
  done;
  (* the merged view is sorted by (at, tid) *)
  ignore
    (List.fold_left
       (fun (pat, ptid) e ->
         check_bool "merged sorted" true
           (e.Trace.at > pat || (e.Trace.at = pat && e.Trace.tid >= ptid));
         (e.Trace.at, e.Trace.tid))
       (min_int, min_int)
       (Trace.events tr))

let test_disabled_trace_allocates_nothing () =
  let tr = Trace.create ~capacity:64 ~nthreads:1 () in
  (* warm up the call path, then measure: the guarded emit pattern every
     subsystem uses must not allocate when tracing is off *)
  let emit_guarded () =
    if Trace.enabled tr then
      Trace.emit tr ~tid:0 ~at:0 (Trace.Alloc { addr = 0; words = 2 })
  in
  emit_guarded ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    emit_guarded ()
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "disabled emit allocates nothing (%.0f words)" allocated)
    true (allocated < 64.)

(* --- metrics registry ---------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = ref 0 in
  Metrics.register m ~reset:(fun () -> c := 0) ~name:"sub.count"
    ~kind:Metrics.Counter (fun () -> !c);
  Metrics.register m ~name:"sub.gauge" ~kind:Metrics.Gauge (fun () -> 42);
  (try
     Metrics.register m ~name:"sub.count" ~kind:Metrics.Counter (fun () -> 0);
     Alcotest.fail "duplicate name accepted"
   with Invalid_argument _ -> ());
  c := 7;
  let s = Metrics.snapshot m in
  check_int "counter read" 7 (Metrics.find s "sub.count");
  check_int "gauge read" 42 (Metrics.find s "sub.gauge");
  let h = Metrics.histogram m "sub.hist" in
  Metrics.observe h 3;
  Metrics.observe h 300;
  let s = Metrics.snapshot m in
  (match s.Metrics.histograms with
  | [ hs ] ->
      check_int "hist count" 2 hs.Metrics.count;
      check_int "hist sum" 303 hs.Metrics.sum;
      check_int "hist max" 300 hs.Metrics.max_value
  | _ -> Alcotest.fail "expected one histogram");
  Metrics.reset m;
  let s = Metrics.snapshot m in
  check_int "counter reset" 0 (Metrics.find s "sub.count");
  check_int "gauge survives reset" 42 (Metrics.find s "sub.gauge");
  match s.Metrics.histograms with
  | [ hs ] -> check_int "hist reset" 0 hs.Metrics.count
  | _ -> Alcotest.fail "expected one histogram"

(* --- JSON ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.String "x\"y\\z");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
      ]
  in
  let s = Json.to_string doc in
  let back = Json.parse s in
  check_int "int field" 3 Json.(to_int (member "a" back));
  check_bool "string field" true
    (Json.(to_str (member "b" back)) = "x\"y\\z");
  check_int "list length" 3 (List.length Json.(to_list (member "c" back)));
  (try
     ignore (Json.parse "{\"a\": 1} trailing");
     Alcotest.fail "trailing garbage accepted"
   with Json.Parse_error _ -> ())

(* --- Chrome trace export -------------------------------------------------- *)

let test_chrome_export_roundtrips_counts () =
  let sys = mk ~trace:true "oa-ver" in
  churn sys;
  let tr = System.trace sys in
  let recorded = Trace.recorded tr in
  check_bool "something to export" true (recorded > 0);
  let doc = Export.chrome_trace tr in
  (* round-trip through the wire format *)
  let back = Json.parse (Json.to_string doc) in
  let evs = Json.(to_list (member "traceEvents" back)) in
  let is_meta e = Json.(to_str (member "ph" e)) = "M" in
  let data_events = List.filter (fun e -> not (is_meta e)) evs in
  check_int "one JSON event per buffered trace event" recorded
    (List.length data_events);
  (* every live thread appears *)
  let tids =
    List.sort_uniq compare
      (List.map (fun e -> Json.(to_int (member "tid" e))) data_events)
  in
  check_bool "at least one event per live thread" true
    (List.length tids >= System.nthreads sys)

(* --- the redesigned System metrics API ------------------------------------ *)

let test_system_metrics_agree_with_subsystems () =
  let sys = mk "oa-bit" in
  churn sys;
  let m = System.metrics sys in
  (* the snapshot must read the same underlying per-subsystem counters *)
  let ss = (System.scheme sys).Scheme.stats in
  let es = Engine.stats (System.engine sys) in
  let u = (System.vmem sys) in
  let hs = Oamem_lrmalloc.Lrmalloc.stats (System.alloc sys) in
  check_int "scheme.retired" ss.Scheme.retired
    (Metrics.find m "scheme.retired");
  check_int "scheme.restarts" ss.Scheme.restarts
    (Metrics.find m "scheme.restarts");
  check_int "scheme.warnings_fired" ss.Scheme.warnings_fired
    (Metrics.find m "scheme.warnings_fired");
  check_int "engine.accesses" es.Engine.accesses
    (Metrics.find m "engine.accesses");
  check_int "engine.syscalls" es.Engine.syscalls
    (Metrics.find m "engine.syscalls");
  check_int "vmem.frames_live" (Oamem_vmem.Vmem.frames_live u)
    (Metrics.find m "vmem.frames_live");
  check_int "vmem.frames_peak" (Oamem_vmem.Vmem.frames_peak u)
    (Metrics.find m "vmem.frames_peak");
  check_int "alloc.sb_fresh" hs.Oamem_lrmalloc.Heap.sb_fresh
    (Metrics.find m "alloc.sb_fresh")

let test_reset_measurement_zeroes_snapshot () =
  let sys = mk ~trace:true "oa-ver" in
  churn sys;
  let before = System.metrics sys in
  check_bool "pre-reset counters nonzero" true
    (Metrics.find before "scheme.retired" > 0
    && Metrics.find before "engine.accesses" > 0);
  check_bool "pre-reset trace nonempty" true
    (Trace.recorded (System.trace sys) > 0);
  System.reset_measurement sys;
  let s = System.metrics sys in
  List.iter
    (fun (name, kind, v) ->
      if kind = Metrics.Counter then
        check_int (Printf.sprintf "post-reset %s zeroed" name) 0 v)
    s.Metrics.values;
  List.iter
    (fun hs ->
      check_int
        (Printf.sprintf "post-reset histogram %s zeroed" hs.Metrics.hname)
        0 hs.Metrics.count)
    s.Metrics.histograms;
  check_int "post-reset trace empty" 0 (Trace.recorded (System.trace sys));
  (* gauges (instantaneous state) are deliberately untouched *)
  check_bool "frames still live" true (Metrics.find s "vmem.frames_live" > 0)

(* [scheme.unreclaimed] is a live gauge: a measurement reset must not move
   it (a windowed [retired - freed] goes negative once warmup retirees are
   freed after the reset), and once every limbo list is drained it reads 0
   for every scheme that reclaims at all. *)
let test_unreclaimed_is_live () =
  List.iter
    (fun (e : Registry.entry) ->
      let name = e.Registry.name in
      let sys = mk name in
      let gauge () = Metrics.find (System.metrics sys) "scheme.unreclaimed" in
      churn sys;
      let before = gauge () in
      System.reset_measurement sys;
      check_int (name ^ ": reset leaves the gauge") before (gauge ());
      churn sys;
      System.drain sys;
      if not e.Registry.caps.Scheme.leaks_by_design then
        check_int (name ^ ": drained to zero") 0 (gauge ()))
    Registry.all

let test_metrics_export_has_required_counters () =
  let sys = mk "oa-ver" in
  churn sys;
  let doc = Export.metrics_json (System.metrics sys) in
  let back = Json.parse (Json.to_string doc) in
  let counters = Json.member "counters" back in
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "counter %s present" name) true
        (Json.member name counters <> Json.Null))
    [
      "scheme.warnings_fired"; "scheme.restarts"; "vmem.frames_released";
      "engine.accesses"; "alloc.sb_fresh";
    ]

let test_unused_histograms_omitted_from_export () =
  let reg = Metrics.create () in
  let touched = Metrics.histogram reg "touched" in
  let _untouched = Metrics.histogram reg "untouched" in
  Metrics.observe touched 5;
  let doc = Json.parse (Json.to_string (Export.metrics_json (Metrics.snapshot reg))) in
  let names =
    List.map
      (fun h -> Json.to_str (Json.member "name" h))
      (Json.to_list (Json.member "histograms" doc))
  in
  check_bool "observed histogram exported" true (List.mem "touched" names);
  check_bool "unused histogram omitted" false (List.mem "untouched" names)

let test_csv_rejects_ragged_rows () =
  let path = Filename.temp_file "obs-csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Export.write_csv path ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
      check_bool "well-formed rows accepted" true (Sys.file_exists path);
      match
        Export.write_csv path ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3" ] ]
      with
      | () -> Alcotest.fail "ragged row accepted"
      | exception Invalid_argument _ -> ())

let suite =
  [
    ("trace basic", `Quick, test_trace_basic);
    ("trace ring wraps", `Quick, test_trace_ring_wraps);
    ("trace per-thread monotone", `Quick, test_trace_per_thread_monotone);
    ( "disabled trace allocates nothing",
      `Quick,
      test_disabled_trace_allocates_nothing );
    ("metrics registry", `Quick, test_metrics_registry);
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("chrome export roundtrips counts", `Quick, test_chrome_export_roundtrips_counts);
    ( "snapshot agrees with subsystem stats",
      `Quick,
      test_system_metrics_agree_with_subsystems );
    ( "reset_measurement zeroes snapshot",
      `Quick,
      test_reset_measurement_zeroes_snapshot );
    ("unreclaimed is a live gauge", `Quick, test_unreclaimed_is_live);
    ( "metrics export has required counters",
      `Quick,
      test_metrics_export_has_required_counters );
    ( "unused histograms omitted from export",
      `Quick,
      test_unused_histograms_omitted_from_export );
    ("csv rejects ragged rows", `Quick, test_csv_rejects_ragged_rows);
  ]

let () = Alcotest.run "obs" [ ("obs", suite) ]
