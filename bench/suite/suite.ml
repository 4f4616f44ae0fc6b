(* The repository benchmark: four simulator workloads, end-to-end metrics
   on both clocks (simulated cycles and host time), per-layer numbers from
   counters, a traced run and a host-cost ledger.

     suite.exe [--seed N] [--out FILE]
         every workload, 5 repetitions round-robin, then a traced run per
         workload and the ledger; prints each metric with its unit and
         sample count, then the JSON document (to FILE, else as the last
         line of stdout)
     suite.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
         one workload; repeats it for at least S seconds (trace 0, the
         end-to-end metrics) or runs it once plus the traced run and the
         ledger (trace 1, the per-layer metrics); the last stdout line is
         {"correct", "attempted", "failed", "metrics"} over the metrics
         BENCHMARK.json lists
     suite.exe compare A.json B.json
         one row per (workload, end-to-end metric) of two full runs, with
         the bounds BENCHMARK.json fixes

   Load comes from this one process: each repetition runs in its own
   forked child, one child at a time, so every repetition gets its own
   host memory high-water mark and a fresh GC state.  Exits nonzero when
   any correctness check fails. *)

module W = Workloads
module Json = Oamem_obs.Json

(* --- metric tables ----------------------------------------------------------- *)

let end_to_end =
  [
    ("sim_mops", "ops/sim-us");
    ("sim_op_p50_cycles", "cycles");
    ("sim_op_p99_cycles", "cycles");
    ("sim_frames_peak", "frames");
    ("sim_frames_end", "frames");
    ("host_msteps_per_s", "Msteps/s");
    ("run_s", "s");
    ("setup_s", "s");
    ("host_peak_rss_mb", "MB");
    ("host_minor_words_per_step", "words/step");
  ]

(* Simulated results, and the minor-heap words per step, repeat exactly
   for one seed and build. *)
let deterministic name =
  String.starts_with ~prefix:"sim_" name || name = "host_minor_words_per_step"

(* Per-layer metrics: from the timed repetitions, from the traced run
   ([traced_only]) or derived from the traced pair ([obs.*]); the ledger's
   come on top.  Directions are in BENCHMARK.json. *)
let per_layer =
  [
    ("engine.steps_per_op", "steps/op");
    ("engine.accesses_per_op", "accesses/op");
    ("engine.l1_miss_ratio", "ratio");
    ("engine.tlb_miss_ratio", "ratio");
    ("engine.remote_invalidations_per_kop", "1/kop");
    ("engine.fences_per_op", "1/op");
    ("engine.unattributed_cycles_per_op", "cycles/op");
    ("vmem.tc_hit_ratio", "ratio");
    ("vmem.minor_faults_per_kop", "1/kop");
    ("vmem.frames_released", "frames");
    ("vmem.syscalls", "count");
    ("vmem.self_cycles_per_op", "cycles/op");
    ("lrmalloc.sb_fresh", "count");
    ("lrmalloc.sb_released", "count");
    ("lrmalloc.sb_remapped", "count");
    ("lrmalloc.sb_range_reused", "count");
    ("lrmalloc.self_cycles_per_op", "cycles/op");
    ("reclaim.retired_per_op", "nodes/op");
    ("reclaim.freed_per_retired", "ratio");
    ("reclaim.reclaim_phases_per_kop", "1/kop");
    ("reclaim.restarts_per_kop", "1/kop");
    ("reclaim.warnings_per_kop", "1/kop");
    ("reclaim.self_cycles_per_op", "cycles/op");
    ("lockfree.update_success_ratio", "ratio");
    ("lockfree.prefill_s", "s");
    ("lockfree.self_cycles_per_op", "cycles/op");
    ("core.create_s", "s");
    ("core.warmup_s", "s");
    ("core.drain_s", "s");
    ("obs.trace_overhead_x", "x");
    ("obs.profile_minor_words_per_step", "words/step");
  ]

let traced_only =
  [
    "engine.unattributed_cycles_per_op";
    "vmem.self_cycles_per_op";
    "lrmalloc.self_cycles_per_op";
    "reclaim.self_cycles_per_op";
    "lockfree.self_cycles_per_op";
  ]

let ledger_unit name =
  if Filename.check_suffix name "_ns" then "ns" else "words/call"

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> (
      match List.assoc_opt name per_layer with
      | Some u -> u
      | None -> ledger_unit name)

(* --- statistics -------------------------------------------------------------- *)

let median = W.median

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* --- JSON output with every digit of each float ------------------------------ *)

let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let rec emit buf = function
  | Json.Float f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Json.Float f -> Buffer.add_string buf (float_repr f)
  | Json.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Json.to_buffer buf (Json.String k);
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'
  | leaf -> Json.to_buffer buf leaf

let json_string j =
  let buf = Buffer.create 4096 in
  emit buf j;
  Buffer.contents buf

(* --- children ---------------------------------------------------------------- *)

(* Run [f] in a forked child and return its marshalled result.  The parent
   waits for the child before returning. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let res : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc res [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let res : ('a, string) result =
        try Marshal.from_channel ic
        with End_of_file | Failure _ -> Error "child produced no result"
      in
      close_in ic;
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> res
      | Unix.WEXITED n -> Error (Printf.sprintf "child exited with code %d" n)
      | Unix.WSIGNALED n | Unix.WSTOPPED n ->
          Error (Printf.sprintf "child killed by signal %d" n))

let measure_in_child ?profile w ~seed =
  match in_child (fun () -> W.measure ?profile w ~seed) with
  | Ok rep -> rep
  | Error msg -> { W.attempted = 1; failure = Some msg; sim_doc = ""; values = [] }

(* --- provenance -------------------------------------------------------------- *)

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

(* Read from the checkout's own .git, if it has one; never runs git. *)
let git_revision () =
  let packed ref_name =
    Option.bind (read_file ".git/packed-refs") (fun s ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ sha; r ] when r = ref_name -> Some sha
            | _ -> None)
          (String.split_on_char '\n' s))
  in
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (".git/" ^ r) with
          | Some sha -> String.trim sha
          | None -> Option.value ~default:"unknown" (packed r))
      | _ -> head)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s ->
      Option.value ~default:"unknown"
        (List.find_map
           (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = "model name" ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)
           (String.split_on_char '\n' s))

let provenance ~seed ~reps =
  [
    ("seed", Json.Int seed);
    ("git_revision", Json.String (git_revision ()));
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("cpu_model", Json.String (cpu_model ()));
    ("ocaml_version", Json.String Sys.ocaml_version);
    ("build_profile", Json.String Build_info.profile);
    ("repetitions_per_workload", Json.Int reps);
  ]

let print_provenance fields =
  Printf.printf "provenance:";
  List.iter
    (fun (k, v) ->
      Printf.printf " %s=%s" k
        (match v with Json.String s -> Printf.sprintf "%S" s | j -> json_string j))
    fields;
  print_newline ()

(* --- one workload's results -------------------------------------------------- *)

type outcome = {
  w : W.t;
  reps : W.rep list;
  traced : (W.rep * W.rep) option;  (** untraced and traced short runs *)
}

(* Every failed check, each with the ops it makes count as failed. *)
let failures o =
  let reference =
    List.find_map
      (fun (r : W.rep) -> if r.W.failure = None then Some r.W.sim_doc else None)
      o.reps
  in
  let rep_failures =
    List.concat
      (List.mapi
         (fun i (r : W.rep) ->
           match r.W.failure with
           | Some msg -> [ (Printf.sprintf "repetition %d: %s" (i + 1) msg, r.W.attempted) ]
           | None when Some r.W.sim_doc <> reference ->
               [
                 ( Printf.sprintf
                     "repetition %d: simulated results differ from the first repetition"
                     (i + 1),
                   r.W.attempted );
               ]
           | None -> [])
         o.reps)
  in
  let traced_failures =
    match o.traced with
    | None -> []
    | Some (u, t) ->
        let run_failure name (r : W.rep) =
          Option.map (fun m -> (Printf.sprintf "%s run: %s" name m, r.W.attempted)) r.W.failure
        in
        List.filter_map Fun.id [ run_failure "untraced short" u; run_failure "traced short" t ]
        @
        if u.W.failure = None && t.W.failure = None && u.W.sim_doc <> t.W.sim_doc then
          [
            ( "traced and untraced short runs disagree on simulated results",
              u.W.attempted + t.W.attempted );
          ]
        else []
  in
  rep_failures @ traced_failures

let attempted o =
  List.fold_left (fun acc (r : W.rep) -> acc + r.W.attempted) 0 o.reps
  + match o.traced with Some (u, t) -> u.W.attempted + t.W.attempted | None -> 0

let failed o = min (attempted o) (List.fold_left (fun acc (_, n) -> acc + n) 0 (failures o))

let good_reps o =
  match List.find_opt (fun (r : W.rep) -> r.W.failure = None) o.reps with
  | None -> []
  | Some first ->
      List.filter
        (fun (r : W.rep) -> r.W.failure = None && r.W.sim_doc = first.W.sim_doc)
        o.reps

let values_of o name =
  List.filter_map (fun (r : W.rep) -> List.assoc_opt name r.W.values) (good_reps o)

(* Per-layer values: medians over the good repetitions, self-cycles from
   the traced run, and the tracing overhead from the traced pair. *)
let layer_values o =
  let traced =
    match o.traced with
    | Some (u, t) when u.W.failure = None && t.W.failure = None ->
        let v (r : W.rep) name = List.assoc name r.W.values in
        let ns_per_step r = v r "run_s" /. v r "host_steps" in
        Some
          (("obs.trace_overhead_x", ns_per_step t /. ns_per_step u)
          :: ( "obs.profile_minor_words_per_step",
               v t "host_minor_words" /. v t "host_steps" )
          :: List.map (fun n -> (n, v t n)) traced_only)
    | _ -> None
  in
  List.filter_map
    (fun (name, _) ->
      if List.mem name traced_only || String.starts_with ~prefix:"obs." name then
        Option.bind traced (List.assoc_opt name) |> Option.map (fun v -> (name, v))
      else
        match values_of o name with [] -> None | vs -> Some (name, median vs))
    per_layer

let print_metric name value detail =
  Printf.printf "  %-36s %16s %-12s %s\n" name (float_repr value) (unit_of name) detail

let print_outcome o =
  Printf.printf "workload %s: %s\n" o.w.W.name (W.params o.w);
  let goods = good_reps o in
  let n = List.length goods in
  let op_samples = match goods with r :: _ -> r.W.attempted | [] -> 0 in
  List.iter
    (fun (name, _) ->
      match values_of o name with
      | [] -> Printf.printf "  %-36s %16s\n" name "n/a"
      | vs ->
          let lo = List.fold_left min infinity vs and hi = List.fold_left max neg_infinity vs in
          let samples =
            if name = "sim_op_p50_cycles" || name = "sim_op_p99_cycles" then
              Printf.sprintf "; %d op samples per rep" op_samples
            else ""
          in
          print_metric name (median vs)
            (Printf.sprintf "(median of %d reps, range %s..%s%s)" n (float_repr lo)
               (float_repr hi) samples))
    end_to_end;
  (match (values_of o "host_kernel_ms", values_of o "host_run_raw_s") with
  | [], _ | _, [] -> ()
  | k, r ->
      Printf.printf
        "  (host times at reference speed: kernel median %.3f ms, nominal %.3f ms; raw run_s median %.3f s)\n"
        (median k) (1e3 *. W.Host_clock.nominal_s) (median r));
  let att = attempted o and fl = failed o in
  Printf.printf "  %-36s %16s %-12s (%d of %d ops)\n" "ops_failed_frac"
    (float_repr (float_of_int fl /. float_of_int (max 1 att)))
    "fraction" fl att;
  List.iter (fun (msg, _) -> Printf.printf "  FAILED: %s\n" msg) (failures o);
  Printf.printf "  per-layer:\n";
  List.iter
    (fun (name, v) -> print_metric name v "")
    (layer_values o)

let print_ledger entries =
  Printf.printf "ledger (host cost per call, empty-loop baseline subtracted):\n";
  List.iter
    (fun (e : Ledger.entry) ->
      Printf.printf "  %-36s %10.2f ns %10.2f words/call\n" e.Ledger.name e.Ledger.ns
        e.Ledger.words)
    entries

let outcome_json o =
  let metric name =
    let vs = values_of o name in
    ( name,
      Json.Obj
        [
          ("unit", Json.String (unit_of name));
          ("median", Json.Float (median vs));
          ("values", Json.List (List.map (fun v -> Json.Float v) vs));
        ] )
  in
  let att = attempted o and fl = failed o in
  Json.Obj
    [
      ("name", Json.String o.w.W.name);
      ("params", Json.String (W.params o.w));
      ("reps", Json.Int (List.length o.reps));
      ("attempted", Json.Int att);
      ("failed", Json.Int fl);
      ("failures", Json.List (List.map (fun (m, _) -> Json.String m) (failures o)));
      ("host_kernel_ms", Json.Float (median (values_of o "host_kernel_ms")));
      ("host_run_raw_s", Json.Float (median (values_of o "host_run_raw_s")));
      ( "op_samples_per_rep",
        Json.Int (match good_reps o with r :: _ -> r.W.attempted | [] -> 0) );
      ( "end_to_end",
        Json.Obj
          (List.map (fun (n, _) -> metric n) end_to_end
          @ [
              ( "ops_failed_frac",
                Json.Obj
                  [
                    ("unit", Json.String "fraction");
                    ("median", Json.Float (float_of_int fl /. float_of_int (max 1 att)));
                  ] );
            ]) );
      ( "per_layer",
        Json.Obj
          (List.map
             (fun (n, v) ->
               (n, Json.Obj [ ("unit", Json.String (unit_of n)); ("value", Json.Float v) ]))
             (layer_values o)) );
    ]

(* --- BENCHMARK.json ---------------------------------------------------------- *)

let benchmark_spec () =
  match read_file "BENCHMARK.json" with
  | None -> failwith "BENCHMARK.json not found in the current directory"
  | Some s -> Json.parse s

let spec_metrics spec key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), m))
    (Json.to_list (Json.member key spec))

(* --- modes ------------------------------------------------------------------- *)

let full ~seed ~out =
  let reps = 5 in
  let prov = provenance ~seed ~reps in
  print_provenance prov;
  let runs = Array.make (List.length W.all) [] in
  (* round-robin, so machine drift spreads over every workload *)
  for r = 1 to reps do
    List.iteri
      (fun i w ->
        let t0 = Unix.gettimeofday () in
        let rep = measure_in_child w ~seed in
        Printf.eprintf "rep %d/%d %-15s %.1f s%s\n%!" r reps w.W.name
          (Unix.gettimeofday () -. t0)
          (match rep.W.failure with Some m -> " FAILED: " ^ m | None -> "");
        runs.(i) <- runs.(i) @ [ rep ])
      W.all
  done;
  let outcomes =
    List.mapi
      (fun i w ->
        let short = W.shortened w in
        let u = measure_in_child short ~seed in
        let t = measure_in_child ~profile:true short ~seed in
        Printf.eprintf "traced %-15s done\n%!" w.W.name;
        { w; reps = runs.(i); traced = Some (u, t) })
      W.all
  in
  let ledger = match in_child Ledger.run with Ok l -> l | Error m -> failwith ("ledger: " ^ m) in
  List.iter print_outcome outcomes;
  print_ledger ledger;
  let correct = List.for_all (fun o -> failures o = []) outcomes in
  let doc =
    Json.Obj
      [
        ("provenance", Json.Obj prov);
        ("correct", Json.Bool correct);
        ("workloads", Json.List (List.map outcome_json outcomes));
        ( "ledger",
          Json.Obj
            (List.map
               (fun (n, v) ->
                 (n, Json.Obj [ ("unit", Json.String (ledger_unit n)); ("value", Json.Float v) ]))
               (Ledger.values ledger)) );
      ]
  in
  (match out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (json_string doc);
          output_char oc '\n');
      Printf.printf "wrote %s\n" path
  | None -> print_endline (json_string doc));
  if not correct then exit 1

(* One workload for [seconds] (at least three repetitions) or, traced, one
   repetition plus the traced pair and the ledger. *)
let single ~name ~seed ~seconds ~trace =
  let w =
    match W.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" name
          (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  let listed = spec_metrics (benchmark_spec ()) (if trace then "per_layer" else "end_to_end") in
  let reps = ref [] in
  let t0 = Unix.gettimeofday () in
  let enough () =
    let n = List.length !reps in
    if trace then n >= 1
    else n >= 20 || (n >= 3 && Unix.gettimeofday () -. t0 >= float_of_int seconds)
  in
  while not (enough ()) do
    reps := !reps @ [ measure_in_child w ~seed ]
  done;
  let traced =
    if trace then
      let short = W.shortened w in
      Some (measure_in_child short ~seed, measure_in_child ~profile:true short ~seed)
    else None
  in
  let o = { w; reps = !reps; traced } in
  let ledger =
    if trace then
      match in_child Ledger.run with Ok l -> Ledger.values l | Error _ -> []
    else []
  in
  print_provenance (provenance ~seed ~reps:(List.length !reps));
  print_outcome o;
  let available =
    if trace then layer_values o @ ledger
    else List.filter_map (fun (n, _) -> match values_of o n with [] -> None | vs -> Some (n, median vs)) end_to_end
  in
  let missing = ref [] in
  let metrics =
    List.filter_map
      (fun (name, m) ->
        let unit = Json.to_str (Json.member "unit" m) in
        match List.assoc_opt name available with
        | Some v when unit = unit_of name ->
            Some (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])
        | _ ->
            missing := name :: !missing;
            None)
      listed
  in
  let fails = failures o in
  List.iter (fun n -> Printf.printf "  MISSING: %s (no value, or unit differs from BENCHMARK.json)\n" n) !missing;
  let correct = fails = [] && !missing = [] in
  print_endline
    (json_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (attempted o));
            ("failed", Json.Int (failed o));
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1

(* --- compare ----------------------------------------------------------------- *)

let compare_runs a_path b_path =
  let load path =
    match read_file path with
    | Some s -> Json.parse s
    | None -> failwith (Printf.sprintf "cannot read %s" path)
  in
  let a = load a_path and b = load b_path in
  let bounds = spec_metrics (benchmark_spec ()) "end_to_end" in
  let workloads doc =
    List.map (fun w -> (Json.to_str (Json.member "name" w), w)) (Json.to_list (Json.member "workloads" doc))
  in
  let floats j = List.map Json.to_float (Json.to_list j) in
  let worse_rows = ref 0 and differing = ref [] in
  Printf.printf "%-15s %-26s %14s %14s %9s %8s %7s  %s\n" "workload" "metric" "A median"
    "B median" "change" "spread" "bound" "verdict";
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname (workloads b) with
      | None -> Printf.printf "%-15s missing from %s\n" wname b_path
      | Some wb ->
          List.iter
            (fun (name, m) ->
              let bound = Json.to_float (Json.member "bound" m) in
              let higher = Json.to_str (Json.member "better" m) = "higher" in
              let vals doc = floats (Json.member "values" (Json.member name (Json.member "end_to_end" doc))) in
              let va = vals wa and vb = vals wb in
              let ma = median va and mb = median vb in
              (* share of A's median by which B is worse (negative: better) *)
              let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
              let sp = Float.max (spread va) (spread vb) in
              let all_better =
                va <> [] && vb <> []
                &&
                if higher then List.fold_left min infinity vb > List.fold_left max neg_infinity va
                else List.fold_left max neg_infinity vb < List.fold_left min infinity va
              in
              let verdict =
                if Float.is_nan worse then "unresolved"
                else if sp > bound then if all_better then "better" else "unresolved"
                else if worse > bound then "worse"
                else if -.worse > bound then "better"
                else "within bound"
              in
              if verdict = "worse" then incr worse_rows;
              if deterministic name && ma <> mb then differing := (wname ^ " " ^ name) :: !differing;
              Printf.printf "%-15s %-26s %14.6g %14.6g %+8.2f%% %7.2f%% %6.2f%%  %s\n" wname name
                ma mb
                (100. *. (mb -. ma) /. Float.abs ma)
                (100. *. sp) (100. *. bound) verdict)
            bounds;
          let failed doc = Json.to_int (Json.member "failed" doc) in
          let fa = failed wa and fb = failed wb in
          Printf.printf "%-15s %-26s %14d %14d %9s %8s %7s  %s\n" wname "ops_failed (count)" fa fb
            "" "" "0"
            (if fb > fa then (incr worse_rows; "worse") else if fb < fa then "better" else "within bound"))
    (workloads a);
  (match !differing with
  | [] -> Printf.printf "deterministic metrics (sim_*, host_minor_words_per_step): identical\n"
  | ds ->
      Printf.printf "deterministic metrics that differ: %s\n" (String.concat ", " (List.rev ds)));
  if !worse_rows > 0 then exit 1

(* --- command line ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: suite.exe [--seed N] [--out FILE]\n\
    \       suite.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       suite.exe compare A.json B.json";
  exit 2

(* Unreadable or malformed input files end the run with a message. *)
let clean_errors f =
  try f ()
  with Failure msg | Json.Parse_error msg ->
    prerr_endline ("suite: " ^ msg);
    exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> clean_errors (fun () -> compare_runs a b)
  | "compare" :: _ -> usage ()
  | args ->
      let int_arg flag v =
        match int_of_string_opt v with
        | Some n when n >= 0 -> n
        | _ ->
            Printf.eprintf "%s expects a non-negative integer, got %S\n" flag v;
            exit 2
      in
      let rec parse (seed, out, workload, seconds, trace) = function
        | [] -> (seed, out, workload, seconds, trace)
        | "--seed" :: v :: rest -> parse (int_arg "--seed" v, out, workload, seconds, trace) rest
        | "--out" :: v :: rest -> parse (seed, Some v, workload, seconds, trace) rest
        | "--workload" :: v :: rest -> parse (seed, out, Some v, seconds, trace) rest
        | "--seconds" :: v :: rest -> parse (seed, out, workload, int_arg "--seconds" v, trace) rest
        | "--trace" :: ("0" | "1" as v) :: rest -> parse (seed, out, workload, seconds, v = "1") rest
        | arg :: _ ->
            Printf.eprintf "unexpected argument %S\n" arg;
            usage ()
      in
      let seed, out, workload, seconds, trace = parse (7, None, None, 10, false) args in
      clean_errors (fun () ->
          match workload with
          | Some name -> single ~name ~seed ~seconds ~trace
          | None -> full ~seed ~out)
