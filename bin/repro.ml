(* Command-line driver for the paper-reproduction experiments.

     repro list                          enumerate experiments
     repro run fig4a [options]           run one experiment
     repro all [options]                 run every experiment
     repro fuzz [options]                randomized schedule fuzzing
     repro replay FILE                   replay a fuzz repro JSON
     repro profile [options]             cycle-attribution profile of a run

   Options select thread counts, the simulated-time horizon, the figure-6
   structure size, reclamation schemes and CSV output. *)

open Cmdliner
open Oamem_harness
module Explore = Oamem_engine.Explore

(* Thread counts, horizons, sizes and windows parse as positive integers,
   so a zero is a usage error naming the option rather than an uncaught
   exception mid-run or a run that measures nothing. *)
let positive =
  Arg.conv
    ( Arg.parser_of_kind_of_string ~kind:"a positive integer" (fun s ->
          match int_of_string_opt s with
          | Some n when n > 0 -> Some n
          | _ -> None),
      Format.pp_print_int )

let threads_arg =
  let doc = "Comma-separated simulated thread counts." in
  Arg.(
    value
    & opt (list positive) Experiments.default_config.Experiments.threads
    & info [ "t"; "threads" ] ~docv:"N,N,..." ~doc)

let horizon_arg =
  let doc = "Measured window per thread, in simulated cycles." in
  Arg.(
    value
    & opt positive Experiments.default_config.Experiments.horizon_cycles
    & info [ "horizon" ] ~docv:"CYCLES" ~doc)

let fig4_arg =
  let doc =
    "List size for figure 4 (the paper uses 5000; the default is scaled \
     down for runtime)."
  in
  Arg.(
    value
    & opt positive Experiments.default_config.Experiments.fig4_size
    & info [ "fig4-size" ] ~docv:"N" ~doc)

let fig6_arg =
  let doc =
    "Structure size for figure 6 (the paper uses 1000000; the default is \
     scaled down for runtime)."
  in
  Arg.(
    value
    & opt positive Experiments.default_config.Experiments.fig6_size
    & info [ "fig6-size" ] ~docv:"N" ~doc)

let full_arg =
  let doc = "Run figures at the paper's full scale (5K list, 1M hash)." in
  Arg.(value & flag & info [ "full" ] ~doc)

(* Scheme names parse as an enum over the registry, like experiment ids
   below, so a typo is a usage error listing the registered schemes rather
   than an uncaught exception mid-run (or, for fuzz, an empty run). *)
let scheme_conv =
  Arg.enum (List.map (fun name -> (name, name)) Oamem_reclaim.Registry.names)

let schemes_arg =
  let doc = "Comma-separated reclamation schemes to compare." in
  Arg.(
    value
    & opt (list scheme_conv) Oamem_reclaim.Registry.paper_methods
    & info [ "s"; "schemes" ] ~docv:"NAME,..." ~doc)

let seed_arg =
  let doc = "Workload random seed." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let csv_arg =
  let doc = "Directory to write per-experiment CSV files into." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON of the designated run (last scheme at \
     the highest thread count) to $(docv); load it in chrome://tracing or \
     Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the designated run's metrics snapshot (counters, gauges, \
     histograms) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let quick_arg =
  let doc = "Use the quick preset (fewer thread counts, shorter horizon)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let sanitize_arg =
  let doc =
    "Run the fault-matrix experiment under the memory-lifecycle sanitizer \
     (access-level checks; violations abort the run)."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let jobs_term =
  let doc =
    "Worker domains: shards independent cells inside an experiment (`run', \
     `all'), whole experiments (`sweep') and fuzz seed chunks (`fuzz').  \
     Output is byte-identical at any value.  Values above the host's \
     recommended domain count are clamped to it, since extra domains only \
     time-slice the same cores."
  in
  let clamp jobs =
    let cores = Domain.recommended_domain_count () in
    if jobs <= cores then jobs
    else begin
      Printf.eprintf
        "repro: -j %d clamped to %d (the host's recommended domain count)\n%!"
        jobs cores;
      cores
    end
  in
  Term.(
    const clamp $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let config_term =
  let make threads horizon fig4 fig6 full schemes seed csv quick trace metrics
      sanitize jobs =
    let dfl = Experiments.default_config in
    let base =
      if quick then Experiments.quick_config else Experiments.default_config
    in
    (* explicit flags beat the preset; preset beats the default *)
    let pick v dflv basev = if v <> dflv then v else basev in
    Experiments.Config.make
      ~threads:(pick threads dfl.Experiments.threads base.Experiments.threads)
      ~horizon_cycles:
        (pick horizon dfl.Experiments.horizon_cycles
           base.Experiments.horizon_cycles)
      ~fig4_size:
        (if full then 5_000
         else pick fig4 dfl.Experiments.fig4_size base.Experiments.fig4_size)
      ~fig6_size:
        (if full then 1_000_000
         else pick fig6 dfl.Experiments.fig6_size base.Experiments.fig6_size)
      ~schemes ~seed ?csv_dir:csv ?trace_out:trace ?metrics_out:metrics
      ~sanitize ~jobs ()
  in
  Term.(
    const make $ threads_arg $ horizon_arg $ fig4_arg $ fig6_arg $ full_arg
    $ schemes_arg $ seed_arg $ csv_arg $ quick_arg $ trace_arg $ metrics_arg
    $ sanitize_arg $ jobs_term)

(* Experiment ids parse as an enum, so an unknown id is a usage error that
   lists the known ids rather than an uncaught exception. *)
let experiment_conv =
  Arg.enum
    (List.map (fun (e : Experiments.t) -> (e.Experiments.id, e)) Experiments.all)

let list_cmd =
  let run () =
    Printf.printf "%-18s %-22s %s\n" "id" "paper" "title";
    Printf.printf "%s\n" (String.make 80 '-');
    List.iter
      (fun e ->
        Printf.printf "%-18s %-22s %s\n" e.Experiments.id
          e.Experiments.paper_ref e.Experiments.title)
      Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments.") Term.(const run $ const ())

(* The scheme table (including the one in README.md) is generated from the
   registry — name, one-line doc and capability record — so prose cannot
   drift from the code. *)
let schemes_cmd =
  let md_arg =
    Arg.(
      value & flag
      & info [ "md" ] ~doc:"Emit the table as Markdown (the README scheme table).")
  in
  let run md =
    let module Registry = Oamem_reclaim.Registry in
    let module Scheme = Oamem_reclaim.Scheme in
    let caps_string (c : Scheme.caps) =
      let flags =
        [
          (c.Scheme.hazard_writes, "hazard-writes");
          (c.Scheme.neutralizes, "neutralizes");
          (c.Scheme.recycles_retired, "recycles-retired");
          (c.Scheme.leaks_by_design, "leaks");
          (c.Scheme.conditional_access, "cond-access");
          (c.Scheme.frees_immediately, "immediate-free");
        ]
      in
      match
        List.filter_map (fun (b, s) -> if b then Some s else None) flags
      with
      | [] -> "—"
      | fs -> String.concat ", " fs
    in
    if md then begin
      Printf.printf "| scheme | mechanism | capabilities |\n";
      Printf.printf "|--------|-----------|--------------|\n";
      List.iter
        (fun (e : Registry.entry) ->
          Printf.printf "| `%s` | %s | %s |\n" e.Registry.name e.Registry.doc
            (caps_string e.Registry.caps))
        Registry.all
    end
    else begin
      Printf.printf "%-8s %-60s %s\n" "scheme" "mechanism" "capabilities";
      Printf.printf "%s\n" (String.make 104 '-');
      List.iter
        (fun (e : Registry.entry) ->
          Printf.printf "%-8s %-60s %s\n" e.Registry.name e.Registry.doc
            (caps_string e.Registry.caps))
        Registry.all
    end
  in
  Cmd.v
    (Cmd.info "schemes"
       ~doc:
         "List the registered reclamation schemes with their one-line \
          descriptions and capability records ($(b,--md) emits the README \
          scheme table).")
    Term.(const run $ md_arg)

(* Render a doc and write its artifacts, on the coordinating domain:
   [in_dir] artifacts (CSV dumps, garbage curves) go under --csv DIR when
   given, the rest (traces, metrics) to their exact paths. *)
let emit_doc (cfg : Experiments.config) doc =
  Report.render stdout doc;
  flush stdout;
  ignore (Report.write_artifacts ?dir:cfg.Experiments.csv_dir doc)

let run_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some experiment_conv) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see `repro list').")
  in
  let run cfg (e : Experiments.t) = emit_doc cfg (e.Experiments.run cfg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment.")
    Term.(const run $ config_term $ id_arg)

let all_cmd =
  let run cfg =
    List.iter
      (fun (e : Experiments.t) -> emit_doc cfg (e.Experiments.run cfg))
      Experiments.all
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment.")
    Term.(const run $ config_term)

(* --- domain-sharded sweep --------------------------------------------------- *)

let sweep_cmd =
  let ids_arg =
    Arg.(
      value & pos_all experiment_conv []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids to sweep (default: all).")
  in
  let run cfg exps =
    let exps = if exps = [] then Experiments.all else exps in
    let outcomes =
      Sweep.experiments ~jobs:cfg.Experiments.jobs cfg exps
    in
    (* workers returned docs; render and write in canonical order here *)
    let failed =
      List.filter
        (fun (o : Sweep.experiment_outcome) ->
          match o.Sweep.doc with
          | Ok doc ->
              emit_doc cfg doc;
              false
          | Error msg ->
              Printf.printf "\nFAILED %s: %s\n%!" o.Sweep.id msg;
              true)
        outcomes
    in
    if failed <> [] then begin
      Printf.printf "\nsweep: %d experiment(s) failed: %s\n%!"
        (List.length failed)
        (String.concat ", "
           (List.map (fun (o : Sweep.experiment_outcome) -> o.Sweep.id) failed));
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run experiments across -j worker domains (one experiment per job) \
          and render the merged report in canonical order — byte-identical \
          to a sequential run.")
    Term.(const run $ config_term $ ids_arg)

(* --- schedule fuzzing ------------------------------------------------------ *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Fuzzer seed.")
  in
  let max_runs_arg =
    Arg.(
      value & opt int 200
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Random schedules per scenario and scheme.")
  in
  let seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Total wall-clock time box over all scenarios.")
  in
  let scenarios_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "scenarios" ] ~docv:"NAME,..."
          ~doc:"Scenarios to fuzz (default: all).")
  in
  let schemes_arg =
    Arg.(
      value
      & opt (some (list scheme_conv)) None
      & info [ "s"; "schemes" ] ~docv:"NAME,..."
          ~doc:"Restrict to these reclamation schemes.")
  in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for repro JSON files.")
  in
  let include_expected_arg =
    Arg.(
      value & flag
      & info [ "include-expected" ]
          ~doc:
            "Also fuzz the seeded-bug scenarios (their findings do not fail \
             the run; *not* finding their bug does).")
  in
  let run seed max_runs seconds scenarios schemes out include_expected jobs =
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) seconds in
    let expired () =
      match deadline with
      | None -> false
      | Some d -> Unix.gettimeofday () > d
    in
    let wanted =
      List.filter
        (fun (sc : Fuzz.scenario) ->
          (include_expected || not sc.Fuzz.expect_fail)
          &&
          match scenarios with
          | None -> true
          | Some names -> List.mem sc.Fuzz.name names)
        Fuzz.scenarios
    in
    (if not (Sys.file_exists out) then Sys.mkdir out 0o755);
    let cells =
      List.concat_map
        (fun (sc : Fuzz.scenario) ->
          let scheme_list =
            match schemes with
            | None -> sc.Fuzz.schemes
            | Some ss -> List.filter (fun s -> List.mem s ss) sc.Fuzz.schemes
          in
          List.map (fun scheme -> (sc, scheme)) scheme_list)
        wanted
    in
    (* the fuzzing itself runs on the worker domains; everything below —
       printing, repro files, exit status — happens here in cell order *)
    let results =
      Sweep.fuzz_matrix ~jobs ~max_runs ?stop:(Option.map (fun _ -> expired) deadline)
        ~seed cells
    in
    let unexpected = ref 0 and missed = ref 0 and total_runs = ref 0 in
    List.iter2
      (fun ((sc : Fuzz.scenario), scheme) (r : Sweep.fuzz_cell_result) ->
        total_runs := !total_runs + r.Sweep.fuzz_runs + r.Sweep.shrink_runs;
        match r.Sweep.finding with
        | None ->
            if sc.Fuzz.expect_fail then begin
              incr missed;
              Printf.printf
                "MISSED  %s/%s: seeded bug not found in %d runs\n%!"
                sc.Fuzz.name scheme r.Sweep.fuzz_runs
            end
            else
              Printf.printf "ok      %s/%s: %d schedules clean\n%!" sc.Fuzz.name
                scheme r.Sweep.fuzz_runs
        | Some f ->
            let file =
              Filename.concat out
                (Printf.sprintf "fuzz-%s-%s.json" sc.Fuzz.name scheme)
            in
            Fuzz.save file f;
            if not sc.Fuzz.expect_fail then incr unexpected;
            Printf.printf
              "%s  %s/%s: failing schedule (%d decisions, shrunk in %d \
               replays) -> %s\n        %s\n%!"
              (if sc.Fuzz.expect_fail then "seeded" else "FAIL  ")
              sc.Fuzz.name scheme
              (Array.length f.Fuzz.prefix)
              r.Sweep.shrink_runs file f.Fuzz.error)
      cells results;
    Printf.printf
      "fuzz: %d replays total; %d unexpected failure(s), %d seeded bug(s) \
       missed\n%!"
      !total_runs !unexpected !missed;
    if !unexpected > 0 || !missed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Randomized schedule fuzzing with the lifecycle sanitizer enabled, \
          sharded across -j worker domains (fixed seed chunks per cell, so \
          findings are identical at any -j); failing schedules are shrunk \
          and written as replayable repro JSON.")
    Term.(
      const run $ seed_arg $ max_runs_arg $ seconds_arg $ scenarios_arg
      $ schemes_arg $ out_arg $ include_expected_arg $ jobs_term)

(* --- cycle-attribution profiling ------------------------------------------- *)

let profile_cmd =
  let module Json = Oamem_obs.Json in
  let module Export = Oamem_obs.Export in
  let module Profile = Oamem_obs.Profile in
  let scheme_arg =
    Arg.(
      value & opt scheme_conv "oa-ver"
      & info [ "s"; "scheme" ] ~docv:"NAME" ~doc:"Reclamation scheme.")
  in
  let threads_arg =
    Arg.(
      value & opt positive 4
      & info [ "t"; "threads" ] ~docv:"N" ~doc:"Simulated thread count.")
  in
  let horizon_arg =
    Arg.(
      value & opt positive 100_000
      & info [ "horizon" ] ~docv:"CYCLES"
          ~doc:"Measured window per thread, in simulated cycles.")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the profile as JSON to $(docv).")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write collapsed stacks (flamegraph.pl / speedscope input) to \
             $(docv).")
  in
  let diff_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "diff" ] ~docv:"BASELINE"
          ~doc:
            "Print per-span cycle deltas against a profile JSON previously \
             written with --out.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Hot addresses to show.")
  in
  let run scheme threads horizon seed out folded diff top =
    let spec =
      {
        Runner.default_spec with
        Runner.scheme;
        threads;
        structure = Runner.Hash_set;
        workload = Workload.make ~mix:Workload.update_only ~initial:1_000 ();
        horizon_cycles = horizon;
        seed;
        profile = true;
      }
    in
    let r = Runner.run spec in
    let p = r.Runner.profile in
    let total = Profile.total_cycles p in
    Printf.printf
      "profile: %s hash-set, %d thread(s), horizon %d, seed %d\n\
       throughput %.4f Mops/s; %d ops; %d attributed+unattributed cycles\n\n"
      scheme threads horizon seed r.Runner.throughput_mops r.Runner.ops total;
    let pct c = if total = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int total in
    Printf.printf "%-40s %12s %7s %12s %9s\n" "span" "self-cycles" "self%"
      "total-cycles" "calls";
    Printf.printf "%s\n" (String.make 84 '-');
    List.iter
      (fun (s : Profile.span) ->
        let depth = List.length s.Profile.path - 1 in
        let name =
          String.make (2 * depth) ' '
          ^ Profile.frame_name (List.nth s.Profile.path depth)
        in
        Printf.printf "%-40s %12d %6.1f%% %12d %9d\n" name s.Profile.self_cycles
          (pct s.Profile.self_cycles) s.Profile.total_cycles s.Profile.calls)
      (Profile.spans p);
    Printf.printf "%-40s %12d %6.1f%%\n" "(unattributed)"
      (Profile.unattributed_cycles p)
      (pct (Profile.unattributed_cycles p));
    Printf.printf "\n%-16s %9s %12s %9s %9s %9s\n" "op latency" "count" "sum"
      "p50" "p99" "max";
    Printf.printf "%s\n" (String.make 70 '-');
    List.iter
      (fun (l : Profile.latency) ->
        Printf.printf "%-16s %9d %12d %9d %9d %9d\n"
          (Profile.frame_name l.Profile.lframe)
          l.Profile.count l.Profile.sum
          (Profile.percentile l 0.50)
          (Profile.percentile l 0.99)
          l.Profile.max_cycles)
      (Profile.latencies p);
    (match Profile.hot_addrs ~top p with
    | [] -> ()
    | hot ->
        Printf.printf "\n%-12s %14s %13s  %s\n" "hot addr" "invalidations"
          "cas-failures" "owning span";
        Printf.printf "%s\n" (String.make 70 '-');
        List.iter
          (fun (h : Profile.hot_addr) ->
            Printf.printf "%-12d %14d %13d  %s\n" h.Profile.addr
              h.Profile.invalidations h.Profile.cas_failures
              (match h.Profile.owner with
              | [] -> "(none)"
              | path ->
                  String.concat ";" (List.map Profile.frame_name path)))
          hot);
    (match diff with
    | None -> ()
    | Some file ->
        let ic = open_in_bin file in
        let doc =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              Json.parse (really_input_string ic (in_channel_length ic)))
        in
        let baseline =
          List.map
            (fun s ->
              ( Json.(to_str (member "path" s)),
                Json.(to_int (member "self_cycles" s)) ))
            Json.(to_list (member "spans" doc))
        in
        Printf.printf "\ndiff vs %s (self-cycles)\n" file;
        Printf.printf "%-40s %12s %12s %12s\n" "span" "baseline" "current"
          "delta";
        Printf.printf "%s\n" (String.make 80 '-');
        let current =
          List.map
            (fun (s : Profile.span) ->
              ( String.concat ";" (List.map Profile.frame_name s.Profile.path),
                s.Profile.self_cycles ))
            (Profile.spans p)
        in
        let paths =
          List.sort_uniq String.compare
            (List.map fst baseline @ List.map fst current)
        in
        List.iter
          (fun path ->
            let b = Option.value ~default:0 (List.assoc_opt path baseline) in
            let c = Option.value ~default:0 (List.assoc_opt path current) in
            if b <> 0 || c <> 0 then
              Printf.printf "%-40s %12d %12d %+12d\n" path b c (c - b))
          paths);
    Option.iter (fun file -> Export.write_profile ~top file p) out;
    Option.iter (fun file -> Export.write_collapsed file p) folded;
    Option.iter (fun file -> Printf.printf "\nwrote %s\n" file) out;
    Option.iter (fun file -> Printf.printf "wrote %s\n" file) folded
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a fixed-seed E1-style hash-set workload with the \
          cycle-attribution profiler on and print the span breakdown, \
          per-operation latency percentiles and contention hot spots; \
          optionally export flamegraph/JSON and diff against a saved \
          baseline.")
    Term.(
      const run $ scheme_arg $ threads_arg $ horizon_arg $ seed_arg $ out_arg
      $ folded_arg $ diff_arg $ top_arg)

(* --- phase-scoped service timeline ----------------------------------------- *)

let timeline_cmd =
  let module Export = Oamem_obs.Export in
  let scheme_arg =
    Arg.(
      value & opt scheme_conv "oa-ver"
      & info [ "s"; "scheme" ] ~docv:"NAME" ~doc:"Reclamation scheme.")
  in
  let threads_arg =
    Arg.(
      value & opt positive 4
      & info [ "t"; "threads" ] ~docv:"N"
          ~doc:
            "Worker threads (one extra slot runs the pressure ballast in \
             the quota phase).")
  in
  let horizon_arg =
    Arg.(
      value & opt positive 200_000
      & info [ "horizon" ] ~docv:"CYCLES"
          ~doc:"Total phased horizon in simulated cycles.")
  in
  let initial_arg =
    Arg.(
      value & opt positive 2_048
      & info [ "initial" ] ~docv:"N" ~doc:"Prefilled store size.")
  in
  let window_arg =
    Arg.(
      value & opt positive 10_000
      & info [ "window" ] ~docv:"CYCLES"
          ~doc:
            "Timeline window width in simulated cycles (the gauges are \
             sampled five times per window, at least 200 cycles apart).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the timeline (windows, phases, gauges) as JSON.")
  in
  let csv_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-out" ] ~docv:"FILE"
          ~doc:"Write the per-window timeline as CSV.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace of the run with per-window counter tracks \
             appended.")
  in
  let run scheme threads horizon initial window seed out csv_out trace_out =
    let spec =
      {
        Service.scheme;
        threads;
        initial;
        window;
        seed;
        phases = Service.default_phases ~horizon_cycles:horizon;
      }
    in
    let r = Service.run spec in
    Printf.printf
      "service: %s store of %d keys, %d worker thread(s), horizon %d, seed \
       %d\nthroughput %.4f Mops/s over %.2f sim-ms\n\n"
      scheme initial threads horizon seed r.Service.throughput_mops
      (r.Service.sim_seconds *. 1e3);
    List.iter
      (fun s -> Format.printf "%a@." Service.pp_phase_stats s)
      (r.Service.per_phase @ [ r.Service.overall ]);
    Option.iter
      (fun file ->
        Export.write_timeline file r.Service.timeline;
        Printf.printf "\nwrote %s\n" file)
      out;
    Option.iter
      (fun file ->
        Export.write_timeline_csv file r.Service.timeline;
        Printf.printf "wrote %s\n" file)
      csv_out;
    Option.iter
      (fun file ->
        Export.write_chrome_trace ~timeline:r.Service.timeline file
          (Oamem_core.System.trace r.Service.system);
        Printf.printf "wrote %s\n" file)
      trace_out
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run the phase-scripted Zipfian service scenario (E14) for one \
          scheme and print its per-phase SLA stats; optionally export the \
          timeline as JSON/CSV or a Chrome trace with counter tracks.")
    Term.(
      const run $ scheme_arg $ threads_arg $ horizon_arg $ initial_arg
      $ window_arg $ seed_arg $ out_arg $ csv_out_arg $ trace_out_arg)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Repro JSON written by `repro fuzz'.")
  in
  let run file =
    let f = Fuzz.load file in
    Printf.printf "replaying %s/%s (%d decisions, seed %d)\n%!"
      f.Fuzz.scenario f.Fuzz.scheme
      (Array.length f.Fuzz.prefix)
      f.Fuzz.seed;
    match Fuzz.replay f with
    | Some err ->
        Printf.printf "reproduced: %s\n%!" err;
        if err <> f.Fuzz.error then
          Printf.printf "(recorded error was: %s)\n%!" f.Fuzz.error
    | None ->
        Printf.printf "did NOT reproduce (recorded error: %s)\n%!"
          f.Fuzz.error;
        exit 1
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Deterministically replay a fuzz repro file.")
    Term.(const run $ file_arg)

let () =
  let doc =
    "Reproduction of 'Releasing Memory with Optimistic Access' (SPAA 2023) \
     on a simulated multicore."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "repro" ~doc)
          [
            list_cmd; schemes_cmd; run_cmd; all_cmd; sweep_cmd; fuzz_cmd;
            replay_cmd; profile_cmd; timeline_cmd;
          ]))
