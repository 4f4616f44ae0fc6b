(* Producer of the byte-exact goldens.

   The simulator is deterministic per seed, so its output is checked
   exactly rather than within a tolerance.  This writes three documents
   into the current directory:

   - experiments.json: every entry of [Experiments.all] at a small preset
     (threads 1,2; horizon 20000; fig4 size 60; fig6 size 500; schemes
     nr,oa-ver), as [Report.to_json] plus the contents of its artifacts;
   - BENCH_E1.json: the E1 hash-set sweep with the full metrics snapshot
     and cycle-attribution profile per run;
   - BENCH_SERVICE.json: the E14 service scenario per scheme, with its
     per-phase SLA stats.

   test/dune diffs each against its committed copy in test/golden/, so
   `dune runtest` fails with a diff on any change to a simulated number,
   and `make golden` promotes the fresh output. *)

open Oamem_harness
module Json = Oamem_obs.Json
module Export = Oamem_obs.Export
module Registry = Oamem_reclaim.Registry

let write file doc =
  let oc = open_out_bin file in
  output_string oc doc;
  close_out oc

(* Line-oriented rendering, so a moved number shows as a small diff hunk:
   a list or object whose compact form would overrun the line is broken
   into one member per line. *)
let pretty v =
  let buf = Buffer.create 65536 in
  let rec go indent v =
    let flat = Json.to_string v in
    match v with
    | (Json.List (_ :: _) | Json.Obj (_ :: _))
      when indent + String.length flat > 100 ->
        let members, opening, closing =
          match v with
          | Json.List l -> (List.map (fun x -> (None, x)) l, '[', ']')
          | Json.Obj kv -> (List.map (fun (k, x) -> (Some k, x)) kv, '{', '}')
          | _ -> assert false
        in
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_char buf opening;
        List.iteri
          (fun i (key, x) ->
            Buffer.add_string buf (if i = 0 then "\n" else ",\n");
            Buffer.add_string buf pad;
            Option.iter
              (fun k ->
                Json.to_buffer buf (Json.String k);
                Buffer.add_string buf ": ")
              key;
            go (indent + 2) x)
          members;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_char buf closing
    | _ -> Buffer.add_string buf flat
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let artifact_json (a : Report.artifact) =
  let content =
    if Filename.check_suffix a.Report.filename ".json" then
      Json.parse a.Report.content
    else
      Json.List
        (List.map
           (fun l -> Json.String l)
           (String.split_on_char '\n' a.Report.content))
  in
  Json.Obj [ ("filename", Json.String a.Report.filename); ("content", content) ]

let experiments () =
  let cfg =
    Experiments.Config.make ~threads:[ 1; 2 ] ~horizon_cycles:20_000
      ~fig4_size:60 ~fig6_size:500 ~schemes:[ "nr"; "oa-ver" ] ()
  in
  Json.List
    (List.map
       (fun (e : Experiments.t) ->
         let doc = e.Experiments.run cfg in
         Json.Obj
           [
             ("id", Json.String e.Experiments.id);
             ("report", Report.to_json doc);
             ("artifacts", Json.List (List.map artifact_json (Report.artifacts doc)));
           ])
       Experiments.all)

(* The paper's four methods, the EBR/DEBRA epoch pair and IMR at 1 and 4
   threads: a small update-only hash-set sweep. *)
let e1 () =
  let results =
    List.concat_map
      (fun scheme ->
        List.map
          (fun threads ->
            let r =
              Runner.run
                {
                  Runner.default_spec with
                  Runner.scheme;
                  threads;
                  structure = Runner.Hash_set;
                  workload =
                    Workload.make ~mix:Workload.update_only ~initial:1_000 ();
                  horizon_cycles = 100_000;
                  profile = true;
                }
            in
            Json.Obj
              [
                ("scheme", Json.String scheme);
                ("threads", Json.Int threads);
                ("throughput_mops", Json.Float r.Runner.throughput_mops);
                ("host_steps", Json.Int r.Runner.host_steps);
                ("metrics", Export.metrics_json r.Runner.metrics);
                ("profile", Export.profile_json r.Runner.profile);
              ])
          [ 1; 4 ])
      (Registry.paper_methods @ [ "ebr"; "debra"; "imr" ])
  in
  Json.Obj
    [
      ("experiment", Json.String "E1");
      ("structure", Json.String "hash-set");
      ("results", Json.List results);
    ]

let service () =
  let phase_json (p : Service.phase_stats) =
    Json.Obj
      [
        ("phase", Json.String p.Service.phase);
        ("ops", Json.Int p.Service.ops);
        ("p50", Json.Int p.Service.p50);
        ("p99", Json.Int p.Service.p99);
        ("peak_unreclaimed", Json.Int p.Service.peak_unreclaimed);
        ("pressure_recoveries", Json.Int p.Service.pressure_recoveries);
      ]
  in
  let results =
    List.map
      (fun scheme ->
        let r = Service.run { Service.default_spec with Service.scheme } in
        Json.Obj
          [
            ("scheme", Json.String scheme);
            ("threads", Json.Int r.Service.rspec.Service.threads);
            ("throughput_mops", Json.Float r.Service.throughput_mops);
            ( "phases",
              Json.List
                (List.map phase_json (r.Service.per_phase @ [ r.Service.overall ]))
            );
          ])
      Registry.names
  in
  Json.Obj
    [
      ("experiment", Json.String "E14");
      ("structure", Json.String "service(hash-set)");
      ("results", Json.List results);
    ]

let () =
  write "experiments.json" (pretty (experiments ()));
  write "BENCH_E1.json" (Json.to_string (e1 ()) ^ "\n");
  write "BENCH_SERVICE.json" (Json.to_string (service ()) ^ "\n")
