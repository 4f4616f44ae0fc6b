(* Simulated-time windowed aggregation: fixed-width windows over the trace
   and profiler streams, plus named phase markers.

   Ingestion is order-insensitive integer accumulation (counts, histogram
   buckets, gauge last/max), and the simulated schedule that drives it is
   deterministic, so two runs of the same seed build identical tables no
   matter how host domains interleave; views sort windows by index and
   phases by marker order, making exports byte-identical too.

   The disabled path allocates nothing: every ingestion entry point checks
   [t.on] before touching any state, and System only installs the trace /
   profiler sinks when a timeline was configured. *)

type column =
  | Allocs
  | Frees
  | Retires
  | Reclaim_phases
  | Reclaim_freed
  | Warnings
  | Warnings_piggybacked
  | Restarts
  | Faults_in
  | Frames_released
  | Superblock_transitions
  | Stalls
  | Crashes
  | Neutralize_posts
  | Neutralized
  | Revoke_posts
  | Cond_fails

let column_index = function
  | Allocs -> 0
  | Frees -> 1
  | Retires -> 2
  | Reclaim_phases -> 3
  | Reclaim_freed -> 4
  | Warnings -> 5
  | Warnings_piggybacked -> 6
  | Restarts -> 7
  | Faults_in -> 8
  | Frames_released -> 9
  | Superblock_transitions -> 10
  | Stalls -> 11
  | Crashes -> 12
  | Neutralize_posts -> 13
  | Neutralized -> 14
  | Revoke_posts -> 15
  | Cond_fails -> 16

let ncols = 17

let columns =
  [
    Allocs; Frees; Retires; Reclaim_phases; Reclaim_freed; Warnings;
    Warnings_piggybacked; Restarts; Faults_in; Frames_released;
    Superblock_transitions; Stalls; Crashes; Neutralize_posts; Neutralized;
    Revoke_posts; Cond_fails;
  ]

let column_name = function
  | Allocs -> "allocs"
  | Frees -> "frees"
  | Retires -> "retires"
  | Reclaim_phases -> "reclaim_phases"
  | Reclaim_freed -> "reclaim_freed"
  | Warnings -> "warnings"
  | Warnings_piggybacked -> "warnings_piggybacked"
  | Restarts -> "restarts"
  | Faults_in -> "faults_in"
  | Frames_released -> "frames_released"
  | Superblock_transitions -> "superblock_transitions"
  | Stalls -> "stalls"
  | Crashes -> "crashes"
  | Neutralize_posts -> "neutralize_posts"
  | Neutralized -> "neutralized"
  | Revoke_posts -> "revoke_posts"
  | Cond_fails -> "cond_fails"

(* One slice (window or phase). Gauge arrays are sized to the gauges
   registered when the slice was created and grown on demand, so late
   registration cannot index out of range. *)
type agg = {
  counts : int array;
  lats : Profile.hist option array;  (* per frame, created on first span *)
  mutable glast : int array;
  mutable gmax : int array;
  mutable gset : bool array;
}

type t = {
  mutable on : bool;
  twidth : int; (* 0 only for [null] *)
  windows : (int, agg) Hashtbl.t;
  phase_tbl : (string, agg) Hashtbl.t;
  mutable rev_marks : (string * int) list; (* most recent first *)
  mutable cur : agg; (* slice of the open phase: O(1) charging *)
  mutable rev_gauges : string list;
  mutable ngauges : int;
}

let fresh_agg ngauges =
  {
    counts = Array.make ncols 0;
    lats = Array.make Profile.nframes None;
    glast = Array.make ngauges 0;
    gmax = Array.make ngauges 0;
    gset = Array.make ngauges false;
  }

let create ~width () =
  if width <= 0 then invalid_arg "Timeline.create: width must be positive";
  let init = fresh_agg 0 in
  let phase_tbl = Hashtbl.create 16 in
  Hashtbl.replace phase_tbl "init" init;
  {
    on = false;
    twidth = width;
    windows = Hashtbl.create 64;
    phase_tbl;
    rev_marks = [ ("init", 0) ];
    cur = init;
    rev_gauges = [];
    ngauges = 0;
  }

let null =
  let init = fresh_agg 0 in
  {
    on = false;
    twidth = 0;
    windows = Hashtbl.create 1;
    phase_tbl = Hashtbl.create 1;
    rev_marks = [ ("init", 0) ];
    cur = init;
    rev_gauges = [];
    ngauges = 0;
  }

let enabled t = t.on
let set_enabled t v = if t.twidth > 0 then t.on <- v
let width t = t.twidth

let reset t =
  Hashtbl.reset t.windows;
  Hashtbl.reset t.phase_tbl;
  let init = fresh_agg t.ngauges in
  Hashtbl.replace t.phase_tbl "init" init;
  t.rev_marks <- [ ("init", 0) ];
  t.cur <- init

(* --- ingestion ------------------------------------------------------------ *)

let window_agg t at =
  let idx = max 0 at / t.twidth in
  match Hashtbl.find_opt t.windows idx with
  | Some a -> a
  | None ->
      let a = fresh_agg t.ngauges in
      Hashtbl.add t.windows idx a;
      a

let bump agg col n = agg.counts.(column_index col) <- agg.counts.(column_index col) + n

let charge_kind agg (kind : Trace.kind) =
  match kind with
  | Trace.Alloc _ -> bump agg Allocs 1
  | Trace.Free _ -> bump agg Frees 1
  | Trace.Retire _ -> bump agg Retires 1
  | Trace.Reclaim_phase { freed } ->
      bump agg Reclaim_phases 1;
      bump agg Reclaim_freed freed
  | Trace.Warning { piggybacked } ->
      bump agg Warnings 1;
      if piggybacked then bump agg Warnings_piggybacked 1
  | Trace.Restart -> bump agg Restarts 1
  | Trace.Fault_in _ -> bump agg Faults_in 1
  | Trace.Frames_released { count } -> bump agg Frames_released count
  | Trace.Superblock_transition _ -> bump agg Superblock_transitions 1
  | Trace.Stall _ -> bump agg Stalls 1
  | Trace.Crash -> bump agg Crashes 1
  | Trace.Neutralize_post _ -> bump agg Neutralize_posts 1
  | Trace.Neutralized -> bump agg Neutralized 1
  | Trace.Revoke_post _ -> bump agg Revoke_posts 1
  | Trace.Cond_fail -> bump agg Cond_fails 1

let note_event t (e : Trace.event) =
  if t.on then begin
    charge_kind (window_agg t e.at) e.kind;
    charge_kind t.cur e.kind
  end

let charge_latency agg frame dur =
  let i = Profile.frame_index frame in
  let h =
    match agg.lats.(i) with
    | Some h -> h
    | None ->
        let h = Profile.fresh_hist () in
        agg.lats.(i) <- Some h;
        h
  in
  Profile.hist_observe h (max 0 dur)

let note_latency t frame ~now ~dur =
  if t.on then begin
    charge_latency (window_agg t now) frame dur;
    charge_latency t.cur frame dur
  end

let phase t ~at name =
  if t.twidth > 0 then begin
    let agg =
      match Hashtbl.find_opt t.phase_tbl name with
      | Some a -> a
      | None ->
          let a = fresh_agg t.ngauges in
          Hashtbl.add t.phase_tbl name a;
          a
    in
    t.rev_marks <- (name, at) :: t.rev_marks;
    t.cur <- agg
  end

let register_gauge t name =
  let rec index i = function
    | [] -> None
    | n :: rest -> if String.equal n name then Some (i - 1) else index (i - 1) rest
  in
  match index t.ngauges t.rev_gauges with
  | Some id -> id
  | None ->
      let id = t.ngauges in
      t.rev_gauges <- name :: t.rev_gauges;
      t.ngauges <- t.ngauges + 1;
      id

let ensure_gauges agg n =
  if Array.length agg.glast < n then begin
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    agg.glast <- grow agg.glast 0;
    agg.gmax <- grow agg.gmax 0;
    agg.gset <- grow agg.gset false
  end

let charge_gauge agg id v =
  ensure_gauges agg (id + 1);
  agg.glast.(id) <- v;
  if (not agg.gset.(id)) || v > agg.gmax.(id) then agg.gmax.(id) <- v;
  agg.gset.(id) <- true

let sample_gauge t ~at id v =
  if t.on && id >= 0 then begin
    charge_gauge (window_agg t at) id v;
    charge_gauge t.cur id v
  end

(* --- views ---------------------------------------------------------------- *)

let marks t = List.rev t.rev_marks

let agg_count agg col = agg.counts.(column_index col)

let agg_active agg =
  Array.exists (fun c -> c > 0) agg.counts
  || Array.exists Option.is_some agg.lats
  || Array.exists Fun.id agg.gset

let window_aggs t =
  Hashtbl.fold (fun i a acc -> (i, a) :: acc) t.windows []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let phase_aggs t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (name, _) ->
      if Hashtbl.mem seen name then None
      else begin
        Hashtbl.add seen name ();
        match Hashtbl.find_opt t.phase_tbl name with
        | Some agg when String.equal name "init" && not (agg_active agg) ->
            None
        | Some agg -> Some (name, agg)
        | None -> None
      end)
    (marks t)

let phase_of_cycle t cycle =
  List.fold_left
    (fun acc (name, at) -> if at <= cycle then name else acc)
    "init" (marks t)

let agg_latency agg frame =
  Option.map (Profile.latency_of_hist frame)
    agg.lats.(Profile.frame_index frame)

let agg_latency_merged agg frames =
  Profile.merge_hists frames (fun f -> agg.lats.(Profile.frame_index f))

let agg_gauge agg id =
  if id >= 0 && id < Array.length agg.gset && agg.gset.(id) then
    Some (agg.glast.(id), agg.gmax.(id))
  else None

let gauges t = List.rev t.rev_gauges
