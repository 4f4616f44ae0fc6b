(* Metrics registry: callback-backed named metrics plus registry-owned
   counters and histograms.  Hot-path cost stays with the subsystems (plain
   mutable record fields); the registry only pays at snapshot/reset time. *)

type kind = Counter | Gauge

type metric = {
  name : string;
  mkind : kind;
  read : unit -> int;
  reset : (unit -> unit) option;
}

type counter = { mutable n : int }

type histogram = {
  hname_ : string;
  hbuckets : int array;  (* hbuckets.(i) counts values with log2 bucket i *)
  mutable hcount : int;
  mutable hsum : int;
  mutable hmax : int;
}

type t = {
  mutable metrics : metric list;  (* reversed registration order *)
  mutable hists : histogram list;
  mutable snapshot_hooks : (unit -> unit) list;
  mutable reset_hooks : (unit -> unit) list;
}

let create () =
  { metrics = []; hists = []; snapshot_hooks = []; reset_hooks = [] }

let mem_name t name =
  List.exists (fun m -> m.name = name) t.metrics
  || List.exists (fun h -> h.hname_ = name) t.hists

let register t ?reset ~name ~kind read =
  if mem_name t name then
    invalid_arg (Printf.sprintf "Metrics.register: duplicate metric %S" name);
  t.metrics <- { name; mkind = kind; read; reset } :: t.metrics

let on_snapshot t f = t.snapshot_hooks <- f :: t.snapshot_hooks
let on_reset t f = t.reset_hooks <- f :: t.reset_hooks

let counter t name =
  let c = { n = 0 } in
  register t ~name ~kind:Counter ~reset:(fun () -> c.n <- 0) (fun () -> c.n);
  c

let incr c = c.n <- c.n + 1
let add c d = c.n <- c.n + d
let value c = c.n

(* log2 bucketing: value v lands in bucket [ceil(log2 (v+1))], i.e. bucket
   b holds values in (2^(b-1) - 1, 2^b - 1]; bucket 0 holds exactly 0. *)
let nbuckets = 63

let rec bucket_from v b bound =
  if v <= bound - 1 then b else bucket_from v (b + 1) (bound * 2)

let bucket_of v = bucket_from (max 0 v) 0 1

let histogram t name =
  if mem_name t name then
    invalid_arg (Printf.sprintf "Metrics.histogram: duplicate metric %S" name);
  let h =
    {
      hname_ = name;
      hbuckets = Array.make nbuckets 0;
      hcount = 0;
      hsum = 0;
      hmax = 0;
    }
  in
  t.hists <- h :: t.hists;
  h

let observe h v =
  let b = min (nbuckets - 1) (bucket_of v) in
  h.hbuckets.(b) <- h.hbuckets.(b) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum + v;
  if v > h.hmax then h.hmax <- v

type hist_snapshot = {
  hname : string;
  count : int;
  sum : int;
  max_value : int;
  buckets : (int * int) list;
}

type snapshot = {
  values : (string * kind * int) list;
  histograms : hist_snapshot list;
}

let snapshot t =
  List.iter (fun f -> f ()) t.snapshot_hooks;
  let values =
    t.metrics
    |> List.rev_map (fun m -> (m.name, m.mkind, m.read ()))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let histograms =
    t.hists
    |> List.rev_map (fun h ->
           let buckets = ref [] in
           for b = nbuckets - 1 downto 0 do
             if h.hbuckets.(b) > 0 then
               buckets := ((1 lsl b) - 1, h.hbuckets.(b)) :: !buckets
           done;
           {
             hname = h.hname_;
             count = h.hcount;
             sum = h.hsum;
             max_value = h.hmax;
             buckets = !buckets;
           })
    |> List.sort (fun a b -> compare a.hname b.hname)
  in
  { values; histograms }

let reset t =
  (* a subsystem-wide reset closure may back several metrics: run each
     distinct closure once *)
  let seen = ref [] in
  let run f =
    if not (List.memq f !seen) then begin
      seen := f :: !seen;
      f ()
    end
  in
  List.iter (fun m -> Option.iter run m.reset) t.metrics;
  List.iter run t.reset_hooks;
  List.iter
    (fun h ->
      Array.fill h.hbuckets 0 nbuckets 0;
      h.hcount <- 0;
      h.hsum <- 0;
      h.hmax <- 0)
    t.hists

let find_opt s name =
  List.find_map (fun (n, _, v) -> if n = name then Some v else None) s.values

let find s name =
  match find_opt s name with Some v -> v | None -> raise Not_found

let names t =
  List.sort compare
    (List.rev_map (fun m -> m.name) t.metrics
    @ List.rev_map (fun h -> h.hname_) t.hists)

let pp ppf s =
  List.iter
    (fun (name, kind, v) ->
      Fmt.pf ppf "%s%s=%d@ " name
        (match kind with Counter -> "" | Gauge -> "~")
        v)
    s.values;
  List.iter
    (fun h ->
      Fmt.pf ppf "%s{count=%d sum=%d max=%d}@ " h.hname h.count h.sum
        h.max_value)
    s.histograms
