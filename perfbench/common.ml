(* Shared harness: command line, timing loops, percentiles, the metric
   catalogue, the host fingerprint, the traced execution path and the
   per-layer ledger read from Profile reports, and the two output lines.

   Nothing here instruments the engine: per-layer numbers come from
   timing the benchmark's own calls into each layer's public functions
   and from counters the engine already exposes (Profile reports,
   Sched.stats, Bufpool.stats, Serve counters, launcher obs counters). *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Session = Volcano_plan.Session
module Compile = Volcano_plan.Compile
module Profile = Volcano_plan.Profile
module Sched = Volcano_sched.Sched
module Runtime = Volcano_sched.Runtime
module Obs = Volcano_obs.Obs
module Jsonx = Volcano_obs.Jsonx
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Bufpool = Volcano_storage.Bufpool
module Device = Volcano_storage.Device
module Exchange = Volcano.Exchange
module Iterator = Volcano.Iterator

let now = Volcano_util.Clock.now

(* --- command line ------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** smoke-test sizes: tiny inputs, same code paths *)
  out : string;  (** traces, profiles and sockets go under here *)
  commit : string;
}

let usage =
  "main.exe --workload pipeline|analytic|serve|remote --seed N --seconds S \
   --trace 0|1 [--scale full|tiny] [--out DIR] [--commit ID]"

let parse_args argv =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and tiny = ref false and out = ref ".bench_out" in
  let commit = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := Some false
          | 1 -> trace := Some true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1" );
      ( "--scale",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> tiny := s = "tiny"),
        "" );
      ("--out", Arg.Set_string out, "DIR");
      ("--commit", Arg.Set_string commit, "ID");
    ]
  in
  let fail msg =
    prerr_endline (msg ^ "\nusage: " ^ usage);
    exit 2
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 ->
      {
        workload = !workload;
        seed;
        seconds;
        trace;
        tiny = !tiny;
        out = !out;
        commit = !commit;
      }
  | _ -> fail "--seed, --seconds (> 0) and --trace are required"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* --- statistics -------------------------------------------------------- *)

(* Linear interpolation between closest ranks, on a sorted copy. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = percentile samples 0.5
let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A ratio whose base may legitimately be zero (a layer the workload
   bypasses) reads 0, never nan. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_query x queries = ratio x (float_of_int queries)

(* --- metric catalogue -------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* The contract's metric names, in BENCHMARK.json order.  The smoke test
   holds BENCHMARK.json to these lists.  The serve-only layer metrics
   (net.handler_ms, net.rtt_minus_handler_us,
   harness.generator_late_p99_ms) are left out: serve is not among
   BENCHMARK.json's workloads, so they would read 0 on every run the
   contract makes.  A traced serve run still prints them in its report
   line. *)
let end_to_end_names =
  [ "setup_s"; "queries_per_s"; "latency_p50_ms"; "latency_p90_ms";
    "peak_rss_mb" ]

let per_layer_names =
  [
    "sql.compile_us"; "sql.compile_share";
    "plan.analyze_us"; "plan.compile_us"; "plan.first_row_ms";
    "sched.tasks_per_query"; "sched.suspensions_per_query";
    "sched.steals_per_query"; "sched.resumptions_per_query";
    "sched.live_tasks_after";
    "core.packets_per_query"; "core.records_per_packet";
    "core.ns_per_packet"; "core.flow_waits_per_query";
    "core.flow_wait_ms_per_query"; "core.packet_reuse_ratio";
    "core.spawn_ms_per_query";
    "ops.hash_join_ms"; "ops.sort_join_ms"; "ops.hash_aggregate_ms"; "ops.sort_ms";
    "ops.distinct_ms"; "ops.scan_ns_per_row";
    "storage.buffer_hit_ratio"; "storage.misses_per_query";
    "storage.evictions_per_query"; "storage.device_reads_per_query";
    "storage.device_writes_per_query"; "storage.restarts_per_query";
    "net.launch_ms"; "net.wire_bytes_per_query"; "net.wire_rows_per_query";
    "net.wire_mb_per_s";
    "obs.trace_overhead_ratio";
  ]

(* --- host fingerprint -------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let status_field key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on (what nproc prints), from the
   Cpus_allowed_list ranges; falls back to the runtime's estimate. *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
      List.fold_left
        (fun acc range ->
          match String.split_on_char '-' (String.trim range) with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | _ -> acc)
        0
        (String.split_on_char ',' list)

let load_average () =
  match read_lines "/proc/loadavg" with
  | line :: _ -> (
      match String.split_on_char ' ' line with
      | one :: _ -> Option.value ~default:0.0 (float_of_string_opt one)
      | [] -> 0.0)
  | [] -> 0.0

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> 0.0)
  | None -> 0.0

(* Steal and total jiffies over all CPUs, from /proc/stat.  On a VM the
   time the hypervisor gives to other guests is steal; its share over a
   run tells a contended host from a slow program. *)
let cpu_times () =
  match read_lines "/proc/stat" with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.filter_map int_of_string_opt fields in
          (Option.value (List.nth_opt v 7) ~default:0, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | [] -> (0, 0)

let fingerprint ~commit ~load_before ~cpu_before =
  let workers = Sched.workers (Sched.default ()) in
  let cores = nproc () and domains = Domain.recommended_domain_count () in
  let batch = Env.batch_size (Env.create ~frames:1 ()) in
  (* Results compare only within one class: same cores, runtime, pool and
     batch size.  Commit and load are recorded, not part of the class. *)
  let cls =
    Printf.sprintf "nproc%d-dom%d-ocaml%s-pool%d-batch%d" cores domains
      Sys.ocaml_version workers batch
  in
  Jsonx.Obj
    [
      ("class", Jsonx.String cls);
      ("nproc", Jsonx.Int cores);
      ("recommended_domain_count", Jsonx.Int domains);
      ("ocaml_version", Jsonx.String Sys.ocaml_version);
      ("pool_workers", Jsonx.Int workers);
      ("batch_size", Jsonx.Int batch);
      ("load_avg_before", Jsonx.Float load_before);
      ("load_avg_after", Jsonx.Float (load_average ()));
      ( "cpu_steal_share",
        let steal0, total0 = cpu_before and steal1, total1 = cpu_times () in
        Jsonx.Float
          (ratio (float_of_int (steal1 - steal0)) (float_of_int (total1 - total0))) );
      ("commit", Jsonx.String commit);
    ]

(* --- measurement loops ------------------------------------------------- *)

(* Outcome counters shared by every workload: a query is attempted, and
   either verified against the oracle or counted failed (wrong rows,
   exception, refusal). *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record_outcome t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let guarded f = match f () with ok -> ok | exception _ -> false

(* One timed phase: per query, when it finished (seconds since the phase
   began), its latency and whether it was verified correct; and the
   phase's wall time. *)
type sample = { at : float; lat : float; good : bool }
type phase = { samples : sample list; wall : float }

let lats p = List.map (fun s -> s.lat) p.samples
let good_count samples = List.length (List.filter (fun s -> s.good) samples)
let qps p = ratio (float_of_int (good_count p.samples)) p.wall

(* Closed loop from one client: issue [query i] back to back until
   [seconds] have passed. *)
let closed_loop ~seconds ~tally query =
  let start = now () in
  let deadline = start +. seconds in
  let samples = ref [] and i = ref 0 in
  while now () < deadline do
    let t0 = now () in
    let good = guarded (fun () -> query !i) in
    let t1 = now () in
    samples := { at = t1 -. start; lat = t1 -. t0; good } :: !samples;
    record_outcome tally good;
    incr i
  done;
  { samples = List.rev !samples; wall = now () -. start }

(* The host's own stalls arrive in patches of seconds to minutes, and
   one patch inside a run would otherwise decide its throughput and tail.
   So the end-to-end statistics of a phase are medians over [slices]
   consecutive slices of it with equal query counts, by finishing time:
   a slice's throughput is its correct queries over the span from the
   first one's start to the last one's end, its percentiles are over its
   own latencies.  A patch covering fewer than half the slices does not
   move the medians; a slower program moves every slice.  A slice holds
   whole rounds of [round] queries, so a workload that cycles through a
   mix gives every slice the same composition (a percentile that falls
   between two query kinds' latencies otherwise follows the count of
   each).  The queries past the last whole slice are left out. *)
let slices = 8

let phase_metrics ?(round = 1) p =
  let samples =
    Array.of_list (List.sort (fun a b -> Float.compare a.at b.at) p.samples)
  in
  let n = Array.length samples in
  let size = max round (n / slices / round * round) in
  let parts =
    List.init (max 1 (n / size)) (fun k ->
        Array.to_list (Array.sub samples (k * size) (min size (n - (k * size)))))
  in
  let throughput ss =
    let first = List.fold_left (fun a s -> Float.min a (s.at -. s.lat)) infinity ss in
    let last = List.fold_left (fun a s -> Float.max a s.at) 0.0 ss in
    ratio (float_of_int (good_count ss)) (last -. first)
  in
  let over f = median (List.map f parts) in
  let pct q ss = percentile (List.map (fun s -> s.lat) ss) q *. 1e3 in
  let m = metric ~samples:n in
  [ m "queries_per_s" "1/s" (over throughput);
    m "latency_p50_ms" "ms" (over (pct 0.5));
    m "latency_p90_ms" "ms" (over (pct 0.9)) ]

(* Set-up timing.  The set-up a run uses is timed first, in a fresh
   process.  [more_setups] then times [reps - 1] more once the measured
   phase is over and the run's state torn down, each after a full major
   collection (so each starts from a like heap) and each torn down; the
   result is the median of all [reps].  The extra set-ups come after the
   run, not before it, so the heap they leave behind stays out of the
   peak-RSS reading: 51 server set-ups before the run made a 36 MB serve
   read 190 MB.  (A compaction between set-ups instead hands the memory
   back to the system, and the page faults of refilling it swung
   millisecond set-ups 2x.) *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let more_setups ~reps ~first ~setup ~teardown =
  let rec go k times =
    if k <= 0 then times
    else begin
      Gc.full_major ();
      let state, dt = timed setup in
      teardown state;
      go (k - 1) (dt :: times)
    end
  in
  let times = go (reps - 1) [ first ] in
  (median times, List.length times)

(* --- traced execution -------------------------------------------------- *)

(* One query through the instrumented path, each layer timed at its
   public entry point: the SQL front end ([Session.compile_sql]), the
   analyzer ([Session.analyze]), plan compilation ([Compile.compile]
   against a fresh obs sink), and the first row.  The drain runs as a
   runtime job like [Session.exec]; its counter deltas are assembled into
   the same [Profile.report] that [Session.profile] returns, so the
   Profile JSON and Chrome trace exporters apply unchanged. *)
type traced = {
  report : Profile.report;
  result : Tuple.t list;
  sql_s : float;
  analyze_s : float;
  compile_s : float;
  first_row_s : float;
}

let traced_exec session (input : Session.input) =
  let t0 = now () in
  let plan =
    match input with
    | `Sql sql -> (Session.compile_sql session sql).Session.cq_plan
    | `Plan p -> p
  in
  let t1 = now () in
  let errors =
    Volcano_analysis.Diag.errors (Session.analyze session (`Plan plan))
  in
  if errors <> [] then raise (Compile.Rejected errors);
  let t2 = now () in
  let env = Session.env session in
  let sched = Session.sched session in
  let job =
    Runtime.submit (Session.runtime session) (fun () ->
        let sink = Obs.create () in
        let obs = Compile.observe sink plan in
        let c0 = now () in
        let iter = Compile.compile ~check:false ~obs env plan in
        let c1 = now () in
        let pool = Env.buffer env and ws = Env.workspace env in
        let b0 = Bufpool.stats pool in
        let r0 = Device.reads ws and w0 = Device.writes ws in
        let d0 = Exchange.domains_spawned () and s0 = Sched.stats sched in
        (* As [Profile.execute]: attach the sink so task latencies stream
           into its histogram, push the counter deltas after the drain,
           then detach. *)
        Sched.register_obs ~since:s0 sched sink;
        let start = now () in
        Iterator.open_ iter;
        let rows = ref [] and n = ref 0 in
        let pull () =
          match Iterator.next iter with
          | Some t ->
              rows := t :: !rows;
              incr n;
              true
          | None -> false
        in
        let more = pull () in
        let first = now () in
        (try
           if more then while pull () do () done
         with exn ->
           Iterator.close iter;
           Sched.register_obs sched Obs.null;
           raise exn);
        Iterator.close iter;
        let elapsed_s = now () -. start in
        Sched.register_obs ~since:s0 sched sink;
        Sched.register_obs sched Obs.null;
        let b1 = Bufpool.stats pool and s1 = Sched.stats sched in
        let report =
          {
            Profile.sink;
            obs;
            plan;
            rows = !n;
            elapsed_s;
            buffer =
              {
                Bufpool.hits = b1.Bufpool.hits - b0.Bufpool.hits;
                misses = b1.misses - b0.misses;
                evictions = b1.evictions - b0.evictions;
                writebacks = b1.writebacks - b0.writebacks;
                restarts = b1.restarts - b0.restarts;
              };
            device_reads = Device.reads ws - r0;
            device_writes = Device.writes ws - w0;
            domains = Exchange.domains_spawned () - d0;
            sched =
              {
                Sched.pool_workers = s1.Sched.pool_workers;
                submitted = s1.submitted - s0.submitted;
                completed = s1.completed - s0.completed;
                stolen = s1.stolen - s0.stolen;
                suspensions = s1.suspensions - s0.suspensions;
                resumptions = s1.resumptions - s0.resumptions;
                peak_queue_depth = s1.peak_queue_depth;
              };
          }
        in
        (report, List.rev !rows, c1 -. c0, first -. start))
  in
  match Runtime.await job with
  | Error exn -> raise exn
  | Ok (report, result, compile_s, first_row_s) ->
      {
        report;
        result;
        sql_s = t1 -. t0;
        analyze_s = t2 -. t1;
        compile_s;
        first_row_s;
      }

(* --- the per-layer ledger ---------------------------------------------- *)

(* Sums over every traced query of one workload. *)
type ledger = {
  mutable queries : int;
  mutable latency_s : float;  (** client-observed, summed *)
  mutable sql_s : float;
  mutable sql_queries : int;
  mutable analyze_s : float;
  mutable compile_s : float;
  mutable first_row_s : float;
  mutable exec_s : float;
  mutable packets_sent : int;
  mutable packets_received : int;
  mutable records : int;
  mutable exchange_busy_s : float;
  mutable flow_waits : int;
  mutable flow_wait_s : float;
  mutable pool_allocated : int;
  mutable pool_reused : int;
  mutable spawn_s : float;
  mutable conservation_violations : int;
  mutable hash_join_s : float;
  mutable sort_join_s : float;
  mutable hash_aggregate_s : float;
  mutable sort_s : float;
  mutable distinct_s : float;
  mutable scan_s : float;
  mutable scan_rows : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable device_reads : int;
  mutable device_writes : int;
  mutable restarts : int;
  mutable tasks : int;
  mutable suspensions : int;
  mutable steals : int;
  mutable resumptions : int;
}

let ledger () =
  {
    queries = 0; latency_s = 0.0; sql_s = 0.0; sql_queries = 0;
    analyze_s = 0.0; compile_s = 0.0; first_row_s = 0.0; exec_s = 0.0;
    packets_sent = 0; packets_received = 0; records = 0;
    exchange_busy_s = 0.0; flow_waits = 0; flow_wait_s = 0.0;
    pool_allocated = 0; pool_reused = 0; spawn_s = 0.0;
    conservation_violations = 0; hash_join_s = 0.0; sort_join_s = 0.0; hash_aggregate_s = 0.0;
    sort_s = 0.0; distinct_s = 0.0; scan_s = 0.0; scan_rows = 0; hits = 0;
    misses = 0; evictions = 0; device_reads = 0; device_writes = 0;
    restarts = 0; tasks = 0; suspensions = 0; steals = 0; resumptions = 0;
  }

let is_exchange = function
  | Plan.Exchange _ | Plan.Exchange_merge _ | Plan.Interchange _
  | Plan.Remote _ ->
      true
  | _ -> false

let is_scan = function
  | Plan.Scan_table _ | Plan.Scan_table_slice _ | Plan.Scan_index _ -> true
  | _ -> false

let rec plan_nodes p =
  p
  ::
  (match p with
  | Plan.Remote _ -> [] (* the subtree runs in worker processes *)
  | _ -> List.concat_map plan_nodes (Plan.children p))

(* Fold one traced query into the ledger.  Operator self time is a node's
   busy time minus its in-rank children's (an exchange child's consumer
   side runs in the parent's rank; a fused chain books the chain's time on
   every member, so only its leaf keeps a non-zero self time). *)
let add_traced l ?(sql = false) ~latency_s t =
  let r = t.report in
  let busy p =
    match r.Profile.obs.Compile.node_of p with
    | Some n -> Obs.Node.busy_s n
    | None -> 0.0
  in
  let self p =
    Float.max 0.0
      (busy p -. List.fold_left (fun a c -> a +. busy c) 0.0 (Plan.children p))
  in
  l.queries <- l.queries + 1;
  l.latency_s <- l.latency_s +. latency_s;
  if sql then begin
    l.sql_s <- l.sql_s +. t.sql_s;
    l.sql_queries <- l.sql_queries + 1
  end;
  l.analyze_s <- l.analyze_s +. t.analyze_s;
  l.compile_s <- l.compile_s +. t.compile_s;
  l.first_row_s <- l.first_row_s +. t.first_row_s;
  l.exec_s <- l.exec_s +. r.Profile.elapsed_s;
  List.iter
    (fun p ->
      (match r.Profile.obs.Compile.node_of p with
      | Some node when is_exchange p -> (
          l.exchange_busy_s <- l.exchange_busy_s +. Obs.Node.busy_s node;
          match Obs.exchange_sample r.Profile.sink ~node with
          | Some s ->
              l.packets_sent <- l.packets_sent + s.Obs.packets_sent;
              l.packets_received <- l.packets_received + s.packets_received;
              if s.packets_sent <> s.packets_received then
                l.conservation_violations <- l.conservation_violations + 1;
              l.records <- l.records + s.records;
              l.flow_waits <- l.flow_waits + s.flow_waits;
              l.flow_wait_s <- l.flow_wait_s +. s.flow_wait_s;
              l.pool_allocated <- l.pool_allocated + s.pool_allocated;
              l.pool_reused <- l.pool_reused + s.pool_reused;
              l.spawn_s <- l.spawn_s +. s.spawn_s
          | None -> ())
      | _ -> ());
      match p with
      | Plan.Match { algo = Plan.Hash_based; kind = Volcano_ops.Match_op.Join; _ }
        ->
          l.hash_join_s <- l.hash_join_s +. self p
      | Plan.Match { algo = Plan.Sort_based; kind = Volcano_ops.Match_op.Join; _ }
        ->
          l.sort_join_s <- l.sort_join_s +. self p
      | Plan.Aggregate { algo = Plan.Hash_based; _ } ->
          l.hash_aggregate_s <- l.hash_aggregate_s +. self p
      | Plan.Sort _ -> l.sort_s <- l.sort_s +. self p
      | Plan.Distinct _ -> l.distinct_s <- l.distinct_s +. self p
      | p when is_scan p -> (
          l.scan_s <- l.scan_s +. self p;
          match r.Profile.obs.Compile.node_of p with
          | Some n -> l.scan_rows <- l.scan_rows + Obs.Node.rows n
          | None -> ())
      | _ -> ())
    (plan_nodes r.Profile.plan);
  let b = r.Profile.buffer in
  l.hits <- l.hits + b.Bufpool.hits;
  l.misses <- l.misses + b.misses;
  l.evictions <- l.evictions + b.evictions;
  l.restarts <- l.restarts + b.restarts;
  l.device_reads <- l.device_reads + r.device_reads;
  l.device_writes <- l.device_writes + r.device_writes;
  let s = r.Profile.sched in
  l.tasks <- l.tasks + s.Sched.submitted;
  l.suspensions <- l.suspensions + s.suspensions;
  l.steals <- l.steals + s.stolen;
  l.resumptions <- l.resumptions + s.resumptions

(* Layer metrics a workload measures beyond the ledger (serving, wire,
   generator); any left out read 0 — the layer was not crossed. *)
type extra = {
  handler_s : float;  (** mean server handler time per request *)
  rtt_s : float;  (** mean client round trip *)
  launch_s : float;  (** mean Launcher.launch time *)
  wire_bytes : int;
  wire_rows : int;
  wire_s : float;  (** wall time over which the wire traffic moved *)
  generator_late_p99_s : float;
}

let no_extra =
  {
    handler_s = 0.0; rtt_s = 0.0; launch_s = 0.0; wire_bytes = 0;
    wire_rows = 0; wire_s = 0.0; generator_late_p99_s = 0.0;
  }

let layer_metrics l ~extra ~live_tasks_after ~overhead_ratio =
  let q = l.queries in
  let qf = float_of_int q in
  let packets = float_of_int l.packets_received in
  (* Served requests share their client round trip; others the
     benchmark's own per-query wall time. *)
  let mean_latency =
    if extra.rtt_s > 0.0 then extra.rtt_s else ratio l.latency_s qf
  in
  let sql_us = ratio l.sql_s (float_of_int l.sql_queries) *. 1e6 in
  let m = metric ~samples:q in
  [
    m "sql.compile_us" "us" sql_us;
    m "sql.compile_share" "ratio" (ratio (sql_us /. 1e6) mean_latency);
    m "plan.analyze_us" "us" (ratio l.analyze_s qf *. 1e6);
    m "plan.compile_us" "us" (ratio l.compile_s qf *. 1e6);
    m "plan.first_row_ms" "ms" (ratio l.first_row_s qf *. 1e3);
    m "sched.tasks_per_query" "count" (per_query (float_of_int l.tasks) q);
    m "sched.suspensions_per_query" "count"
      (per_query (float_of_int l.suspensions) q);
    m "sched.steals_per_query" "count" (per_query (float_of_int l.steals) q);
    m "sched.resumptions_per_query" "count"
      (per_query (float_of_int l.resumptions) q);
    m "sched.live_tasks_after" "count" (float_of_int live_tasks_after);
    m "core.packets_per_query" "count" (per_query packets q);
    m "core.records_per_packet" "records"
      (ratio (float_of_int l.records) (float_of_int l.packets_sent));
    m "core.ns_per_packet" "ns" (ratio l.exchange_busy_s packets *. 1e9);
    m "core.flow_waits_per_query" "count"
      (per_query (float_of_int l.flow_waits) q);
    m "core.flow_wait_ms_per_query" "ms" (per_query (l.flow_wait_s *. 1e3) q);
    m "core.packet_reuse_ratio" "ratio"
      (ratio (float_of_int l.pool_reused)
         (float_of_int (l.pool_reused + l.pool_allocated)));
    m "core.spawn_ms_per_query" "ms" (per_query (l.spawn_s *. 1e3) q);
    m "ops.hash_join_ms" "ms" (per_query (l.hash_join_s *. 1e3) q);
    m "ops.sort_join_ms" "ms" (per_query (l.sort_join_s *. 1e3) q);
    m "ops.hash_aggregate_ms" "ms" (per_query (l.hash_aggregate_s *. 1e3) q);
    m "ops.sort_ms" "ms" (per_query (l.sort_s *. 1e3) q);
    m "ops.distinct_ms" "ms" (per_query (l.distinct_s *. 1e3) q);
    m "ops.scan_ns_per_row" "ns"
      (ratio l.scan_s (float_of_int l.scan_rows) *. 1e9);
    m "storage.buffer_hit_ratio" "ratio"
      (ratio (float_of_int l.hits) (float_of_int (l.hits + l.misses)));
    m "storage.misses_per_query" "count" (per_query (float_of_int l.misses) q);
    m "storage.evictions_per_query" "count"
      (per_query (float_of_int l.evictions) q);
    m "storage.device_reads_per_query" "count"
      (per_query (float_of_int l.device_reads) q);
    m "storage.device_writes_per_query" "count"
      (per_query (float_of_int l.device_writes) q);
    m "storage.restarts_per_query" "count"
      (per_query (float_of_int l.restarts) q);
    m "net.handler_ms" "ms" (extra.handler_s *. 1e3);
    m "net.rtt_minus_handler_us" "us"
      (if extra.rtt_s = 0.0 then 0.0 else (extra.rtt_s -. extra.handler_s) *. 1e6);
    m "net.launch_ms" "ms" (extra.launch_s *. 1e3);
    m "net.wire_bytes_per_query" "B" (per_query (float_of_int extra.wire_bytes) q);
    m "net.wire_rows_per_query" "rows" (per_query (float_of_int extra.wire_rows) q);
    m "net.wire_mb_per_s" "MB/s"
      (ratio (float_of_int extra.wire_bytes /. 1e6) extra.wire_s);
    metric "obs.trace_overhead_ratio" "ratio" overhead_ratio;
    m "harness.generator_late_p99_ms" "ms" (extra.generator_late_p99_s *. 1e3);
  ]

(* Profile JSON and Chrome trace of one traced query. *)
let write_profile ~dir ~name report =
  mkdir_p dir;
  Profile.write_json report ~path:(Filename.concat dir (name ^ ".profile.json"));
  Profile.write_trace report ~path:(Filename.concat dir (name ^ ".trace.json"))

(* --- results ----------------------------------------------------------- *)

type result = {
  e2e : metric list;  (** every end-to-end metric, plus report-only ones *)
  layers : metric list;  (** traced run only *)
  checks : (string * bool) list;  (** named correctness checks *)
  r_attempted : int;
  r_failed : int;
  notes : (string * Jsonx.t) list;  (** workload parameters *)
}

let quiescent sched =
  match Sched.assert_quiescent sched with
  | () -> true
  | exception Failure _ -> false


(* [peak_rss_mb] is VmHWM once set-up, warm-up and the first
   [rss_queries] measured queries are done (at the end of a run too short
   for that many).  A fixed amount of work, so a faster program, which
   runs more queries in the same seconds, does not read as a bigger one:
   the remote parent's RSS grows with every feeder-domain spawn.  The
   end-of-run figure is reported beside it as [peak_rss_end_mb]. *)
let rss_queries = 20

(* The shape shared by the single-client closed-loop workloads (pipeline,
   analytic, remote).  [round] is the length of the query mix's cycle
   ({!phase_metrics}).  [session] is set up, checked against the oracle
   and warmed up; [finish] tears it down after the measured phase and
   returns the set-up time and count ({!more_setups}).  Untraced, the
   whole run is one measured phase.
   Traced, half the time runs untraced and half traced, so the pair gives
   the tracing overhead; per-layer numbers come from the traced half.
   [traced ledger i] runs query [i] through {!traced_exec}, folds it into
   the ledger and returns whether its rows were right; [extra] supplies
   the layer numbers the ledger cannot see, given the traced phase. *)
let closed_workload ?round (args : args) ~session ~finish ~oracle ~untraced
    ~traced ~extra ~notes =
  let t = tally () in
  let sched = Session.sched session in
  let rss = ref None in
  let untraced i =
    Fun.protect (fun () -> untraced i) ~finally:(fun () ->
        if i + 1 = rss_queries then rss := Some (peak_rss_mb ()))
  in
  let measured =
    if not args.trace then
      `Plain (closed_loop ~seconds:args.seconds ~tally:t untraced)
    else
      let half = args.seconds /. 2.0 in
      let plain = closed_loop ~seconds:half ~tally:t untraced in
      let l = ledger () in
      let tr = closed_loop ~seconds:half ~tally:t (traced l) in
      `Traced (plain, tr, l)
  in
  let settled = quiescent sched in
  let end_rss = peak_rss_mb () in
  let setup_s, setup_n = finish () in
  let e2e, layers, conserved =
    match measured with
    | `Plain p ->
        ( metric ~samples:setup_n "setup_s" "s" setup_s :: phase_metrics ?round p,
          [],
          true )
    | `Traced (plain, tr, l) ->
        ( [],
          layer_metrics l ~extra:(extra tr)
            ~live_tasks_after:(Sched.live_tasks sched)
            ~overhead_ratio:(ratio (qps tr) (qps plain)),
          l.conservation_violations = 0 )
  in
  {
    e2e =
      e2e
      @ [ metric "peak_rss_mb" "MB" (Option.value !rss ~default:end_rss);
          metric "peak_rss_end_mb" "MB" end_rss ];
    layers;
    checks =
      [ (oracle, t.failed = 0); ("packet_conservation", conserved);
        ("scheduler_quiescent", settled) ];
    r_attempted = t.attempted;
    r_failed = t.failed;
    notes;
  }

let print_result args ~fingerprint r =
  let correct = List.for_all snd r.checks && r.r_failed = 0 in
  let failed_ratio =
    metric ~samples:r.r_attempted "failed_ratio" "ratio"
      (ratio (float_of_int r.r_failed) (float_of_int r.r_attempted))
  in
  let all = r.e2e @ [ failed_ratio ] @ r.layers in
  let report =
    Jsonx.Obj
      [
        ("workload", Jsonx.String args.workload);
        ("seed", Jsonx.Int args.seed);
        ("seconds", Jsonx.Float args.seconds);
        ("trace", Jsonx.Bool args.trace);
        ("scale", Jsonx.String (if args.tiny then "tiny" else "full"));
        ("fingerprint", fingerprint);
        ("parameters", Jsonx.Obj r.notes);
        ( "checks",
          Jsonx.Obj (List.map (fun (k, ok) -> (k, Jsonx.Bool ok)) r.checks) );
        ( "metrics",
          Jsonx.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Jsonx.Obj
                     [
                       ("value", Jsonx.Float m.value);
                       ("unit", Jsonx.String m.unit_);
                       ("samples", Jsonx.Int m.samples);
                     ] ))
               all) );
      ]
  in
  List.iter
    (fun m -> Printf.printf "%-32s %16.6f %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    all;
  List.iter
    (fun (k, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n" k)
    r.checks;
  print_endline (Jsonx.to_string (Jsonx.Obj [ ("report", report) ]));
  let names = if args.trace then per_layer_names else end_to_end_names in
  let find name =
    match List.find_opt (fun m -> m.name = name) all with
    | Some m ->
        ( name,
          Jsonx.Obj
            [ ("value", Jsonx.Float m.value); ("unit", Jsonx.String m.unit_) ] )
    | None -> failwith ("metric not measured: " ^ name)
  in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool correct);
            ("attempted", Jsonx.Int r.r_attempted);
            ("failed", Jsonx.Int r.r_failed);
            ("metrics", Jsonx.Obj (List.map find names));
          ]));
  correct
