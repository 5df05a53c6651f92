(* serve: an in-process Serve.Server whose handler runs
   [Session.exec (`Sql ...)] over a 1,000-row stored table that fits the
   buffer pool.  Requests are a point lookup and a small filtered
   group-by with literals drawn from a seeded Zipf, so some texts repeat
   (the shared work a plan cache would use).  Two connections at most.

   A closed-loop phase measures capacity (queries_per_s) and the
   end-to-end latency percentiles.  An open-loop phase then offers a
   fixed rate below that capacity and times each request from its due
   time, so a stall counts against every request queued behind it; its
   percentiles and slo_miss_ratio (against a fixed p99 limit) are
   report-only, because that queueing amplifies the host's own stalls
   into run-to-run swings far wider than any regression bound.  Executor
   work is small: the time goes to lib/net framing and codec, lib/sql
   and lib/plan compile plus planlint, and lib/sched admission and
   forking. *)

open Common
module W = Volcano_wisconsin.Wisconsin
module Serve = Volcano_net.Serve
module Rng = Volcano_util.Rng
module Zipf = Volcano_util.Zipf

let table_rows = 1_000
let connections = 2
let zipf_theta = 0.99

(* Open loop: a fixed offered rate (well below the capacity measured on
   a 2-core host) and a fixed p99 latency limit.  Fixed, not derived from
   the closed phase, so two commits are offered the same load. *)
let offered_rate = 80.0
let p99_limit_s = 0.025

(* Share of the run spent in the closed (capacity) phase. *)
let closed_share = 0.5

type request = { sql : string; expect : Tuple.t list }

(* The request universe: for each literal k, a point lookup on unique1 and
   a group-by over unique1 < k + 1, with expected rows computed from the
   generator directly. *)
let universe ~seed =
  let gen = W.generator ~seed ~n:table_rows () in
  let rows = Array.init table_rows gen in
  let u1 = W.column "unique1" and ten = W.column "ten" in
  let key t = Tuple.int_exn t u1 in
  let lookup k =
    {
      sql = Printf.sprintf "SELECT * FROM t WHERE unique1 = %d" k;
      expect = List.filter (fun t -> key t = k) (Array.to_list rows);
    }
  in
  let groupby k =
    let counts = Array.make 10 0 in
    Array.iter
      (fun t ->
        if key t < k + 1 then
          let g = Tuple.int_exn t ten in
          counts.(g) <- counts.(g) + 1)
      rows;
    {
      sql =
        Printf.sprintf
          "SELECT ten, COUNT(*) FROM t WHERE unique1 < %d GROUP BY ten" (k + 1);
      expect =
        List.filter_map
          (fun g -> if counts.(g) > 0 then Some (Tuple.of_ints [ g; counts.(g) ]) else None)
          (List.init 10 Fun.id);
    }
  in
  (Array.init table_rows lookup, Array.init table_rows groupby)

(* The seeded request stream: request [i] is the same on every run. *)
let stream ~seed ~count (lookups, groupbys) =
  let rng = Rng.create (Int64.of_int (seed + 2)) in
  let zipf = Zipf.create ~n:table_rows ~theta:zipf_theta in
  Array.init count (fun _ ->
      let k = Zipf.draw zipf rng in
      if Rng.bool rng then lookups.(k) else groupbys.(k))

let correct req = function
  | Ok rows -> List.sort Tuple.compare rows = List.sort Tuple.compare req.expect
  | Error _ -> false

(* Handler-side tracing, switched on for the traced half of the closed
   phase; handler threads share the ledger under a mutex. *)
type tracing = {
  on : bool Atomic.t;
  lock : Mutex.t;
  ledger : ledger;
  mutable handler_s : float;
  mutable handled : int;
  mutable last : Profile.report option;
}

type state = {
  session : Session.t;
  server : Serve.Server.t;
  clients : Serve.Client.t array;
  socket : string;
}

let teardown st =
  Array.iter Serve.Client.close st.clients;
  Serve.Server.stop st.server;
  (try Sys.remove st.socket with Sys_error _ -> ());
  Session.close st.session

let run (args : args) =
  let seed = Int64.of_int args.seed in
  let reqs = universe ~seed in
  let tr =
    {
      on = Atomic.make false;
      lock = Mutex.create ();
      ledger = ledger ();
      handler_s = 0.0;
      handled = 0;
      last = None;
    }
  in
  let handle session sql =
    let t0 = now () in
    let result =
      match
        if Atomic.get tr.on then begin
          let r = traced_exec session (`Sql sql) in
          let dt = now () -. t0 in
          Mutex.protect tr.lock (fun () ->
              add_traced tr.ledger ~sql:true ~latency_s:dt r;
              tr.last <- Some r.report);
          r.result
        end
        else Session.exec session (`Sql sql)
      with
      | rows -> Ok rows
      | exception exn -> Error ("serve", Printexc.to_string exn)
    in
    if Atomic.get tr.on then
      Mutex.protect tr.lock (fun () ->
          tr.handler_s <- tr.handler_s +. (now () -. t0);
          tr.handled <- tr.handled + 1);
    result
  in
  let warm = stream ~seed:args.seed ~count:connections reqs in
  let setup () =
    let session = Session.create () in
    let env = Session.env session in
    W.load ~seed ~env ~name:"t" ~n:table_rows ();
    let socket = Filename.temp_file "serve_" ".sock" in
    let server =
      Serve.Server.start ~obs:(Obs.create ()) ~socket ~handle:(handle session) ()
    in
    let clients = Array.init connections (fun _ -> Serve.Client.connect ~socket) in
    { session; server; clients; socket }
  in
  let st, first = timed setup in
  (* Warm-up, untimed: one request per connection. *)
  Array.iteri
    (fun i req -> ignore (Serve.Client.query st.clients.(i mod connections) req.sql))
    warm;
  let t = tally () in
  let tally_lock = Mutex.create () in
  let record ok = Mutex.protect tally_lock (fun () -> record_outcome t ok) in
  (* Closed loop on [connections] client threads sharing one seeded
     stream. *)
  let closed ~seconds ~stream =
    let next = Atomic.make 0 in
    let samples = Array.make connections [] in
    let start = now () in
    let deadline = start +. seconds in
    let client c () =
      while now () < deadline do
        let req = stream.(Atomic.fetch_and_add next 1 mod Array.length stream) in
        let t0 = now () in
        let good = guarded (fun () -> correct req (Serve.Client.query st.clients.(c) req.sql)) in
        let t1 = now () in
        samples.(c) <- { at = t1 -. start; lat = t1 -. t0; good } :: samples.(c);
        record good
      done
    in
    let threads = List.init connections (fun c -> Thread.create (client c) ()) in
    List.iter Thread.join threads;
    { samples = List.concat (Array.to_list samples); wall = now () -. start }
  in
  (* Open loop: request [i] is due at [start + i / rate]; a free client
     thread takes the next due request, waits for its due time if early,
     and is late when both connections were busy. *)
  let open_loop ~seconds ~stream =
    let count = int_of_float (seconds *. offered_rate) in
    let next = Atomic.make 0 in
    let lat = Array.make count 0.0 and late = Array.make count 0.0 in
    let ok = Array.make count false in
    let start = now () +. 0.001 in
    let client c () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < count then begin
          let due = start +. (float_of_int i /. offered_rate) in
          let wait = due -. now () in
          if wait > 0.0 then Thread.delay wait;
          let sent = now () in
          let req = stream.(i mod Array.length stream) in
          ok.(i) <- guarded (fun () -> correct req (Serve.Client.query st.clients.(c) req.sql));
          lat.(i) <- now () -. due;
          late.(i) <- Float.max 0.0 (sent -. due);
          loop ()
        end
      in
      loop ()
    in
    let threads = List.init connections (fun c -> Thread.create (client c) ()) in
    List.iter Thread.join threads;
    Array.iter record ok;
    (Array.to_list lat, Array.to_list late, Array.to_list ok)
  in
  let closed_s = args.seconds *. closed_share in
  let open_s = args.seconds -. closed_s in
  let closed_stream = stream ~seed:args.seed ~count:100_000 reqs in
  let open_stream = stream ~seed:(args.seed + 7) ~count:100_000 reqs in
  let server_errors0 = Serve.Server.errors st.server in
  let e2e, layers, conserved =
    if not args.trace then begin
      let cap = closed ~seconds:closed_s ~stream:closed_stream in
      let lat, _late, ok = open_loop ~seconds:open_s ~stream:open_stream in
      let n = List.length lat in
      let misses =
        List.fold_left2
          (fun acc l good -> if good && l <= p99_limit_s then acc else acc + 1)
          0 lat ok
      in
      ( phase_metrics cap
        @ List.map
            (fun (name, p) ->
              metric ~samples:n ("open_latency_" ^ name ^ "_ms") "ms"
                (percentile lat p *. 1e3))
            [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]
        @ [ metric ~samples:n "slo_miss_ratio" "ratio"
              (ratio (float_of_int misses) (float_of_int n)) ],
        [],
        true )
    end
    else begin
      let plain = closed ~seconds:(closed_s /. 2.0) ~stream:closed_stream in
      Atomic.set tr.on true;
      let traced = closed ~seconds:(closed_s /. 2.0) ~stream:closed_stream in
      Atomic.set tr.on false;
      let _lat, late, _ok = open_loop ~seconds:open_s ~stream:open_stream in
      let l = tr.ledger in
      let extra =
        {
          no_extra with
          handler_s = ratio tr.handler_s (float_of_int tr.handled);
          rtt_s = mean (lats traced);
          generator_late_p99_s = percentile late 0.99;
        }
      in
      ( [],
        layer_metrics l ~extra
          ~live_tasks_after:(Sched.live_tasks (Session.sched st.session))
          ~overhead_ratio:(ratio (qps traced) (qps plain)),
        l.conservation_violations = 0 )
    end
  in
  let server_errors = Serve.Server.errors st.server - server_errors0 in
  let settled = quiescent (Session.sched st.session) in
  let rss = peak_rss_mb () in
  teardown st;
  let setup_s, setup_n = more_setups ~reps:51 ~first ~setup ~teardown in
  Option.iter
    (write_profile ~dir:(Filename.concat args.out "serve") ~name:"serve")
    tr.last;
  {
    e2e =
      (if args.trace then [] else [ metric ~samples:setup_n "setup_s" "s" setup_s ])
      @ e2e
      @ [ metric "peak_rss_mb" "MB" rss ];
    layers;
    checks =
      [
        ("rows_equal_expected_per_literal", t.failed = 0);
        ("server_errors_zero", server_errors = 0);
        ("packet_conservation", conserved);
        ("scheduler_quiescent", settled);
      ];
    r_attempted = t.attempted;
    r_failed = t.failed;
    notes =
      [
        ("table_rows", Jsonx.Int table_rows);
        ("connections", Jsonx.Int connections);
        ("zipf_theta", Jsonx.Float zipf_theta);
        ("closed_phase_s", Jsonx.Float closed_s);
        ("open_phase_s", Jsonx.Float open_s);
        ("offered_rate_per_s", Jsonx.Float offered_rate);
        ("p99_limit_ms", Jsonx.Float (p99_limit_s *. 1e3));
      ];
  }
