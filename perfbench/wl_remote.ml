(* remote: a 40,000-row table hash-sharded on unique1 across 2 worker
   processes (this binary re-executed in worker mode).  A hand-built plan
   ships every row across an exchange-boundary repartition on [ten] to 2
   local consumers that group, and a final aggregate combines their
   partials.  The only workload that crosses Launcher, Worker, Wire,
   Repart and the remote consumer. *)

open Common
module W = Volcano_wisconsin.Wisconsin
module Partition = Volcano_plan.Partition
module Remote = Volcano_plan.Remote
module Launcher = Volcano_net.Launcher
module Agg = Volcano_ops.Aggregate
module Expr = Volcano_tuple.Expr

let table = "wisc"
let sites = 2
let consumers = 2
let spec = Partition.hash_spec [ W.column "unique1" ]

(* Worker mode: rebuild this site's partition from the generator the task
   names, and stream a scan of it. *)
let worker_main ~socket =
  Volcano_net.Worker.run ~socket ~resolve:(fun ~task ~shard ~shards ->
      match String.split_on_char ':' task with
      | [ "wisc"; rows; seed ] ->
          let rows = int_of_string rows in
          let env = Env.create () in
          ignore
            (Partition.load_site env ~table ~schema:W.schema ~spec ~parts:shards
               ~site:shard ~count:rows
               ~gen:(W.generator ~seed:(Int64.of_string seed) ~n:rows ())
               ());
          Remote.shard_pull env ~shard ~shards (Plan.Scan_table_slice table)
      | _ -> failwith ("unknown remote bench task " ^ task))

let by_ten input =
  Plan.Aggregate
    {
      algo = Plan.Hash_based;
      group_by = [ W.column "ten" ];
      aggs = [ Agg.Count; Agg.Sum (Expr.Col (W.column "unique1")) ];
      input;
    }

let plan ~task =
  let repartition =
    Exchange.config ~degree:sites ~partition:(Exchange.Hash_on [ W.column "ten" ]) ()
  in
  Plan.Aggregate
    {
      algo = Plan.Hash_based;
      group_by = [ 0 ];
      aggs = [ Agg.Sum (Expr.Col 1); Agg.Sum (Expr.Col 2) ];
      input =
        Plan.Exchange
          {
            cfg = Exchange.config ~degree:consumers ();
            input =
              by_ten
                (Plan.Remote
                   {
                     cfg = repartition;
                     workers = sites;
                     task;
                     input = Plan.Scan_table_slice table;
                   });
          };
    }

type state = {
  session : Session.t;
  obs : Obs.t;  (** the launcher's per-site wire counters *)
  launches : float list ref;  (** Launcher.launch wall times *)
}

let wire obs =
  let sum what =
    List.fold_left ( + ) 0
      (List.init sites (fun k ->
           Obs.Counter.value (Obs.counter obs (Printf.sprintf "net.site%d.%s" k what))))
  in
  (sum "bytes", sum "rows")

let run (args : args) =
  let rows = if args.tiny then 2_000 else 40_000 in
  let task = Printf.sprintf "wisc:%d:%d" rows args.seed in
  let plan = plan ~task in
  let setup () =
    let session = Session.create () in
    let env = Session.env session in
    (* The parent holds the table and its catalog entry (the analyzer
       checks remote placement against it); the sites hold the rows. *)
    W.load ~seed:(Int64.of_int args.seed) ~env ~name:table ~n:rows ();
    ignore (Partition.split env ~table ~spec ~parts:sites ());
    let obs = Obs.create () and launches = ref [] in
    Env.set_remote_launcher env
      (fun ~faults ~repartition ~workers ~task ~packet_size ->
        let t0 = now () in
        let launched =
          Launcher.launch ~faults ~obs
            ?repartition:
              (Option.map
                 (fun (spec, dests) ->
                   Volcano_net.Repart.of_partition_spec spec ~dests)
                 repartition)
            ~command:(fun ~socket ->
              [| Sys.executable_name; "remote-worker"; socket |])
            ~workers ~task ~packet_size ()
        in
        launches := (now () -. t0) :: !launches;
        launched.Launcher.sources);
    { session; obs; launches }
  in
  let teardown s = Session.close s.session in
  let st, first = timed setup in
  (* Oracle, untimed: the local serial aggregate over the unsharded table. *)
  let expect =
    List.sort Tuple.compare
      (Session.exec st.session (`Plan (by_ten (Plan.Scan_table table))))
  in
  (* Warm-up query, untimed: first launch and first-use allocation. *)
  ignore (Session.exec st.session (`Plan plan));
  let check rows = List.sort Tuple.compare rows = expect in
  let last = ref None in
  let wire0 = ref (0, 0) in
  let result =
    closed_workload args ~session:st.session
      ~finish:(fun () ->
        teardown st;
        more_setups ~reps:9 ~first ~setup ~teardown)
      ~oracle:"rows_equal_local_serial_aggregate"
      ~untraced:(fun _ -> check (Session.exec st.session (`Plan plan)))
      ~traced:(fun l i ->
        if i = 0 then begin
          wire0 := wire st.obs;
          st.launches := []
        end;
        let t0 = now () in
        let r = traced_exec st.session (`Plan plan) in
        add_traced l ~latency_s:(now () -. t0) r;
        last := Some r.report;
        check r.result)
      ~extra:(fun phase ->
        let bytes0, rows0 = !wire0 and bytes, rows = wire st.obs in
        {
          no_extra with
          launch_s = mean !(st.launches);
          wire_bytes = bytes - bytes0;
          wire_rows = rows - rows0;
          wire_s = phase.wall;
        })
      ~notes:
        [
          ("rows", Jsonx.Int rows);
          ("worker_processes", Jsonx.Int sites);
          ("local_consumers", Jsonx.Int consumers);
          ("repartition", Jsonx.String "hash on ten");
          ("loop", Jsonx.String "closed, 1 client");
        ]
  in
  Option.iter
    (write_profile ~dir:(Filename.concat args.out "remote") ~name:"remote")
    !last;
  result
