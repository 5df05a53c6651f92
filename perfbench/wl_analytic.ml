(* analytic: a closed-loop single client runs a fixed SQL mix through
   [Session.query] over two 40,000-row Wisconsin tables (~12 MB together,
   beyond the 2048 x 4 KB buffer pool, so the pool misses and evicts);
   [hemp] is hash-sharded on unique1 into nproc partitions.  The ORDER BY
   input exceeds the sort run capacity set at setup, so its runs spill.
   Time goes to lib/ops, lib/tuple decoding and lib/storage; packets are
   the default size and SQL compile is a sliver of each query. *)

open Common
module W = Volcano_wisconsin.Wisconsin
module Partition = Volcano_plan.Partition
module Agg = Volcano_ops.Aggregate
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support

let frames = 2048
let col = W.column

type query = {
  label : string;
  sql : string;
  hand : Plan.t;  (** the serial hand plan the oracle runs *)
  ordered : bool;  (** compare in result order, not as a bag *)
}

let int_cmp op c n = Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int n))

let filter pred input = Plan.Filter { pred; mode = `Compiled; input }

let queries =
  [
    {
      label = "join_groupby";
      sql =
        "SELECT h.ten, COUNT(*), SUM(e.unique1) FROM hemp AS h JOIN emp AS e \
         ON (h.unique1 = e.unique1) GROUP BY h.ten";
      hand =
        Plan.Aggregate
          {
            algo = Plan.Hash_based;
            group_by = [ col "ten" ];
            aggs = [ Agg.Count; Agg.Sum (Expr.Col (16 + col "unique1")) ];
            input =
              Plan.Match
                {
                  algo = Plan.Hash_based;
                  kind = Volcano_ops.Match_op.Join;
                  left_key = [ col "unique1" ];
                  right_key = [ col "unique1" ];
                  left = Plan.Scan_table "hemp";
                  right = Plan.Scan_table "emp";
                };
          };
      ordered = false;
    };
    {
      label = "filter_scan";
      sql = "SELECT unique1, unique2, stringu1 FROM emp WHERE unique1 < 400";
      hand =
        Plan.Project_cols
          {
            cols = [ col "unique1"; col "unique2"; col "stringu1" ];
            input = filter (int_cmp Expr.Lt (col "unique1") 400) (Plan.Scan_table "emp");
          };
      ordered = false;
    };
    {
      label = "distinct";
      sql = "SELECT DISTINCT one_percent FROM emp";
      hand =
        Plan.Distinct
          {
            algo = Plan.Hash_based;
            on = [ 0 ];
            input =
              Plan.Project_cols
                { cols = [ col "one_percent" ]; input = Plan.Scan_table "emp" };
          };
      ordered = false;
    };
    {
      label = "order_by_spill";
      sql = "SELECT unique2, unique1 FROM emp WHERE two = 0 ORDER BY unique2";
      hand =
        Plan.Sort
          {
            key = [ (0, Support.Asc) ];
            input =
              Plan.Project_cols
                {
                  cols = [ col "unique2"; col "unique1" ];
                  input = filter (int_cmp Expr.Eq (col "two") 0) (Plan.Scan_table "emp");
                };
          };
      ordered = true;
    };
  ]

let canonical q rows = if q.ordered then rows else List.sort Tuple.compare rows

(* One round of the mix: each query once, in a seeded order. *)
let round ~rng =
  let a = Array.of_list queries in
  Volcano_util.Rng.shuffle rng a;
  a

let run (args : args) =
  let rows = if args.tiny then 2_000 else 40_000 in
  let run_capacity = rows / 10 in
  let parts = nproc () in
  let seed = Int64.of_int args.seed in
  let setup () =
    let session = Session.create ~frames () in
    let env = Session.env session in
    W.load ~seed ~env ~name:"emp" ~n:rows ();
    W.load ~seed ~env ~name:"hemp" ~n:rows ();
    ignore
      (Partition.split env ~table:"hemp"
         ~spec:(Partition.hash_spec [ col "unique1" ])
         ~parts ());
    Env.set_sort_run_capacity env run_capacity;
    session
  in
  let session, first = timed setup in
  (* Oracle, untimed: each query's serial hand plan, run once. *)
  let expect =
    List.map
      (fun q -> (q.label, canonical q (Session.exec session (`Plan q.hand))))
      queries
  in
  (* Warm-up pass over the mix, untimed: first-use allocation. *)
  List.iter (fun q -> ignore (Session.query session q.sql)) queries;
  let rng = Volcano_util.Rng.create (Int64.of_int (args.seed + 1)) in
  let stream = ref [||] and pos = ref 0 in
  let next_query () =
    if !pos >= Array.length !stream then begin
      stream := round ~rng;
      pos := 0
    end;
    let q = !stream.(!pos) in
    incr pos;
    q
  in
  let check q rows = canonical q rows = List.assoc q.label expect in
  let last = Hashtbl.create 4 in
  let result =
    closed_workload ~round:(List.length queries) args ~session
      ~finish:(fun () ->
        Session.close session;
        more_setups ~reps:9 ~first ~setup ~teardown:Session.close)
      ~oracle:"rows_equal_serial_hand_plans"
      ~untraced:(fun _ ->
        let q = next_query () in
        check q (Session.query session q.sql))
      ~traced:(fun l _ ->
        let q = next_query () in
        let t0 = now () in
        let r = traced_exec session (`Sql q.sql) in
        add_traced l ~sql:true ~latency_s:(now () -. t0) r;
        Hashtbl.replace last q.label r.report;
        check q r.result)
      ~extra:(fun _ -> no_extra)
      ~notes:
        [
          ("rows_per_table", Jsonx.Int rows);
          ("hemp_partitions", Jsonx.Int parts);
          ("buffer_frames", Jsonx.Int frames);
          ("sort_run_capacity", Jsonx.Int run_capacity);
          ( "mix",
            Jsonx.Obj
              (List.map
                 (fun q -> (q.label, Jsonx.String q.sql))
                 queries) );
          ("loop", Jsonx.String "closed, 1 client");
        ]
  in
  Hashtbl.iter
    (fun label report ->
      write_profile ~dir:(Filename.concat args.out "analytic") ~name:label report)
    last;
  result
