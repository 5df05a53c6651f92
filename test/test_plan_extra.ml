(* Additional plan-level tests: two-phase parallel aggregation, index
   scans through the catalog, choose-plan nodes, and a realistic
   end-to-end query run serially and with full parallel decoration. *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Parallel = Volcano_plan.Parallel
module Exchange = Volcano.Exchange
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support
module A = Volcano_ops.Aggregate
module W = Volcano_wisconsin.Wisconsin

let check = Alcotest.check

let sorted env plan = List.sort Tuple.compare (Runner.run env plan)

let check_same name env a b =
  let ra = sorted env a and rb = sorted env b in
  check Alcotest.int (name ^ " cardinality") (List.length ra) (List.length rb);
  List.iter2
    (fun x y -> check Alcotest.bool (name ^ " tuple") true (Tuple.equal x y))
    ra rb

let gen_tuple i = Tuple.of_ints [ i; i mod 10; i mod 7 ]
let base n = Plan.Generate { arity = 3; count = n; gen = gen_tuple }
let base_slice n = Plan.Generate_slice { arity = 3; count = n; gen = gen_tuple }

(* --- two-phase aggregation --- *)

let test_two_phase_aggregate () =
  let env = Env.create () in
  let aggs =
    [ A.Count; A.Sum (Expr.Col 0); A.Min (Expr.Col 0); A.Max (Expr.Col 2) ]
  in
  let serial =
    Plan.Aggregate
      { algo = Plan.Hash_based; group_by = [ 1 ]; aggs; input = base 2000 }
  in
  let two_phase =
    Parallel.partitioned_aggregate_two_phase ~degree:4 ~group_by:[ 1 ] ~aggs
      (base_slice 2000)
  in
  check_same "two-phase aggregate" env serial two_phase

let test_two_phase_avg () =
  let env = Env.create () in
  let aggs = [ A.Count; A.Avg (Expr.Col 0); A.Max (Expr.Col 0) ] in
  let serial =
    Plan.Aggregate
      { algo = Plan.Hash_based; group_by = [ 1 ]; aggs; input = base 1000 }
  in
  let two_phase =
    Parallel.partitioned_aggregate_two_phase ~degree:3 ~group_by:[ 1 ] ~aggs
      (base_slice 1000)
  in
  let ra = sorted env serial and rb = sorted env two_phase in
  check Alcotest.int "groups" (List.length ra) (List.length rb);
  List.iter2
    (fun x y ->
      check Alcotest.int "group key" (Tuple.int_exn x 0) (Tuple.int_exn y 0);
      check Alcotest.int "count" (Tuple.int_exn x 1) (Tuple.int_exn y 1);
      check (Alcotest.float 1e-9) "avg"
        (Value.float_exn (Tuple.get x 2))
        (Value.float_exn (Tuple.get y 2));
      check Alcotest.int "max" (Tuple.int_exn x 3) (Tuple.int_exn y 3))
    ra rb

let test_two_phase_moves_less_data () =
  (* With 10 groups and 2,000 rows, the naive repartitioning moves 2,000
     records; two-phase moves at most degree * groups partials.  We verify
     correct results here and rely on plan inspection for the data-motion
     claim (the partial aggregate appears below the hash exchange). *)
  let env = Env.create () in
  let plan =
    Parallel.partitioned_aggregate_two_phase ~degree:4 ~group_by:[ 1 ]
      ~aggs:[ A.Count ] (base_slice 2000)
  in
  let text = Plan.explain env plan in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec at i = i + n <= h && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.bool "local aggregate below exchange" true
    (contains "hash-aggregate by [1]");
  check Alcotest.bool "partition on group key" true (contains "hash[0]")

(* --- index scans through the catalog --- *)

let setup_indexed_env () =
  let env = Env.create ~frames:1024 () in
  W.load ~env ~name:"wisc" ~n:2000 ();
  let entries =
    Env.create_index env ~table:"wisc" ~name:"wisc_u1" ~key:[ W.column "unique1" ]
  in
  check Alcotest.int "index entries" 2000 entries;
  env

let test_scan_index_plan () =
  let env = setup_indexed_env () in
  let range lo hi =
    Plan.Scan_index
      {
        index = "wisc_u1";
        lo = Plan.Ix_inclusive (Tuple.of_ints [ lo ]);
        hi = Plan.Ix_exclusive (Tuple.of_ints [ hi ]);
      }
  in
  (* Equivalent filter over the full scan. *)
  let filtered lo hi =
    Plan.Filter
      {
        pred =
          Expr.And
            ( Expr.Cmp (Expr.Ge, Expr.Col (W.column "unique1"), Expr.Const (Value.Int lo)),
              Expr.Cmp (Expr.Lt, Expr.Col (W.column "unique1"), Expr.Const (Value.Int hi)) );
        mode = `Compiled;
        input = Plan.Scan_table "wisc";
      }
  in
  check_same "narrow range" env (range 100 150) (filtered 100 150);
  check_same "empty range" env (range 5000 6000) (filtered 5000 6000);
  check Alcotest.int "arity through index" 16
    (Plan.arity env (range 0 10));
  (* Index output arrives in key order. *)
  let rows = Runner.run env (range 100 150) in
  let keys = List.map (fun t -> Tuple.int_exn t (W.column "unique1")) rows in
  check (Alcotest.list Alcotest.int) "ordered" (List.init 50 (fun i -> 100 + i)) keys

let test_index_with_choose_plan () =
  let env = setup_indexed_env () in
  let queries_decided = ref [] in
  let access lo hi =
    Plan.Choose
      {
        decide =
          (fun () ->
            let narrow = hi - lo < 200 in
            queries_decided := narrow :: !queries_decided;
            if narrow then 0 else 1);
        alternatives =
          [
            Plan.Scan_index
              {
                index = "wisc_u1";
                lo = Plan.Ix_inclusive (Tuple.of_ints [ lo ]);
                hi = Plan.Ix_exclusive (Tuple.of_ints [ hi ]);
              };
            Plan.Filter
              {
                pred =
                  Expr.And
                    ( Expr.Cmp (Expr.Ge, Expr.Col 0, Expr.Const (Value.Int lo)),
                      Expr.Cmp (Expr.Lt, Expr.Col 0, Expr.Const (Value.Int hi)) );
                mode = `Compiled;
                input = Plan.Scan_table "wisc";
              };
          ];
      }
  in
  check Alcotest.int "narrow via index" 50 (Runner.count env (access 0 50));
  check Alcotest.int "wide via scan" 1500 (Runner.count env (access 0 1500));
  check (Alcotest.list Alcotest.bool) "decisions" [ false; true ]
    !queries_decided

(* --- a realistic end-to-end query --- *)

(* "For each four-value, how many distinct ten-values appear among rows
   whose unique1 is under half the table, joined against a second relation
   on unique1?"  Serial vs fully parallel plan. *)
let test_end_to_end_query () =
  let env = Env.create ~frames:2048 () in
  let n = 3000 in
  let pred =
    Expr.Cmp (Expr.Lt, Expr.Col (W.column "unique1"), Expr.Const (Value.Int (n / 2)))
  in
  let serial =
    Plan.Sort
      {
        key = [ (0, Support.Asc) ];
        input =
          Plan.Aggregate
            {
              algo = Plan.Hash_based;
              group_by = [ W.column "four" ];
              aggs = [ A.Count; A.Sum (Expr.Col (W.column "unique1")) ];
              input =
                Plan.Match
                  {
                    algo = Plan.Hash_based;
                    kind = Volcano_ops.Match_op.Semi;
                    left_key = [ W.column "unique1" ];
                    right_key = [ W.column "unique2" ];
                    left =
                      Plan.Filter
                        { pred; mode = `Compiled; input = W.plan ~seed:5L ~n () };
                    right = W.plan ~seed:6L ~n:(n / 2) ();
                  };
            };
      }
  in
  let parallel =
    Plan.Sort
      {
        key = [ (0, Support.Asc) ];
        input =
          Parallel.partitioned_aggregate ~degree:3 ~algo:Plan.Hash_based
            ~group_by:[ W.column "four" ]
            ~aggs:[ A.Count; A.Sum (Expr.Col (W.column "unique1")) ]
            (Parallel.partitioned_match ~degree:2 ~algo:Plan.Hash_based
               ~kind:Volcano_ops.Match_op.Semi
               ~left_key:[ W.column "unique1" ]
               ~right_key:[ W.column "unique2" ]
               ~left:
                 (Plan.Filter
                    { pred; mode = `Compiled; input = W.plan_slice ~seed:5L ~n () })
               ~right:(W.plan_slice ~seed:6L ~n:(n / 2) ())
               ());
      }
  in
  let a = Runner.run env serial and b = Runner.run env parallel in
  check Alcotest.int "cardinality" (List.length a) (List.length b);
  List.iter2 (fun x y -> check Alcotest.bool "row" true (Tuple.equal x y)) a b

let test_limit_over_merge_network () =
  let env = Env.create () in
  let plan =
    Plan.Limit
      {
        count = 25;
        input =
          Parallel.parallel_sort ~degree:3
            ~key:[ (0, Support.Asc) ]
            (base_slice 100_000);
      }
  in
  let rows = Runner.run env plan in
  check Alcotest.int "limited" 25 (List.length rows);
  (* Top-25 of the sorted stream = 0..24. *)
  check (Alcotest.list Alcotest.int) "smallest first" (List.init 25 Fun.id)
    (List.map (fun t -> Tuple.int_exn t 0) rows)

(* --- sliced scans of an unpartitioned table --- *)

(* A degree-4 sliced scan of a table with no partition files splits the
   heap file into page ranges: each page is fixed once per query, on the
   fused path and record-at-a-time, and the rows are the serial scan's. *)
let test_slice_scan_reads_each_page_once () =
  let e = Env.create ~frames:128 ~page_size:512 () in
  let file =
    Env.create_table e ~name:"t"
      ~schema:
        (Volcano_tuple.Schema.of_names
           [ ("a", Value.Tint); ("b", Value.Tint) ])
  in
  for i = 0 to 1999 do
    ignore
      (Volcano_storage.Heap_file.insert file
         (Bytes.to_string (Volcano_tuple.Serial.encode (Tuple.of_ints [ i; i mod 7 ]))))
  done;
  let pages = Volcano_storage.Heap_file.page_count file in
  check Alcotest.bool "many pages" true (pages > 8);
  let sliced =
    Plan.Exchange
      { cfg = Exchange.config ~degree:4 (); input = Plan.Scan_table_slice "t" }
  in
  let serial = sorted e (Plan.Scan_table "t") in
  let fixes () =
    let s = Volcano_storage.Bufpool.stats (Env.buffer e) in
    s.Volcano_storage.Bufpool.hits + s.Volcano_storage.Bufpool.misses
  in
  List.iter
    (fun batch ->
      Env.set_batch_size e batch;
      let before = fixes () in
      let rows = List.sort Tuple.compare (Runner.run e sliced) in
      check Alcotest.int
        (Printf.sprintf "batch %d: one fix per page" batch)
        pages
        (fixes () - before);
      check Alcotest.int
        (Printf.sprintf "batch %d: cardinality" batch)
        (List.length serial) (List.length rows);
      check Alcotest.bool
        (Printf.sprintf "batch %d: rows = serial scan" batch)
        true
        (List.for_all2 Tuple.equal serial rows))
    [ Volcano.Batch.default_size; 0 ];
  Volcano_storage.Bufpool.assert_quiescent ~what:"slice scan" (Env.buffer e)

let suite =
  [
    Alcotest.test_case "two-phase aggregate" `Quick test_two_phase_aggregate;
    Alcotest.test_case "two-phase average" `Quick test_two_phase_avg;
    Alcotest.test_case "two-phase structure" `Quick test_two_phase_moves_less_data;
    Alcotest.test_case "index scan plan" `Quick test_scan_index_plan;
    Alcotest.test_case "choose-plan picks access path" `Quick
      test_index_with_choose_plan;
    Alcotest.test_case "end-to-end query serial = parallel" `Quick
      test_end_to_end_query;
    Alcotest.test_case "sliced scan reads each page once" `Quick
      test_slice_scan_reads_each_page_once;
    Alcotest.test_case "limit over merge network" `Quick
      test_limit_over_merge_network;
  ]
