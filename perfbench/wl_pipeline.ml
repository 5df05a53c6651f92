(* pipeline: the paper's Fig. 2 plan.  Generated four-int records flow
   through 3 -> 3 -> 3 -> 1 exchanges with 2-record packets and flow slack
   3, driven in a closed loop from one client.  No storage, no SQL and
   almost no operator work: nearly all the time is port/packet handoff
   (lib/core) and fiber suspend/wake (lib/sched). *)

open Common

let packet_size = 2
let flow_slack = 3

(* Record i is [x; x+1; x+2; x+3] with x a seeded mix of i, so a second
   seed moves every value the checksum covers. *)
let gen ~seed i =
  let x = ((i * 2654435761) + (seed * 40503)) land 0xFFFFFF in
  Tuple.of_ints [ x; x + 1; x + 2; x + 3 ]

let plan ~seed ~records =
  let cfg =
    Exchange.config ~degree:3 ~packet_size ~flow_slack:(Some flow_slack) ()
  in
  let leaf =
    Plan.Generate_slice { arity = 4; count = records; gen = gen ~seed }
  in
  Plan.Exchange
    { cfg; input = Plan.Exchange { cfg; input = Plan.Exchange { cfg; input = leaf } } }

(* Order-independent checksum (exchange interleaves producers). *)
let checksum rows =
  List.fold_left
    (fun acc t ->
      Array.fold_left
        (fun acc v -> match v with Value.Int x -> (acc + x) land max_int | _ -> acc)
        acc t)
    0 rows

let run (args : args) =
  let records = if args.tiny then 600 else 30_000 in
  let plan = plan ~seed:args.seed ~records in
  (* Oracle: computed from the generator directly, not by the engine. *)
  let expect = (records, checksum (List.init records (gen ~seed:args.seed))) in
  (* There is no table to load: set-up is the session alone. *)
  let setup () = Session.create () in
  let session, first = timed setup in
  (* Warm-up query, untimed: first-use allocation. *)
  ignore (Session.exec session (`Plan plan));
  let check rows = (List.length rows, checksum rows) = expect in
  let last = ref None in
  let result =
    closed_workload args ~session
      ~finish:(fun () ->
        Session.close session;
        more_setups ~reps:51 ~first ~setup ~teardown:Session.close)
      ~oracle:"rows_and_checksum"
      ~untraced:(fun _ -> check (Session.exec session (`Plan plan)))
      ~traced:(fun l _ ->
        let t0 = now () in
        let r = traced_exec session (`Plan plan) in
        add_traced l ~latency_s:(now () -. t0) r;
        last := Some r.report;
        check r.result)
      ~extra:(fun _ -> no_extra)
      ~notes:
        [
          ("records", Jsonx.Int records);
          ("topology", Jsonx.String "3->3->3->1");
          ("packet_size", Jsonx.Int packet_size);
          ("flow_slack", Jsonx.Int flow_slack);
          ("loop", Jsonx.String "closed, 1 client");
        ]
  in
  Option.iter
    (write_profile ~dir:(Filename.concat args.out "pipeline") ~name:"pipeline")
    !last;
  result
