(* Torture tests for the SPSC ring and the ring-based port hot path:
   wraparound and capacity edge cases, cross-domain FIFO and conservation,
   and a large shutdown/poison race matrix checking that no wakeup is ever
   lost on the spin-then-park paths. *)

module Spsc = Volcano_util.Spsc
module Tuple = Volcano_tuple.Tuple
module Port = Volcano.Port
module Packet = Volcano.Packet
module Sched = Volcano_sched.Sched

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Ring unit properties                                                *)

let test_ring_basics () =
  let r = Spsc.create ~capacity:3 ~dummy:(-1) in
  check Alcotest.int "logical capacity is exact, not pow2" 3 (Spsc.capacity r);
  check Alcotest.bool "starts empty" true (Spsc.is_empty r);
  check Alcotest.bool "push 1" true (Spsc.try_push r 10);
  check Alcotest.bool "push 2" true (Spsc.try_push r 11);
  check Alcotest.bool "push 3" true (Spsc.try_push r 12);
  (* Occupancy is bounded by the configured capacity even though the
     backing array was rounded up to 4. *)
  check Alcotest.bool "push into full fails" false (Spsc.try_push r 13);
  check Alcotest.int "length at full" 3 (Spsc.length r);
  check (Alcotest.option Alcotest.int) "pop fifo" (Some 10) (Spsc.try_pop r);
  check Alcotest.bool "full -> not full after pop" true (Spsc.try_push r 13);
  check (Alcotest.option Alcotest.int) "pop 11" (Some 11) (Spsc.try_pop r);
  check (Alcotest.option Alcotest.int) "pop 12" (Some 12) (Spsc.try_pop r);
  check (Alcotest.option Alcotest.int) "pop 13" (Some 13) (Spsc.try_pop r);
  check (Alcotest.option Alcotest.int) "pop empty" None (Spsc.try_pop r);
  check Alcotest.bool "empty again" true (Spsc.is_empty r)

let test_ring_capacity_one () =
  let r = Spsc.create ~capacity:1 ~dummy:0 in
  for i = 1 to 1000 do
    (* Full/empty transition on every element: the tightest wraparound. *)
    check Alcotest.bool "push" true (Spsc.try_push r i);
    check Alcotest.bool "full" false (Spsc.try_push r (-i));
    check (Alcotest.option Alcotest.int) "pop" (Some i) (Spsc.try_pop r);
    check (Alcotest.option Alcotest.int) "empty" None (Spsc.try_pop r)
  done

let test_ring_wraparound () =
  let r = Spsc.create ~capacity:5 ~dummy:(-1) in
  (* Keep a rolling occupancy of 3 across many index wraps; FIFO order
     must survive every wrap of the 8-slot backing array. *)
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 3 do
    assert (Spsc.try_push r !next_in);
    incr next_in
  done;
  for _ = 1 to 10_000 do
    assert (Spsc.try_push r !next_in);
    incr next_in;
    (match Spsc.try_pop r with
    | Some v ->
        check Alcotest.int "fifo across wraps" !next_out v;
        incr next_out
    | None -> Alcotest.fail "ring unexpectedly empty");
    check Alcotest.int "steady occupancy" 3 (Spsc.length r)
  done

let test_ring_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Spsc.create: capacity must be positive") (fun () ->
      ignore (Spsc.create ~capacity:0 ~dummy:()))

(* ------------------------------------------------------------------ *)
(* Cross-domain torture: raw ring                                      *)

(* One producer domain pushes [n] ints while this domain pops: every value
   arrives exactly once, in order — conservation and FIFO under real
   cross-domain publication.  The ring is large so a single-core host can
   move a whole batch per scheduling quantum instead of four. *)
let test_ring_two_domains () =
  let n = 200_000 in
  let r = Spsc.create ~capacity:1024 ~dummy:(-1) in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spsc.try_push r i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let expected = ref 0 in
  while !expected < n do
    match Spsc.try_pop r with
    | Some v ->
        if v <> !expected then
          Alcotest.failf "out of order: got %d, expected %d" v !expected;
        incr expected
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check (Alcotest.option Alcotest.int) "drained" None (Spsc.try_pop r)

(* ------------------------------------------------------------------ *)
(* Port-level: FIFO per lane, conservation across lanes                *)

let packet_of_int ~producer i =
  let p = Packet.create ~capacity:1 ~producer in
  Packet.add p (Tuple.of_ints [ i ]);
  p

let int_of_packet p = Tuple.int_exn (Packet.get p 0) 0

let test_port_lane_fifo () =
  (* Two producers interleave into one consumer; each lane must stay FIFO
     and nothing may be lost or duplicated. *)
  let per_producer = 20_000 in
  let port = Port.create ~producers:2 ~consumers:1 ~flow_slack:3 () in
  let producers =
    List.init 2 (fun rank ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              Port.send port ~producer:rank ~consumer:0
                (packet_of_int ~producer:rank i)
            done))
  in
  let last = [| -1; -1 |] in
  let got = ref 0 in
  while !got < 2 * per_producer do
    match Port.receive port ~consumer:0 with
    | None -> Alcotest.fail "port shut down unexpectedly"
    | Some p ->
        let rank = Packet.producer p in
        let v = int_of_packet p in
        if v <= last.(rank) then
          Alcotest.failf "lane %d not FIFO: %d after %d" rank v last.(rank);
        last.(rank) <- v;
        incr got
  done;
  List.iter Domain.join producers;
  check Alcotest.int "lane 0 complete" (per_producer - 1) last.(0);
  check Alcotest.int "lane 1 complete" (per_producer - 1) last.(1);
  check Alcotest.int "conserved" (2 * per_producer) (Port.packets_received port)

(* ------------------------------------------------------------------ *)
(* Shutdown/poison races: no lost wakeups                              *)

(* A consumer blocked in [receive] races a shutdown (or poison) from
   another domain, thousands of times.  A lost wakeup hangs the test, so
   the whole suite doubles as a liveness check.  One long-lived worker
   domain is fed ports through a blocking rendezvous (semaphores, so a
   single-core host hands the CPU over instead of burning a timeslice
   spinning) — spawning 10k domains would dominate the run time. *)
type job = Stop | Drain of Port.t

let test_shutdown_race_matrix () =
  let rounds = 10_000 in
  let module Sema = Volcano_util.Sema in
  let job_ready = Sema.create 0 and job_done = Sema.create 0 in
  let slot = ref Stop in
  let worker =
    Domain.spawn (fun () ->
        let rec loop () =
          Sema.acquire job_ready;
          match !slot with
          | Stop -> ()
          | Drain port ->
              (* Block until a packet or the shutdown arrives; either way
                 every receive must return. *)
              let rec drain () =
                match Port.receive port ~consumer:0 with
                | Some _ -> drain ()
                | None -> ()
              in
              drain ();
              Sema.release job_done;
              loop ()
        in
        loop ())
  in
  for round = 1 to rounds do
    let port = Port.create ~producers:1 ~consumers:1 ~flow_slack:2 () in
    slot := Drain port;
    Sema.release job_ready;
    (* Vary the interleaving: sometimes send first, sometimes shut down
       straight away, sometimes poison, and sometimes yield long enough
       for the worker to park inside [receive] before the shutdown — the
       wakeup that must never be lost. *)
    (match round mod 4 with
    | 0 ->
        Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 round)
    | 1 -> Port.poison port (Failure "race")
    | 2 -> Unix.sleepf 1e-4
    | _ -> ());
    Port.shutdown port;
    Sema.acquire job_done
  done;
  slot := Stop;
  Sema.release job_ready;
  Domain.join worker

(* The mirror race: a producer blocked on a full lane ring must be woken
   by shutdown (and its packet dropped), never stranded. *)
let test_blocked_producer_shutdown () =
  for _ = 1 to 1_000 do
    let port = Port.create ~producers:1 ~consumers:1 ~flow_slack:1 () in
    Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 0);
    let producer =
      Domain.spawn (fun () ->
          (* The lane is full: this blocks until the shutdown below. *)
          Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 1))
    in
    Port.shutdown port;
    Domain.join producer;
    (* The queued packet survives the shutdown (drain-then-None); the
       blocked send was dropped. *)
    (match Port.receive port ~consumer:0 with
    | Some p -> check Alcotest.int "queued packet survives" 0 (int_of_packet p)
    | None -> Alcotest.fail "queued packet lost");
    check (Alcotest.option Alcotest.int) "then None" None
      (Option.map int_of_packet (Port.receive port ~consumer:0))
  done

(* ------------------------------------------------------------------ *)
(* Mixed contexts: a pool fiber on one side, a plain domain on the other *)

(* The remote exchange's shape: a plain domain feeds a lane that a pool
   fiber drains, and the reverse.  Both sides park through
   Sched.suspend — the fiber by yielding its worker, the domain by
   blocking — so every wakeup crosses from one context to the other. *)
let with_pool f =
  let sched = Sched.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown sched)
    (fun () ->
      f sched;
      Sched.assert_quiescent ~what:"mixed-context pool" sched)

let mixed_lane ~producer_on_pool =
  let n = 10_000 in
  with_pool (fun sched ->
      let port = Port.create ~producers:1 ~consumers:1 ~flow_slack:1 () in
      let produce () =
        for i = 0 to n - 1 do
          Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 i)
        done
      in
      (* A failed check shuts the port so the producer cannot hang. *)
      let consume () =
        Fun.protect ~finally:(fun () -> Port.shutdown port) @@ fun () ->
        for i = 0 to n - 1 do
          match Port.receive port ~consumer:0 with
          | None -> Alcotest.fail "port shut down unexpectedly"
          | Some p ->
              let v = int_of_packet p in
              if v <> i then Alcotest.failf "lane not FIFO: %d, expected %d" v i
        done
      in
      let in_fiber f =
        let task = Sched.fork sched f in
        fun () ->
          match Sched.await task with Ok () -> () | Error exn -> raise exn
      in
      let on_domain f =
        let d = Domain.spawn f in
        fun () -> Domain.join d
      in
      let join_producer, join_consumer =
        if producer_on_pool then
          let p = in_fiber produce in
          (p, on_domain consume)
        else
          let p = on_domain produce in
          (p, in_fiber consume)
      in
      join_consumer ();
      join_producer ();
      check Alcotest.int "sent" n (Port.packets_sent port);
      check Alcotest.int "sent = received" (Port.packets_sent port)
        (Port.packets_received port))

let test_mixed_context_lane () =
  mixed_lane ~producer_on_pool:false;
  mixed_lane ~producer_on_pool:true;
  (* A shutdown issued from a pool fiber wakes a plain-domain producer
     parked on its full lane. *)
  with_pool (fun sched ->
      for round = 1 to 100 do
        let port = Port.create ~producers:1 ~consumers:1 ~flow_slack:1 () in
        Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 0);
        let producer =
          Domain.spawn (fun () ->
              Port.send port ~producer:0 ~consumer:0
                (packet_of_int ~producer:0 1))
        in
        while Port.flow_stalls port = 0 do
          Domain.cpu_relax ()
        done;
        (* Mostly long enough for the producer to get past its spin. *)
        Unix.sleepf (if round mod 10 = 0 then 5e-3 else 1e-4);
        let closer = Sched.fork sched (fun () -> Port.shutdown port) in
        (match Sched.await closer with Ok () -> () | Error exn -> raise exn);
        Domain.join producer;
        check Alcotest.int "blocked send dropped" 1 (Port.packets_sent port)
      done)

let suite =
  [
    Alcotest.test_case "ring basics and exact capacity" `Quick test_ring_basics;
    Alcotest.test_case "ring capacity one" `Quick test_ring_capacity_one;
    Alcotest.test_case "ring wraparound fifo" `Quick test_ring_wraparound;
    Alcotest.test_case "ring invalid capacity" `Quick test_ring_invalid;
    Alcotest.test_case "ring two domains" `Slow test_ring_two_domains;
    Alcotest.test_case "port lane fifo and conservation" `Slow
      test_port_lane_fifo;
    Alcotest.test_case "10k shutdown/poison races" `Slow
      test_shutdown_race_matrix;
    Alcotest.test_case "blocked producer woken by shutdown" `Slow
      test_blocked_producer_shutdown;
    Alcotest.test_case "mixed-context lane" `Slow test_mixed_context_lane;
  ]
