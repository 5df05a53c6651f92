module Support = Volcano_tuple.Support
module Injector = Volcano_fault.Injector
module Obs = Volcano_obs.Obs
module Sched = Volcano_sched.Sched

exception Query_failed of { site : string; origin : exn }

let () =
  Printexc.register_printer (function
    | Query_failed { site; origin } ->
        Some
          (Printf.sprintf "Exchange.Query_failed(site %s: %s)" site
             (Printexc.to_string origin))
    | _ -> None)

(* Normalize an exception into the single well-typed failure the consumer
   sees; never wrap twice when the failure crosses nested exchanges. *)
let as_query_failed ~fallback origin =
  match origin with
  | Query_failed _ -> origin
  | Volcano_fault.Injected { site; _ } ->
      Query_failed { site = Volcano_fault.site_name site; origin }
  | Port.Transport.Remote_failure { site; _ } ->
      (* A worker-process failure that crossed the wire: the frame carries
         the original site name, so the consumer reports the same site a
         local producer's death would. *)
      Query_failed { site; origin }
  | origin -> Query_failed { site = fallback; origin }

(* ------------------------------------------------------------------ *)
(* Cancellation scopes                                                  *)

(* A scope collects the ports created below one exchange.  The exchange's
   own port cancels its scope on shutdown, so cancellation (early close or
   a poisoned port) propagates down the whole subtree: without this, a
   producer blocked in a descendant port's receive or flow-control
   semaphore would never observe that its output port was shut. *)
module Scope = struct
  type t = {
    lock : Mutex.t;
    mutable fired : bool;
    mutable reason : exn option; (* Some: poisoned, not merely cancelled *)
    mutable ports : Port.t list;
  }

  let create () =
    { lock = Mutex.create (); fired = false; reason = None; ports = [] }

  let register t port =
    Mutex.lock t.lock;
    let already = if t.fired then Some t.reason else None in
    (match already with None -> t.ports <- port :: t.ports | Some _ -> ());
    Mutex.unlock t.lock;
    (* Born cancelled: the subtree is already being torn down. *)
    match already with
    | Some (Some exn) -> Port.poison port exn
    | Some None -> Port.shutdown port
    | None -> ()

  let fire t reason =
    Mutex.lock t.lock;
    let ports = if t.fired then [] else t.ports in
    t.fired <- true;
    if Option.is_none t.reason then t.reason <- reason;
    t.ports <- [];
    Mutex.unlock t.lock;
    (* Each shutdown chains into that port's own scope via its
       [on_shutdown] hook, cancelling the tree recursively. *)
    match reason with
    | None -> List.iter Port.shutdown ports
    | Some exn -> List.iter (fun port -> Port.poison port exn) ports

  let cancel t = fire t None

  (* Poison, not shutdown: a plain shutdown ends the streams quietly
     (drain-then-None), which for a runtime-initiated cancellation would
     let the query "succeed" truncated.  Poisoning records the reason so
     the consumer's next raises [Query_failed] instead. *)
  let poison t exn = fire t (Some exn)

  let cancelled t =
    Mutex.lock t.lock;
    let fired = t.fired in
    Mutex.unlock t.lock;
    fired
end

type partition_spec =
  | Round_robin
  | Hash_on of int list
  | Range_on of int * Volcano_tuple.Value.t array
  | Custom of Support.Partition.t
  | Broadcast

type fork_mode = Fork_tree | Fork_central

type config = {
  degree : int;
  packet_size : int;
  flow_slack : int option;
  partition : partition_spec;
  fork_mode : fork_mode;
}

(* The one validation path, shared by the smart constructor below and by
   planlint's exchange pass: a diagnosis is a (code, message) pair whose
   code matches the analyzer's diagnostic codes. *)
let validate ~degree ~packet_size ~flow_slack =
  let problems = ref [] in
  let problem code msg = problems := (code, msg) :: !problems in
  if degree < 1 then problem "exchange-degree" "degree must be positive";
  if packet_size < 1 || packet_size > Packet.max_capacity then
    problem "exchange-packet-size"
      (Printf.sprintf "packet size must be in [1, %d]" Packet.max_capacity);
  (match flow_slack with
  | Some slack when slack < 1 ->
      problem "exchange-flow-slack" "flow-control slack must be positive"
  | Some _ | None -> ());
  List.rev !problems

let config ?(degree = 1) ?(packet_size = Packet.default_capacity)
    ?(flow_slack = Some 4) ?(partition = Round_robin) ?(fork_mode = Fork_tree)
    () =
  match validate ~degree ~packet_size ~flow_slack with
  | [] -> { degree; packet_size; flow_slack; partition; fork_mode }
  | (_, msg) :: _ -> invalid_arg ("Exchange.config: " ^ msg)

let id_counter = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add id_counter 1
let spawn_counter = Atomic.make 0
let join_counter = Atomic.make 0
let live_counter = Atomic.make 0
let domains_spawned () = Atomic.get spawn_counter
let domains_joined () = Atomic.get join_counter
let live_domains () = Atomic.get live_counter
let unjoined_domains () = domains_spawned () - domains_joined ()

(* Producers are scheduler tasks, not dedicated domains: the counters keep
   their historical names but count tasks submitted to [sched].  Under a
   pool scheduler many tasks share a few worker domains; under
   [Sched.dedicated] each task still gets its own domain. *)
let spawn_task sched body =
  Atomic.incr spawn_counter;
  Atomic.incr live_counter;
  Sched.fork sched (fun () ->
      Fun.protect ~finally:(fun () -> Atomic.decr live_counter) body)

(* Await, absorbing the task's exception: producer failures reach the
   consumer through port poisoning, never through join — a raising join
   would abort teardown half-way and leak the remaining tasks. *)
let join_quiet task =
  ignore (Sched.await task : (unit, exn) result);
  Atomic.incr join_counter

let instantiate_partition spec ~consumers =
  match spec with
  | Round_robin -> Support.Partition.round_robin ~consumers ()
  | Hash_on cols -> Support.Partition.hash ~consumers ~on:cols ()
  | Range_on (col, bounds) ->
      Support.Partition.range ~consumers ~on:col ~bounds ()
  | Custom factory ->
      let f = factory () in
      fun tuple -> ((f tuple mod consumers) + consumers) mod consumers
  | Broadcast -> fun _ -> 0 (* not used; producers replicate explicitly *)

(* ------------------------------------------------------------------ *)
(* Producer side                                                       *)

(* What a producer drives: the subtree below the exchange, compiled either
   to a record iterator or — when the whole subtree fused into a batch
   pipeline — to a batch iterator whose packets the producer drains into
   port packets in a tight loop, with no per-record closure hop. *)
type producer_source = Record_source of Iterator.t | Batch_source of Batch.t

(* A producer task drives a local subtree, or forwards one remote
   producer's packet stream from its transport source. *)
type drive =
  | Subtree of producer_source
  | Transport_source of Port.Transport.source

(* The producer half of exchange: "the driver for the query tree below the
   exchange operator" (section 4.1).  Runs in a forked task.
   [closer_slot] exposes the subtree to the failure handler so it can be
   closed (and its buffer fixes released) when the producer dies
   mid-stream. *)
let run_producer_inner cfg faults port close_allowed group closer_slot input =
  let rank = Group.rank group in
  let source = input group in
  let consumers = Port.consumers port in
  (* Packets come from the lane pool: in steady state each refill reuses
     an array the consumer drained and recycled moments ago. *)
  let fresh consumer =
    Port.alloc port ~producer:rank ~consumer ~capacity:cfg.packet_size
  in
  let packets = Array.init consumers fresh in
  let flush consumer ~eos =
    let packet = packets.(consumer) in
    if eos then Packet.tag_end_of_stream packet;
    if eos || not (Packet.is_empty packet) then
      Port.send port ~producer:rank ~consumer packet;
    (* The end-of-stream flush is the last touch of this slot; skipping
       its refill keeps the pool ledger exact (allocations + reuses =
       packets sent on a full drain). *)
    if not eos then packets.(consumer) <- fresh consumer
  in
  let deliver consumer tuple =
    let packet = packets.(consumer) in
    Packet.add packet tuple;
    if Packet.is_full packet then flush consumer ~eos:false
  in
  let partition = instantiate_partition cfg.partition ~consumers in
  (* Hoisted: the injector does nothing without rules, and this check
     runs once per record. *)
  let faults_live = not (Injector.is_none faults) in
  (match source with
  | Subtree (Record_source iter) ->
      closer_slot := Some (fun () -> Iterator.close iter);
      Iterator.open_ iter;
      let rec drive () =
        if Port.is_shut_down port then ()
        else
          match Iterator.next iter with
          | None -> ()
          | Some tuple ->
              if faults_live then
                Injector.hit faults (Volcano_fault.Producer rank);
              (match cfg.partition with
              | Broadcast ->
                  (* Replicate to all consumers.  Tuples are immutable and
                     shared by reference — the analogue of pinning the
                     record once per consumer rather than copying it
                     (section 4.4). *)
                  for consumer = 0 to consumers - 1 do
                    deliver consumer tuple
                  done
              | Round_robin | Hash_on _ | Range_on _ | Custom _ ->
                  deliver (partition tuple) tuple);
              drive ()
      in
      drive ()
  | Subtree (Batch_source batches) ->
      closer_slot := Some (fun () -> Batch.close batches);
      Batch.open_ batches;
      (* The batch drive loop: one [Batch.next] per packet of records,
         then a tight for-loop routing records into port packets — the
         per-record [Iterator.next] closure hop is gone.  The shutdown
         check runs per batch (at most one batch of records is routed
         into dropped sends after a shutdown). *)
      let rec drive () =
        if Port.is_shut_down port then ()
        else
          match Batch.next batches with
          | None -> ()
          | Some batch ->
              let n = Packet.length batch in
              (match cfg.partition with
              | Broadcast ->
                  for i = 0 to n - 1 do
                    if faults_live then
                      Injector.hit faults (Volcano_fault.Producer rank);
                    let tuple = Packet.get batch i in
                    for consumer = 0 to consumers - 1 do
                      deliver consumer tuple
                    done
                  done
              | Round_robin | Hash_on _ | Range_on _ | Custom _ ->
                  for i = 0 to n - 1 do
                    if faults_live then
                      Injector.hit faults (Volcano_fault.Producer rank);
                    let tuple = Packet.get batch i in
                    deliver (partition tuple) tuple
                  done);
              drive ()
      in
      drive ()
  | Transport_source src ->
      (* A remote producer already ran the subtree, and on a repartitioning
         edge the partition function too: forward its packets whole.  A
         [Data] packet may go to any consumer (round-robin); a [Routed]
         one is pinned to its destination.  Backpressure is end-to-end: a
         full lane ring blocks the send, the pulls stop, and the kernel
         socket buffer pushes back on the worker's writes. *)
      let next_consumer = ref 0 in
      let alloc ~capacity =
        Port.alloc port ~producer:rank ~consumer:!next_consumer ~capacity
      in
      let forward consumer packet =
        Port.send port ~producer:rank ~consumer:(consumer mod consumers) packet
      in
      let rec drive () =
        if not (Port.is_shut_down port) then
          match src.pull ~alloc with
          | Port.Transport.Data packet ->
              let consumer = !next_consumer in
              next_consumer := (consumer + 1) mod consumers;
              forward consumer packet;
              drive ()
          | Port.Transport.Routed (dest, packet) ->
              forward dest packet;
              drive ()
          | Port.Transport.Eos -> ()
          | Port.Transport.Failed origin ->
              raise
                (as_query_failed
                   ~fallback:(Printf.sprintf "net-worker-%d" rank)
                   origin)
      in
      drive ());
  (* Flag the last packet to every consumer with the end-of-stream tag. *)
  if not (Port.is_shut_down port) then
    for consumer = 0 to consumers - 1 do
      flush consumer ~eos:true
    done;
  (* "waits until the consumer allows closing all open files" — records may
     still be in flight or pinned by consumers (section 4.1).  The gate is
     a broadcast event: waiting suspends a pooled producer instead of
     occupying its worker domain. *)
  Sched.Event.wait close_allowed;
  closer_slot := None;
  match source with
  | Subtree (Record_source iter) -> Iterator.close iter
  | Subtree (Batch_source batches) -> Batch.close batches
  | Transport_source _ -> ()

(* A producer that dies must not hang or silently truncate the query:
   poison the port — recording the cause, waking blocked consumers
   immediately and cancelling sibling producers and descendant ports via
   the shutdown chain — then close the subtree to release its resources.
   The consumer re-raises the cause from its [next] as [Query_failed]. *)
let run_producer cfg faults port close_allowed group input =
  let closer_slot = ref None in
  try
    (* Fires at the very start of the scheduled task, before the subtree
       even opens — a failure here must still poison the port. *)
    Injector.hit faults Volcano_fault.Sched_task;
    run_producer_inner cfg faults port close_allowed group closer_slot input
  with exn ->
    Port.poison port exn;
    (* Siblings may be blocked in [Group.lookup_port] for a nested port
       this rank was about to publish (its open died first); nothing else
       would ever wake them.  Poison first so the consumer reports the
       original failure, not the siblings' [Group.Cancelled]. *)
    Group.cancel group;
    (match !closer_slot with
    | Some close_subtree -> ( try close_subtree () with _ -> ())
    | None -> ());
    raise exn

(* children_of r: ranks this producer forks in the propagation-tree scheme
   (section 4.2): in round k the processes with rank < 2^k fork rank + 2^k. *)
let children_of rank size =
  let rec collect k acc =
    let stride = 1 lsl k in
    if rank + stride >= size then List.rev acc
    else if stride > rank then collect (k + 1) ((rank + stride) :: acc)
    else collect (k + 1) acc
  in
  collect 0 []

module For_testing = struct
  let children_of = children_of
end

(* Fork the producer group as scheduler tasks; returns a function that
   joins all of it.  The joiner awaits every task and never raises: a
   failed producer already reported through the poisoned port. *)
let spawn_producers sched cfg faults port close_allowed input =
  let shared = Group.make_shared ~size:cfg.degree in
  let run rank =
    run_producer cfg faults port close_allowed (Group.attach shared ~rank) input
  in
  match cfg.fork_mode with
  | Fork_central ->
      let tasks =
        List.init cfg.degree (fun rank ->
            spawn_task sched (fun () -> run rank))
      in
      fun () -> List.iter join_quiet tasks
  | Fork_tree ->
      let rec subtree rank () =
        let spawned =
          List.map
            (fun child -> spawn_task sched (subtree child))
            (children_of rank cfg.degree)
        in
        (* Join the forked children even when this rank dies, or their
           tasks would leak on a mid-tree failure. *)
        Fun.protect
          ~finally:(fun () -> List.iter join_quiet spawned)
          (fun () -> run rank)
      in
      let root = spawn_task sched (subtree 0) in
      fun () -> join_quiet root

(* ------------------------------------------------------------------ *)
(* Consumer side                                                       *)

(* Who feeds an exchange's port: local producer tasks forked on a
   scheduler, each driving its own copy of the subtree, or remote
   producers behind transport sources that [connect] establishes. *)
type producers =
  | Tasks of Sched.t * (Group.t -> producer_source)
  | Transport of (unit -> Port.Transport.source array)

(* The exchange's obs sample: its port's counters plus its producer
   group's spawn and join clocks ([join_s] accumulates over the run). *)
let register_sample (sink, node) port ~domains ~spawn_s ~join_s =
  Obs.register_exchange sink ~node ~sample:(fun () ->
      {
        Obs.packets_sent = Port.packets_sent port;
        packets_received = Port.packets_received port;
        records = Port.records_sent port;
        max_queue_depth = Port.max_depth port;
        flow_waits = Port.flow_stalls port;
        flow_wait_s = Port.flow_stall_s port;
        per_producer = Port.packets_sent_by port;
        pool_allocated = Port.pool_allocated port;
        pool_reused = Port.pool_reused port;
        pool_recycled = Port.pool_recycled port;
        spawn_s;
        join_s = !join_s;
        domains;
      })

(* The group master creates the port, forks the producers and publishes
   the port; other members attach to it.  Returns the port and this
   member's teardown, which is a no-op except on the master. *)
let setup_consumer ?(keep_separate = false) ~faults ?parent_scope ?scope ?obs
    cfg ~id ~group producers =
  if not (Group.is_master group) then
    (Group.lookup_port group ~key:id, fun ~finished:_ -> ())
  else begin
    let sched, cfg, input, sources =
      match producers with
      | Tasks (sched, input) ->
          (sched, cfg, (fun g -> Subtree (input g)), [||])
      | Transport connect ->
          let sources =
            (* A refused connection is the same single error a producer
               dying at fork time is. *)
            try connect ()
            with exn -> raise (as_query_failed ~fallback:"net-connect" exn)
          in
          if Array.length sources = 0 then
            invalid_arg
              "Exchange.remote_iterator: connect returned no sources";
          (* One producer task per source, each on its own dedicated
             domain: a pull blocks in a socket read, which must never
             occupy a pool worker. *)
          ( Sched.dedicated (),
            {
              cfg with
              degree = Array.length sources;
              fork_mode = Fork_central;
            },
            (fun g -> Transport_source sources.(Group.rank g)),
            sources )
    in
    let each_source f =
      Array.iter
        (fun (s : Port.Transport.source) -> try f s with _ -> ())
        sources
    in
    let on_shutdown () =
      (* Cancellation chaining, across the machine boundary too: shutting
         this port stops the remote producers (best-effort cancel frames
         and closed sockets) exactly as it cancels descendant ports. *)
      each_source (fun s -> s.cancel ());
      Option.iter Scope.cancel scope
    in
    let port =
      Port.create ~producers:cfg.degree ~consumers:(Group.size group)
        ?flow_slack:cfg.flow_slack ~keep_separate ~faults ~on_shutdown
        ~timed:(Option.is_some obs) ()
    in
    Option.iter (fun s -> Scope.register s port) parent_scope;
    let close_allowed = Sched.Event.create () in
    let spawn_t0 = if Option.is_some obs then Obs.now () else 0.0 in
    let join_tasks =
      spawn_producers sched cfg faults port close_allowed input
    in
    (* Joining a transport source reaps its worker process. *)
    let join () =
      join_tasks ();
      each_source (fun s -> s.join ())
    in
    let join =
      match obs with
      | None -> join
      | Some obs ->
          let join_s = ref 0.0 in
          register_sample obs port ~domains:cfg.degree
            ~spawn_s:(Obs.now () -. spawn_t0) ~join_s;
          fun () ->
            let t0 = Obs.now () in
            join ();
            join_s := !join_s +. (Obs.now () -. t0)
    in
    Group.publish_port group ~key:id port;
    let teardown ~finished =
      (* Early close: cancel the producers.  The shutdown releases any
         flow-control slack they are blocked on and (via the shutdown
         chain) cancels every descendant port — a producer stuck in a
         deeper receive must observe the cancellation too.  After a
         normal end-of-stream the port must NOT be shut: sibling consumers
         may still be draining their queues, and producers stop sending
         the moment they see the port down. *)
      if not finished then Port.shutdown port;
      Sched.Event.fire close_allowed;
      join ()
    in
    (port, teardown)
  end

type consumer_state = {
  port : Port.t;
  recv : unit -> Packet.t option;
  (* receive and recycle are built once at open: [next] runs per record
     and must not allocate fresh closures on every call *)
  recy : Packet.t -> unit;
  eos_needed : int; (* every producer's tag, or 1 for a keep-separate stream *)
  mutable current : Packet.t option;
  mutable pos : int;
  mutable eos_tags : int;
  mutable finished : bool;
}

let consumer_state port ~consumer ~eos_needed recv =
  {
    port;
    recv;
    recy = Port.recycle port ~consumer;
    eos_needed;
    current = None;
    pos = 0;
    eos_tags = 0;
    finished = false;
  }

let consume_packets state =
  let rec step () =
    match state.current with
    | Some packet when state.pos < Packet.length packet ->
        let tuple = Packet.get packet state.pos in
        state.pos <- state.pos + 1;
        Some tuple
    | Some packet ->
        if Packet.end_of_stream packet then
          state.eos_tags <- state.eos_tags + 1;
        state.current <- None;
        (* Drained: hand the packet back to its lane's pool.  All tuples
           were already yielded by reference, so only the array shell is
           reused. *)
        state.recy packet;
        step ()
    | None ->
        if state.finished then None
        else if state.eos_tags >= state.eos_needed then begin
          state.finished <- true;
          None
        end
        else (
          match state.recv () with
          | Some packet ->
              state.current <- Some packet;
              state.pos <- 0;
              step ()
          | None ->
              (* Port shut down: either cancellation (stream just ends) or
                 a poisoned port — then the producer's failure surfaces
                 here, as a single well-typed exception. *)
              state.finished <- true;
              (match Port.failure state.port with
              | Some origin ->
                  raise (as_query_failed ~fallback:"producer" origin)
              | None -> None))
  in
  step ()

(* A consumer-side failure (e.g. an injected receive fault) must also
   cancel the producers, not leave them pumping into a dead port. *)
let next state =
  match consume_packets state with
  | result -> result
  | exception exn ->
      state.finished <- true;
      Port.poison state.port exn;
      raise (as_query_failed ~fallback:"consumer" exn)

(* One consumer's iterator.  [close] receives the open state, or [None]:
   failing operators close their inputs best-effort while unwinding, so a
   close may come without a successful open. *)
let consumer_iterator ~what ~open_ ~close =
  let state = ref None in
  Iterator.make
    ~open_:(fun () -> state := Some (open_ ()))
    ~next:(fun () ->
      match !state with
      | Some s -> next s
      | None -> invalid_arg ("Exchange." ^ what ^ ": not open"))
    ~close:(fun () ->
      let s = !state in
      state := None;
      close s)

let exchange_iterator ?id ?(faults = Injector.none) ?parent_scope ?scope ?obs
    cfg ~group ~what producers =
  let id = match id with Some i -> i | None -> fresh_id () in
  let teardown = ref (fun ~finished:_ -> ()) in
  consumer_iterator ~what
    ~open_:(fun () ->
      let port, down =
        setup_consumer ~faults ?parent_scope ?scope ?obs cfg ~id ~group
          producers
      in
      teardown := down;
      let consumer = Group.rank group in
      consumer_state port ~consumer ~eos_needed:(Port.producers port)
        (fun () -> Port.receive port ~consumer))
    ~close:(Option.iter (fun s -> !teardown ~finished:s.finished))

let source_iterator ?id ?faults ?parent_scope ?scope ?obs ?sched cfg ~group
    ~input =
  let sched = match sched with Some s -> s | None -> Sched.default () in
  exchange_iterator ?id ?faults ?parent_scope ?scope ?obs cfg ~group
    ~what:"iterator"
    (Tasks (sched, input))

let iterator ?id ?faults ?parent_scope ?scope ?obs ?sched cfg ~group ~input =
  source_iterator ?id ?faults ?parent_scope ?scope ?obs ?sched cfg ~group
    ~input:(fun producer_group -> Record_source (input producer_group))

(* Remote exchange: the same consumer, with producer tasks forwarding
   from transport sources instead of driving a local subtree. *)
let remote_iterator ?id ?faults ?parent_scope ?scope ?obs cfg ~group ~connect
    =
  exchange_iterator ?id ?faults ?parent_scope ?scope ?obs cfg ~group
    ~what:"remote_iterator" (Transport connect)

(* Keep-separate variant: one stream per producer, so that "the merge
   iterator [can] distinguish the input records by their producer"
   (section 4.4).  The streams share setup and teardown via refcounts. *)
let producer_streams ?id ?(faults = Injector.none) ?parent_scope ?scope ?obs
    ?sched cfg ~group ~input =
  let id = match id with Some i -> i | None -> fresh_id () in
  let sched = match sched with Some s -> s | None -> Sched.default () in
  let shared = ref None in
  let open_count = ref 0 in
  let close_count = ref 0 in
  let lock = Mutex.create () in
  let ready = Sched.Event.create () in
  (* [setup_consumer] can suspend the calling fiber (a non-master rank
     waits for the master's port publication), so it must run OUTSIDE
     [lock]: a suspension would unwind the fiber off its worker with the
     pthread mutex still owned by that worker thread — later lockers
     would deadlock against an idle worker, and the resumed fiber would
     unlock from the wrong thread.  The counter mutex therefore only
     elects the first opener; racers park on [ready] instead.  (In
     practice all [degree] streams are opened by the one consumer fiber
     that merges them, so the wait is never exercised — this is
     belt-and-braces for exotic callers.) *)
  let ensure_open () =
    Mutex.lock lock;
    let first = !open_count = 0 in
    incr open_count;
    Mutex.unlock lock;
    if first then
      Fun.protect
        ~finally:(fun () -> Sched.Event.fire ready)
        (fun () ->
          shared :=
            Some
              (setup_consumer ~keep_separate:true ~faults ?parent_scope ?scope
                 ?obs cfg ~id ~group
                 (Tasks
                    (sched, fun producer_group ->
                      Record_source (input producer_group)))))
    else begin
      Sched.Event.wait ready;
      if Option.is_none !shared then
        failwith "Exchange.producer_streams: shared setup failed"
    end
  in
  let finished = Array.make cfg.degree false in
  let release () =
    Mutex.lock lock;
    incr close_count;
    let last = !close_count = cfg.degree in
    Mutex.unlock lock;
    if last then
      match !shared with
      | Some (_, teardown) ->
          teardown ~finished:(Array.for_all Fun.id finished);
          shared := None
      | None -> ()
  in
  Array.init cfg.degree (fun producer ->
      consumer_iterator ~what:"producer_streams"
        ~open_:(fun () ->
          ensure_open ();
          let port =
            match !shared with Some (port, _) -> port | None -> assert false
          in
          let consumer = Group.rank group in
          (* Exactly one end-of-stream tag arrives on this queue. *)
          consumer_state port ~consumer ~eos_needed:1 (fun () ->
              Port.receive_from port ~producer ~consumer))
        ~close:(fun s ->
          Option.iter (fun s -> finished.(producer) <- s.finished) s;
          release ()))

(* ------------------------------------------------------------------ *)
(* No-fork interchange (section 4.4)                                   *)

let interchange ?id ?(faults = Injector.none) ?parent_scope ?scope ?obs cfg
    ~group ~input =
  let id = match id with Some i -> i | None -> fresh_id () in
  let rank = Group.rank group in
  let size = Group.size group in
  let state = ref None in
  let input_done = ref false in
  let packets = ref [||] in
  let partition = ref (fun _ -> 0) in
  Iterator.make
    ~open_:(fun () ->
      let port =
        if Group.is_master group then begin
          (* Flow control is pointless here: a process produces only when
             it has nothing to consume. *)
          let port =
            Port.create ~producers:size ~consumers:size ~keep_separate:false
              ~faults
              ~on_shutdown:(fun () -> Option.iter Scope.cancel scope)
              ~timed:(Option.is_some obs) ()
          in
          Option.iter (fun s -> Scope.register s port) parent_scope;
          (* No processes are forked here: spawn/join are zero and
             [domains] reports 0 by construction. *)
          Option.iter
            (fun obs ->
              register_sample obs port ~domains:0 ~spawn_s:0.0
                ~join_s:(ref 0.0))
            obs;
          Group.publish_port group ~key:id port;
          port
        end
        else Group.lookup_port group ~key:id
      in
      Iterator.open_ input;
      input_done := false;
      packets :=
        Array.init size (fun consumer ->
            Port.alloc port ~producer:rank ~consumer
              ~capacity:cfg.packet_size);
      (partition :=
         match cfg.partition with
         | Broadcast ->
             invalid_arg "Exchange.interchange: broadcast not supported"
         | spec -> instantiate_partition spec ~consumers:size);
      state :=
        Some
          (consumer_state port ~consumer:rank ~eos_needed:size (fun () ->
               Port.receive port ~consumer:rank)))
    ~next:(fun () ->
      match !state with
      | None -> invalid_arg "Exchange.interchange: not open"
      | Some s -> (
          let flush consumer ~eos =
            let packet = !packets.(consumer) in
            if eos then Packet.tag_end_of_stream packet;
            if eos || not (Packet.is_empty packet) then
              Port.send s.port ~producer:rank ~consumer packet;
            if not eos then
              !packets.(consumer) <-
                Port.alloc s.port ~producer:rank ~consumer
                  ~capacity:cfg.packet_size
          in
          let rec step () =
            match s.current with
            | Some packet when s.pos < Packet.length packet ->
                let tuple = Packet.get packet s.pos in
                s.pos <- s.pos + 1;
                Some tuple
            | Some packet ->
                if Packet.end_of_stream packet then
                  s.eos_tags <- s.eos_tags + 1;
                s.current <- None;
                s.recy packet;
                step ()
            | None ->
                if s.finished then None
                else if Port.is_shut_down s.port then begin
                  (* Cancellation or a peer's failure: stop driving the
                     input — routed sends are dropped anyway, so an
                     unbounded input would spin here forever. *)
                  s.finished <- true;
                  match Port.failure s.port with
                  | Some origin ->
                      raise (as_query_failed ~fallback:"interchange" origin)
                  | None -> None
                end
                else if s.eos_tags >= s.eos_needed then begin
                  s.finished <- true;
                  None
                end
                else (
                  (* Prefer packets already queued for this process. *)
                  match Port.try_receive s.port ~consumer:rank with
                  | Some packet ->
                      s.current <- Some packet;
                      s.pos <- 0;
                      step ()
                  | None ->
                      if not !input_done then (
                        (* Run the producer: pull own input, route records,
                           and return as soon as one lands here. *)
                        match Iterator.next input with
                        | Some tuple ->
                            let consumer = !partition tuple in
                            if consumer = rank then Some tuple
                            else begin
                              Packet.add !packets.(consumer) tuple;
                              if Packet.is_full !packets.(consumer) then
                                flush consumer ~eos:false;
                              step ()
                            end
                        | None ->
                            input_done := true;
                            for consumer = 0 to size - 1 do
                              flush consumer ~eos:true
                            done;
                            step ())
                      else (
                        match Port.receive s.port ~consumer:rank with
                        | Some packet ->
                            s.current <- Some packet;
                            s.pos <- 0;
                            step ()
                        | None ->
                            s.finished <- true;
                            (match Port.failure s.port with
                            | Some origin ->
                                raise
                                  (as_query_failed ~fallback:"interchange"
                                     origin)
                            | None -> None)))
          in
          match step () with
          | result -> result
          | exception exn ->
              (* Every member is a producer here: a member whose input dies
                 must poison the shared port or its peers would block
                 forever waiting for this member's packets. *)
              s.finished <- true;
              Port.poison s.port exn;
              raise (as_query_failed ~fallback:"interchange" exn)))
    ~close:(fun () ->
      (match !state with
      | Some s ->
          (* Any member closing an unfinished interchange cancels the whole
             group: peers block on each other's packets, so a silent
             departure — master or not — would strand them. *)
          if not s.finished then Port.shutdown s.port
      | None -> ());
      Iterator.close input;
      state := None)
