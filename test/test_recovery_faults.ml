(* Recovery under fire: crashes at the five recovery crash points,
   partitions across the recovery exchanges, and deferred-page parking
   when a required peer stays down.  The scenarios mirror E12's shape
   (every node increments every page, the owner last, so its crash
   leaves no live cached copy and real multi-node redo must run) and
   assert convergence against a fault-free control run of the same
   workload. *)

module Rng = Repro_util.Rng
module Fault_plan = Repro_fault.Fault_plan
module Injector = Repro_fault.Injector
module Config = Repro_sim.Config
module Metrics = Repro_sim.Metrics
module Page_id = Repro_storage.Page_id
module Cluster = Repro_cbl.Cluster
module Node = Repro_cbl.Node
module Node_state = Repro_cbl.Node_state
module Block = Repro_cbl.Block
module Recovery = Repro_cbl.Recovery
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Env = Repro_sim.Env
module Event = Repro_obs.Event
module Recorder = Repro_obs.Recorder

let recovery_points ?(budget = 0) p =
  Fault_plan.crashpoints ~budget
    (List.filter_map
       (fun pt -> if Fault_plan.is_recovery pt then Some (pt, p) else None)
       Fault_plan.points)

(* Every node increments every page once, owner 0 committing last: after
   crashing 0 (and optionally 2) the current copies live nowhere and the
   owner must rebuild them from the peers' NodePSNList claims. *)
let seed_workload cluster pages =
  let engine = Engine.of_cluster cluster in
  List.iter
    (fun node ->
      let txn = engine.Engine.begin_txn ~node in
      List.iter (fun pid -> engine.Engine.update_delta ~txn ~pid ~off:0 1L) pages;
      engine.Engine.commit ~txn)
    [ 1; 2; 3; 0 ]

(* Re-enter recovery until every non-deferred node is up.  An attempt
   aborted by a recovery crash point leaves its nodes down (and can fell
   an operational claimant mid-completion), so each round recovers the
   whole current down set.  The injector's crash budget bounds the
   retries; the cap turns a livelock into a loud failure. *)
let recover_until_done ?(defer = []) cluster =
  let rec go attempts =
    if attempts > 50 then Alcotest.fail "recovery did not converge in 50 attempts";
    match
      List.filter
        (fun n -> (not (Node.is_up (Cluster.node cluster n))) && not (List.mem n defer))
        [ 0; 1; 2; 3 ]
    with
    | [] -> ()
    | down ->
      (try Cluster.recover cluster ~defer ~nodes:down
       with Block.Would_block _ -> ());
      go (attempts + 1)
  in
  go 0

let read_all cluster pages ~node =
  let engine = Engine.of_cluster cluster in
  let txn = engine.Engine.begin_txn ~node in
  let vs = List.map (fun pid -> engine.Engine.read_cell ~txn ~pid ~off:0) pages in
  engine.Engine.commit ~txn;
  vs

(* Run the E12-shaped scenario under [plan]; crash nodes 0 and 2, then
   recover until converged and return the final cell values. *)
let run_crash_scenario plan =
  let faults = Injector.create plan in
  let cluster = Cluster.create ~seed:29 ~faults ~nodes:4 (Config.with_page_size Config.default 512) in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:6 in
  seed_workload cluster pages;
  Cluster.crash cluster ~node:0;
  Cluster.crash cluster ~node:2;
  recover_until_done cluster;
  let vs = read_all cluster pages ~node:3 in
  Cluster.check_invariants cluster;
  (cluster, vs)

let test_double_crash_during_recovery () =
  (* A crash budget of 2 with hot recovery crash points: the first
     recovery attempt dies mid-protocol, the re-entered attempt can die
     again, and the third must converge to exactly the state a
     fault-free recovery reaches. *)
  let control = snd (run_crash_scenario Fault_plan.none) in
  let plan =
    { Fault_plan.none with Fault_plan.seed = 903; crashpoints = recovery_points ~budget:2 0.3 }
  in
  let cluster, faulted = run_crash_scenario plan in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool) "crashes were injected mid-recovery" true (g.Metrics.injected_crashes >= 1);
  Alcotest.(check bool) "aborted attempts were re-entered" true (g.Metrics.recovery_restarts >= 1);
  Alcotest.(check (list int64)) "converged to the fault-free state" control faulted

let test_redo_retry_bit_identical () =
  (* Partitions and drops armed only for the recovery window: the
     NodePSNList exchanges must retry their way through (bounded
     backoff), and the recovered state must be bit-identical to a
     fault-free recovery of the same workload.  A zero crash budget
     keeps the injector live through recovery without ever felling a
     node, isolating the message-fault path. *)
  let control = snd (run_crash_scenario Fault_plan.none) in
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 907;
      net =
        {
          Fault_plan.drop = 0.3;
          max_drops = 8;
          dup = 0.2;
          delay = 0.;
          max_delay = 0.;
          rto = 0.01;
          (* partitions shorter than the exchange retry budget: every
             exchange backs off through them, none aborts the attempt *)
          partition = 0.15;
          max_partition = 5;
        };
      (* a non-zero recovery probability keeps the injector live during
         recovery (DESIGN.md §13); budget 0 means no crash ever fires *)
      crashpoints = recovery_points ~budget:0 0.5;
    }
  in
  let faults = Injector.create plan in
  (* the workload itself runs fault-free: only recovery sees the faults *)
  Injector.set_armed faults false;
  let cluster = Cluster.create ~seed:29 ~faults ~nodes:4 (Config.with_page_size Config.default 512) in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:6 in
  seed_workload cluster pages;
  Cluster.crash cluster ~node:0;
  Cluster.crash cluster ~node:2;
  Injector.set_armed faults true;
  recover_until_done cluster;
  Injector.set_armed faults false;
  let g = Cluster.global_metrics cluster in
  Alcotest.(check int) "no crashes injected (budget 0)" 0 g.Metrics.injected_crashes;
  Alcotest.(check bool) "message faults actually hit recovery" true
    (g.Metrics.recovery_retries > 0 || g.Metrics.net_msgs_dropped > 0);
  let faulted = read_all cluster pages ~node:3 in
  Cluster.check_invariants cluster;
  Alcotest.(check (list int64)) "bit-identical to the fault-free recovery" control faulted

let test_deferred_pages_complete_on_peer_restart () =
  (* No injector: the defer path alone.  Node 2's committed increments
     sit between node 1's and node 0's in every page's PSN order, so
     recovering node 0 without node 2 meets a redo gap on every page and
     must park it (blocker = 2) rather than fail.  Parked pages answer
     with the retryable [Page_unavailable]; recovering node 2 completes
     them and the full values surface. *)
  let cluster = Cluster.create ~seed:31 ~nodes:4 (Config.with_page_size Config.default 512) in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:4 in
  seed_workload cluster pages;
  Cluster.crash cluster ~node:0;
  Cluster.crash cluster ~node:2;
  let before = Metrics.snapshot (Cluster.global_metrics cluster) in
  Cluster.recover cluster ~defer:[ 2 ] ~nodes:[ 0 ];
  let owner = Cluster.node cluster 0 in
  let parked = Page_id.Tbl.length owner.Node_state.deferred_pages in
  Alcotest.(check int) "every page parked on the deferred peer" (List.length pages) parked;
  let d = Metrics.diff ~after:(Cluster.global_metrics cluster) ~before in
  Alcotest.(check int) "parked metric counts them" (List.length pages)
    d.Metrics.recovery_deferred_pages;
  (* access to a parked page surfaces the retryable block, naming the
     node whose recovery will clear it *)
  let engine = Engine.of_cluster cluster in
  let txn = engine.Engine.begin_txn ~node:1 in
  (match engine.Engine.read_cell ~txn ~pid:(List.hd pages) ~off:0 with
  | _ -> Alcotest.fail "expected Page_unavailable on a parked page"
  | exception Block.Would_block (Block.Page_unavailable { blocker; _ }) ->
    Alcotest.(check int) "blocked on the deferred peer" 2 blocker);
  Cluster.abort cluster ~txn;
  (* the deferred peer returns: its recovery completes the parked pages *)
  Cluster.recover cluster ~nodes:[ 2 ];
  Alcotest.(check int) "parked set drained" 0 (Page_id.Tbl.length owner.Node_state.deferred_pages);
  let d = Metrics.diff ~after:(Cluster.global_metrics cluster) ~before in
  Alcotest.(check int) "completions counted" (List.length pages)
    d.Metrics.recovery_deferred_completed;
  Alcotest.(check (list int64)) "every increment surfaced"
    (List.map (fun _ -> 4L) pages)
    (read_all cluster pages ~node:1);
  Cluster.check_invariants cluster

(* ---- Every crash point fires ---- *)

(* Each crash point is probed at one or more sites; this test is what
   keeps every site reachable.  For every point, each workload below
   that names it runs under a plan arming that point alone (probability
   1, budget 1) and must fire exactly one [fault.crash], naming the
   point.  A point no workload names fails the test, and so does any
   single probe site deleted from the protocol code. *)

let arm_only point =
  Injector.create
    {
      Fault_plan.none with
      Fault_plan.seed = 5;
      crashpoints = Fault_plan.crashpoints ~budget:1 [ (point, 1.0) ];
    }

let attempt f = try f () with Block.Would_block _ -> ()

(* Two nodes, node 0 owning the pages, two-frame pools: node 1 writing
   three of node 0's pages must evict and ship a dirty one. *)
let two_nodes ?(config = Config.instant) faults =
  let cluster = Cluster.create ~trace:true ~seed:3 ~faults ~nodes:2 ~pool_capacity:2 config in
  (cluster, Cluster.allocate_pages cluster ~owner:0 ~count:3)

let update_all cluster ~txn pages =
  List.iter (fun pid -> Cluster.update_delta cluster ~txn ~pid ~off:0 1L) pages

let commit faults =
  let cluster, pages = two_nodes faults in
  let txn = Cluster.begin_txn cluster ~node:0 in
  update_all cluster ~txn [ List.hd pages ];
  attempt (fun () -> Cluster.commit cluster ~txn);
  cluster

(* The batch force's own probe: the commit is submitted with the
   injector off, so only the timer-driven force can fire. *)
let batch_force faults =
  let config = Config.with_group_commit Config.instant ~window_ms:5. ~max_batch:8 in
  let cluster, pages = two_nodes ~config faults in
  Injector.set_armed faults false;
  let txn = Cluster.begin_txn cluster ~node:0 in
  update_all cluster ~txn [ List.hd pages ];
  Cluster.commit cluster ~txn;
  Injector.set_armed faults true;
  ignore (Cluster.pump_group_commit cluster ~idle:true);
  cluster

let checkpoint faults =
  let cluster, pages = two_nodes faults in
  let txn = Cluster.begin_txn cluster ~node:0 in
  update_all cluster ~txn pages;
  attempt (fun () -> Cluster.checkpoint cluster ~node:0);
  cluster

let eviction faults =
  let cluster, pages = two_nodes faults in
  let txn = Cluster.begin_txn cluster ~node:1 in
  attempt (fun () -> update_all cluster ~txn pages);
  cluster

let abort faults =
  let cluster, pages = two_nodes faults in
  let txn = Cluster.begin_txn cluster ~node:0 in
  update_all cluster ~txn pages;
  attempt (fun () -> Cluster.abort cluster ~txn);
  cluster

(* A crash of owner 0 that recovery must repair from the logs: 16
   committed updates to redo (no live copy survives, see
   [seed_workload]) and a loser to undo.  The loser's record is durable
   because node 0's own commit forces the log after it. *)
let crash_and_recover faults =
  let cluster =
    Cluster.create ~trace:true ~seed:29 ~faults ~nodes:4 (Config.with_page_size Config.default 512)
  in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:5 in
  let loser = Cluster.begin_txn cluster ~node:0 in
  update_all cluster ~txn:loser [ List.nth pages 4 ];
  seed_workload cluster (List.filteri (fun i _ -> i < 4) pages);
  Cluster.crash cluster ~node:0;
  recover_until_done cluster;
  Cluster.check_invariants cluster;
  cluster

let workloads =
  [
    (Fault_plan.Commit_force, "commit", commit);
    (Fault_plan.Commit_force, "group-commit batch force", batch_force);
    (Fault_plan.Checkpoint, "checkpoint", checkpoint);
    (Fault_plan.Page_ship, "eviction", eviction);
    (Fault_plan.Rollback, "abort", abort);
  ]
  @ List.filter_map
      (fun p ->
        if Fault_plan.is_recovery p then Some (p, "crash and recovery", crash_and_recover)
        else None)
      Fault_plan.points

let crashes cluster =
  let obs = Env.obs (Cluster.env cluster) in
  Alcotest.(check int) "event ring did not overflow" 0 (Recorder.dropped obs);
  List.filter_map
    (fun (e : Event.t) ->
      match (e.Event.kind, List.assoc_opt "point" e.Event.attrs) with
      | Event.Fault_crash, Some (Event.Str name) -> Some name
      | _ -> None)
    (Recorder.events obs)

let test_every_point_fires () =
  List.iter
    (fun point ->
      let name = Fault_plan.point_name point in
      match List.filter (fun (p, _, _) -> p = point) workloads with
      | [] -> Alcotest.failf "crash point %s: no workload reaches it" name
      | ws ->
        List.iter
          (fun (_, what, run) ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s under %s" name what)
              [ name ]
              (crashes (run (arm_only point))))
          ws)
    Fault_plan.points

(* ---- Regression seeds ---- *)

(* Full randomized stress iterations under the recovery fault class,
   mirroring [cblsim stress --faults recovery]'s construction: random
   topology and workload, scripted crashes, auto-recovery — with the
   injector live through recovery, so the driver's re-entry path (a
   Recover event aborted by a nested crash is rescheduled, not dropped)
   is what converges the run. *)
let stress_iteration seed =
  let rng = Rng.create seed in
  let classes = { Fault_plan.no_classes with Fault_plan.recovery = true } in
  let plan = Fault_plan.generate (Rng.split rng) ~classes in
  let faults = Injector.create plan in
  let nodes = 2 + Rng.int rng 4 in
  let cluster =
    Cluster.create ~seed ~faults ~nodes ~pool_capacity:(8 + Rng.int rng 24) Config.instant
  in
  let owners = List.init (1 + Rng.int rng (min 3 nodes)) (fun i -> i) in
  let pages_by_owner =
    List.map
      (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:(8 + Rng.int rng 16)))
      owners
  in
  let scripts =
    Generators.partitioned rng ~pages_by_owner
      ~clients:(List.init nodes (fun i -> i))
      ~txns_per_client:(4 + Rng.int rng 10)
      ~mix:
        {
          Generators.ops_per_txn = 2 + Rng.int rng 8;
          update_fraction = 0.3 +. Rng.float rng 0.6;
          remote_fraction = Rng.float rng 0.8;
          theta = Rng.float rng 1.0;
          savepoint_fraction = Rng.float rng 0.3;
          abort_fraction = Rng.float rng 0.2;
        }
  in
  let events = ref [] in
  let t = ref 10 in
  let crashed = ref [] in
  for _ = 1 to 1 + Rng.int rng 3 do
    let victim = Rng.int rng nodes in
    if not (List.mem victim !crashed) then begin
      events := (!t, Driver.Crash victim) :: !events;
      crashed := victim :: !crashed;
      t := !t + 5 + Rng.int rng 20;
      if Rng.chance rng 0.6 || List.length !crashed >= 2 then begin
        events := (!t, Driver.Recover !crashed) :: !events;
        crashed := [];
        t := !t + 5 + Rng.int rng 15
      end
    end
  done;
  if !crashed <> [] then events := (!t + 5, Driver.Recover !crashed) :: !events;
  let outcome =
    Driver.run (Engine.of_cluster cluster)
      ~events:(List.sort compare !events)
      ~max_rounds:30_000 ~auto_recover:6 scripts
  in
  (* the end-of-run cleanup can itself die at a recovery crash point;
     re-enter over the (possibly grown) down set like cblsim does *)
  let rec recover_all attempts =
    if attempts > 100 then Alcotest.fail (Printf.sprintf "seed %d: recovery did not converge" seed);
    match
      List.filter (fun n -> not (Node.is_up (Cluster.node cluster n))) (List.init nodes Fun.id)
    with
    | [] -> ()
    | down ->
      (try Cluster.recover cluster ~nodes:down with Block.Would_block _ -> ());
      recover_all (attempts + 1)
  in
  recover_all 0;
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: mid-recovery crashes were injected" seed)
    true
    (g.Metrics.injected_crashes >= 2 && g.Metrics.recovery_restarts >= 2);
  Cluster.check_invariants cluster;
  Alcotest.(check int) (Printf.sprintf "seed %d: no stuck scripts" seed) 0 outcome.Driver.stuck;
  match Driver.verify outcome with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed (String.concat "; " es))

(* Seeds chosen (by scanning) to inject 2–3 crashes at the recovery
   crash points each, so every run exercises the abort/re-enter path
   for real rather than vacuously passing with a quiet schedule. *)
let test_regression_seeds () = List.iter stress_iteration [ 0; 9; 13; 25; 38 ]

let suite =
  [
    ("double crash during recovery converges", `Quick, test_double_crash_during_recovery);
    ("redo retries are bit-identical to fault-free", `Quick, test_redo_retry_bit_identical);
    ( "deferred pages complete on peer restart",
      `Quick,
      test_deferred_pages_complete_on_peer_restart );
    ("every crash point fires exactly once", `Quick, test_every_point_fires);
    ("regression seeds (recovery fault class)", `Slow, test_regression_seeds);
  ]
