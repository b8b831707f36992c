(* Tests for the deterministic fault-injection layer: plan JSON
   round-trips, bit-identical replay (including replay from a dumped
   plan), torn-write recovery, duplicate/reordered ship idempotence,
   partition healing and crash-point schedules.  The regression seeds at
   the bottom replay full randomized stress runs that exposed real bugs
   (partial-batch recovery redo gap; self-crash swallowed inside the
   eviction chain). *)

module Rng = Repro_util.Rng
module Json = Repro_obs.Json
module Recorder = Repro_obs.Recorder
module Fault_plan = Repro_fault.Fault_plan
module Injector = Repro_fault.Injector
module Config = Repro_sim.Config
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Page_id = Repro_storage.Page_id
module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Cluster = Repro_cbl.Cluster
module Node = Repro_cbl.Node
module Recovery = Repro_cbl.Recovery
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators

(* ---- Fault plans ---- *)

let test_classes_of_string () =
  let ok s = match Fault_plan.classes_of_string s with Ok c -> c | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "all" true (ok "all").Fault_plan.crashpoints;
  Alcotest.(check bool) "none quiet" false (ok "none").Fault_plan.net;
  Alcotest.(check bool) "empty quiet" false (ok "").Fault_plan.disk;
  let c = ok "net,disk" in
  Alcotest.(check bool) "net on" true c.Fault_plan.net;
  Alcotest.(check bool) "disk on" true c.Fault_plan.disk;
  Alcotest.(check bool) "crashpoints off" false c.Fault_plan.crashpoints;
  Alcotest.(check bool) "reject junk" true
    (match Fault_plan.classes_of_string "nonsense" with Error _ -> true | Ok _ -> false)

let test_plan_json_roundtrip () =
  for seed = 0 to 9 do
    let plan = Fault_plan.generate (Rng.create seed) ~classes:Fault_plan.all_classes in
    let dumped = Json.to_string (Fault_plan.to_json plan) in
    let reloaded = Result.get_ok (Fault_plan.of_json (Json.of_string dumped)) in
    Alcotest.(check string)
      "json round-trip is lossless" dumped
      (Json.to_string (Fault_plan.to_json reloaded))
  done

let test_plan_json_recovery_fields () =
  (* The five recovery crash-point probabilities must survive the dump
     (what [--dump-plan] writes) with their exact values — a plan that
     silently loses them would replay without recovery faults. *)
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 77;
      crashpoints =
        Fault_plan.(
          crashpoints ~budget:3
            [
              (Recovery_analysis, 0.11);
              (Recovery_redo, 0.22);
              (Recovery_pre_undo, 0.33);
              (Recovery_undo, 0.44);
              (Recovery_checkpoint, 0.55);
            ]);
    }
  in
  let c =
    (Result.get_ok (Fault_plan.of_json (Json.of_string (Json.to_string (Fault_plan.to_json plan)))))
      .Fault_plan.crashpoints
  in
  Alcotest.(check (float 0.)) "analysis" 0.11 (Fault_plan.prob c Fault_plan.Recovery_analysis);
  Alcotest.(check (float 0.)) "redo" 0.22 (Fault_plan.prob c Fault_plan.Recovery_redo);
  Alcotest.(check (float 0.)) "pre-undo" 0.33 (Fault_plan.prob c Fault_plan.Recovery_pre_undo);
  Alcotest.(check (float 0.)) "undo" 0.44 (Fault_plan.prob c Fault_plan.Recovery_undo);
  Alcotest.(check (float 0.)) "checkpoint" 0.55 (Fault_plan.prob c Fault_plan.Recovery_checkpoint);
  Alcotest.(check int) "budget" 3 c.Fault_plan.budget;
  (* generating with the recovery class actually arms them *)
  let gen = Fault_plan.generate (Rng.create 7) ~classes:{ Fault_plan.no_classes with Fault_plan.recovery = true } in
  Alcotest.(check bool) "generated recovery probabilities are live" true
    (Fault_plan.prob gen.Fault_plan.crashpoints Fault_plan.Recovery_analysis > 0.
    && Fault_plan.prob gen.Fault_plan.crashpoints Fault_plan.Recovery_redo > 0.)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let load path =
  match Fault_plan.of_json (Json.of_string (read_file path)) with
  | Ok plan -> plan
  | Error msg -> Alcotest.failf "%s: %s" path msg

let test_plan_json_pinned () =
  (* plans/all.json and plans/recovery.json are [cblsim stress --runs 1
     --dump-plan] outputs under --faults all and --faults recovery;
     plans/pre_recovery.json is all.json without the recovery keys, the
     shape plans had before the recovery class existed. *)
  List.iter
    (fun path ->
      Alcotest.(check string)
        (path ^ " re-prints byte for byte")
        (read_file path)
        (Json.to_string_pretty (Fault_plan.to_json (load path)) ^ "\n"))
    [ "plans/all.json"; "plans/recovery.json" ];
  let old = load "plans/pre_recovery.json" and all = load "plans/all.json" in
  List.iter
    (fun p ->
      let expected =
        if Fault_plan.is_recovery p then 0. else Fault_plan.prob all.Fault_plan.crashpoints p
      in
      Alcotest.(check (float 0.))
        (Fault_plan.point_name p) expected
        (Fault_plan.prob old.Fault_plan.crashpoints p))
    Fault_plan.points;
  Alcotest.(check bool) "everything else as in all.json" true
    (old.Fault_plan.seed = all.Fault_plan.seed
    && old.Fault_plan.net = all.Fault_plan.net
    && old.Fault_plan.disk = all.Fault_plan.disk
    && old.Fault_plan.crashpoints.Fault_plan.budget = all.Fault_plan.crashpoints.Fault_plan.budget)

let test_plan_json_rejects_bad_shapes () =
  (* A misspelled key or a non-number must not silently read as 0: the
     replay would run a different plan than the one dumped. *)
  let text = read_file "plans/all.json" in
  let edit ~from ~into =
    let i =
      let rec find i = if String.sub text i (String.length from) = from then i else find (i + 1) in
      find 0
    in
    String.sub text 0 i ^ into
    ^ String.sub text (i + String.length from) (String.length text - i - String.length from)
  in
  List.iter
    (fun (what, edited, key) ->
      match Fault_plan.of_json (Json.of_string edited) with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error %S names %s" what msg key)
          true
          (String.starts_with ~prefix:key msg))
    [
      ( "misspelled crash point",
        edit ~from:{|"commit_force"|} ~into:{|"comit_force"|},
        "crashpoints.comit_force" );
      ( "string probability",
        edit ~from:{|"page_ship": 0.0021961087603964064|} ~into:{|"page_ship": "0.5"|},
        "crashpoints.page_ship" );
      ("unknown net key", edit ~from:{|"dup"|} ~into:{|"dupe"|}, "net.dupe");
      ( "boolean disk value",
        edit ~from:{|"torn": 0.54133225126775442|} ~into:{|"torn": true|},
        "disk.torn" );
      ( "fractional budget",
        edit ~from:{|"budget": 2|} ~into:{|"budget": 2.5|},
        "crashpoints.budget" );
      ("unknown section", edit ~from:{|"disk"|} ~into:{|"disks"|}, "disks");
    ]

(* ---- Replay determinism ---- *)

(* A small faulted workload with a fixed shape: the only degrees of
   freedom are the fault plan and the workload RNG seed, so two runs
   with equal inputs must be bit-identical. *)
let run_scenario ?(trace = false) ?(config = Config.instant) ~plan seed =
  let rng = Rng.create seed in
  let faults = Injector.create plan in
  let cluster = Cluster.create ~trace ~seed ~faults ~nodes:3 ~pool_capacity:12 config in
  let pages_by_owner =
    List.map (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:6)) [ 0; 1 ]
  in
  let engine = Engine.of_cluster cluster in
  let scripts =
    Generators.partitioned rng ~pages_by_owner ~clients:[ 0; 1; 2 ] ~txns_per_client:6
      ~mix:
        {
          Generators.ops_per_txn = 5;
          update_fraction = 0.6;
          remote_fraction = 0.5;
          theta = 0.;
          savepoint_fraction = 0.2;
          abort_fraction = 0.1;
        }
  in
  let events = [ (8, Driver.Crash 1); (20, Driver.Recover [ 1 ]); (30, Driver.Checkpoint 0) ] in
  let outcome = Driver.run engine ~events ~max_rounds:20_000 ~auto_recover:6 scripts in
  let down = List.filter (fun n -> not (Node.is_up (Cluster.node cluster n))) [ 0; 1; 2 ] in
  if down <> [] then Cluster.recover cluster ~nodes:down;
  Cluster.check_invariants cluster;
  (match Driver.verify outcome with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  Alcotest.(check int) "no stuck scripts" 0 outcome.Driver.stuck;
  (cluster, outcome)

let trace_of cluster =
  let obs = Env.obs (Cluster.env cluster) in
  Alcotest.(check int) "event ring did not overflow" 0 (Recorder.dropped obs);
  Recorder.to_jsonl obs

let mk_plan seed = Fault_plan.generate (Rng.create seed) ~classes:Fault_plan.all_classes

let test_replay_identical () =
  let plan = mk_plan 11 in
  let c1, _ = run_scenario ~trace:true ~plan 11 in
  let c2, _ = run_scenario ~trace:true ~plan 11 in
  let t1 = trace_of c1 and t2 = trace_of c2 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 0);
  Alcotest.(check string) "same plan, same workload: identical trace" t1 t2

let test_replay_from_dumped_plan () =
  let plan = mk_plan 12 in
  (* Dump the plan the way [cblsim stress --dump-plan] does, then replay
     from the parsed dump: the trace must be bit-identical, which is
     what makes the dump a complete repro artefact. *)
  let dumped = Json.to_string_pretty (Fault_plan.to_json plan) in
  let reloaded = Result.get_ok (Fault_plan.of_json (Json.of_string dumped)) in
  let c1, _ = run_scenario ~trace:true ~plan 12 in
  let c2, _ = run_scenario ~trace:true ~plan:reloaded 12 in
  Alcotest.(check string) "replay from dumped plan: identical trace" (trace_of c1) (trace_of c2)

let test_unfaulted_rng_untouched () =
  (* A disarmed injector consumes no randomness: a run with a disarmed
     injector is bit-identical to a run with a quiet plan. *)
  let quiet = { Fault_plan.none with Fault_plan.seed = 99 } in
  let armed_quiet = Injector.create quiet in
  let disarmed = Injector.create (mk_plan 13) in
  Injector.set_armed disarmed false;
  let run faults =
    let rng = Rng.create 13 in
    let cluster = Cluster.create ~trace:true ~seed:13 ~faults ~nodes:3 ~pool_capacity:12 Config.instant in
    let pages_by_owner = [ (0, Cluster.allocate_pages cluster ~owner:0 ~count:6) ] in
    let scripts =
      Generators.partitioned rng ~pages_by_owner ~clients:[ 0; 1; 2 ] ~txns_per_client:5
        ~mix:Generators.default_mix
    in
    let outcome = Driver.run (Engine.of_cluster cluster) ~max_rounds:20_000 scripts in
    (match Driver.verify outcome with
    | Ok () -> ()
    | Error es -> Alcotest.fail (String.concat "; " es));
    trace_of cluster
  in
  Alcotest.(check string) "disarmed injector leaves the run untouched" (run armed_quiet)
    (run disarmed)

(* ---- Torn log writes ---- *)

let test_torn_crash_unit () =
  (* Unit-level: a torn crash never exposes a complete valid record past
     the pre-crash durable boundary, and [seal] restores the all-frames-
     valid invariant. *)
  let torn_plan =
    { Fault_plan.none with Fault_plan.seed = 5; disk = { Fault_plan.torn = 1.0; corrupt = 0.5 } }
  in
  for attempt = 0 to 7 do
    let inj = Injector.create { torn_plan with Fault_plan.seed = attempt } in
    let env = Env.create Config.instant in
    let log = Log_manager.create env (Metrics.create ()) () in
    let append () =
      Log_manager.append log { Record.txn = 1; prev = Lsn.nil; body = Record.Commit }
    in
    for _ = 1 to 4 do
      ignore (append ())
    done;
    Log_manager.force_all log;
    let durable = Log_manager.end_lsn log in
    for _ = 1 to 3 do
      ignore (append ())
    done;
    Log_manager.crash ~faults:inj log;
    let discarded = Log_manager.seal log in
    Alcotest.(check bool) "tore the tail" true ((Injector.stats inj).Injector.torn_crashes = 1);
    Alcotest.(check bool) "sealing trims, never grows" true (discarded >= 0);
    Alcotest.(check bool) "durable prefix survives" true
      (Lsn.compare durable (Log_manager.end_lsn log) <= 0);
    (* Every surviving record must be readable — the scan is the proof
       that no torn frame is left behind. *)
    let records =
      Log_manager.fold log ~from:Lsn.nil ~init:0 (fun n _ _ -> n + 1)
    in
    Alcotest.(check bool) "clean forward scan over survivors" true (records >= 4)
  done

let test_torn_crash_recovery () =
  (* Cluster-level: crash/recover under a disk-faults-only plan; the
     durability oracle must hold even when recovery starts from a torn
     log tail. *)
  let classes = { Fault_plan.no_classes with Fault_plan.disk = true } in
  for seed = 20 to 24 do
    let plan = Fault_plan.generate (Rng.create seed) ~classes in
    let plan = { plan with Fault_plan.disk = { Fault_plan.torn = 1.0; corrupt = 0.5 } } in
    ignore (run_scenario ~plan seed)
  done

(* ---- Duplicated and reordered ships ---- *)

let test_duplicate_ship_idempotent () =
  (* Every duplicable carrier delivered twice, plus reordering delays:
     the receive paths must be idempotent and the oracle still hold. *)
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 31;
      net =
        {
          Fault_plan.drop = 0.;
          max_drops = 0;
          dup = 1.0;
          delay = 0.5;
          max_delay = 0.05;
          rto = 0.01;
          partition = 0.;
          max_partition = 0;
        };
    }
  in
  let cluster, _ = run_scenario ~plan 31 in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool) "duplicates were injected" true (g.Metrics.net_msgs_duplicated > 0)

(* ---- Partitions ---- *)

let test_partition_heals_and_converges () =
  (* Aggressive temporary partitions with a bounded probe budget: blocked
     transactions must retry their way through, and the run converges
     with no stuck scripts (asserted inside [run_scenario]). *)
  let plan =
    {
      Fault_plan.none with
      Fault_plan.seed = 41;
      net =
        {
          Fault_plan.drop = 0.;
          max_drops = 0;
          dup = 0.;
          delay = 0.;
          max_delay = 0.;
          rto = 0.01;
          partition = 0.3;
          max_partition = 6;
        };
    }
  in
  let cluster, _ = run_scenario ~plan 41 in
  let g = Cluster.global_metrics cluster in
  Alcotest.(check bool) "partitions actually blocked links" true (g.Metrics.net_link_blocks > 0)

(* ---- Crash-point schedules ---- *)

let test_crashpoint_schedule () =
  (* Fire named protocol crash points (mid-commit-force, mid-ship,
     mid-checkpoint, mid-rollback) with a bounded budget; auto-recovery
     restarts the stranded scripts and the oracle must hold. *)
  for seed = 50 to 54 do
    let plan =
      {
        Fault_plan.none with
        Fault_plan.seed = seed;
        crashpoints =
          Fault_plan.(
            crashpoints ~budget:2
              [ (Commit_force, 0.05); (Checkpoint, 0.2); (Page_ship, 0.05); (Rollback, 0.05) ]);
      }
    in
    let cluster, _ = run_scenario ~plan seed in
    let g = Cluster.global_metrics cluster in
    Alcotest.(check bool) "crash budget respected" true (g.Metrics.injected_crashes <= 2)
  done

(* ---- Regression seeds ---- *)

(* Full randomized stress iterations, mirroring [cblsim stress]'s
   construction, for seeds that exposed real bugs:

   - seed 2:   injected crash between two steps of a script — the next
               step must see a retryable [Node_down], not an unknown-
               transaction error.
   - seed 147: three staggered single-node crashes; recovering one node
               while another is still down must not leave a redo gap
               (all down nodes recover as one batch).
   - seed 175: Page_ship crash point firing inside the eviction chain —
               the self-crash must unwind [make_room], not be parked as
               an unreachable-owner block.  Left a phantom cached lock
               the owner never knew about.
   - seed 70:  two nodes crash together; a recovery-undo crash point
               aborts the batch's recovery after both were already
               marked up but before the second node's losers rolled
               back.  The re-entered recovery covers only the
               currently-down node, so the abort handler must withdraw
               the premature up-publication — otherwise the redone
               loser survives as a live update (seen as a doubled
               cell). *)
let stress_iteration seed =
  let rng = Rng.create seed in
  let plan = Fault_plan.generate (Rng.split rng) ~classes:Fault_plan.all_classes in
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
  let engine0 = Engine.of_cluster cluster in
  let engine =
    if seed mod 2 = 1 then
      {
        engine0 with
        Engine.recover =
          (fun ~nodes -> Cluster.recover ~strategy:Recovery.Merged_logs cluster ~nodes);
      }
    else engine0
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
  for _ = 1 to Rng.int rng 4 do
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
  for _ = 1 to 2 + Rng.int rng 3 do
    events := (5 + Rng.int rng 60, Driver.Checkpoint (Rng.int rng nodes)) :: !events
  done;
  let outcome =
    Driver.run engine
      ~events:(List.sort compare !events)
      ~max_rounds:30_000 ~auto_recover:6 scripts
  in
  (* like cblsim: the cleanup recovery can itself die at a recovery
     crash point; re-enter over the grown down set until converged *)
  let rec recover_all attempts =
    if attempts > 100 then Alcotest.fail (Printf.sprintf "seed %d: recovery did not converge" seed);
    match
      List.filter (fun n -> not (Node.is_up (Cluster.node cluster n))) (List.init nodes Fun.id)
    with
    | [] -> ()
    | down ->
      (try Cluster.recover cluster ~nodes:down
       with Repro_cbl.Block.Would_block _ -> ());
      recover_all (attempts + 1)
  in
  recover_all 0;
  Cluster.check_invariants cluster;
  Alcotest.(check int) (Printf.sprintf "seed %d: no stuck scripts" seed) 0 outcome.Driver.stuck;
  match Driver.verify outcome with
  | Ok () -> ()
  | Error es -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed (String.concat "; " es))

let test_regression_seeds () = List.iter stress_iteration [ 2; 70; 147; 175 ]

(* ---- Group commit under faults ---- *)

(* Every fault class with commit batching on: a crash between a batch's
   appends and its shared force must lose the WHOLE batch (no prefix of
   it may surface as committed), which is exactly what the durability
   oracle inside [run_scenario] checks. *)
let test_faulted_sweep_with_batching () =
  for seed = 60 to 67 do
    let config =
      Config.with_group_commit Config.instant
        ~window_ms:(float_of_int (2 + (seed mod 3) * 8))
        ~max_batch:(2 + (seed mod 4))
    in
    ignore (run_scenario ~config ~plan:(mk_plan seed) seed)
  done

let suite =
  [
    ("fault classes parse", `Quick, test_classes_of_string);
    ("plan JSON round-trip", `Quick, test_plan_json_roundtrip);
    ("plan JSON keeps recovery crash points", `Quick, test_plan_json_recovery_fields);
    ("plan JSON: pinned dumps replay unchanged", `Quick, test_plan_json_pinned);
    ("plan JSON: bad keys and values rejected", `Quick, test_plan_json_rejects_bad_shapes);
    ("replay: same plan, identical trace", `Quick, test_replay_identical);
    ("replay: from dumped plan JSON", `Quick, test_replay_from_dumped_plan);
    ("disarmed injector consumes no randomness", `Quick, test_unfaulted_rng_untouched);
    ("torn crash: unit invariants", `Quick, test_torn_crash_unit);
    ("torn crash: recovery oracle", `Quick, test_torn_crash_recovery);
    ("duplicate + delayed ships are idempotent", `Quick, test_duplicate_ship_idempotent);
    ("partitions heal and runs converge", `Quick, test_partition_heals_and_converges);
    ("crash-point schedules stay within budget", `Quick, test_crashpoint_schedule);
    ("regression seeds (2, 147, 175)", `Slow, test_regression_seeds);
    ("faulted sweep with group commit on", `Slow, test_faulted_sweep_with_batching);
  ]
