module Config = Repro_sim.Config
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Cluster = Repro_cbl.Cluster
module Recovery = Repro_cbl.Recovery
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Scale = Repro_workload.Scale
module Schemes = Repro_baselines.Schemes
module Rng = Repro_util.Rng
module Recorder = Repro_obs.Recorder
module Critical_path = Repro_obs.Critical_path
module Log_hist = Repro_obs.Log_hist

(* Every experiment ends by checking the durability oracle: the suite
   doubles as an end-to-end integration test. *)
let run_checked engine ?events ?mpl scripts =
  let outcome = Driver.run engine ?events ?mpl scripts in
  if outcome.Driver.stuck > 0 then
    invalid_arg
      (Printf.sprintf "experiment workload wedged: %d stuck scripts (%s)" outcome.Driver.stuck
         engine.Engine.name);
  (match Driver.verify outcome with
  | Ok () -> ()
  | Error errs ->
    invalid_arg
      (Printf.sprintf "durability oracle violated (%s): %s" engine.Engine.name
         (String.concat "; " errs)));
  outcome

let snapshot_global (built : Schemes.built) = Metrics.snapshot (Cluster.global_metrics built.cluster)

let diff_global (built : Schemes.built) before =
  Metrics.diff ~after:(Cluster.global_metrics built.cluster) ~before

(* ------------------------------------------------------------------ *)
(* F1: the Figure 1 architecture                                       *)
(* ------------------------------------------------------------------ *)

let f1 ?(quick = false) () =
  let txns = if quick then 6 else 25 in
  let built =
    Schemes.cbl ~seed:11 ~nodes:4 ~owners:[ 0; 2 ] ~pages_per_owner:24 Config.default
  in
  let rng = Rng.create 11 in
  let scripts =
    Generators.partitioned rng ~pages_by_owner:built.Schemes.pages_by_owner
      ~clients:[ 0; 1; 2; 3 ] ~txns_per_client:txns
      ~mix:{ Generators.default_mix with remote_fraction = 0.4 }
  in
  let _outcome = run_checked built.Schemes.engine scripts in
  let rows =
    List.map
      (fun id ->
        let m = Cluster.node_metrics built.Schemes.cluster id in
        let role = if List.mem id [ 0; 2 ] then "owner (has database)" else "client" in
        [
          Printf.sprintf "node %d" id;
          role;
          string_of_int m.Metrics.txn_committed;
          string_of_int m.Metrics.commit_messages;
          string_of_int m.Metrics.log_appends;
          string_of_int m.Metrics.log_forces;
          string_of_int m.Metrics.pages_shipped;
        ])
      [ 0; 1; 2; 3 ]
  in
  let zero_commit_msgs =
    List.for_all
      (fun id ->
        (Cluster.node_metrics built.Schemes.cluster id).Metrics.commit_messages = 0)
      [ 0; 1; 2; 3 ]
  in
  {
    Report.id = "F1";
    title = "Figure 1 architecture: 4 networked nodes, 2 with databases, all with local logs";
    claim =
      "§1.1: every node logs locally, including updates to remote data; commit involves no \
       other node";
    header = [ "node"; "role"; "committed"; "commit msgs"; "log appends"; "log forces"; "pages shipped" ];
    rows;
    data = [];
    notes =
      [
        (if zero_commit_msgs then "PASS: zero commit-path messages at every node"
         else "FAIL: some node sent messages at commit");
      ];
  }

(* ------------------------------------------------------------------ *)
(* E1: commit path per scheme                                          *)
(* ------------------------------------------------------------------ *)

let e1 ?(quick = false) () =
  let txns = if quick then 8 else 30 in
  let fractions = if quick then [ 0.0; 1.0 ] else [ 0.0; 0.3; 0.6; 1.0 ] in
  let cbl_total = Metrics.create () in
  let rows =
    List.concat_map
      (fun remote ->
        List.map
          (fun (built : Schemes.built) ->
            let rng = Rng.create 7 in
            let clients =
              (* clients sit on the owner nodes so the remote-access
                 fraction is exactly the knob; server-logging clients
                 must not sit on the server (all data is there) *)
              if built.Schemes.engine.Engine.name = "server-logging" then [ 1; 3 ]
              else List.map fst built.Schemes.pages_by_owner
            in
            let scripts =
              Generators.partitioned rng ~pages_by_owner:built.Schemes.pages_by_owner
                ~clients ~txns_per_client:txns
                ~mix:{ Generators.default_mix with remote_fraction = remote }
            in
            let before = snapshot_global built in
            let outcome = run_checked built.Schemes.engine scripts in
            let d = diff_global built before in
            if built.Schemes.engine.Engine.name = "cbl" then Metrics.merge_into ~dst:cbl_total d;
            let n = outcome.Driver.committed in
            [
              built.Schemes.engine.Engine.name;
              Report.f2 remote;
              Report.per d.Metrics.commit_messages n;
              Report.per d.Metrics.log_forces n;
              Report.per d.Metrics.commit_page_writes n;
              Report.per d.Metrics.log_records_shipped n;
              Report.ms (outcome.Driver.sim_seconds /. float_of_int (max 1 n));
            ])
          (Schemes.all ~seed:7 ~nodes:4 ~pages_per_owner:24 Config.default))
      fractions
  in
  {
    Report.id = "E1";
    title = "Commit-path cost per committed transaction, by scheme and remote-access fraction";
    claim =
      "§1.1/§3: CBL sends no log records or pages at commit (0 messages, 1 local force); \
       server logging ships records, PCA ships pages+records, the global log pays per append";
    header =
      [ "scheme"; "remote"; "commit msgs/txn"; "log forces/txn"; "commit pg writes/txn";
        "records shipped/txn"; "sim ms/txn" ];
    rows;
    data = [];
    notes =
      [
        "expected shape: cbl's commit msgs and records shipped are 0 at every remote fraction";
        "cbl's log forces above 1/txn are WAL-before-ship forces (page transfers), not commit \
         work";
        (* zeros shown on purpose: commit_messages = 0 and
           log_records_shipped = 0 ARE the claim, so "not printed" must
           not be mistaken for "not measured" *)
        Format.asprintf "cbl cumulative counters across all fractions (zeros shown):@.%a"
          (Metrics.pp_with ~show_zeros:true) cbl_total;
      ];
  }

(* ------------------------------------------------------------------ *)
(* E2: throughput scaling                                              *)
(* ------------------------------------------------------------------ *)

let e2 ?(quick = false) () =
  let client_counts = if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ] in
  let txns = if quick then 5 else 15 in
  let rows =
    List.concat_map
      (fun clients ->
        let nodes = clients in
        let make = function
          | `Cbl ->
            (* fully distributed: every node owns a partition *)
            Schemes.cbl ~seed:3 ~nodes ~owners:(List.init nodes (fun i -> i))
              ~pages_per_owner:16 Config.default
          | `Server -> Schemes.server_logging ~seed:3 ~nodes ~pages:(16 * nodes) Config.default
        in
        List.map
          (fun kind ->
            let built = make kind in
            let rng = Rng.create 3 in
            let scripts =
              Generators.partitioned rng ~pages_by_owner:built.Schemes.pages_by_owner
                ~clients:(List.init nodes (fun i -> i))
                ~txns_per_client:txns
                ~mix:{ Generators.default_mix with remote_fraction = 0.2 }
            in
            let outcome = run_checked built.Schemes.engine scripts in
            let busiest =
              List.fold_left
                (fun (node, busy) id ->
                  let b = (Cluster.node_metrics built.Schemes.cluster id).Metrics.busy_seconds in
                  if b > busy then (id, b) else (node, busy))
                (-1, 0.)
                (List.init nodes (fun i -> i))
            in
            let makespan = snd busiest in
            let throughput = float_of_int outcome.Driver.committed /. makespan in
            [
              built.Schemes.engine.Engine.name;
              string_of_int clients;
              string_of_int outcome.Driver.committed;
              Report.f2 makespan;
              Report.f2 throughput;
              Printf.sprintf "node %d" (fst busiest);
            ])
          [ `Cbl; `Server ])
      client_counts
  in
  {
    Report.id = "E2";
    title = "Throughput vs number of clients (bottleneck-bounded, committed / busiest node's work)";
    claim =
      "§1.2/§4: client-based logging reduces dependencies on server resources; with server \
       logging, the server's log and lock service saturate as clients are added";
    header = [ "scheme"; "clients"; "committed"; "bottleneck busy s"; "txn/s bound"; "bottleneck" ];
    rows;
    data = [];
    notes =
      [
        "expected shape: cbl's txn/s bound grows with clients; server-logging's flattens and \
         its bottleneck is always the server (node 0)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E3: commit latency vs network latency                               *)
(* ------------------------------------------------------------------ *)

let e3 ?(quick = false) () =
  let latencies = if quick then [ 0.5e-3; 5e-3 ] else [ 0.1e-3; 0.5e-3; 1e-3; 2e-3; 5e-3; 10e-3 ] in
  let commits = if quick then 5 else 20 in
  let rows =
    List.concat_map
      (fun lat ->
        let config = Config.with_net_latency Config.default lat in
        List.map
          (fun (built : Schemes.built) ->
            let engine = built.Schemes.engine in
            let pages =
              match built.Schemes.pages_by_owner with
              | (_, ps) :: _ -> ps
              | [] -> assert false
            in
            (* one warm-up txn, then measure pure commit cost *)
            let measure () =
              let txn = engine.Engine.begin_txn ~node:1 in
              List.iteri
                (fun i pid -> if i < 4 then engine.Engine.update_delta ~txn ~pid ~off:0 1L)
                pages;
              let t0 = Env.now engine.Engine.env in
              engine.Engine.commit ~txn;
              Env.now engine.Engine.env -. t0
            in
            let _warm = measure () in
            let samples = Array.init commits (fun _ -> measure ()) in
            let s = Repro_util.Stats.summarize samples in
            [
              engine.Engine.name;
              Report.ms lat;
              Report.ms s.Repro_util.Stats.mean;
              Report.ms s.Repro_util.Stats.max;
            ])
          (Schemes.all ~seed:5 ~nodes:4 ~pages_per_owner:16 config))
      latencies
  in
  {
    Report.id = "E3";
    title = "Commit latency vs one-way network latency (4 updates per txn, remote owner)";
    claim =
      "§1.1: local logging eliminates the need to send log records at commit, so CBL's commit \
       latency is independent of network latency; shipping schemes grow linearly with it";
    header = [ "scheme"; "net ms"; "commit ms (mean)"; "commit ms (max)" ];
    rows;
    data = [];
    notes = [ "expected shape: cbl column constant across net ms; others increase with it" ];
  }

(* ------------------------------------------------------------------ *)
(* E4: recovery, PSN-coordinated vs merged logs                        *)
(* ------------------------------------------------------------------ *)

let recovery_run ~strategy ~txns =
  (* four private partitions: every node's log is busy with its own
     work, node 1's cache holds the only up-to-date copies of its
     partition at crash time.  The paper's protocol then reads node 1's
     log only; the merge baseline must pull all four. *)
  let built =
    Schemes.cbl ~seed:13 ~nodes:4 ~owners:[ 0; 1; 2; 3 ] ~pages_per_owner:24 Config.default
  in
  let rng = Rng.create 13 in
  let scripts =
    Generators.partitioned rng ~pages_by_owner:built.Schemes.pages_by_owner
      ~clients:[ 0; 1; 2; 3 ] ~txns_per_client:txns
      ~mix:{ Generators.default_mix with remote_fraction = 0.0; update_fraction = 0.8 }
  in
  let events = [ (30, Driver.Checkpoint 1) ] in
  let outcome = run_checked built.Schemes.engine ~events scripts in
  ignore outcome;
  let before = snapshot_global built in
  let t0 = Cluster.now built.Schemes.cluster in
  Cluster.crash built.Schemes.cluster ~node:1;
  let summary = Cluster.recover_timed ~strategy built.Schemes.cluster ~nodes:[ 1 ] in
  let d = diff_global built before in
  let dt = Cluster.now built.Schemes.cluster -. t0 in
  (d, dt, summary)

let e4 ?(quick = false) () =
  let sizes = if quick then [ 15 ] else [ 15; 60; 120 ] in
  let runs =
    List.concat_map
      (fun txns ->
        List.map
          (fun (name, strategy) ->
            let d, dt, summary = recovery_run ~strategy ~txns in
            let row =
              [
                name;
                string_of_int (4 * txns);
                string_of_int d.Metrics.recovery_log_records_scanned;
                string_of_int d.Metrics.log_records_shipped;
                string_of_int d.Metrics.recovery_messages;
                string_of_int d.Metrics.recovery_page_transfers;
                Report.ms dt;
              ]
            in
            let timing =
              Repro_obs.Json.Obj
                [
                  ("strategy", Repro_obs.Json.Str name);
                  ("workload_txns", Repro_obs.Json.Int (4 * txns));
                  ("summary", Recovery.summary_to_json summary);
                ]
            in
            (row, timing))
          [ ("psn-coordinated (paper)", Recovery.Psn_coordinated);
            ("merged-logs (baseline)", Recovery.Merged_logs) ])
      sizes
  in
  let rows = List.map fst runs in
  {
    Report.id = "E4";
    title = "Single node crash recovery: the paper's protocol vs merging the logs";
    claim =
      "§1.1/§3.2: node log files are not merged at any time; the merge baseline ships every \
       record of every log while CBL moves only NodePSNLists and page-sized rounds";
    header =
      [ "strategy"; "workload txns"; "records scanned"; "records shipped"; "recovery msgs";
        "page transfers"; "recovery ms" ];
    rows;
    data = [ ("recovery_timings", Repro_obs.Json.List (List.map snd runs)) ];
    notes =
      [ "expected shape: records shipped is 0 for the paper's protocol and grows with the \
         workload for the merge baseline" ];
  }

(* ------------------------------------------------------------------ *)
(* E5: NodePSNList coordination vs number of involved nodes            *)
(* ------------------------------------------------------------------ *)

let e5 ?(quick = false) () =
  let involved = if quick then [ 1; 3 ] else [ 1; 2; 4; 7 ] in
  let rows =
    List.map
      (fun k ->
        let nodes = 8 in
        let built =
          Schemes.cbl ~seed:17 ~nodes ~owners:[ 0 ] ~pages_per_owner:6
            (Config.with_page_size Config.default 512)
        in
        let engine = built.Schemes.engine in
        let pages = List.assoc 0 built.Schemes.pages_by_owner in
        (* nodes 1..k update every page in turn: k involved logs *)
        for i = 1 to k do
          let txn = engine.Engine.begin_txn ~node:i in
          List.iter (fun pid -> engine.Engine.update_delta ~txn ~pid ~off:0 1L) pages;
          engine.Engine.commit ~txn
        done;
        let before = snapshot_global built in
        let t0 = Cluster.now built.Schemes.cluster in
        (* crash the owner and the last updater: the only up-to-date
           cached copies vanish and every updater's log takes part *)
        Cluster.crash built.Schemes.cluster ~node:0;
        Cluster.crash built.Schemes.cluster ~node:k;
        Cluster.recover built.Schemes.cluster ~nodes:[ 0; k ];
        let d = diff_global built before in
        let dt = Cluster.now built.Schemes.cluster -. t0 in
        (* all pages must carry every increment *)
        let txn = engine.Engine.begin_txn ~node:0 in
        List.iter
          (fun pid ->
            let v = engine.Engine.read_cell ~txn ~pid ~off:0 in
            if v <> Int64.of_int k then
              invalid_arg (Printf.sprintf "E5: lost updates (found %Ld, want %d)" v k))
          pages;
        engine.Engine.commit ~txn;
        [
          string_of_int k;
          string_of_int d.Metrics.recovery_pages_redone;
          string_of_int d.Metrics.recovery_page_transfers;
          string_of_int d.Metrics.recovery_messages;
          string_of_int d.Metrics.recovery_log_records_scanned;
          Report.ms dt;
        ])
      involved
  in
  {
    Report.id = "E5";
    title = "Recovery cost vs number of nodes involved in a page's redo (NodePSNList rounds)";
    claim =
      "§2.3.4: the PSN order reconstructs cross-node update order without clocks; cost grows \
       with the number of involved nodes, not with total log volume";
    header =
      [ "involved nodes"; "pages redone"; "page transfers"; "recovery msgs"; "records scanned";
        "recovery ms" ];
    rows;
    data = [];
    notes = [ "correctness is asserted: every page carries all increments after recovery" ];
  }

(* ------------------------------------------------------------------ *)
(* E6: log space management                                            *)
(* ------------------------------------------------------------------ *)

let e6 ?(quick = false) () =
  let capacities =
    if quick then [ Some 16384; None ] else [ Some 8192; Some 16384; Some 65536; None ]
  in
  let txns = if quick then 20 else 80 in
  let rows =
    List.map
      (fun capacity ->
        let config = Config.with_page_size Config.default 512 in
        let cluster =
          Cluster.create ~seed:23 ~pool_capacity:8 ?log_capacity:capacity ~nodes:2 config
        in
        let pages = Cluster.allocate_pages cluster ~owner:0 ~count:16 in
        let engine = Engine.of_cluster cluster in
        let rng = Rng.create 23 in
        let scripts =
          Generators.hotspot rng ~pages ~clients:[ 1 ] ~txns_per_client:txns
            ~mix:{ Generators.default_mix with update_fraction = 1.0; ops_per_txn = 6 }
        in
        let outcome = run_checked engine ~mpl:4 scripts in
        let m = Cluster.global_metrics cluster in
        [
          (match capacity with
          | Some c -> Format.asprintf "%a" Repro_util.Pretty.bytes c
          | None -> "unbounded");
          string_of_int outcome.Driver.committed;
          string_of_int m.Metrics.log_space_stalls;
          string_of_int m.Metrics.flush_requests;
          string_of_int m.Metrics.page_disk_writes;
          Report.ms outcome.Driver.sim_seconds;
        ])
      capacities
  in
  {
    Report.id = "E6";
    title = "Log space management (§2.5): transactions keep committing on tiny log files";
    claim =
      "§2.5: when a log fills, replacing the min-RedoLSN page and asking its owner to force \
       it frees log space; no transaction is lost, at the price of extra flushes";
    header = [ "log capacity"; "committed"; "space stalls"; "flush requests"; "page writes"; "sim ms" ];
    rows;
    data = [];
    notes = [ "expected shape: same committed count everywhere; stalls and flushes only under \
               small capacities" ];
  }

(* ------------------------------------------------------------------ *)
(* E7: independent fuzzy checkpoints                                   *)
(* ------------------------------------------------------------------ *)

let e7 ?(quick = false) () =
  let intervals = if quick then [ None; Some 20 ] else [ None; Some 60; Some 30; Some 15 ] in
  let txns = if quick then 10 else 30 in
  let rows =
    List.map
      (fun interval ->
        let built =
          Schemes.cbl ~seed:29 ~nodes:4 ~owners:[ 0; 2 ] ~pages_per_owner:24 Config.default
        in
        let rng = Rng.create 29 in
        let scripts =
          Generators.partitioned rng ~pages_by_owner:built.Schemes.pages_by_owner
            ~clients:[ 0; 1; 2; 3 ] ~txns_per_client:txns
            ~mix:{ Generators.default_mix with remote_fraction = 0.3 }
        in
        let events =
          match interval with
          | None -> []
          | Some every ->
            (* enough repetitions to cover any plausible run length *)
            List.concat_map
              (fun round -> List.map (fun node -> (round, Driver.Checkpoint node)) [ 0; 1; 2; 3 ])
              (List.init (2000 / every) (fun i -> (i + 1) * every))
        in
        let before = snapshot_global built in
        let outcome = run_checked built.Schemes.engine ~events scripts in
        let d = diff_global built before in
        (* crash a node afterwards: analysis cost shrinks with frequency *)
        let rec_before = snapshot_global built in
        Cluster.crash built.Schemes.cluster ~node:1;
        Cluster.recover built.Schemes.cluster ~nodes:[ 1 ];
        let rd = diff_global built rec_before in
        [
          (match interval with None -> "never" | Some e -> Printf.sprintf "every %d rounds" e);
          string_of_int d.Metrics.checkpoints_taken;
          string_of_int d.Metrics.messages_sent;
          string_of_int outcome.Driver.committed;
          string_of_int rd.Metrics.recovery_log_records_scanned;
        ])
      intervals
  in
  {
    Report.id = "E7";
    title = "Fuzzy checkpoints are free of synchronisation and bound restart analysis";
    claim =
      "§2.2/§4(4): each node checkpoints independently of the others — no messages, no \
       quiescing — and more frequent checkpoints shorten the restart analysis scan";
    header =
      [ "checkpointing"; "checkpoints"; "messages (workload)"; "committed"; "restart records scanned" ];
    rows;
    data = [];
    notes =
      [ "expected shape: message count identical across rows (checkpoints are purely local); \
         restart scan shrinks as checkpoints become frequent" ];
  }

(* ------------------------------------------------------------------ *)
(* E8: multiple node crashes                                           *)
(* ------------------------------------------------------------------ *)

let e8 ?(quick = false) () =
  let crash_sets = if quick then [ [ 1 ] ] else [ [ 1 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 4 ] ] in
  let txns = if quick then 10 else 25 in
  let rows =
    List.map
      (fun victims ->
        let built =
          Schemes.cbl ~seed:31 ~nodes:6 ~owners:[ 0; 2; 4 ] ~pages_per_owner:16 Config.default
        in
        let rng = Rng.create 31 in
        let scripts =
          Generators.partitioned rng ~pages_by_owner:built.Schemes.pages_by_owner
            ~clients:[ 0; 1; 2; 3; 4; 5 ] ~txns_per_client:txns
            ~mix:{ Generators.default_mix with remote_fraction = 0.5 }
        in
        let outcome = Driver.run built.Schemes.engine scripts in
        let before = snapshot_global built in
        let t0 = Cluster.now built.Schemes.cluster in
        List.iter (fun v -> Cluster.crash built.Schemes.cluster ~node:v) victims;
        Cluster.recover built.Schemes.cluster ~nodes:victims;
        let d = diff_global built before in
        let dt = Cluster.now built.Schemes.cluster -. t0 in
        let oracle =
          match Driver.verify outcome with Ok () -> "PASS" | Error e -> "FAIL: " ^ List.hd e
        in
        [
          string_of_int (List.length victims);
          string_of_int d.Metrics.recovery_log_records_scanned;
          string_of_int d.Metrics.recovery_messages;
          string_of_int d.Metrics.recovery_page_transfers;
          string_of_int d.Metrics.recovery_pages_redone;
          Report.ms dt;
          oracle;
        ])
      crash_sets
  in
  {
    Report.id = "E8";
    title = "Recovery from multiple simultaneous node crashes (§2.4)";
    claim =
      "§2.4: crashed nodes rebuild DPT supersets from their own logs, owners merge claims, and \
       the same PSN-ordered protocol recovers every page — still without merging logs";
    header =
      [ "simultaneous crashes"; "records scanned"; "recovery msgs"; "page transfers";
        "pages redone"; "recovery ms"; "oracle" ];
    rows;
    data = [];
    notes = [ "oracle PASS means all committed updates survived and no uncommitted ones did" ];
  }

(* ------------------------------------------------------------------ *)
(* E9: inter-transaction caching ablation                              *)
(* ------------------------------------------------------------------ *)

let e9 ?(quick = false) () =
  let txns = if quick then 10 else 40 in
  let configs =
    [ ("caching on (paper)", true, 0.0); ("caching off", false, 0.0);
      ("caching on (paper)", true, 0.9); ("caching off", false, 0.9) ]
  in
  let rows =
    List.map
      (fun (label, retain, theta) ->
        let cluster =
          Cluster.create ~seed:37 ~retain_cached_locks:retain ~nodes:4 Config.default
        in
        let p0 = Cluster.allocate_pages cluster ~owner:0 ~count:24 in
        let p2 = Cluster.allocate_pages cluster ~owner:2 ~count:24 in
        let engine = Engine.of_cluster cluster in
        let rng = Rng.create 37 in
        let scripts =
          Generators.partitioned rng ~pages_by_owner:[ (0, p0); (2, p2) ]
            ~clients:[ 1; 3 ] ~txns_per_client:txns
            ~mix:{ Generators.default_mix with remote_fraction = 0.1; theta }
        in
        let outcome = run_checked engine scripts in
        let m = Cluster.global_metrics cluster in
        let n = outcome.Driver.committed in
        [
          label;
          Report.f2 theta;
          Report.per m.Metrics.lock_requests_local n;
          Report.per m.Metrics.lock_requests_remote n;
          Report.per m.Metrics.messages_sent n;
          Report.ms (outcome.Driver.sim_seconds /. float_of_int (max 1 n));
        ])
      configs
  in
  {
    Report.id = "E9";
    title = "Inter-transaction caching of locks and pages (§2.1) — ablation";
    claim =
      "§2.1/§2.2 (and Rdb's lock carry-over, §3.2): retaining locks and pages across \
       transaction boundaries turns repeat accesses into local operations";
    header =
      [ "configuration"; "zipf theta"; "local lock reqs/txn"; "remote lock reqs/txn";
        "messages/txn"; "sim ms/txn" ];
    rows;
    data = [];
    notes = [ "expected shape: caching multiplies local/remote request ratio and cuts \
               messages per transaction" ];
  }

(* ------------------------------------------------------------------ *)
(* E10: page ping-pong without disk forces                             *)
(* ------------------------------------------------------------------ *)

let e10 ?(quick = false) () =
  let rounds = if quick then 6 else 25 in
  let rows =
    List.map
      (fun (built : Schemes.built) ->
        let pages =
          match built.Schemes.pages_by_owner with (_, ps) :: _ -> ps | [] -> assert false
        in
        let pages = List.filteri (fun i _ -> i < 4) pages in
        let scripts = Generators.ping_pong ~pages ~nodes:(1, 3) ~rounds in
        let before = snapshot_global built in
        let outcome = run_checked built.Schemes.engine scripts in
        let d = diff_global built before in
        let handovers = 2 * rounds in
        [
          built.Schemes.engine.Engine.name;
          Report.per d.Metrics.pages_shipped handovers;
          Report.per d.Metrics.page_disk_writes handovers;
          Report.per d.Metrics.commit_page_writes handovers;
          Report.ms (outcome.Driver.sim_seconds /. float_of_int handovers);
        ])
      (Schemes.all ~seed:41 ~nodes:4 ~pages_per_owner:8 Config.default)
  in
  {
    Report.id = "E10";
    title = "Two nodes alternately updating the same pages: cost per hand-over";
    claim =
      "§4(1)/§3.2: CBL never forces pages to disk at commit or when they move between nodes, \
       unlike Rdb/VMS (force before transfer) and PCA (pages travel at commit)";
    header = [ "scheme"; "pages shipped/handover"; "disk writes/handover";
               "commit-path writes/handover"; "sim ms/handover" ];
    rows;
    data = [];
    notes = [ "expected shape: cbl ships pages but the disk-write columns stay near zero" ];
  }

(* ------------------------------------------------------------------ *)
(* E11: group commit — txn/s and commit latency vs batching window     *)
(* ------------------------------------------------------------------ *)

(* Round-robin merge: with one script list per client, the [mpl]
   concurrent transactions come from distinct clients (distinct page
   slices), so commits arrive together and batches actually fill. *)
let interleave lists =
  let rec go acc lists =
    let heads = List.filter_map (function x :: _ -> Some x | [] -> None) lists in
    let tails = List.filter_map (function _ :: t -> Some t | [] -> None) lists in
    if heads = [] then List.rev acc else go (List.rev_append heads acc) tails
  in
  go [] lists

(* One group-commit run: the 8-client conflict-free E11 workload at a
   given (max_batch, window_ms) setting.  Shared with E13, which
   re-runs the same workload traced and decomposes the latency. *)
let group_commit_run ?(trace = false) ~quick (max_batch, window_ms) =
  let clients = 8 in
  let pages_per_client = 4 in
  let txns_per_client = if quick then 5 else 30 in
  let config = Config.with_group_commit Config.default ~window_ms ~max_batch in
  (* the ring is sized so a full traced run never overflows: a truncated
     trace would silently weaken E13's attribution *)
  let cluster = Cluster.create ~trace ~trace_capacity:(1 lsl 20) ~seed:41 ~nodes:1 config in
  (* fewer pages than the pool holds: after warm-up there are no
     evictions, so the commit force is the only recurring disk
     operation and the batching win is visible in busy time *)
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:(clients * pages_per_client) in
  let engine = Engine.of_cluster cluster in
  let rng = Rng.create 41 in
  let scripts =
    interleave
      (List.init clients (fun c ->
           (* disjoint slice per client: no lock conflicts, so all
              eight stay runnable and commit close together *)
           let slice = List.filteri (fun i _ -> i / pages_per_client = c) pages in
           Generators.hotspot rng ~pages:slice ~clients:[ 0 ] ~txns_per_client
             ~mix:
               {
                 Generators.default_mix with
                 update_fraction = 1.0;
                 ops_per_txn = 4;
                 remote_fraction = 0.;
               }))
  in
  let outcome = run_checked engine ~mpl:clients scripts in
  (cluster, outcome)

let e11 ?(quick = false) () =
  let settings =
    if quick then [ (1, 0.); (8, 20.) ]
    else [ (1, 0.); (2, 5.); (4, 10.); (8, 20.); (8, 50.) ]
  in
  let runs =
    List.map
      (fun (max_batch, window_ms) ->
        let cluster, outcome = group_commit_run ~quick (max_batch, window_ms) in
        let m = Cluster.node_metrics cluster 0 in
        (* throughput is bottleneck-bounded like E2: committed work over
           the node's busy time.  Window waits advance the clock without
           charging busy time, so batching shows up purely as fewer
           forces, not as idling. *)
        let throughput = float_of_int outcome.Driver.committed /. m.Metrics.busy_seconds in
        ((max_batch, window_ms), outcome, m, throughput))
      settings
  in
  let base_throughput =
    match runs with (_, _, _, tp) :: _ -> tp | [] -> assert false
  in
  let rows =
    List.map
      (fun ((max_batch, window_ms), outcome, m, throughput) ->
        let avg_batch =
          if m.Metrics.commit_batches = 0 then 1.
          else float_of_int m.Metrics.batched_commits /. float_of_int m.Metrics.commit_batches
        in
        [
          string_of_int max_batch;
          Report.f window_ms;
          string_of_int outcome.Driver.committed;
          Report.f2 m.Metrics.busy_seconds;
          Report.f2 throughput;
          Report.f2 (throughput /. base_throughput);
          Report.f2 avg_batch;
          Report.per m.Metrics.log_forces outcome.Driver.committed;
          Report.ms outcome.Driver.latencies.Repro_util.Stats.mean;
          Report.ms outcome.Driver.latencies.Repro_util.Stats.p95;
        ])
      runs
  in
  let best =
    List.fold_left (fun acc (_, _, _, tp) -> Float.max acc (tp /. base_throughput)) 1. runs
  in
  {
    Report.id = "E11";
    title = "Group commit: throughput and commit latency vs batching window (one node, 8 clients)";
    claim =
      "§1.1/§3: the local log force dominates CBL's commit cost; sharing one force across \
       concurrently committing transactions raises committed txn/s without adding messages";
    header =
      [
        "max batch"; "window ms"; "committed"; "busy s"; "txn/s"; "speedup"; "avg batch";
        "forces/txn"; "lat mean"; "lat p95";
      ];
    rows;
    data = [];
    notes =
      [
        (* the 1.5x target applies to the full run; the quick config is
           too short for batches to amortise and is only a smoke test *)
        (if quick then Printf.sprintf "best throughput %.2fx the unbatched row (quick smoke; the >= 1.5x target is checked on the full run)" best
         else
           Printf.sprintf "%s: best throughput %.2fx the unbatched row (target >= 1.5x)"
             (if best >= 1.5 then "PASS" else "FAIL")
             best);
        "conflict-free clients advance in lockstep, so batches fill without waiting out the \
         window and latency falls with the force count; the window only costs latency when a \
         batch is left partial";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E12: restartable recovery under mid-recovery crashes + deferral     *)
(* ------------------------------------------------------------------ *)

(* The deterministic deferral scenario: nodes 1, 2 and 3 each increment
   every page owned by node 0, then node 0 does too (recalling the page
   invalidates all peer copies, so no live cache survives).  Crash nodes
   0 and 2 and recover node 0 alone with node 2 deferred: redo hits node
   2's PSN range as a gap on every page and parks them all.  Recovering
   node 2 then runs the completion jobs and every parked page drains.
   Each row re-runs the whole scenario with a different mid-recovery
   crash budget; the recovery crash points abort attempts, and the
   caller re-enters until the down set converges to empty. *)
let e12 ?(quick = false) () =
  let budgets = if quick then [ 0; 2 ] else [ 0; 1; 2; 3 ] in
  let page_count = if quick then 4 else 6 in
  let rows =
    List.map
      (fun budget ->
        let plan =
          {
            Repro_fault.Fault_plan.none with
            Repro_fault.Fault_plan.seed = 900 + budget;
            crashpoints =
              Repro_fault.Fault_plan.(
                crashpoints ~budget
                  [
                    (Recovery_analysis, 0.15);
                    (Recovery_redo, 0.2);
                    (Recovery_pre_undo, 0.1);
                    (Recovery_undo, 0.15);
                    (Recovery_checkpoint, 0.1);
                  ]);
          }
        in
        let faults = Repro_fault.Injector.create plan in
        let cluster =
          Cluster.create ~seed:29 ~faults ~nodes:4 (Config.with_page_size Config.default 512)
        in
        let pages = Cluster.allocate_pages cluster ~owner:0 ~count:page_count in
        let engine = Engine.of_cluster cluster in
        (* updaters last-to-first-crash order: node 0 updates last, so
           its crash leaves no current copy in any live cache *)
        List.iter
          (fun node ->
            let txn = engine.Engine.begin_txn ~node in
            List.iter (fun pid -> engine.Engine.update_delta ~txn ~pid ~off:0 1L) pages;
            engine.Engine.commit ~txn)
          [ 1; 2; 3; 0 ];
        let before = Metrics.snapshot (Cluster.global_metrics cluster) in
        let t0 = Cluster.now cluster in
        Cluster.crash cluster ~node:0;
        Cluster.crash cluster ~node:2;
        (* Re-enter recovery until every non-deferred node is up: an
           attempt aborted by a recovery crash point leaves its nodes
           down (and can fell an operational claimant during a
           completion job), so each round recovers the whole current
           down set.  The crash budget bounds the retries; the cap turns
           a livelock bug into a loud failure. *)
        let rec recover_until_done ~defer attempts =
          if attempts > 50 then invalid_arg "E12: recovery did not converge";
          match
            List.filter
              (fun n ->
                (not (Cluster.node cluster n |> Repro_cbl.Node.is_up))
                && not (List.mem n defer))
              [ 0; 1; 2; 3 ]
          with
          | [] -> ()
          | down ->
            (try Cluster.recover cluster ~defer ~nodes:down
             with Repro_cbl.Block.Would_block _ -> ());
            recover_until_done ~defer (attempts + 1)
        in
        recover_until_done ~defer:[ 2 ] 0;
        let g = Cluster.global_metrics cluster in
        let parked = g.Metrics.recovery_deferred_pages - before.Metrics.recovery_deferred_pages in
        recover_until_done ~defer:[] 0;
        let d = Metrics.diff ~after:(Cluster.global_metrics cluster) ~before in
        let dt = Cluster.now cluster -. t0 in
        (* every page must carry all four increments *)
        let txn = engine.Engine.begin_txn ~node:3 in
        List.iter
          (fun pid ->
            let v = engine.Engine.read_cell ~txn ~pid ~off:0 in
            if v <> 4L then
              invalid_arg (Printf.sprintf "E12: lost updates (found %Ld, want 4)" v))
          pages;
        engine.Engine.commit ~txn;
        Cluster.check_invariants cluster;
        [
          string_of_int budget;
          string_of_int d.Metrics.injected_crashes;
          string_of_int d.Metrics.recovery_restarts;
          string_of_int d.Metrics.recovery_retries;
          string_of_int parked;
          string_of_int d.Metrics.recovery_deferred_completed;
          Report.ms dt;
          "ok";
        ])
      budgets
  in
  {
    Report.id = "E12";
    title = "Restartable recovery: completion and deferred pages vs mid-recovery crashes";
    claim =
      "recovery itself is crash-tolerant: aborted attempts re-enter from durable state and \
       converge, and pages blocked on a still-down peer park (locks retained, retryable \
       Page_unavailable) instead of failing, completing when the peer recovers";
    header =
      [ "crash budget"; "injected crashes"; "restarts"; "retries"; "pages parked";
        "parked completed"; "recovery ms"; "outcome" ];
    rows;
    data = [];
    notes =
      [
        "correctness is asserted: after all recoveries every page carries every committed \
         increment and the parked set is empty";
        "pages parked equals the page count (node 2's PSN range gaps every page); they drain \
         by one of two routes — the completion jobs of node 2's recovery (parked completed > \
         0), or, when a mid-recovery crash fells the owner itself, the self-healing wipe: the \
         parked set dies with the owner's volatile state and the full-batch re-recovery \
         re-derives every page without needing deferral (parked completed = 0)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E13: commit-latency attribution — the critical path of E11's runs   *)
(* ------------------------------------------------------------------ *)

(* Re-runs the E11 group-commit workload with causal tracing on, folds
   the event stream through Critical_path, and reports where each
   commit's latency went: lock wait, batch-window wait, log forces,
   network, owner service, other.  The decomposition is validated
   against an independent measurement — the driver's own end-to-end
   commit latencies — and must agree within 5%. *)
let e13 ?(quick = false) () =
  let settings =
    if quick then [ (1, 0.); (8, 20.) ] else [ (1, 0.); (4, 10.); (8, 20.) ]
  in
  let runs =
    List.map
      (fun setting ->
        let cluster, outcome = group_commit_run ~trace:true ~quick setting in
        let events = Recorder.events (Env.obs (Cluster.env cluster)) in
        let cp = Critical_path.analyze events in
        if cp.Critical_path.truncated then invalid_arg "E13: trace ring overflowed";
        (setting, outcome, cp))
      settings
  in
  let label (max_batch, window_ms) = Printf.sprintf "%d/%g" max_batch window_ms in
  let rows =
    List.concat_map
      (fun (setting, _outcome, cp) ->
        let hists = Critical_path.component_hists cp in
        let total_time = Log_hist.total (List.assoc "total" hists) in
        List.map
          (fun (name, h) ->
            [
              label setting;
              name;
              Report.ms (Log_hist.quantile h 0.5);
              Report.ms (Log_hist.p95 h);
              Report.ms (Log_hist.p99 h);
              Report.ms (Log_hist.mean h);
              (if total_time <= 0. then "-"
               else Printf.sprintf "%.1f%%" (Log_hist.total h /. total_time *. 100.));
            ])
          hists)
      runs
  in
  let checks =
    List.map
      (fun (setting, outcome, cp) ->
        let hists = Critical_path.component_hists cp in
        let cp_mean = Log_hist.mean (List.assoc "total" hists) in
        let drv_mean = outcome.Driver.latencies.Repro_util.Stats.mean in
        let err = Float.abs (cp_mean -. drv_mean) /. drv_mean in
        let committed = List.length cp.Critical_path.txns in
        Printf.sprintf
          "%s batch %s: %d txns, attributed mean %s vs driver-measured %s (err %.1f%%, budget 5%%)"
          (if err <= 0.05 then "PASS" else "FAIL")
          (label setting) committed
          (Report.ms cp_mean) (Report.ms drv_mean) (err *. 100.))
      runs
  in
  {
    Report.id = "E13";
    title = "Commit-latency attribution: critical-path breakdown of the group-commit runs";
    claim =
      "§1.1/§3: the local log force dominates CBL's commit cost; the traced critical path \
       shows latency moving from per-txn forces into the shared batch force (and its window \
       wait) as batching grows, with no hidden component — parts sum to the independently \
       measured end-to-end latency";
    header = [ "batch/window"; "component"; "p50"; "p95"; "p99"; "mean"; "share" ];
    rows;
    data =
      List.map
        (fun (setting, _outcome, cp) ->
          ( "breakdown " ^ label setting,
            Repro_obs.Json.Obj
              (List.map
                 (fun (name, h) -> (name, Log_hist.to_json h))
                 (Critical_path.component_hists cp)) ))
        runs;
    notes =
      checks
      @ [
          "share is each component's fraction of total attributed time across all commits; \
           'other' holds the explicit un-attributed remainder (CPU charges, lock ops), so \
           the decomposition can't silently drop time";
        ];
  }

(* ------------------------------------------------------------------ *)
(* E14: big-cluster scale — named profiles over 100× the usual world    *)
(* ------------------------------------------------------------------ *)

(* One deterministic scale run: an N-node CBL cluster, every node an
   owner, [clients] scripted clients generated from a named
   {!Scale.profile}.  Small pages keep the page images of a 256-node
   world affordable; [mpl] bounds in-flight transactions per node so
   thousands of clients queue for admission instead of thrashing the
   lock space.  The durability oracle runs on every point. *)
let scale_point ?(seed = 2026) ?(mpl = 8) ?(pages_per_node = 16) ?(txns_per_client = 4) ~nodes
    ~clients ~profile () =
  let p =
    match Scale.find profile with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf "unknown scale profile %S (have: %s)" profile
           (String.concat ", " (Scale.names ())))
  in
  let config = Config.with_page_size Config.default 1024 in
  let built =
    Schemes.cbl ~seed ~nodes ~owners:(List.init nodes Fun.id) ~pages_per_owner:pages_per_node
      config
  in
  let rng = Rng.create seed in
  let scripts =
    Scale.scripts (Rng.split rng) p ~pages_by_owner:built.Schemes.pages_by_owner ~clients
      ~txns_per_client
  in
  run_checked built.Schemes.engine ~mpl scripts

let scale_abort_rate (o : Driver.outcome) =
  let aborts = o.Driver.deadlock_aborts + o.Driver.voluntary_aborts in
  float_of_int aborts /. float_of_int (max 1 (o.Driver.committed + aborts))

let scale_row ~nodes ~clients ~profile (o : Driver.outcome) =
  [
    string_of_int nodes;
    string_of_int clients;
    profile;
    string_of_int o.Driver.committed;
    Report.f2 (float_of_int o.Driver.committed /. o.Driver.sim_seconds);
    Report.ms o.Driver.latencies.Repro_util.Stats.p95;
    Printf.sprintf "%.3f" (scale_abort_rate o);
    string_of_int o.Driver.sched_events;
    Report.f2 (float_of_int o.Driver.sched_events /. o.Driver.sim_seconds);
  ]

let scale_header =
  [
    "nodes"; "clients"; "profile"; "committed"; "txn/s (sim)"; "p95 commit"; "abort rate";
    "sched events"; "events/sim-s";
  ]

let e14 ?(quick = false) () =
  let points =
    (* uniform sizes check commit-path flatness; the hot-owner point is
       the contrast: imbalance surfaces as aborts and p95, never as
       commit messages *)
    if quick then [ ("uniform", 8, 64) ]
    else [ ("uniform", 16, 128); ("uniform", 32, 256); ("uniform", 64, 512);
           ("hot-owner", 32, 256) ]
  in
  let runs =
    List.map
      (fun (profile, nodes, clients) ->
        ((profile, nodes, clients), scale_point ~nodes ~clients ~profile ()))
      points
  in
  let rows =
    List.map (fun ((profile, nodes, clients), o) -> scale_row ~nodes ~clients ~profile o) runs
  in
  let commit_msgs =
    List.fold_left
      (fun acc (_, (o : Driver.outcome)) ->
        acc + (Env.global_metrics o.Driver.engine.Engine.env).Metrics.commit_messages)
      0 runs
  in
  let uniform_rates =
    List.filter_map
      (fun ((profile, _, _), (o : Driver.outcome)) ->
        if profile = "uniform" then
          Some (float_of_int o.Driver.committed /. o.Driver.sim_seconds)
        else None)
      runs
  in
  let flat =
    match uniform_rates with
    | [] | [ _ ] -> true
    | r :: _ ->
      let lo = List.fold_left min r uniform_rates in
      let hi = List.fold_left max r uniform_rates in
      lo >= 0.9 *. hi
  in
  {
    Report.id = "E14";
    title = "Big-cluster scale: 100x the usual world on named workload profiles";
    claim =
      "§1.1/§4: commit involves no other node, so growing the cluster adds zero commit-path \
       coordination — cluster-wide txn/s on the serialized simulation clock stays flat as \
       nodes quadruple, commit messages stay zero, and a hot-owner skew surfaces as aborts \
       and p95 latency, never as commit traffic";
    header = scale_header;
    rows;
    data = [];
    notes =
      [
        (if commit_msgs = 0 then "PASS: zero commit-path messages across every scale point"
         else Printf.sprintf "FAIL: %d commit messages at scale" commit_msgs);
        (if flat then "PASS: uniform-profile txn/s flat (within 10%) as the cluster grows"
         else "FAIL: uniform-profile txn/s varied by more than 10% across cluster sizes");
        "every node is an owner, clients home round-robin, mpl 8 per node; txn/s and \
         events/sim-s are simulated-time rates (deterministic); wall-clock sim-events/sec \
         is reported by `cblsim scale`";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E15: early lock release under hot-page contention — elr off vs on   *)
(* ------------------------------------------------------------------ *)

(* One contended group-commit run: [clients] clients all hammer the
   same small hot set under Zipf skew, half the operations updates, on
   a single node with a 10 ms batching window.  With elr off a
   committing transaction keeps its X locks across the whole window, so
   every hot page serializes on durability; with elr on the locks drop
   at batch-submit and blocked acquirers proceed under a commit
   dependency instead of waiting out the force. *)
let elr_run ?(quick = false) ~early_release ~clients () =
  let hot_pages = 16 in
  let txns_per_client = if quick then 5 else 20 in
  let config =
    Config.with_early_release
      (Config.with_group_commit Config.default ~window_ms:10. ~max_batch:8)
      early_release
  in
  let cluster = Cluster.create ~seed:57 ~nodes:1 config in
  let pages = Cluster.allocate_pages cluster ~owner:0 ~count:hot_pages in
  let engine = Engine.of_cluster cluster in
  let rng = Rng.create 57 in
  let scripts =
    interleave
      (List.init clients (fun _ ->
           (* every client draws from the same shared hot set: the
              contention is the point, unlike E11's disjoint slices *)
           Generators.hotspot rng ~pages ~clients:[ 0 ] ~txns_per_client
             ~mix:
               {
                 Generators.default_mix with
                 update_fraction = 0.5;
                 ops_per_txn = 3;
                 remote_fraction = 0.;
                 theta = 0.6;
               }))
  in
  let outcome = run_checked engine ~mpl:clients scripts in
  (cluster, outcome)

let e15 ?(quick = false) () =
  let mpls = if quick then [ 8 ] else [ 4; 8; 16 ] in
  let runs =
    List.concat_map
      (fun clients ->
        List.map
          (fun early_release ->
            let cluster, outcome = elr_run ~quick ~early_release ~clients () in
            (clients, early_release, Cluster.dep_edges_registered cluster, outcome))
          [ false; true ])
      mpls
  in
  let rows =
    List.map
      (fun (clients, early_release, deps, (o : Driver.outcome)) ->
        [
          string_of_int clients;
          (if early_release then "on" else "off");
          string_of_int o.Driver.committed;
          Report.f2 (float_of_int o.Driver.committed /. o.Driver.sim_seconds);
          Report.ms o.Driver.latencies.Repro_util.Stats.mean;
          Report.ms o.Driver.latencies.Repro_util.Stats.p95;
          Printf.sprintf "%.3f" (scale_abort_rate o);
          string_of_int deps;
        ])
      runs
  in
  (* the gate is judged at the highest MPL, where lock-hold time across
     the batch window hurts the most *)
  let gate =
    let top = List.fold_left max 0 mpls in
    let find er =
      List.find_map
        (fun (c, e, _, o) -> if c = top && e = er then Some o else None)
        runs
    in
    match (find false, find true) with
    | Some off, Some on ->
      let p95_off = off.Driver.latencies.Repro_util.Stats.p95 in
      let p95_on = on.Driver.latencies.Repro_util.Stats.p95 in
      let tps_off = float_of_int off.Driver.committed /. off.Driver.sim_seconds in
      let tps_on = float_of_int on.Driver.committed /. on.Driver.sim_seconds in
      let cut = 1. -. (p95_on /. p95_off) in
      Some (top, cut, tps_off, tps_on)
    | _ -> None
  in
  let notes =
    (match gate with
    | Some (top, cut, tps_off, tps_on) ->
      let p95_pass = cut >= 0.20 in
      let tps_pass = tps_on > tps_off in
      [
        (if quick then
           Printf.sprintf
             "p95 cut %.0f%% at mpl %d (quick smoke; the >= 20%% target is checked on the full run)"
             (100. *. cut) top
         else
           Printf.sprintf "%s: p95 commit latency cut %.0f%% at mpl %d (target >= 20%%)"
             (if p95_pass then "PASS" else "FAIL")
             (100. *. cut) top);
        (if quick then
           Printf.sprintf "txn/s %.2f -> %.2f at mpl %d (quick smoke)" tps_off tps_on top
         else
           Printf.sprintf "%s: txn/s %.2f -> %.2f at the highest MPL (target: higher with elr on)"
             (if tps_pass then "PASS" else "FAIL")
             tps_off tps_on);
      ]
    | None -> [ "FAIL: missing runs for the gate comparison" ])
    @ [
        "deps counts commit-dependency edges: how often an acquirer actually observed \
         pre-durable state; elr=off rows are the bit-identical baseline (deps = 0 by \
         construction)";
      ]
  in
  {
    Report.id = "E15";
    title = "Early lock release: contended hot pages, locks dropped at batch-submit";
    claim =
      "controlled lock violation: under group commit a committing transaction's locks pin hot \
       pages for the whole batching window; releasing them at submit and tracking commit \
       dependencies cuts p95 commit latency >= 20% and raises txn/s at high MPL, without \
       weakening durability (dependents gate on antecedents; a lost batch drags its closure)";
    header =
      [ "mpl"; "elr"; "committed"; "txn/s (sim)"; "lat mean"; "lat p95"; "abort rate"; "deps" ];
    rows;
    data = [];
    notes;
  }

(* ------------------------------------------------------------------ *)

let registry =
  [
    ("F1", f1); ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E14", e14); ("E15", e15);
  ]

let ids = List.map fst registry
let all ?quick () = List.map (fun (_, f) -> f ?quick ()) registry

let by_id id =
  let id = String.uppercase_ascii id in
  List.assoc_opt id registry
