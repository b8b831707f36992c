(* Property-based tests: the central durability oracle under random
   workloads and random crash schedules, plus structural invariants. *)

module Cluster = Repro_cbl.Cluster
module Node = Repro_cbl.Node
module Recovery = Repro_cbl.Recovery
module Engine = Repro_workload.Engine
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Config = Repro_sim.Config
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Record = Repro_wal.Record
module Rng = Repro_util.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* One randomized cluster run: random topology, random workload, random
   crash/checkpoint schedule, alternating recovery strategies.  The
   property: the run finishes, invariants hold, and the durability
   oracle verifies. *)
let run_one seed =
  let rng = Rng.create seed in
  let nodes = 2 + Rng.int rng 4 in
  let pool = 8 + Rng.int rng 24 in
  let cluster = Cluster.create ~seed ~nodes ~pool_capacity:pool Config.instant in
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
  let clients = List.init nodes (fun i -> i) in
  let scripts =
    Generators.partitioned rng ~pages_by_owner ~clients
      ~txns_per_client:(3 + Rng.int rng 6)
      ~mix:
        {
          Generators.ops_per_txn = 2 + Rng.int rng 6;
          update_fraction = 0.3 +. Rng.float rng 0.6;
          remote_fraction = Rng.float rng 0.8;
          theta = Rng.float rng 1.0;
          savepoint_fraction = Rng.float rng 0.3;
          abort_fraction = Rng.float rng 0.2;
        }
  in
  let events = ref [] in
  let n_crashes = Rng.int rng 4 in
  let t = ref 10 in
  let crashed = ref [] in
  for _ = 1 to n_crashes do
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
  for i = 0 to 2 do
    events := ((7 * i) + Rng.int rng 40, Driver.Checkpoint (Rng.int rng nodes)) :: !events
  done;
  let outcome = Driver.run engine ~events:(List.sort compare !events) ~max_rounds:30_000 scripts in
  (* events scheduled after the last commit never fired *)
  let down =
    List.filter_map
      (fun n -> if Cluster.node cluster n |> Node.is_up then None else Some n)
      (List.init nodes (fun i -> i))
  in
  if down <> [] then Cluster.recover cluster ~nodes:down;
  if outcome.Driver.stuck > 0 then Error (Printf.sprintf "%d stuck" outcome.Driver.stuck)
  else begin
    Cluster.check_invariants cluster;
    match Driver.verify outcome with
    | Ok () -> Ok ()
    | Error errs -> Error (String.concat "; " errs)
  end

let prop_durability_under_crashes =
  QCheck.Test.make ~name:"durability oracle under random crash schedules" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match run_one seed with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

(* Undo is the exact inverse of apply: op; invert op = identity. *)
let gen_page_and_op =
  QCheck.Gen.(
    let* off = int_bound 6 in
    let off = off * 8 in
    let* kind = bool in
    let* seed = int_bound 10_000 in
    let page = Page.create ~id:(Page_id.make ~owner:0 ~slot:0) ~psn:0 ~size:64 in
    let rng = Rng.create seed in
    for i = 0 to 7 do
      Page.set_cell page ~off:(i * 8) (Rng.next_int64 rng)
    done;
    let op =
      if kind then Record.Delta { off; delta = Rng.next_int64 rng }
      else
        Record.Physical
          { off; before = Page.read page ~off ~len:8; after = String.init 8 (fun i -> Char.chr ((i * 37 + seed) land 0xFF)) }
    in
    return (page, op))

let prop_invert_roundtrip =
  QCheck.Test.make ~name:"apply op then inverse restores the page" ~count:300
    (QCheck.make gen_page_and_op) (fun (page, op) ->
      let before = Page.read page ~off:0 ~len:64 in
      Record.apply_op page op;
      Record.apply_op page (Record.invert op);
      Page.read page ~off:0 ~len:64 = before)

(* NodePSNList merge is sorted by PSN and collapse-free across nodes. *)
let gen_runs =
  QCheck.Gen.(
    let* n_nodes = int_range 1 4 in
    let* psns = list_size (int_range 1 12) (int_bound 100) in
    let psns = List.sort_uniq compare psns in
    let* assignment = list_repeat (List.length psns) (int_bound (n_nodes - 1)) in
    let runs =
      List.map2
        (fun psn node -> { Repro_cbl.Node_psn_list.node; psn; lsn = psn * 10 })
        psns assignment
    in
    (* split per node, as build would produce them *)
    let per_node =
      List.init n_nodes (fun i ->
          List.filter (fun r -> r.Repro_cbl.Node_psn_list.node = i) runs)
    in
    return per_node)

let prop_merge_sorted_and_alternating =
  QCheck.Test.make ~name:"NodePSNList merge is PSN-sorted with no adjacent same-node runs"
    ~count:300 (QCheck.make gen_runs) (fun per_node ->
      let merged = Repro_cbl.Node_psn_list.merge per_node in
      let rec ok = function
        | a :: b :: rest ->
          a.Repro_cbl.Node_psn_list.psn < b.Repro_cbl.Node_psn_list.psn
          && a.Repro_cbl.Node_psn_list.node <> b.Repro_cbl.Node_psn_list.node
          && ok (b :: rest)
        | _ -> true
      in
      ok merged)

(* The two recovery strategies are observationally equivalent: running
   the same seeded workload + crash and reading every allocated cell
   back must give identical values. *)
let strategy_equivalent seed =
  let run strategy =
    let rng = Rng.create seed in
    let cluster = Cluster.create ~seed ~nodes:3 ~pool_capacity:12 Config.instant in
    let pages = Cluster.allocate_pages cluster ~owner:0 ~count:8 in
    let engine =
      {
        (Engine.of_cluster cluster) with
        Engine.recover = (fun ~nodes -> Cluster.recover ~strategy cluster ~nodes);
      }
    in
    let scripts =
      Generators.hotspot rng ~pages ~clients:[ 1; 2 ] ~txns_per_client:6
        ~mix:
          {
            Generators.default_mix with
            update_fraction = 0.8;
            theta = 0.5;
            savepoint_fraction = 0.2;
          }
    in
    let events = [ (8, Driver.Crash 1); (16, Driver.Recover [ 1 ]) ] in
    let outcome = Driver.run engine ~events ~max_rounds:20_000 scripts in
    if outcome.Driver.stuck > 0 then failwith "stuck";
    let t = Cluster.begin_txn cluster ~node:2 in
    let state =
      List.map
        (fun p -> List.init 16 (fun i -> Cluster.read_cell cluster ~txn:t ~pid:p ~off:(i * 8)))
        pages
    in
    Cluster.commit cluster ~txn:t;
    state
  in
  run Recovery.Psn_coordinated = run Recovery.Merged_logs

let prop_strategy_equivalence =
  QCheck.Test.make ~name:"PSN-coordinated and merged-log recovery agree cell-for-cell" ~count:30
    QCheck.(int_range 0 1_000_000)
    strategy_equivalent

(* The multiprogramming limit, observed from outside the driver: the
   engine's closures count each node's transactions from [begin_txn]
   until a durable or lost commit verdict, a completed abort, or the
   node's crash.  Under small MPLs, crash/recover events and (on odd
   seeds) group commit, no node may ever exceed [mpl] in flight, every
   script must finish (none waits forever for a slot) and the oracle
   must verify. *)
let mpl_run seed =
  let rng = Rng.create seed in
  let nodes = 2 + Rng.int rng 3 in
  let mpl = 1 + Rng.int rng 3 in
  let config =
    if seed mod 2 = 1 then Config.with_group_commit Config.instant ~window_ms:5. ~max_batch:4
    else Config.instant
  in
  let cluster = Cluster.create ~seed ~nodes ~pool_capacity:16 config in
  let pages_by_owner =
    List.map
      (fun o -> (o, Cluster.allocate_pages cluster ~owner:o ~count:(6 + Rng.int rng 10)))
      [ 0; 1 ]
  in
  let scripts =
    Generators.partitioned rng ~pages_by_owner
      ~clients:(List.init nodes (fun i -> i))
      ~txns_per_client:(3 + Rng.int rng 6)
      ~mix:
        {
          Generators.default_mix with
          remote_fraction = Rng.float rng 0.6;
          theta = Rng.float rng 0.9;
          abort_fraction = 0.1;
        }
  in
  let in_flight = Array.make nodes 0 in
  let home = Hashtbl.create 64 in
  let peak = ref 0 in
  let finish txn =
    match Hashtbl.find_opt home txn with
    | Some node ->
      Hashtbl.remove home txn;
      in_flight.(node) <- in_flight.(node) - 1
    | None -> ()
  in
  let base = Engine.of_cluster cluster in
  let engine =
    {
      base with
      Engine.begin_txn =
        (fun ~node ->
          let txn = base.Engine.begin_txn ~node in
          Hashtbl.replace home txn node;
          in_flight.(node) <- in_flight.(node) + 1;
          peak := max !peak in_flight.(node);
          txn);
      commit_outcome =
        (fun ~txn ->
          let v = base.Engine.commit_outcome ~txn in
          (match v with `Durable | `Gone -> finish txn | `Pending -> ());
          v);
      abort =
        (fun ~txn ->
          base.Engine.abort ~txn;
          finish txn);
      crash =
        (fun ~node ->
          base.Engine.crash ~node;
          Hashtbl.fold (fun txn n acc -> if n = node then txn :: acc else acc) home []
          |> List.iter finish);
    }
  in
  let victim = Rng.int rng nodes in
  let crash_at = 3 + Rng.int rng 10 in
  let events =
    [ (crash_at, Driver.Crash victim); (crash_at + 5 + Rng.int rng 15, Driver.Recover [ victim ]) ]
  in
  let outcome = Driver.run engine ~events ~mpl ~max_rounds:30_000 scripts in
  if !peak > mpl then Error (Printf.sprintf "mpl %d: %d transactions in flight on a node" mpl !peak)
  else if outcome.Driver.stuck > 0 then
    Error (Printf.sprintf "mpl %d: %d stuck" mpl outcome.Driver.stuck)
  else
    match Driver.verify outcome with
    | Ok () -> Ok ()
    | Error errs -> Error (String.concat "; " errs)

let prop_mpl_respected =
  QCheck.Test.make ~name:"MPL caps in-flight transactions per node and starves no script"
    ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match mpl_run seed with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

let suite =
  [
    qcheck prop_durability_under_crashes;
    qcheck prop_invert_roundtrip;
    qcheck prop_merge_sorted_and_alternating;
    qcheck prop_strategy_equivalence;
    qcheck prop_mpl_respected;
  ]
