(* The benchmark's three workloads.  Every one is closed loop: a client
   is a stream of scripts, the driver runs one action per script per
   round, and the per-node multiprogramming level (MPL) caps how many
   transactions are in flight at a node.  A (workload, seed) pair fully
   determines the cluster and the scripts; the program under test sees
   only the generated scripts.  README.md records why each workload
   exists and which layer it stresses. *)

module Config = Repro_sim.Config
module Rng = Repro_util.Rng
module Page_id = Repro_storage.Page_id
module Driver = Repro_workload.Driver
module Generators = Repro_workload.Generators
module Op = Repro_workload.Op
module Scale = Repro_workload.Scale

type t = {
  name : string;
  nodes : int;
  pages_per_owner : int;
  pool_capacity : int;  (** frames per node *)
  mpl : int;
  inputs : int;  (** independent inputs per benchmark run *)
  config : Config.t;
  scripts : Rng.t -> pages_by_owner:(int * Page_id.t list) list -> Op.script list;
  events : (int * Driver.event) list;  (** (driver round, event) *)
}

let kib_pages = Config.with_page_size Config.default 1024

(* Round-robin merge of per-client script streams, so that client i's
   k-th transaction sits next to every other client's k-th. *)
let interleave lists =
  let rec go acc lists =
    match List.filter (fun l -> l <> []) lists with
    | [] -> List.rev acc
    | live -> go (List.rev_append (List.map List.hd live) acc) (List.map List.tl live)
  in
  go [] lists

(* 128 nodes x 8 clients on the Scale "uniform" profile; 16 one-KiB
   pages per node, so every working set fits the default 64-frame pool.
   No group commit, no crash. *)
let scale_uniform =
  let profile = Option.get (Scale.find "uniform") in
  {
    name = "scale-uniform";
    nodes = 128;
    pages_per_owner = 16;
    pool_capacity = 64;
    mpl = 8;
    inputs = 6;
    config = kib_pages;
    scripts =
      (fun rng ~pages_by_owner ->
        Scale.scripts rng profile ~pages_by_owner ~clients:1024 ~txns_per_client:4);
    events = [];
  }

(* One node, 16 clients on 16 shared hot pages: E15's early-lock-release
   leg run long.  Group commit batches up to 8 commits in a 10 ms
   window. *)
let hot_commit =
  let clients = 16 in
  let mix =
    {
      Generators.default_mix with
      ops_per_txn = 3;
      update_fraction = 0.5;
      remote_fraction = 0.;
      theta = 0.6;
    }
  in
  {
    name = "hot-commit";
    nodes = 1;
    pages_per_owner = 16;
    pool_capacity = 64;
    mpl = clients;
    inputs = 20;
    config =
      Config.with_early_release
        (Config.with_group_commit Config.default ~window_ms:10. ~max_batch:8)
        true;
    scripts =
      (fun rng ~pages_by_owner ->
        let pages = List.assoc 0 pages_by_owner in
        interleave
          (List.init clients (fun _ ->
               Generators.hotspot rng ~pages ~clients:[ 0 ] ~txns_per_client:100 ~mix)));
    events = [];
  }

(* 8 nodes x 4 clients, read-mostly and partitioned; 4,096 one-KiB
   pages per owner against a 1,024-frame pool, so most misses evict.
   Two nodes checkpoint mid-run; later two nodes (one of them a
   checkpointer) crash together, recover together (§2.4), and the load
   carries on. *)
let crash_recover =
  let nodes = 8 in
  let mix =
    { Generators.default_mix with update_fraction = 0.25; remote_fraction = 0.3; theta = 0.5 }
  in
  {
    name = "crash-recover";
    nodes;
    pages_per_owner = 4096;
    pool_capacity = 1024;
    mpl = 4;
    inputs = 5;
    config = kib_pages;
    scripts =
      (fun rng ~pages_by_owner ->
        Generators.partitioned rng ~pages_by_owner
          ~clients:(List.init (nodes * 4) (fun i -> i mod nodes))
          ~txns_per_client:200 ~mix);
    events =
      [
        (600, Driver.Checkpoint 1);
        (600, Driver.Checkpoint 2);
        (1_000, Driver.Crash 2);
        (1_000, Driver.Crash 5);
        (1_020, Driver.Recover [ 2; 5 ]);
      ];
  }

let all = [ scale_uniform; hot_commit; crash_recover ]
let find name = List.find_opt (fun w -> w.name = name) all
