(* Observation from outside the program: an [Engine.t] whose closures
   forward to the cluster and record, per call, the wall time, the
   simulated-clock advance and whether it raised [Would_block].  With
   spans on, every call also leaves one span in memory.

   The probe never changes what the cluster sees: each closure calls
   the cluster exactly once with the driver's arguments, and the
   benchmark checks that a probed run's simulated outcome equals one
   driven through the bare [Engine.of_cluster].  Besides timing, the
   probe keeps begin times, submitted-but-unread commits and
   per-transaction deltas: they give the commit-latency sample, the
   number of committed cell updates, and let the benchmark settle the
   commits a stuck run leaves pending before the oracle reads. *)

module Cluster = Repro_cbl.Cluster
module Block = Repro_cbl.Block
module Recovery = Repro_cbl.Recovery
module Engine = Repro_workload.Engine
module Env = Repro_sim.Env
module Page_id = Repro_storage.Page_id

let ops =
  [|
    "begin_txn"; "read_cell"; "update_delta"; "commit"; "commit_outcome"; "pump_commits";
    "abort"; "checkpoint"; "crash"; "recover";
  |]

let begin_txn = 0
let read_cell = 1
let update_delta = 2
let commit = 3
let commit_outcome = 4
let pump_commits = 5
let abort = 6
let checkpoint = 7
let crash = 8
let recover = 9

let reasons =
  [|
    "lock_conflict"; "node_down"; "log_space"; "page_recovering"; "page_unavailable";
    "net_unreachable";
  |]

let lock_conflict = 0

let reason_index : Block.reason -> int = function
  | Lock_conflict _ -> lock_conflict
  | Node_down _ -> 1
  | Log_space _ -> 2
  | Page_recovering _ -> 3
  | Page_unavailable _ -> 4
  | Net_unreachable _ -> 5

type stat = {
  mutable calls : int;
  mutable wall_ns : int;
  mutable sim_s : float;
  blocked : int array;  (** [Would_block] raised, by {!reasons} index *)
}

(* Spans live in flat growable arrays: a traced run makes up to a few
   hundred thousand calls, and a record per span would cost several
   times the memory. *)
type spans = {
  mutable len : int;
  mutable op_txn : int array;  (** op lor (txn lsl 4); txn -1 when none *)
  mutable wall : int array;  (** start, stop (ns) pairs *)
  mutable sim : Float.Array.t;  (** start, stop (s) pairs *)
}

type t = {
  cluster : Cluster.t;
  env : Env.t;
  spans : spans option;
  stats : stat array;
  began : (int, float) Hashtbl.t;  (** live txn -> simulated begin time *)
  deltas : (int, (Page_id.t * int * int64) list) Hashtbl.t;
  submitted : (int, unit) Hashtbl.t;  (** commit returned, verdict unread *)
  mutable latencies : float list;  (** simulated commit latencies *)
  mutable committed_updates : int;
  mutable recoveries : Recovery.summary list;  (** newest first *)
}

let create ~spans cluster =
  {
    cluster;
    env = Cluster.env cluster;
    spans =
      (if spans then
         Some
           {
             len = 0;
             op_txn = Array.make 4096 0;
             wall = Array.make 8192 0;
             sim = Float.Array.make 8192 0.;
           }
       else None);
    stats =
      Array.map
        (fun _ ->
          { calls = 0; wall_ns = 0; sim_s = 0.; blocked = Array.make (Array.length reasons) 0 })
        ops;
    began = Hashtbl.create 1024;
    deltas = Hashtbl.create 1024;
    submitted = Hashtbl.create 64;
    latencies = [];
    committed_updates = 0;
    recoveries = [];
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let grow s =
  let n = Array.length s.op_txn in
  let op_txn = Array.make (2 * n) 0 in
  let wall = Array.make (4 * n) 0 in
  let sim = Float.Array.make (4 * n) 0. in
  Array.blit s.op_txn 0 op_txn 0 n;
  Array.blit s.wall 0 wall 0 (2 * n);
  Float.Array.blit s.sim 0 sim 0 (2 * n);
  s.op_txn <- op_txn;
  s.wall <- wall;
  s.sim <- sim

let record p op ~txn w0 s0 ~reason =
  let w1 = now_ns () in
  let s1 = Env.now p.env in
  let st = p.stats.(op) in
  st.calls <- st.calls + 1;
  st.wall_ns <- st.wall_ns + (w1 - w0);
  st.sim_s <- st.sim_s +. (s1 -. s0);
  if reason >= 0 then st.blocked.(reason) <- st.blocked.(reason) + 1;
  match p.spans with
  | None -> ()
  | Some s ->
    if s.len = Array.length s.op_txn then grow s;
    let i = s.len in
    s.op_txn.(i) <- op lor (txn lsl 4);
    s.wall.(2 * i) <- w0;
    s.wall.((2 * i) + 1) <- w1;
    Float.Array.set s.sim (2 * i) s0;
    Float.Array.set s.sim ((2 * i) + 1) s1;
    s.len <- i + 1

let timed p op ~txn f =
  let w0 = now_ns () in
  let s0 = Env.now p.env in
  match f () with
  | v ->
    record p op ~txn w0 s0 ~reason:(-1);
    v
  | exception (Block.Would_block reason as e) ->
    record p op ~txn w0 s0 ~reason:(reason_index reason);
    raise e

let forget p txn =
  Hashtbl.remove p.began txn;
  Hashtbl.remove p.deltas txn

let durable p txn =
  (match Hashtbl.find_opt p.began txn with
  | Some t0 -> p.latencies <- (Env.now p.env -. t0) :: p.latencies
  | None -> ());
  (match Hashtbl.find_opt p.deltas txn with
  | Some ds -> p.committed_updates <- p.committed_updates + List.length ds
  | None -> ());
  Hashtbl.remove p.submitted txn;
  forget p txn

let engine p : Engine.t =
  let c = p.cluster in
  let base = Engine.of_cluster c in
  {
    base with
    begin_txn =
      (fun ~node ->
        let txn = timed p begin_txn ~txn:(-1) (fun () -> Cluster.begin_txn c ~node) in
        (* the span's request id is only known now *)
        (match p.spans with
        | Some s -> s.op_txn.(s.len - 1) <- begin_txn lor (txn lsl 4)
        | None -> ());
        Hashtbl.replace p.began txn (Env.now p.env);
        txn);
    read_cell =
      (fun ~txn ~pid ~off -> timed p read_cell ~txn (fun () -> Cluster.read_cell c ~txn ~pid ~off));
    update_delta =
      (fun ~txn ~pid ~off d ->
        timed p update_delta ~txn (fun () -> Cluster.update_delta c ~txn ~pid ~off d);
        let prev = Option.value (Hashtbl.find_opt p.deltas txn) ~default:[] in
        Hashtbl.replace p.deltas txn ((pid, off, d) :: prev));
    commit =
      (fun ~txn ->
        timed p commit ~txn (fun () -> Cluster.commit c ~txn);
        Hashtbl.replace p.submitted txn ());
    commit_outcome =
      (fun ~txn ->
        let v = timed p commit_outcome ~txn (fun () -> Cluster.commit_outcome c ~txn) in
        (match v with
        | `Durable -> durable p txn
        | `Gone ->
          Hashtbl.remove p.submitted txn;
          forget p txn
        | `Pending -> ());
        v);
    pump_commits =
      (fun ~idle -> timed p pump_commits ~txn:(-1) (fun () -> Cluster.pump_group_commit c ~idle));
    abort =
      (fun ~txn ->
        timed p abort ~txn (fun () -> Cluster.abort c ~txn);
        forget p txn);
    checkpoint =
      (fun ~node -> timed p checkpoint ~txn:(-1) (fun () -> Cluster.checkpoint c ~node));
    crash = (fun ~node -> timed p crash ~txn:(-1) (fun () -> Cluster.crash c ~node));
    recover =
      (fun ~nodes ->
        let s = timed p recover ~txn:(-1) (fun () -> Cluster.recover_timed c ~nodes) in
        p.recoveries <- s :: p.recoveries);
  }
