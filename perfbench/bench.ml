(* The repository benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1

   One run sets up a workload's cluster and scripts from the seed,
   drives them through [Driver.run] over a probed [Engine.t], settles
   what a stuck run leaves behind, and checks the result with the
   durability oracle and the cluster invariants.  With --trace 0 it
   reports the end-to-end metrics; with --trace 1 it reports the
   per-layer split, from untraced runs plus one traced run of the same
   inputs.  The last line of standard output is one JSON object; the
   lines before it are a human-readable table.  Any failed check makes
   "correct" false and the exit code 1.  README.md explains the
   workloads and what each metric is expected to move. *)

module Cluster = Repro_cbl.Cluster
module Recovery = Repro_cbl.Recovery
module Driver = Repro_workload.Driver
module Engine = Repro_workload.Engine
module Op = Repro_workload.Op
module Metrics = Repro_sim.Metrics
module Env = Repro_sim.Env
module Rng = Repro_util.Rng
module Json = Repro_obs.Json
module Recorder = Repro_obs.Recorder
module Critical_path = Repro_obs.Critical_path
module Buffer_pool = Repro_buffer.Buffer_pool
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module W = Workloads

let now () = float_of_int (Probe.now_ns ()) *. 1e-9

(* One benchmark run covers [w.inputs] independent inputs, seeded
   [seed * 100 + i], and reports medians over them: a single input's
   simulated figures move by more than the metric bounds from one seed
   to the next, and hot-commit livelocks on some inputs. *)
let input_seed ~seed i = (seed * 100) + i

(* The driver's round cap.  Of 160 hot-commit inputs run to the
   driver's default cap of 100,000 rounds, every one that finished did
   so by round 7,663, and the other two workloads finish in under 2,200
   rounds.  An input still running at this cap is livelocked; stopping
   it here instead of at 100,000 costs a fifth of the wall time, and its
   unfinished scripts still count as failed. *)
let max_rounds = 20_000

(* Large enough that no workload's traced run overwrites an event. *)
let trace_capacity = 1 lsl 21

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

type setup = {
  cluster : Cluster.t;
  scripts : Op.script list;
  setup_s : float;  (** create + allocate + generate *)
  gen_s : float;
}

let setup (w : W.t) ~seed ~trace =
  let t0 = now () in
  let cluster =
    Cluster.create ~trace
      ?trace_capacity:(if trace then Some trace_capacity else None)
      ~seed ~pool_capacity:w.pool_capacity ~nodes:w.nodes w.config
  in
  let pages_by_owner =
    List.init w.nodes (fun o ->
        (o, Cluster.allocate_pages cluster ~owner:o ~count:w.pages_per_owner))
  in
  let t1 = now () in
  let scripts = w.scripts (Rng.split (Rng.create seed)) ~pages_by_owner in
  let t2 = now () in
  { cluster; scripts; setup_s = t2 -. t0; gen_s = t2 -. t1 }

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

(* Everything simulated about a run.  It must repeat bit for bit at a
   fixed seed, and a traced run must reproduce it exactly. *)
type sim = {
  scripts : int;
  committed : int;
  stuck : int;
  restarts : int;
  rounds : int;
  sched_events : int;
  sim_seconds : float;
  latencies : float array;  (** sorted, simulated seconds *)
  committed_updates : int;
  counters : Metrics.t;  (** cluster-wide, over [Driver.run] *)
  busy : float array;  (** per-node busy seconds, over [Driver.run] *)
  op_calls : int array;
  op_sim : float array;
  op_blocked : int array array;  (** by op, then {!Probe.reasons} index *)
  recovery : (string * float) list;  (** simulated seconds per phase, summed *)
  dep_edges : int;
}

type run = {
  sim : sim;
  outcome_digest : Digest.t;  (** what the bare-engine run must match *)
  setup_s : float;
  gen_s : float;
  wall_s : float;  (** [Driver.run] *)
  ref_s : float;  (** {!reference_s} around the run; nan until {!repeat} sets it *)
  live_mb : float;  (** live heap the run added, measured when [Driver.run] returns *)
  op_wall_ns : int array;
  errors : string list;
  cp : Critical_path.t option;  (** traced runs *)
  events_dropped : int;
}

(* What the driver reports; a run through the bare engine must give the
   same, or the probe changed the simulation. *)
let outcome_digest (o : Driver.outcome) counters =
  Digest.string
    (Marshal.to_string
       ( o.committed,
         o.stuck,
         o.voluntary_aborts,
         o.deadlock_aborts,
         o.rounds,
         o.sched_events,
         o.sim_seconds,
         o.latencies,
         List.sort compare o.shadow,
         counters )
       [])

(* A run stopped at the round cap leaves transactions holding
   locks and, under group commit, commits nobody polled.  Abort the
   former, let every batch force, and credit the latter's deltas to the
   oracle's shadow if they became durable. *)
let settle (p : Probe.t) (o : Driver.outcome) =
  let c = p.cluster in
  List.iter
    (fun node ->
      List.iter
        (fun txn -> Cluster.abort c ~txn)
        (List.sort compare (Cluster.active_txns c ~node)))
    (Cluster.operational_nodes c);
  let rec drain budget =
    if budget > 0 && Cluster.pump_group_commit c ~idle:true then drain (budget - 1)
  in
  drain 10_000;
  let shadow = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace shadow k v) o.shadow;
  let unsettled =
    Hashtbl.fold
      (fun txn () acc ->
        match Cluster.commit_outcome c ~txn with
        | `Durable ->
          List.iter
            (fun (pid, off, d) ->
              let cur = Option.value (Hashtbl.find_opt shadow (pid, off)) ~default:0L in
              Hashtbl.replace shadow (pid, off) (Int64.add cur d))
            (Option.value (Hashtbl.find_opt p.deltas txn) ~default:[]);
          acc
        | `Gone -> acc
        | `Pending -> txn :: acc)
      p.submitted []
  in
  (List.of_seq (Hashtbl.to_seq shadow), unsettled)

let check (p : Probe.t) (o : Driver.outcome) (counters : Metrics.t) =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if counters.commit_messages <> 0 then
    fail "%d commit-path messages; the paper's commit sends none" counters.commit_messages;
  if List.length p.latencies <> o.committed then
    fail "probe saw %d durable commits, the driver counted %d" (List.length p.latencies)
      o.committed;
  (match settle p o with
  | exception e -> fail "settling the stuck run failed: %s" (Printexc.to_string e)
  | _, (_ :: _ as txns) ->
    fail "%d commits still pending after every batch forced" (List.length txns)
  | shadow, [] -> (
    match Driver.verify { o with shadow; engine = Engine.of_cluster p.cluster } with
    | Ok () -> ()
    | Error errs ->
      fail "durability oracle: %d mismatched cells, first %s" (List.length errs) (List.hd errs)
    | exception e -> fail "durability oracle: %s" (Printexc.to_string e)));
  (match Cluster.check_invariants p.cluster with
  | () -> ()
  | exception e -> fail "cluster invariants: %s" (Printexc.to_string e));
  List.rev !errors

let sum_phases (summaries : Recovery.summary list) =
  List.fold_left
    (fun acc (s : Recovery.summary) ->
      List.fold_left
        (fun acc (name, dt) ->
          let cur = Option.value (List.assoc_opt name acc) ~default:0. in
          (name, cur +. dt) :: List.remove_assoc name acc)
        acc s.phases)
    [] (List.rev summaries)
  |> List.sort compare

let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).live_words * (Sys.word_size / 8)) /. 1e6

let run_once (w : W.t) ~seed ~traced =
  let live_before = live_heap_mb () in
  let s = setup w ~seed ~trace:traced in
  let c = s.cluster in
  let p = Probe.create ~spans:traced c in
  let before = Metrics.snapshot (Cluster.global_metrics c) in
  let busy_before = Array.init w.nodes (fun n -> (Cluster.node_metrics c n).busy_seconds) in
  Gc.compact ();
  let t0 = now () in
  let o = Driver.run (Probe.engine p) ~events:w.events ~max_rounds ~mpl:w.mpl s.scripts in
  let wall_s = now () -. t0 in
  let live_mb = live_heap_mb () -. live_before in
  let counters = Metrics.diff ~after:(Cluster.global_metrics c) ~before in
  let obs = Env.obs (Cluster.env c) in
  let events_dropped = Recorder.dropped obs in
  let cp = if traced then Some (Critical_path.analyze (Recorder.events obs)) else None in
  let latencies = Array.of_list p.latencies in
  Array.sort compare latencies;
  let sim =
    {
      scripts = List.length s.scripts;
      committed = o.committed;
      stuck = o.stuck;
      restarts = o.deadlock_aborts;
      rounds = o.rounds;
      sched_events = o.sched_events;
      sim_seconds = o.sim_seconds;
      latencies;
      committed_updates = p.committed_updates;
      counters;
      busy =
        Array.mapi (fun n b -> (Cluster.node_metrics c n).busy_seconds -. b) busy_before;
      op_calls = Array.map (fun (st : Probe.stat) -> st.calls) p.stats;
      op_sim = Array.map (fun (st : Probe.stat) -> st.sim_s) p.stats;
      op_blocked = Array.map (fun (st : Probe.stat) -> Array.copy st.blocked) p.stats;
      recovery = sum_phases p.recoveries;
      dep_edges = Cluster.dep_edges_registered c;
    }
  in
  let outcome_digest = outcome_digest o counters in
  let op_wall_ns = Array.map (fun (st : Probe.stat) -> st.wall_ns) p.stats in
  let errors = check p o counters in
  ( {
      sim;
      outcome_digest;
      setup_s = s.setup_s;
      gen_s = s.gen_s;
      wall_s;
      ref_s = nan;
      live_mb;
      op_wall_ns;
      errors;
      cp;
      events_dropped;
    },
    p )

(* The same inputs through [Engine.of_cluster], no probe. *)
let bare_digest (w : W.t) ~seed =
  let s = setup w ~seed ~trace:false in
  let before = Metrics.snapshot (Cluster.global_metrics s.cluster) in
  let o =
    Driver.run (Engine.of_cluster s.cluster) ~events:w.events ~max_rounds ~mpl:w.mpl s.scripts
  in
  outcome_digest o (Metrics.diff ~after:(Cluster.global_metrics s.cluster) ~before)

let write_spans (p : Probe.t) ~wall_s ~path =
  match p.spans with
  | None -> ()
  | Some s ->
    let oc = open_out path in
    let t0 = if s.len > 0 then s.wall.(0) else 0 in
    Printf.fprintf oc
      "{\"id\":0,\"name\":\"workload.run\",\"parent\":-1,\"txn\":-1,\"wall_s\":%.9f}\n" wall_s;
    for i = 0 to s.len - 1 do
      let v = s.op_txn.(i) in
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"engine.%s\",\"parent\":0,\"txn\":%d,\"wall_start_ns\":%d,\
         \"wall_stop_ns\":%d,\"sim_start\":%.17g,\"sim_stop\":%.17g}\n"
        (i + 1) Probe.ops.(v land 15) (v asr 4) (s.wall.(2 * i) - t0)
        (s.wall.((2 * i) + 1) - t0)
        (Float.Array.get s.sim (2 * i))
        (Float.Array.get s.sim ((2 * i) + 1))
    done;
    close_out oc

(* A fixed workload of the benchmark's own, timed around every run.  On
   a shared host the speed of the machine drifts by more than the metric
   bounds within minutes; a run's wall time over the reference loop's,
   timed just before and just after it, cancels most of that drift.  The
   loop calls nothing in the simulator, so a change there cannot move
   it. *)
let reference_s () =
  Gc.full_major ();
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 99_999 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) (Array.make 4 i)
  done;
  let a = Array.init 100_000 (fun i -> float_of_int ((i * 7919) mod 100_003)) in
  Array.sort compare a;
  let l = List.init 150_000 (fun i -> (i, i)) in
  ignore (Sys.opaque_identity (h, a, l));
  now () -. t0

(* Runs [run k] for k = 0, 1, ... while [continue k] holds, timing the
   reference loop before the first run and after each. *)
let repeat ~continue run =
  let rec go k before acc =
    if not (continue k) then List.rev acc
    else
      let r = run k in
      let after = reference_s () in
      go (k + 1) after ({ r with ref_s = (before +. after) /. 2. } :: acc)
  in
  go 0 (reference_s ()) []

(* ------------------------------------------------------------------ *)
(* Layer probes outside the workload                                    *)
(* ------------------------------------------------------------------ *)

(* Mean wall microseconds of [Buffer_pool.choose_victim] on a full pool
   of crash-recover's capacity, default policy, in a steady evict /
   install / touch loop. *)
let victim_us () =
  let capacity = W.crash_recover.pool_capacity in
  let pool = Buffer_pool.create ~capacity () in
  let page slot = Page.create ~id:(Page_id.make ~owner:0 ~slot) ~psn:0 ~size:1024 in
  for slot = 0 to capacity - 1 do
    ignore (Buffer_pool.install pool (page slot))
  done;
  let evictions = 4_000 in
  let spent = ref 0 in
  for i = 0 to evictions - 1 do
    let t0 = Probe.now_ns () in
    let victim = Buffer_pool.choose_victim pool in
    spent := !spent + (Probe.now_ns () - t0);
    match victim with
    | None -> assert false
    | Some f ->
      Buffer_pool.remove pool (Page.id f.page);
      let slot = capacity + i in
      ignore (Buffer_pool.install pool (page slot));
      ignore (Buffer_pool.find pool (Page_id.make ~owner:0 ~slot))
  done;
  float_of_int !spent /. float_of_int evictions /. 1e3

(* Mean wall microseconds per page of [Cluster.allocate_pages] filling
   one owner to crash-recover's database size. *)
let alloc_us_per_page () =
  let w = W.crash_recover in
  let cluster = Cluster.create ~nodes:1 w.config in
  let t0 = now () in
  ignore (Cluster.allocate_pages cluster ~owner:0 ~count:w.pages_per_owner);
  (now () -. t0) *. 1e6 /. float_of_int w.pages_per_owner

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let median_sorted (a : float array) =
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  median_sorted a

(* The highest percentile with at least ten samples above it: the
   eleventh-largest sample.  Returns (value, percentile, samples). *)
let tail (a : float array) =
  let n = Array.length a in
  if n = 0 then (nan, nan, 0)
  else if n <= 10 then (a.(n - 1), 100., n)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

let ratio a b = if b = 0. then 0. else a /. b
let per_commit (s : sim) x = ratio (float_of_int x) (float_of_int s.committed)

let storage_bytes_per_user_byte (w : W.t) (s : sim) =
  let page_size = w.config.page_size in
  ratio
    (float_of_int (s.counters.log_bytes + (s.counters.page_disk_writes * page_size)))
    (float_of_int (8 * s.committed_updates))

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-36s %16.6g %s\n" x.name x.value x.unit) metrics

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit) ]))
                metrics) );
       ])

(* End-to-end metrics over a set of runs: simulated figures and the
   heap are medians over the distinct inputs (first run of each),
   wall-clock figures medians over every run. *)
let end_to_end (w : W.t) (firsts : run list) (all : run list) =
  let med f = median (List.map f firsts) in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 firsts) in
  ( [
      m "setup_s" "s" (median (List.map (fun r -> r.setup_s) all));
      m "sim_txn_per_s" "1/s"
        (med (fun r -> ratio (float_of_int r.sim.committed) r.sim.sim_seconds));
      m "sim_commit_p50_ms" "ms" (med (fun r -> 1e3 *. median_sorted r.sim.latencies));
      m "sim_commit_p99_ms" "ms" (med (fun r -> let v, _, _ = tail r.sim.latencies in 1e3 *. v));
      m "wall_txn_per_ref" "1/ref"
        (median
           (List.map (fun r -> ratio (float_of_int r.sim.committed *. r.ref_s) r.wall_s) all));
      m "storage_bytes_per_user_byte" "ratio" (med (fun r -> storage_bytes_per_user_byte w r.sim));
      m "live_heap_mb" "MB" (med (fun r -> r.live_mb));
    ],
    (* reported beside the gated ones: raw wall speed drifts with the
       host, the next three read 0 on some workload, and the process's
       peak heap depends on which inputs ran before the largest one *)
    [
      m "wall_txn_per_s" "1/s"
        (median (List.map (fun r -> ratio (float_of_int r.sim.committed) r.wall_s) all));
      m "ref_loop_s" "s" (median (List.map (fun r -> r.ref_s) all));
      m "failed_share" "ratio"
        (ratio (total (fun r -> r.sim.stuck)) (total (fun r -> r.sim.scripts)));
      m "sim_recovery_ms" "ms" (med (fun r -> 1e3 *. r.sim.op_sim.(Probe.recover)));
      m "commit_msgs_per_txn" "count"
        (ratio
           (total (fun r -> r.sim.counters.commit_messages))
           (total (fun r -> r.sim.committed)));
      m "peak_heap_mb" "MB"
        (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ] )

let recovery_phases = [ "analysis"; "lock_reconstruction"; "gather"; "psn_lists"; "redo"; "undo" ]

let cp_share (cp : Critical_path.t) name =
  let total = List.fold_left (fun a (t : Critical_path.timeline) -> a +. t.total) 0. cp.txns in
  ratio
    (List.fold_left
       (fun a (t : Critical_path.timeline) -> a +. Critical_path.component_value t.parts name)
       0. cp.txns)
    total

(* Per-layer metrics: counts from the untraced runs of one input (they
   repeat exactly), wall times as medians over those runs, shares of
   commit latency from the traced run of the same input. *)
let per_layer (untraced : run list) (traced : run) ~victim_us ~alloc_us_per_page =
  let s = (List.hd untraced).sim in
  let med f = median (List.map f untraced) in
  let cp = Option.get traced.cp in
  let core =
    List.concat
      (List.mapi
         (fun i op ->
           let calls = s.op_calls.(i) in
           let per_call x = ratio x (float_of_int calls) in
           [
             m (Printf.sprintf "core.%s.calls" op) "count" (float_of_int calls);
             m (Printf.sprintf "core.%s.wall_us" op) "us"
               (med (fun r -> per_call (float_of_int r.op_wall_ns.(i) /. 1e3)));
             m (Printf.sprintf "core.%s.sim_ms" op) "ms" (per_call (1e3 *. s.op_sim.(i)));
             m (Printf.sprintf "core.%s.blocked_share" op) "ratio"
               (per_call (float_of_int (Array.fold_left ( + ) 0 s.op_blocked.(i))));
           ])
         (Array.to_list Probe.ops))
  in
  let engine_s r = float_of_int (Array.fold_left ( + ) 0 r.op_wall_ns) *. 1e-9 in
  let c = s.counters in
  let lock_calls = s.op_calls.(Probe.read_cell) + s.op_calls.(Probe.update_delta) in
  let conflicts =
    s.op_blocked.(Probe.read_cell).(Probe.lock_conflict)
    + s.op_blocked.(Probe.update_delta).(Probe.lock_conflict)
  in
  let busy_mean = Array.fold_left ( +. ) 0. s.busy /. float_of_int (Array.length s.busy) in
  let untraced_wall = med (fun r -> r.wall_s) in
  [
    m "workload.driver_self_s" "s" (med (fun r -> r.wall_s -. engine_s r));
    m "workload.sched_events_per_commit" "count/commit" (per_commit s s.sched_events);
    m "workload.restarts_per_commit" "count/commit" (per_commit s s.restarts);
    m "workload.script_gen_s" "s" (med (fun r -> r.gen_s));
  ]
  @ core
  @ [
      m "lock.conflict_share" "ratio" (ratio (float_of_int conflicts) (float_of_int lock_calls));
      m "lock.remote_share" "ratio"
        (ratio
           (float_of_int c.lock_requests_remote)
           (float_of_int (c.lock_requests_remote + c.lock_requests_local)));
      m "lock.callbacks_per_commit" "count/commit" (per_commit s c.callbacks_sent);
      m "lock.wait_share" "ratio" (cp_share cp "lock_wait");
      m "wal.forces_per_commit" "count/commit" (per_commit s c.log_forces);
      m "wal.mean_batch" "count"
        (if c.commit_batches = 0 then 1.
         else ratio (float_of_int c.batched_commits) (float_of_int c.commit_batches));
      m "wal.log_bytes_per_commit" "B/commit" (per_commit s c.log_bytes);
      m "wal.batch_wait_share" "ratio" (cp_share cp "batch_wait");
      m "wal.force_share" "ratio" (cp_share cp "log_force");
      m "buffer.hit_ratio" "ratio"
        (ratio (float_of_int c.cache_hits) (float_of_int (c.cache_hits + c.cache_misses)));
      m "buffer.disk_reads_per_commit" "count/commit" (per_commit s c.page_disk_reads);
      m "buffer.disk_writes_per_commit" "count/commit" (per_commit s c.page_disk_writes);
      m "buffer.victim_us" "us" victim_us;
      m "storage.alloc_us_per_page" "us" alloc_us_per_page;
      m "storage.owner_service_share" "ratio" (cp_share cp "owner_service");
      m "tx.dep_edges_per_commit" "count/commit" (per_commit s s.dep_edges);
      m "tx.dep_wait_share" "ratio" (cp_share cp "dep_wait");
      m "net.msgs_per_commit" "count/commit" (per_commit s c.messages_sent);
      m "net.bytes_per_commit" "B/commit" (per_commit s c.message_bytes);
      m "net.share" "ratio" (cp_share cp "network");
      m "sim.busy_imbalance" "ratio"
        (ratio (Array.fold_left Float.max 0. s.busy) busy_mean);
    ]
  @ List.map
      (fun phase ->
        m (Printf.sprintf "recovery.%s_ms" phase) "ms"
          (1e3 *. Option.value (List.assoc_opt phase s.recovery) ~default:0.))
      recovery_phases
  @ [
      m "recovery.records_scanned" "count" (float_of_int c.recovery_log_records_scanned);
      m "recovery.pages_redone" "count" (float_of_int c.recovery_pages_redone);
      m "recovery.messages" "count" (float_of_int c.recovery_messages);
      m "recovery.wall_ms" "ms" (med (fun r -> float_of_int r.op_wall_ns.(Probe.recover) /. 1e6));
      m "obs.trace_overhead" "ratio" (ratio traced.wall_s untraced_wall -. 1.);
      m "obs.events_dropped" "count" (float_of_int traced.events_dropped);
      m "obs.cp.other_share" "ratio" (cp_share cp "other");
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let default_seed = 2026

(* Relative to the checkout root, where run.py starts the benchmark. *)
let spans_dir = "perfbench/out"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME scale-uniform | hot-commit | crash-recover");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N input seed (default %d)" default_seed);
      ("--seconds", Arg.Set_float seconds, "S measure for at least S wall seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer split (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; have "
        ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let seed = !seed and seconds = !seconds in
  let started = now () in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let collect i (r : run) = List.iter (fun e -> fail "input %d: %s" i e) r.errors in
  (* Runs of one input must agree on every simulated figure. *)
  let same_sim i (a : run) (b : run) =
    if a.sim <> b.sim then fail "input %d: simulated results differ between two runs" i
  in
  Printf.printf "workload %s, seed %d (inputs seeded %d..%d), trace %d\n" w.name seed
    (input_seed ~seed 0)
    (input_seed ~seed (w.inputs - 1))
    !trace;
  let print_input i (r : run) =
    let v, pct, n = tail r.sim.latencies in
    Printf.printf
      "input %d: %d/%d scripts committed, %d stuck, %d restarts, %d rounds, sim %.3f s, commit \
       tail p%.2f = %.3f ms (%d samples), wall %.3f s\n"
      i r.sim.committed r.sim.scripts r.sim.stuck r.sim.restarts r.sim.rounds r.sim.sim_seconds
      pct (1e3 *. v) n r.wall_s
  in
  if !trace = 0 then begin
    (* Every input once, then further passes until [seconds] is up. *)
    let all =
      repeat
        ~continue:(fun k -> k < w.inputs || now () -. started < seconds)
        (fun k -> fst (run_once w ~seed:(input_seed ~seed (k mod w.inputs)) ~traced:false))
    in
    let firsts = List.filteri (fun k _ -> k < w.inputs) all in
    List.iteri
      (fun k r ->
        let i = k mod w.inputs in
        collect i r;
        if k >= w.inputs then same_sim i (List.nth firsts i) r)
      all;
    List.iteri print_input firsts;
    Printf.printf "%d runs in %.1f s; Driver.run wall (s): %s\n" (List.length all)
      (now () -. started)
      (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall_s) all));
    let gated, extra = end_to_end w firsts all in
    print_table "end-to-end" (gated @ extra);
    List.iter (fun e -> Printf.printf "FAIL %s\n" e) (List.rev !errors);
    let correct = !errors = [] in
    print_endline
      (result_line ~correct
         ~attempted:(List.fold_left (fun a r -> a + r.sim.scripts) 0 firsts)
         ~failed:(List.fold_left (fun a r -> a + r.sim.stuck) 0 firsts)
         gated);
    exit (if correct then 0 else 1)
  end
  else begin
    (* The per-layer split, all on the first input: untraced runs until
       [seconds] is up, one through the bare engine, one traced. *)
    let input = input_seed ~seed 0 in
    let untraced =
      repeat
        ~continue:(fun k -> k = 0 || now () -. started < seconds)
        (fun _ -> fst (run_once w ~seed:input ~traced:false))
    in
    let first = List.hd untraced in
    List.iter
      (fun r ->
        collect 0 r;
        same_sim 0 first r)
      untraced;
    if bare_digest w ~seed:input <> first.outcome_digest then
      fail "the probed engine changed the simulated outcome";
    let traced, probe = run_once w ~seed:input ~traced:true in
    collect 0 traced;
    if traced.sim <> first.sim then fail "the traced run's simulated results differ from untraced";
    if traced.events_dropped > 0 then
      fail "the recorder dropped %d events; raise its capacity" traced.events_dropped;
    (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed) in
    write_spans probe ~wall_s:traced.wall_s ~path;
    let layers =
      per_layer untraced traced ~victim_us:(victim_us ()) ~alloc_us_per_page:(alloc_us_per_page ())
    in
    print_input 0 first;
    Printf.printf "%d untraced runs, traced run wall %.3f s, spans in %s, %.1f s\n"
      (List.length untraced) traced.wall_s path (now () -. started);
    let gated, extra = end_to_end w [ first ] untraced in
    print_table "end-to-end (first input only)" (gated @ extra);
    print_table "per-layer" layers;
    Array.iteri
      (fun i op ->
        let b = first.sim.op_blocked.(i) in
        if Array.exists (fun n -> n > 0) b then
          Printf.printf "  %s blocked: %s\n" op
            (String.concat ", "
               (List.filter_map
                  (fun (r, n) -> if n > 0 then Some (Printf.sprintf "%s %d" r n) else None)
                  (List.combine (Array.to_list Probe.reasons) (Array.to_list b)))))
      Probe.ops;
    List.iter (fun e -> Printf.printf "FAIL %s\n" e) (List.rev !errors);
    let correct = !errors = [] in
    print_endline
      (result_line ~correct ~attempted:first.sim.scripts ~failed:first.sim.stuck layers);
    exit (if correct then 0 else 1)
  end
