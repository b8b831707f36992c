(* Tests for LSNs, log records and the log manager. *)

module Lsn = Repro_wal.Lsn
module Record = Repro_wal.Record
module Log_manager = Repro_wal.Log_manager
module Group_commit = Repro_wal.Group_commit
module Checkpoint = Repro_aries.Checkpoint
module Master = Repro_aries.Master
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Codec = Repro_util.Codec
module Env = Repro_sim.Env
module Metrics = Repro_sim.Metrics
module Config = Repro_sim.Config

let qcheck = QCheck_alcotest.to_alcotest
let pid slot = Page_id.make ~owner:0 ~slot

(* ---- Lsn ---- *)

let test_lsn_nil () =
  Alcotest.(check bool) "nil is nil" true (Lsn.is_nil Lsn.nil);
  Alcotest.(check bool) "0 is not nil" false (Lsn.is_nil 0);
  Alcotest.(check bool) "nil below all" true (Lsn.compare Lsn.nil 0 < 0);
  Alcotest.(check int) "min" Lsn.nil (Lsn.min Lsn.nil 5);
  Alcotest.(check int) "max" 5 (Lsn.max Lsn.nil 5)

(* ---- Record ---- *)

let sample_records =
  [
    { Record.txn = 1; prev = Lsn.nil; body = Commit };
    { Record.txn = 2; prev = 10; body = Abort };
    { Record.txn = 3; prev = 20; body = Savepoint "sp-1" };
    {
      Record.txn = 4;
      prev = 30;
      body = Update { pid = pid 7; psn_before = 5; op = Delta { off = 16; delta = -9L } };
    };
    {
      Record.txn = 5;
      prev = 40;
      body =
        Update
          { pid = pid 8; psn_before = 0; op = Physical { off = 2; before = "ab"; after = "xy" } };
    };
    {
      Record.txn = 6;
      prev = 50;
      body =
        Clr
          {
            pid = pid 9;
            psn_before = 3;
            op = Delta { off = 0; delta = 4L };
            undo_next = 12;
          };
    };
    {
      Record.txn = Record.system_txn;
      prev = Lsn.nil;
      body =
        Checkpoint_begin
          {
            dpt = [ { Record.pid = pid 1; psn_first = 2; curr_psn = 6; redo_lsn = 99 } ];
            active = [ { Record.txn = 7; last_lsn = 123 } ];
          };
    };
    { Record.txn = Record.system_txn; prev = 60; body = Checkpoint_end };
  ]

let test_record_roundtrips () =
  List.iter
    (fun r ->
      let r' = Record.decode (Record.encode r) in
      Alcotest.(check string) "roundtrip"
        (Format.asprintf "%a" Record.pp r)
        (Format.asprintf "%a" Record.pp r'))
    sample_records

let test_record_accessors () =
  let upd = List.nth sample_records 3 in
  Alcotest.(check bool) "page_of" true (Record.page_of upd = Some (pid 7));
  Alcotest.(check (option int)) "psn_before_of" (Some 5) (Record.psn_before_of upd);
  Alcotest.(check bool) "commit has no page" true (Record.page_of (List.hd sample_records) = None)

let test_op_apply_and_invert () =
  let page = Page.create ~id:(pid 0) ~psn:0 ~size:64 in
  Page.set_cell page ~off:8 100L;
  let op = Record.Delta { off = 8; delta = 23L } in
  Record.apply_op page op;
  Alcotest.(check int64) "applied" 123L (Page.get_cell page ~off:8);
  Record.apply_op page (Record.invert op);
  Alcotest.(check int64) "inverted" 100L (Page.get_cell page ~off:8);
  let phys = Record.Physical { off = 0; before = "\x00\x00"; after = "hi" } in
  Record.apply_op page phys;
  Alcotest.(check string) "physical" "hi" (Page.read page ~off:0 ~len:2);
  Record.apply_op page (Record.invert phys);
  Alcotest.(check string) "physical undone" "\x00\x00" (Page.read page ~off:0 ~len:2)

let test_record_decode_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Record.decode "\xff\xff\xff");
       false
     with Codec.Corrupt _ -> true)

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map2 (fun off d -> Record.Delta { off; delta = Int64.of_int d }) (int_bound 56) int;
        map3
          (fun off b a -> Record.Physical { off; before = b; after = a })
          (int_bound 32) (string_size (return 4)) (string_size (return 4));
      ])

let gen_record =
  QCheck.Gen.(
    map3
      (fun txn prev op ->
        { Record.txn; prev; body = Update { pid = pid (txn mod 8); psn_before = prev + 1; op } })
      (int_bound 1000) (int_bound 10_000) gen_op)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record: random update roundtrip" ~count:300
    (QCheck.make gen_record) (fun r ->
      Format.asprintf "%a" Record.pp (Record.decode (Record.encode r))
      = Format.asprintf "%a" Record.pp r)

(* ---- Log_manager ---- *)

let mk ?capacity () =
  let env = Env.create Config.instant in
  Log_manager.create env (Metrics.create ()) ?capacity ()

let commit_record txn prev = { Record.txn; prev; body = Record.Commit }

let test_log_manager_append_read () =
  let log = mk () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  let l2 = Log_manager.append log (commit_record 2 l1) in
  Alcotest.(check int) "first at 0" 0 l1;
  Alcotest.(check bool) "ordered" true (l2 > l1);
  let r = Log_manager.read log l2 in
  Alcotest.(check int) "txn" 2 r.Record.txn;
  Alcotest.(check int) "prev chain" l1 r.Record.prev;
  Alcotest.(check int) "next_lsn" l2 (Log_manager.next_lsn log l1)

let test_log_manager_fold_and_upto () =
  let log = mk () in
  let lsns = List.map (fun i -> Log_manager.append log (commit_record i Lsn.nil)) [ 1; 2; 3; 4 ] in
  let all = Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc _ r -> r.Record.txn :: acc) in
  Alcotest.(check (list int)) "all scanned" [ 4; 3; 2; 1 ] all;
  let upto = List.nth lsns 2 in
  let some = Log_manager.fold log ~upto ~from:Lsn.nil ~init:[] (fun acc _ r -> r.Record.txn :: acc) in
  Alcotest.(check (list int)) "upto exclusive" [ 2; 1 ] some

let test_log_manager_force_and_crash () =
  let log = mk () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  Log_manager.force log ~upto:l1;
  let _l2 = Log_manager.append log (commit_record 2 l1) in
  Log_manager.crash log;
  let survivors =
    Log_manager.fold log ~from:Lsn.nil ~init:[] (fun acc _ r -> r.Record.txn :: acc)
  in
  Alcotest.(check (list int)) "only forced survives" [ 1 ] survivors

let test_log_manager_force_counts_once () =
  let env = Env.create Config.instant in
  let m = Metrics.create () in
  let log = Log_manager.create env m () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  Log_manager.force log ~upto:l1;
  Log_manager.force log ~upto:l1;
  Alcotest.(check int) "idempotent force charges once" 1 m.Metrics.log_forces

let test_log_manager_capacity () =
  let log = mk ~capacity:64 () in
  let l1 = Log_manager.append log (commit_record 1 Lsn.nil) in
  Alcotest.(check bool) "fills" true
    (try
       for i = 2 to 100 do
         ignore (Log_manager.append log (commit_record i Lsn.nil))
       done;
       false
     with Log_manager.Log_full -> true);
  (* overdraft always fits *)
  ignore (Log_manager.append ~overdraft:true log (commit_record 99 Lsn.nil));
  (* truncation frees space *)
  Log_manager.force_all log;
  Log_manager.truncate_to log (Log_manager.next_lsn log l1);
  Alcotest.(check bool) "freed" true (Option.get (Log_manager.available_bytes log) > 0)

let test_log_manager_scan_counts () =
  let env = Env.create Config.instant in
  let m = Metrics.create () in
  let log = Log_manager.create env m () in
  for i = 1 to 5 do
    ignore (Log_manager.append log (commit_record i Lsn.nil))
  done;
  ignore (Log_manager.fold log ~from:Lsn.nil ~init:() (fun () _ _ -> ()));
  Alcotest.(check int) "scan charged per record" 5 m.Metrics.recovery_log_records_scanned

(* ---- Group commit: every force sweeps the pending batch ---- *)

(* A log with a batching group commit whose completions are recorded
   in order.  Nothing else forces it, so every completion below comes
   from the force the test runs. *)
let mk_batched () =
  let env = Env.create (Config.with_group_commit Config.instant ~window_ms:10. ~max_batch:8) in
  let metrics = Metrics.create () in
  let log = Log_manager.create env metrics () in
  let gc = Group_commit.create env ~node:0 log in
  let completed = ref [] in
  Group_commit.set_hooks gc
    ~before_force:(fun () -> ())
    ~on_durable:(fun ~txn ~submitted_at:_ -> completed := txn :: !completed)
    ();
  (env, metrics, log, gc, fun () -> List.rev !completed)

let submit_commit log gc txn =
  let lsn = Log_manager.append log (commit_record txn Lsn.nil) in
  Group_commit.submit gc ~txn ~lsn;
  lsn

(* A bare force, with no sweep next to it, completes exactly the
   members it made durable, oldest first.  A member appended after it
   stays pending, with its window deadline, through a force that moves
   nothing, until a force covers it. *)
let test_bare_force_sweeps_batch () =
  let env, _, log, gc, completed = mk_batched () in
  let l1 = submit_commit log gc 1 in
  let _l2 = submit_commit log gc 2 in
  Alcotest.(check (list int)) "pending before the force" [ 1; 2 ] (Group_commit.pending_txns gc);
  (* [upto] names only T1's record; the block-grained force covers T2 too *)
  Log_manager.force log ~upto:l1;
  Alcotest.(check (list int)) "covered members complete, oldest first" [ 1; 2 ] (completed ());
  Alcotest.(check (option (float 0.))) "empty batch has no deadline" None (Group_commit.deadline gc);
  let _l3 = submit_commit log gc 3 in
  let deadline = Some (Env.now env +. 0.010) in
  (* already durable: a no-op force covers nothing new *)
  Log_manager.force log ~upto:l1;
  Alcotest.(check (list int)) "uncovered member not completed" [ 1; 2 ] (completed ());
  Alcotest.(check (list int)) "uncovered member still pending" [ 3 ] (Group_commit.pending_txns gc);
  Alcotest.(check (option (float 1e-12))) "its deadline kept" deadline (Group_commit.deadline gc);
  Log_manager.force_all log;
  Alcotest.(check (list int)) "force_all completes it" [ 1; 2; 3 ] (completed ());
  Alcotest.(check int) "batch empty" 0 (Group_commit.pending_count gc)

(* The checkpoint bug shape: the checkpoint's force made the pending
   commits durable, and a crash at the mid-checkpoint crash point must
   not find them still pending (a retry would double-apply). *)
let test_checkpoint_force_sweeps_before_master () =
  let env, metrics, log, gc, completed = mk_batched () in
  ignore (submit_commit log gc 1);
  ignore (submit_commit log gc 2);
  let pending_at_crash_point = ref [ -1 ] in
  ignore
    (Checkpoint.take log env metrics ~dpt:[] ~active:[] ~master:(Master.create ())
       ~on_before_master:(fun () -> pending_at_crash_point := Group_commit.pending_txns gc));
  Alcotest.(check (list int)) "nothing covered still pending at on_before_master" []
    !pending_at_crash_point;
  Alcotest.(check (list int)) "both completed, oldest first" [ 1; 2 ] (completed ())

let suite =
  [
    ("lsn nil semantics", `Quick, test_lsn_nil);
    ("record roundtrips", `Quick, test_record_roundtrips);
    ("record accessors", `Quick, test_record_accessors);
    ("op apply/invert", `Quick, test_op_apply_and_invert);
    ("record decode garbage", `Quick, test_record_decode_garbage);
    qcheck prop_record_roundtrip;
    ("log append/read", `Quick, test_log_manager_append_read);
    ("log fold and upto", `Quick, test_log_manager_fold_and_upto);
    ("log force and crash", `Quick, test_log_manager_force_and_crash);
    ("log force idempotent charge", `Quick, test_log_manager_force_counts_once);
    ("log capacity and overdraft", `Quick, test_log_manager_capacity);
    ("log scan charging", `Quick, test_log_manager_scan_counts);
    ("group commit: bare force sweeps the batch", `Quick, test_bare_force_sweeps_batch);
    ( "group commit: checkpoint force sweeps before master",
      `Quick,
      test_checkpoint_force_sweeps_before_master );
  ]
