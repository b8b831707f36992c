(* Tests for the buffer pool and the paper's dirty page table. *)

module Buffer_pool = Repro_buffer.Buffer_pool
module Dpt = Repro_buffer.Dpt
module Page = Repro_storage.Page
module Page_id = Repro_storage.Page_id
module Lsn = Repro_wal.Lsn

let pid slot = Page_id.make ~owner:0 ~slot
let page slot = Page.create ~id:(pid slot) ~psn:0 ~size:32

(* ---- Buffer_pool ---- *)

let test_pool_install_find () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let f = Buffer_pool.install pool (page 1) in
  Alcotest.(check bool) "found" true
    (match Buffer_pool.find pool (pid 1) with Some g -> g == f | None -> false);
  Alcotest.(check bool) "absent" true (Buffer_pool.find pool (pid 2) = None);
  Alcotest.(check int) "size" 1 (Buffer_pool.size pool)

let test_pool_double_install_rejected () =
  let pool = Buffer_pool.create ~capacity:2 () in
  ignore (Buffer_pool.install pool (page 1));
  Alcotest.(check bool) "raises" true
    (try
       ignore (Buffer_pool.install pool (page 1));
       false
     with Invalid_argument _ -> true)

let test_pool_full_install_rejected () =
  let pool = Buffer_pool.create ~capacity:1 () in
  ignore (Buffer_pool.install pool (page 1));
  Alcotest.(check bool) "is_full" true (Buffer_pool.is_full pool);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Buffer_pool.install pool (page 2));
       false
     with Invalid_argument _ -> true)

let test_pool_lru_victim () =
  let pool = Buffer_pool.create ~capacity:3 () in
  ignore (Buffer_pool.install pool (page 1));
  ignore (Buffer_pool.install pool (page 2));
  ignore (Buffer_pool.install pool (page 3));
  (* touch 1 and 3: 2 becomes the LRU victim *)
  ignore (Buffer_pool.find pool (pid 1));
  ignore (Buffer_pool.find pool (pid 3));
  (match Buffer_pool.choose_victim pool with
  | Some f -> Alcotest.(check int) "victim is 2" 2 (Page.id f.Buffer_pool.page).Page_id.slot
  | None -> Alcotest.fail "no victim")

let test_pool_pin_protects () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let f1 = Buffer_pool.install pool (page 1) in
  let f2 = Buffer_pool.install pool (page 2) in
  Buffer_pool.pin f1;
  Buffer_pool.pin f2;
  Alcotest.(check bool) "all pinned" true (Buffer_pool.choose_victim pool = None);
  Buffer_pool.unpin f1;
  (match Buffer_pool.choose_victim pool with
  | Some f -> Alcotest.(check int) "unpinned chosen" 1 (Page.id f.Buffer_pool.page).Page_id.slot
  | None -> Alcotest.fail "no victim");
  Alcotest.(check bool) "double unpin raises" true
    (try
       Buffer_pool.unpin f1;
       Buffer_pool.unpin f1;
       false
     with Invalid_argument _ -> true)

let test_pool_mark_dirty_lsns () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let f = Buffer_pool.install pool (page 1) in
  Alcotest.(check bool) "clean" false f.Buffer_pool.dirty;
  Buffer_pool.mark_dirty f ~lsn:100;
  Buffer_pool.mark_dirty f ~lsn:200;
  Alcotest.(check bool) "dirty" true f.Buffer_pool.dirty;
  Alcotest.(check int) "rec_lsn is first" 100 f.Buffer_pool.rec_lsn;
  Alcotest.(check int) "last_lsn is latest" 200 f.Buffer_pool.last_lsn

(* Model test: random operation sequences against a reference kept
   here — the victim is the unpinned frame whose last install/find is
   oldest, or none when every frame is pinned. *)
type pool_op = Install | Find | Peek | Pin | Unpin | Remove | Clear | Victim

let pool_op_name = function
  | Install -> "install"
  | Find -> "find"
  | Peek -> "peek"
  | Pin -> "pin"
  | Unpin -> "unpin"
  | Remove -> "remove"
  | Clear -> "clear"
  | Victim -> "victim"

let gen_pool_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (pair (oneofl [ Install; Find; Peek; Pin; Unpin; Remove; Clear; Victim ]) (int_bound 5)))

let print_pool_ops ops =
  String.concat "; " (List.map (fun (op, s) -> Printf.sprintf "%s %d" (pool_op_name op) s) ops)

let prop_pool_matches_lru_model =
  QCheck.Test.make ~name:"pool victim matches the LRU reference" ~count:500
    (QCheck.make ~print:print_pool_ops gen_pool_ops) (fun ops ->
      let capacity = 4 in
      let pool = Buffer_pool.create ~capacity () in
      (* resident slot -> (stamp of its last install/find, pin count) *)
      let model = Hashtbl.create 8 in
      let stamp = ref 0 in
      let touch s pins =
        incr stamp;
        Hashtbl.replace model s (!stamp, pins)
      in
      let expected_victim () =
        Hashtbl.fold
          (fun s (at, pins) best ->
            match best with
            | _ when pins > 0 -> best
            | Some (_, best_at) when best_at < at -> best
            | _ -> Some (s, at))
          model None
        |> Option.map fst
      in
      let step (op, s) =
        let resident = Hashtbl.find_opt model s in
        match (op, resident) with
        | Install, None when Hashtbl.length model < capacity ->
          ignore (Buffer_pool.install pool (page s));
          touch s 0;
          true
        | Find, Some (_, pins) ->
          touch s pins;
          Option.is_some (Buffer_pool.find pool (pid s))
        | Find, None -> Option.is_none (Buffer_pool.find pool (pid s))
        | Peek, _ -> Option.is_some (Buffer_pool.peek pool (pid s)) = Option.is_some resident
        | Pin, Some (at, pins) ->
          Buffer_pool.pin (Option.get (Buffer_pool.peek pool (pid s)));
          Hashtbl.replace model s (at, pins + 1);
          true
        | Unpin, Some (at, pins) when pins > 0 ->
          Buffer_pool.unpin (Option.get (Buffer_pool.peek pool (pid s)));
          Hashtbl.replace model s (at, pins - 1);
          true
        | Remove, _ ->
          Buffer_pool.remove pool (pid s);
          Hashtbl.remove model s;
          true
        | Clear, _ ->
          Buffer_pool.clear pool;
          Hashtbl.reset model;
          true
        | Victim, _ ->
          Option.map (fun f -> (Page.id f.Buffer_pool.page).Page_id.slot)
            (Buffer_pool.choose_victim pool)
          = expected_victim ()
        | (Install | Pin | Unpin), _ -> true
      in
      List.for_all (fun op -> step op && Buffer_pool.size pool = Hashtbl.length model) ops)

let test_pool_clear () =
  let pool = Buffer_pool.create ~capacity:2 () in
  ignore (Buffer_pool.install pool (page 1));
  Buffer_pool.clear pool;
  Alcotest.(check int) "empty" 0 (Buffer_pool.size pool)

(* ---- Dpt ---- *)

let test_dpt_entry_lifecycle () =
  let dpt = Dpt.create () in
  Dpt.add_if_absent dpt (pid 1) ~page_psn:5 ~end_of_log:100;
  (match Dpt.find dpt (pid 1) with
  | Some e ->
    Alcotest.(check int) "psn_first" 5 e.Dpt.psn_first;
    Alcotest.(check int) "curr" 5 e.Dpt.curr_psn;
    Alcotest.(check int) "redo" 100 e.Dpt.redo_lsn
  | None -> Alcotest.fail "entry missing");
  (* re-adding keeps the original *)
  Dpt.add_if_absent dpt (pid 1) ~page_psn:9 ~end_of_log:999;
  Alcotest.(check int) "kept" 5 (Option.get (Dpt.find dpt (pid 1))).Dpt.psn_first;
  Dpt.on_update dpt (pid 1) ~new_psn:6;
  Alcotest.(check int) "curr maintained" 6 (Option.get (Dpt.find dpt (pid 1))).Dpt.curr_psn;
  Dpt.drop dpt (pid 1);
  Alcotest.(check bool) "gone" false (Dpt.mem dpt (pid 1))

let test_dpt_flush_ack_drop () =
  let dpt = Dpt.create () in
  Dpt.add_if_absent dpt (pid 1) ~page_psn:5 ~end_of_log:100;
  Dpt.on_update dpt (pid 1) ~new_psn:6;
  Dpt.on_replaced dpt (pid 1) ~end_of_log:180;
  (* owner flushed a covering version: entry retires *)
  Dpt.on_flush_ack dpt (pid 1) ~flushed_psn:6;
  Alcotest.(check bool) "dropped" false (Dpt.mem dpt (pid 1))

let test_dpt_flush_ack_advances_when_updated_again () =
  let dpt = Dpt.create () in
  Dpt.add_if_absent dpt (pid 1) ~page_psn:5 ~end_of_log:100;
  Dpt.on_update dpt (pid 1) ~new_psn:6;
  Dpt.on_replaced dpt (pid 1) ~end_of_log:180;
  (* page re-fetched and re-dirtied after the replacement *)
  Dpt.on_update dpt (pid 1) ~new_psn:7;
  Dpt.on_flush_ack dpt (pid 1) ~flushed_psn:6;
  (match Dpt.find dpt (pid 1) with
  | Some e ->
    Alcotest.(check int) "redo advanced to remembered end-of-log" 180 e.Dpt.redo_lsn;
    Alcotest.(check bool) "replaced_at cleared" true (Lsn.is_nil e.Dpt.replaced_at)
  | None -> Alcotest.fail "entry must survive")

let test_dpt_flush_ack_keeps_uncovered () =
  let dpt = Dpt.create () in
  Dpt.add_if_absent dpt (pid 1) ~page_psn:5 ~end_of_log:100;
  Dpt.on_update dpt (pid 1) ~new_psn:8;
  Dpt.on_replaced dpt (pid 1) ~end_of_log:180;
  (* a stale flush must not retire the entry *)
  Dpt.on_flush_ack dpt (pid 1) ~flushed_psn:6;
  Alcotest.(check bool) "kept" true (Dpt.mem dpt (pid 1))

let test_dpt_min_redo_lsn () =
  let dpt = Dpt.create () in
  Alcotest.(check bool) "empty" true (Dpt.min_redo_lsn dpt = None);
  Dpt.add_if_absent dpt (pid 1) ~page_psn:0 ~end_of_log:300;
  Dpt.add_if_absent dpt (pid 2) ~page_psn:0 ~end_of_log:100;
  Dpt.add_if_absent dpt (pid 3) ~page_psn:0 ~end_of_log:200;
  Alcotest.(check (option int)) "min" (Some 100) (Dpt.min_redo_lsn dpt);
  (match Dpt.entry_with_min_redo_lsn dpt with
  | Some e -> Alcotest.(check int) "victim is pid 2" 2 e.Dpt.pid.Page_id.slot
  | None -> Alcotest.fail "no entry")

let test_dpt_snapshot_roundtrip () =
  let dpt = Dpt.create () in
  Dpt.add_if_absent dpt (pid 1) ~page_psn:3 ~end_of_log:50;
  Dpt.on_update dpt (pid 1) ~new_psn:4;
  let snap = Dpt.snapshot dpt in
  let dpt2 = Dpt.create () in
  Dpt.load_snapshot dpt2 snap;
  (match Dpt.find dpt2 (pid 1) with
  | Some e ->
    Alcotest.(check int) "psn_first" 3 e.Dpt.psn_first;
    Alcotest.(check int) "curr" 4 e.Dpt.curr_psn;
    Alcotest.(check int) "redo" 50 e.Dpt.redo_lsn
  | None -> Alcotest.fail "entry missing after load")

let test_dpt_entries_owned_by () =
  let dpt = Dpt.create () in
  Dpt.add_if_absent dpt (Page_id.make ~owner:1 ~slot:0) ~page_psn:0 ~end_of_log:0;
  Dpt.add_if_absent dpt (Page_id.make ~owner:2 ~slot:0) ~page_psn:0 ~end_of_log:0;
  Alcotest.(check int) "filtered" 1 (List.length (Dpt.entries_owned_by dpt 1))

let suite =
  [
    ("pool install/find", `Quick, test_pool_install_find);
    ("pool double install", `Quick, test_pool_double_install_rejected);
    ("pool full install", `Quick, test_pool_full_install_rejected);
    ("pool LRU victim", `Quick, test_pool_lru_victim);
    ("pool pin protects", `Quick, test_pool_pin_protects);
    ("pool dirty LSNs", `Quick, test_pool_mark_dirty_lsns);
    QCheck_alcotest.to_alcotest prop_pool_matches_lru_model;
    ("pool clear", `Quick, test_pool_clear);
    ("dpt entry lifecycle", `Quick, test_dpt_entry_lifecycle);
    ("dpt flush ack drops covered", `Quick, test_dpt_flush_ack_drop);
    ("dpt flush ack advances redo", `Quick, test_dpt_flush_ack_advances_when_updated_again);
    ("dpt flush ack keeps uncovered", `Quick, test_dpt_flush_ack_keeps_uncovered);
    ("dpt min redo lsn", `Quick, test_dpt_min_redo_lsn);
    ("dpt snapshot roundtrip", `Quick, test_dpt_snapshot_roundtrip);
    ("dpt entries by owner", `Quick, test_dpt_entries_owned_by);
  ]
