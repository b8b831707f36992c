module Rng = Repro_util.Rng
module Json = Repro_obs.Json

type classes = { net : bool; disk : bool; crashpoints : bool; recovery : bool }

let no_classes = { net = false; disk = false; crashpoints = false; recovery = false }
let all_classes = { net = true; disk = true; crashpoints = true; recovery = true }

let classes_of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  if s = "" || s = "none" then Ok no_classes
  else if s = "all" then Ok all_classes
  else
    List.fold_left
      (fun acc part ->
        match acc with
        | Error _ as e -> e
        | Ok c -> (
          match part with
          | "net" -> Ok { c with net = true }
          | "disk" -> Ok { c with disk = true }
          | "crashpoints" | "crash" -> Ok { c with crashpoints = true }
          | "recovery" -> Ok { c with recovery = true }
          | other ->
            Error
              (Printf.sprintf
                 "unknown fault class %S (have: net, disk, crashpoints, recovery, all)" other)))
      (Ok no_classes)
      (List.filter
         (fun p -> p <> "")
         (List.map String.trim (String.split_on_char ',' s)))

type point =
  | Commit_force
  | Checkpoint
  | Page_ship
  | Rollback
  | Recovery_analysis
  | Recovery_redo
  | Recovery_pre_undo
  | Recovery_undo
  | Recovery_checkpoint

(* Every constructor, in declaration order: plans, their JSON and
   [generate] walk this list. *)
let points =
  [
    Commit_force;
    Checkpoint;
    Page_ship;
    Rollback;
    Recovery_analysis;
    Recovery_redo;
    Recovery_pre_undo;
    Recovery_undo;
    Recovery_checkpoint;
  ]

(* One row per point: its trace name, whether it belongs to the
   recovery class, and [generate]'s draw for it, [lo +. U(0, span)]. *)
type info = { name : string; in_recovery : bool; lo : float; span : float }

let info = function
  | Commit_force -> { name = "commit-force"; in_recovery = false; lo = 0.002; span = 0.008 }
  | Checkpoint -> { name = "checkpoint"; in_recovery = false; lo = 0.05; span = 0.20 }
  | Page_ship -> { name = "page-ship"; in_recovery = false; lo = 0.001; span = 0.004 }
  | Rollback -> { name = "rollback"; in_recovery = false; lo = 0.002; span = 0.010 }
  | Recovery_analysis ->
    { name = "recovery-analysis"; in_recovery = true; lo = 0.10; span = 0.25 }
  | Recovery_redo -> { name = "recovery-redo"; in_recovery = true; lo = 0.01; span = 0.04 }
  | Recovery_pre_undo ->
    { name = "recovery-pre-undo"; in_recovery = true; lo = 0.05; span = 0.15 }
  | Recovery_undo -> { name = "recovery-undo"; in_recovery = true; lo = 0.05; span = 0.15 }
  | Recovery_checkpoint ->
    { name = "recovery-checkpoint"; in_recovery = true; lo = 0.05; span = 0.15 }

let point_name p = (info p).name
let is_recovery p = (info p).in_recovery
let json_key p = String.map (function '-' -> '_' | c -> c) (point_name p)

type net = {
  drop : float;  (* per-message chance an attempt is lost on the wire *)
  max_drops : int;  (* lost attempts before a retransmission gets through *)
  dup : float;  (* chance a delivered message arrives twice *)
  delay : float;  (* chance a message sits in a queue (bounded reorder) *)
  max_delay : float;  (* bound (seconds) on the extra queueing *)
  rto : float;  (* retransmission timeout charged per lost attempt *)
  partition : float;  (* chance a link probe finds the link partitioned *)
  max_partition : int;  (* probes a partition absorbs before healing *)
}

type disk = {
  torn : float;  (* chance a crash tears the unforced log tail *)
  corrupt : float;  (* given torn: bit-flip a whole record vs short write *)
}

type crashpoints = {
  probs : (point * float) list;  (* every point once, in [points] order *)
  budget : int;  (* total injected crashes allowed per run *)
}

let crashpoints ~budget given =
  {
    probs = List.map (fun p -> (p, Option.value (List.assoc_opt p given) ~default:0.)) points;
    budget;
  }

let prob c p = List.assoc p c.probs

type t = { seed : int; net : net; disk : disk; crashpoints : crashpoints }

let quiet_net =
  {
    drop = 0.;
    max_drops = 0;
    dup = 0.;
    delay = 0.;
    max_delay = 0.;
    rto = 0.;
    partition = 0.;
    max_partition = 0;
  }

let quiet_disk = { torn = 0.; corrupt = 0. }
let none = { seed = 0; net = quiet_net; disk = quiet_disk; crashpoints = crashpoints ~budget:0 [] }

(* Draw a plan's magnitudes from [rng].  The plan carries its own seed:
   the injector replays bit-identically from the plan alone, whether the
   plan was generated here or loaded from JSON. *)
let generate rng ~classes =
  let ({ net = want_net; disk = want_disk; crashpoints = want_crashpoints; recovery = want_recovery }
        : classes) =
    classes
  in
  let seed = Rng.int rng 0x3FFFFFFF in
  let net =
    if not want_net then quiet_net
    else
      {
        drop = 0.01 +. Rng.float rng 0.10;
        max_drops = 1 + Rng.int rng 3;
        dup = 0.01 +. Rng.float rng 0.08;
        delay = 0.02 +. Rng.float rng 0.10;
        max_delay = 0.001 +. Rng.float rng 0.01;
        rto = 0.002 +. Rng.float rng 0.008;
        partition = 0.002 +. Rng.float rng 0.010;
        max_partition = 4 + Rng.int rng 28;
      }
  in
  let disk =
    if not want_disk then quiet_disk
    else { torn = 0.4 +. Rng.float rng 0.5; corrupt = Rng.float rng 1.0 }
  in
  (* One class's points, drawn last point first: the order in which the
     record fields these draws once filled were evaluated, so
     historical seeds keep their exact streams. *)
  let draw ~recovery =
    List.fold_left
      (fun acc p ->
        let { in_recovery; lo; span; _ } = info p in
        if in_recovery <> recovery then acc else (p, lo +. Rng.float rng span) :: acc)
      [] (List.rev points)
  in
  let budget = if want_crashpoints then 1 + Rng.int rng 3 else 0 in
  let protocol = if want_crashpoints then draw ~recovery:false else [] in
  (* The recovery-class draws come after every legacy draw, so a plan
     generated without the class consumes the exact stream older
     versions consumed — replays of historical seeds stay bit-identical. *)
  let recovery = if want_recovery then draw ~recovery:true else [] in
  let budget = if want_recovery && not want_crashpoints then 1 + Rng.int rng 3 else budget in
  { seed; net; disk; crashpoints = crashpoints ~budget (protocol @ recovery) }

(* ---- JSON (dump / replay) ---- *)

let to_json t =
  Json.Obj
    [
      ("seed", Json.Int t.seed);
      ( "net",
        Json.Obj
          [
            ("drop", Json.Float t.net.drop);
            ("max_drops", Json.Int t.net.max_drops);
            ("dup", Json.Float t.net.dup);
            ("delay", Json.Float t.net.delay);
            ("max_delay", Json.Float t.net.max_delay);
            ("rto", Json.Float t.net.rto);
            ("partition", Json.Float t.net.partition);
            ("max_partition", Json.Int t.net.max_partition);
          ] );
      ( "disk",
        Json.Obj [ ("torn", Json.Float t.disk.torn); ("corrupt", Json.Float t.disk.corrupt) ] );
      ( "crashpoints",
        Json.Obj
          (List.map (fun (p, f) -> (json_key p, Json.Float f)) t.crashpoints.probs
          @ [ ("budget", Json.Int t.crashpoints.budget) ]) );
    ]

exception Invalid of string

(* Every key of [j] must be one [to_json] writes, with a value of the
   same kind: an object, a number, or an integer where [to_json] writes
   one.  A missing key is fine: it reads as 0, so plans dumped before a
   key existed still load. *)
let rec check path template j =
  let invalid path what =
    let name = match path with [] -> "plan" | _ -> String.concat "." (List.rev path) in
    raise (Invalid (Printf.sprintf "%s: %s" name what))
  in
  match (template, j) with
  | Json.Obj known, Json.Obj kvs ->
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k known with
        | Some t -> check (k :: path) t v
        | None -> invalid (k :: path) "unknown key")
      kvs
  | Json.Obj _, _ -> invalid path "not an object"
  | Json.Int _, v when Json.to_int_opt v = None -> invalid path "not an integer"
  | Json.Float _, v when Json.to_float_opt v = None -> invalid path "not a number"
  | _ -> ()

let of_json j =
  match check [] (to_json none) j with
  | exception Invalid msg -> Error msg
  | () ->
    let section name = Option.value (Json.member name j) ~default:(Json.Obj []) in
    let num s k = Option.value (Option.bind (Json.member k s) Json.to_float_opt) ~default:0. in
    let int s k = Option.value (Option.bind (Json.member k s) Json.to_int_opt) ~default:0 in
    let n = section "net" and d = section "disk" and c = section "crashpoints" in
    Ok
      {
        seed = int j "seed";
        net =
          {
            drop = num n "drop";
            max_drops = int n "max_drops";
            dup = num n "dup";
            delay = num n "delay";
            max_delay = num n "max_delay";
            rto = num n "rto";
            partition = num n "partition";
            max_partition = int n "max_partition";
          };
        disk = { torn = num d "torn"; corrupt = num d "corrupt" };
        crashpoints =
          crashpoints ~budget:(int c "budget") (List.map (fun p -> (p, num c (json_key p))) points);
      }
