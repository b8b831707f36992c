(** A seed-deterministic fault plan.

    The plan is pure data: per-class probabilities and bounds plus the
    injector's own RNG seed.  A plan replays bit-identically — building
    an {!Injector} from an equal plan and running the identical workload
    yields the identical fault schedule, which is what makes a dumped
    plan ([to_json] / [of_json]) a complete repro artefact. *)

type classes = { net : bool; disk : bool; crashpoints : bool; recovery : bool }

val no_classes : classes
val all_classes : classes

val classes_of_string : string -> (classes, string) result
(** Parses ["net,disk,crashpoints,recovery"], ["all"], ["none"] or [""]. *)

(** {1 Crash points}

    A crash point names a protocol window the injector may crash a node
    in.  This type is the one declaration of them: the trace name, the
    JSON key, the fault class and the {!generate} draw range all come
    from one exhaustive match over it, so a new constructor does not
    compile until it has all four. *)

type point =
  | Commit_force  (** commit record appended, force not yet issued *)
  | Checkpoint  (** checkpoint forced, master record not yet updated *)
  | Page_ship  (** dirty page copy about to leave the node *)
  | Rollback  (** between two undo steps of an abort *)
  | Recovery_analysis  (** restart: analysis done, redo not started *)
  | Recovery_redo  (** restart: probed every K applied redo records *)
  | Recovery_pre_undo  (** restart: redo complete, undo not started *)
  | Recovery_undo  (** restart: between two loser rollbacks *)
  | Recovery_checkpoint  (** restart: before the end-of-restart checkpoint *)

val points : point list
(** Every point, in constructor order. *)

val point_name : point -> string
(** The trace name, e.g. ["commit-force"]. *)

val is_recovery : point -> bool
(** Does the point fire inside recovery (the [recovery] fault class)? *)

(** {1 Plans} *)

type net = {
  drop : float;
  max_drops : int;
  dup : float;
  delay : float;
  max_delay : float;
  rto : float;
  partition : float;
  max_partition : int;
}

type disk = { torn : float; corrupt : float }

type crashpoints = private {
  probs : (point * float) list;  (** every point once, in {!points} order *)
  budget : int;  (** total injected crashes allowed per run *)
}

val crashpoints : budget:int -> (point * float) list -> crashpoints
(** Points the list does not name get probability 0. *)

val prob : crashpoints -> point -> float

type t = { seed : int; net : net; disk : disk; crashpoints : crashpoints }

val none : t
(** All probabilities zero: an injector built from it never fires. *)

val generate : Repro_util.Rng.t -> classes:classes -> t
(** Draw magnitudes for the enabled classes; disabled classes stay
    quiet (zero probabilities). *)

val to_json : t -> Repro_obs.Json.t

val of_json : Repro_obs.Json.t -> (t, string) result
(** The inverse of {!to_json}.  A key [to_json] does not write, or a
    value of the wrong kind (a non-number, a non-integer where an
    integer belongs), is an [Error] naming the key.  A missing key reads
    as 0, so plans dumped before the recovery class existed still
    load. *)
