(** Fixpoint propagation of effect summaries over the call graph —
    phase 2 of the whole-repo lint analysis.

    All facts are monotone joins over finite sets, so the fixpoint is
    unique and independent of visit order; [?order] exists so the
    qcheck property can permute the sweep order and assert exactly
    that. *)

type config = {
  rng_impl : string list;
  raise_impl : string list;
  checked : string -> bool;
}

type raise_site = {
  r_label : Summary.exn_label;
  r_file : string;
  r_loc : Summary.loc;
  r_fn : string;
}

type cov_site = { c_file : string; c_loc : Summary.loc; c_fn : string; c_what : string }

module RS : Set.S with type elt = raise_site
module CS : Set.S with type elt = cov_site

type t = {
  graph : Callgraph.t;
  may_seed : bool array;
  escaping : RS.t array;
  handled : (string * int * int * Summary.exn_label, unit) Hashtbl.t;
  raise_sites : raise_site list;
  uncovered_rng : CS.t array;
  roots : int list;
  passes : int;
}

val run : ?order:int array -> config -> Callgraph.t -> t

val is_handled : t -> raise_site -> bool
val unhandled_raises : t -> raise_site list

val violations_rng : t -> cov_site list

val handler_live : t -> Summary.file list -> rel:string -> Summary.handler -> bool
(** Can anything the handler's guarded body reaches feed it a matching
    exception?  Conservatively [true] on anything unresolved that could
    be repo code. *)

val to_json : t -> Repro_obs.Json.t
(** Debug dump: passes, roots, reachability bits, escaping sets. *)
