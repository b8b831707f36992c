(* Phase 2: propagate effect summaries to a fixpoint over the call
   graph.  Everything here is a monotone join over finite sets, so the
   fixpoint exists, is unique, and is independent of visit order (the
   qcheck property in test_lint.ml exercises exactly that by permuting
   [order]).

   Facts per node:
   - [may_seed]: an RNG-seed site is reachable from this node (itself
     included) — the absorbing side of the draw/seed pairing.
   - [escaping]: retryable raise sites that can escape this node: its
     own unhandled raises plus callees' escaping raises not covered by
     this node's handler labels.
   - [uncovered_rng]: RNG-draw sites with no seed at or below this
     node, flowing caller-ward until some ancestor seeds; whatever is
     still uncovered at the graph roots is a violation. *)

type config = {
  rng_impl : string list;  (** files that ARE the RNG layer: exempt sites *)
  raise_impl : string list;  (** the Block module itself *)
  checked : string -> bool;  (** which files' sites are police-able (lib/) *)
}

type raise_site = {
  r_label : Summary.exn_label;
  r_file : string;
  r_loc : Summary.loc;
  r_fn : string;  (** display name of the function that raises *)
}

type cov_site = {
  c_file : string;
  c_loc : Summary.loc;
  c_fn : string;
  c_what : string;  (** the draw identifier, for messages *)
}

module RS = Set.Make (struct
  type t = raise_site

  let compare = compare
end)

module CS = Set.Make (struct
  type t = cov_site

  let compare = compare
end)

type t = {
  graph : Callgraph.t;
  may_seed : bool array;
  escaping : RS.t array;
  handled : (string * int * int * Summary.exn_label, unit) Hashtbl.t;
      (** raise-site keys some caller's handler covers *)
  raise_sites : raise_site list;  (** all police-able raise sites *)
  uncovered_rng : CS.t array;
  roots : int list;  (** fn nodes with in-degree 0, plus cycle entries *)
  passes : int;  (** fixpoint sweeps until stable, for the bench/debug dump *)
}

let raise_key (r : raise_site) = (r.r_file, r.r_loc.Summary.line, r.r_loc.Summary.col, r.r_label)

(* Direct (non-propagated) facts of one node.  Wired sites still count
   as the defining function's own effects — conservative for coverage,
   and their raise copies additionally live on the field node. *)
let direct config (g : Callgraph.t) id =
  let n = g.Callgraph.nodes.(id) in
  match n.Callgraph.fn with
  | None ->
    (* synthetic field node: only the wired-in raises *)
    let raises =
      List.map
        (fun (label, loc, file) ->
          { r_label = label; r_file = file; r_loc = loc; r_fn = n.Callgraph.name })
        n.Callgraph.field_raises
    in
    (false, raises, [])
  | Some fn ->
    let file = Option.value ~default:"" n.Callgraph.file in
    let checked = config.checked file in
    let seed = ref false and raises = ref [] and draws = ref [] in
    List.iter
      (fun (s : Summary.site) ->
        match s.Summary.kind with
        | Summary.Rng_seed _ -> seed := true
        | Summary.Raise { label } ->
          if checked && not (List.mem file config.raise_impl) then
            raises :=
              { r_label = label; r_file = file; r_loc = s.Summary.s_loc; r_fn = fn.Summary.fn_name }
              :: !raises
        | Summary.Rng_draw { name } ->
          if checked && not (List.mem file config.rng_impl) then
            draws :=
              {
                c_file = file;
                c_loc = s.Summary.s_loc;
                c_fn = fn.Summary.fn_name;
                c_what = "Rng." ^ name;
              }
              :: !draws
        | Summary.Call _ | Summary.Field_call _ -> ())
      fn.Summary.sites;
    (!seed, !raises, !draws)

let run ?order config (g : Callgraph.t) =
  let n = Array.length g.Callgraph.nodes in
  let order = match order with Some o -> o | None -> Array.init n (fun i -> i) in
  let dir = Array.init n (fun i -> direct config g i) in
  let handled_of i =
    match g.Callgraph.nodes.(i).Callgraph.fn with
    | Some fn -> fn.Summary.handled
    | None -> []
  in
  let may_seed = Array.init n (fun i -> let s, _, _ = dir.(i) in s) in
  let escaping =
    Array.init n (fun i ->
        let _, raises, _ = dir.(i) in
        RS.of_list
          (List.filter
             (fun r -> not (Summary.covers ~handled:(handled_of i) r.r_label))
             raises))
  in
  (* Reachability bit and escaping sets to a joint fixpoint: both are
     monotone, so sweeping until nothing changes terminates and the
     result is order-independent. *)
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    incr passes;
    changed := false;
    Array.iter
      (fun i ->
        let handled = handled_of i in
        List.iter
          (fun s ->
            if may_seed.(s) && not may_seed.(i) then begin
              may_seed.(i) <- true;
              changed := true
            end;
            let flow =
              RS.filter (fun r -> not (Summary.covers ~handled r.r_label)) escaping.(s)
            in
            if not (RS.subset flow escaping.(i)) then begin
              escaping.(i) <- RS.union flow escaping.(i);
              changed := true
            end)
          g.Callgraph.nodes.(i).Callgraph.succ)
      order
  done;
  (* A raise site is existentially handled if its own function's
     handlers cover it, or if it escapes to some caller whose handlers
     do.  Whatever no context ever covers is an exn-flow violation. *)
  let handled : (string * int * int * Summary.exn_label, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, raises, _) ->
      let h = handled_of i in
      List.iter
        (fun r -> if Summary.covers ~handled:h r.r_label then Hashtbl.replace handled (raise_key r) ())
        raises)
    dir;
  Array.iter
    (fun i ->
      let h = handled_of i in
      if h <> [] then
        List.iter
          (fun s ->
            RS.iter
              (fun r ->
                if Summary.covers ~handled:h r.r_label then Hashtbl.replace handled (raise_key r) ())
              escaping.(s))
          g.Callgraph.nodes.(i).Callgraph.succ)
      order;
  let raise_sites =
    Array.to_list dir |> List.concat_map (fun (_, raises, _) -> raises)
  in
  (* Unseeded draw sites flow caller-ward, absorbed wherever a seed is
     reachable. *)
  let uncovered_rng =
    Array.init n (fun i ->
        let _, _, draws = dir.(i) in
        if may_seed.(i) then CS.empty else CS.of_list draws)
  in
  changed := true;
  while !changed do
    changed := false;
    Array.iter
      (fun i ->
        if not may_seed.(i) then
          List.iter
            (fun s ->
              if not (CS.subset uncovered_rng.(s) uncovered_rng.(i)) then begin
                uncovered_rng.(i) <- CS.union uncovered_rng.(s) uncovered_rng.(i);
                changed := true
              end)
            g.Callgraph.nodes.(i).Callgraph.succ)
      order
  done;
  (* Report roots: real functions nobody calls.  Nodes unreachable from
     any root (cycles without an entry) become pseudo-roots so their
     uncovered sites still surface. *)
  let roots = ref [] in
  Array.iter
    (fun (node : Callgraph.node) ->
      if Callgraph.is_fn node && g.Callgraph.in_deg.(node.Callgraph.id) = 0 then
        roots := node.Callgraph.id :: !roots)
    g.Callgraph.nodes;
  let reached = Array.make n false in
  let rec mark i =
    if not reached.(i) then begin
      reached.(i) <- true;
      List.iter mark g.Callgraph.nodes.(i).Callgraph.succ
    end
  in
  List.iter mark !roots;
  Array.iter
    (fun (node : Callgraph.node) ->
      if Callgraph.is_fn node && not reached.(node.Callgraph.id) then begin
        roots := node.Callgraph.id :: !roots;
        mark node.Callgraph.id
      end)
    g.Callgraph.nodes;
  {
    graph = g;
    may_seed;
    escaping;
    handled;
    raise_sites;
    uncovered_rng;
    roots = List.sort compare !roots;
    passes = !passes;
  }

let is_handled t r = Hashtbl.mem t.handled (raise_key r)

(* The union of the per-node uncovered draws over the report roots,
   deduped by site. *)
let violations_rng t =
  List.fold_left (fun acc root -> CS.union acc t.uncovered_rng.(root)) CS.empty t.roots
  |> CS.elements

let unhandled_raises t = List.filter (fun r -> not (is_handled t r)) t.raise_sites

(* Dead-handler verdict: can anything the guarded body reaches feed the
   handler a matching exception?  Conservative on anything unresolved
   that could be repo code (locals, closures, repo modules without the
   binding, record fields) — only provably-unfeedable handlers with
   fully resolved bodies are flagged. *)
let handler_live t (files : Summary.file list) ~rel (h : Summary.handler) =
  let module_index, binding_exists = Callgraph.indexes files in
  let file = List.find_opt (fun f -> f.Summary.rel = rel) files in
  match file with
  | None -> true
  | Some f ->
    let covers_any labels = List.exists (fun l -> Summary.covers ~handled:h.Summary.h_labels l) labels in
    h.Summary.h_unknown
    || covers_any h.Summary.h_raises
    || List.exists
         (fun fname ->
           match Callgraph.find_field t.graph fname with
           | None -> true (* a field we never saw wired: unknown *)
           | Some id ->
             covers_any (List.map (fun r -> r.r_label) (RS.elements t.escaping.(id))))
         h.Summary.h_fields
    || List.exists
         (fun path ->
           match Callgraph.resolve ~module_index ~binding_exists f path with
           | Callgraph.Fn_key key -> (
             match Callgraph.node_id t.graph key with
             | None -> true
             | Some id ->
               covers_any (List.map (fun r -> r.r_label) (RS.elements t.escaping.(id))))
           | Callgraph.Unknown _ -> true
           | Callgraph.External -> false (* external code cannot raise Would_block *)
           | Callgraph.Local -> (
             (* unqualified and not a top-level binding: a local fn,
                parameter or closure we cannot see through — unless it
                is a bare lowercase value name, treat as unknown.  Being
                unable to distinguish, stay conservative. *)
             match path with
             | [ name ] when String.length name > 0 && name.[0] >= 'A' && name.[0] <= 'Z' ->
               false (* a module path alone (e.g. a functor arg): no call *)
             | _ -> true))
         h.Summary.h_calls

let to_json t =
  let module J = Repro_obs.Json in
  let n = Array.length t.graph.Callgraph.nodes in
  let bools name arr =
    ( name,
      J.List
        (List.filter_map
           (fun i -> if arr.(i) then Some (J.Int i) else None)
           (List.init n (fun i -> i))) )
  in
  J.Obj
    [
      ("passes", J.Int t.passes);
      ("roots", J.List (List.map (fun i -> J.Int i) t.roots));
      bools "may_seed" t.may_seed;
      ( "escaping",
        J.Obj
          (List.filter_map
             (fun i ->
               let s = t.escaping.(i) in
               if RS.is_empty s then None
               else
                 Some
                   ( t.graph.Callgraph.nodes.(i).Callgraph.name,
                     J.List
                       (List.map
                          (fun r ->
                            J.Str
                              (Printf.sprintf "%s@%s:%d" (Summary.label_name r.r_label)
                                 r.r_file r.r_loc.Summary.line))
                          (RS.elements s)) ))
             (List.init n (fun i -> i))) );
    ]
