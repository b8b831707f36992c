open Repro_storage
module Lsn = Repro_wal.Lsn

type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable pin_count : int;
  mutable rec_lsn : Lsn.t;
  mutable last_lsn : Lsn.t;
  mutable older : frame;
  mutable newer : frame;
}

type t = {
  capacity : int;
  frames : frame Page_id.Tbl.t;
  lru : frame;
      (* sentinel of the circular recency list: [lru.newer] is the least
         recently used frame, [lru.older] the most recently used *)
  mutable tracer : string -> Page_id.t -> unit;
}

let no_trace _ _ = ()
let no_page = Page.create ~id:(Page_id.make ~owner:(-1) ~slot:(-1)) ~psn:0 ~size:0

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let rec lru =
    {
      page = no_page;
      dirty = false;
      pin_count = 0;
      rec_lsn = Lsn.nil;
      last_lsn = Lsn.nil;
      older = lru;
      newer = lru;
    }
  in
  { capacity; frames = Page_id.Tbl.create capacity; lru; tracer = no_trace }

let set_tracer t f = t.tracer <- f

let capacity t = t.capacity
let size t = Page_id.Tbl.length t.frames
let is_full t = size t >= t.capacity

let unlink f =
  f.older.newer <- f.newer;
  f.newer.older <- f.older

let push_newest t f =
  let s = t.lru in
  f.older <- s.older;
  f.newer <- s;
  s.older.newer <- f;
  s.older <- f

let find t pid =
  match Page_id.Tbl.find_opt t.frames pid with
  | None -> None
  | Some frame ->
    if t.lru.older != frame then begin
      unlink frame;
      push_newest t frame
    end;
    Some frame

let peek t pid = Page_id.Tbl.find_opt t.frames pid
let contains t pid = Page_id.Tbl.mem t.frames pid

let install t page =
  let pid = Page.id page in
  if contains t pid then
    invalid_arg (Format.asprintf "Buffer_pool.install: %a already cached" Page_id.pp pid);
  if is_full t then invalid_arg "Buffer_pool.install: pool full, evict first";
  let frame =
    {
      page;
      dirty = false;
      pin_count = 0;
      rec_lsn = Lsn.nil;
      last_lsn = Lsn.nil;
      older = t.lru;
      newer = t.lru;
    }
  in
  push_newest t frame;
  Page_id.Tbl.replace t.frames pid frame;
  t.tracer "install" pid;
  frame

let mark_dirty frame ~lsn =
  if not frame.dirty then begin
    frame.dirty <- true;
    frame.rec_lsn <- lsn
  end;
  frame.last_lsn <- lsn

let pin frame = frame.pin_count <- frame.pin_count + 1

let unpin frame =
  if frame.pin_count <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
  frame.pin_count <- frame.pin_count - 1

(* Pins are transient (an operation's guard, or a victim parked while
   the pool makes room), so the walk skips at most a handful. *)
let choose_victim t =
  let rec walk f = if f == t.lru then None else if f.pin_count = 0 then Some f else walk f.newer in
  walk t.lru.newer

let remove t pid =
  match Page_id.Tbl.find_opt t.frames pid with
  | None -> ()
  | Some f ->
    t.tracer "evict" pid;
    unlink f;
    Page_id.Tbl.remove t.frames pid
let cached_ids t = Page_id.Tbl.fold (fun pid _ acc -> pid :: acc) t.frames []
let dirty_frames t = Page_id.Tbl.fold (fun _ f acc -> if f.dirty then f :: acc else acc) t.frames []
let iter t f = Page_id.Tbl.iter (fun _ frame -> f frame) t.frames

let clear t =
  Page_id.Tbl.reset t.frames;
  t.lru.older <- t.lru;
  t.lru.newer <- t.lru
