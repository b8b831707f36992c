(** A node's buffer pool (cache) — steal / no-force (§2.1).

    The pool is deliberately policy-free about {e what happens} to an
    evicted dirty page (write locally vs. ship to the owner — that is
    the node's business); it only picks victims and tracks frame state.
    The WAL rule is enforced by the node: it must force the log up to a
    dirty frame's [last_lsn] before the frame leaves the pool.

    Replacement is exact LRU, as BeSS used: frames sit on a recency list
    that [install] and [find] move to the newest end, so picking a
    victim and touching a frame are both O(1). *)

open Repro_storage

type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable pin_count : int;
  mutable rec_lsn : Repro_wal.Lsn.t;  (** first LSN that dirtied this caching period *)
  mutable last_lsn : Repro_wal.Lsn.t;  (** latest update record; WAL force bound *)
  mutable older : frame;  (** recency-list links, owned by the pool *)
  mutable newer : frame;
}

type t

val create : capacity:int -> unit -> t
(** [capacity] in pages; must be positive. *)

val set_tracer : t -> (string -> Page_id.t -> unit) -> unit
(** Observability hook, fired with ["install"] / ["evict"] and the page
    as frames enter and leave the pool.  Default: no-op. *)

val capacity : t -> int
val size : t -> int
val is_full : t -> bool

val find : t -> Page_id.t -> frame option
(** Marks the frame most recently used. *)

val peek : t -> Page_id.t -> frame option
(** Leaves the recency order alone. *)

val contains : t -> Page_id.t -> bool

val install : t -> Page.t -> frame
(** Adds a clean, unpinned frame as the most recently used.
    @raise Invalid_argument if the pool is full (the node must evict
    first) or the page is already cached. *)

val mark_dirty : frame -> lsn:Repro_wal.Lsn.t -> unit
(** Records an update at [lsn]: sets dirty, maintains [rec_lsn] /
    [last_lsn]. *)

val pin : frame -> unit
val unpin : frame -> unit

val choose_victim : t -> frame option
(** The least recently used unpinned frame, or [None] if all are
    pinned.  Walks the recency list from the oldest end, skipping only
    frames pinned at that moment. *)

val remove : t -> Page_id.t -> unit
val cached_ids : t -> Page_id.t list
val dirty_frames : t -> frame list
val iter : t -> (frame -> unit) -> unit
val clear : t -> unit
(** Crash: every frame is lost. *)
