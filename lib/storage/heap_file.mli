(** Heap files: unordered record files stored as a chain of slotted pages on
    a device, reached through the buffer pool.  Every record has a RID;
    scans return records in page order.  Files on virtual devices hold
    intermediate results (sort runs, hash partitions) and behave exactly
    like disk files, as the paper requires (section 3). *)

type t

val create : buffer:Bufpool.t -> device:Device.t -> name:string -> t
(** Create an empty file and register it in the device's VTOC.
    @raise Invalid_argument if the name is taken. *)

val open_existing : buffer:Bufpool.t -> device:Device.t -> name:string -> t
(** Open a file from its VTOC entry.  The in-memory page directory is
    rebuilt from the on-disk page chain on first use.
    @raise Not_found if no such file. *)

val name : t -> string
val device : t -> Device.t

val insert : t -> string -> Rid.t
(** Append a record, allocating pages as needed. *)

val get : t -> Rid.t -> string option
(** Fetch by RID ([None] if deleted or never existed). *)

val delete : t -> Rid.t -> bool

val update : t -> Rid.t -> string -> bool
(** Replace the record in place, keeping its RID.  Returns [false] — with
    the original record untouched — if the RID is dead or the new record
    does not fit in the page (callers then delete + reinsert). *)

val page_chain : t -> int list
(** The file's pages in scan order (used by read-ahead).  Read from the
    in-memory page directory: no page is fixed, except for the one walk of
    the on-disk chain that rebuilds the directory after {!open_existing}. *)

val record_count : t -> int
val page_count : t -> int

type cursor

val scan_slice : t -> rank:int -> size:int -> cursor
(** A cursor over the [rank]-th of [size] contiguous page ranges, split
    from the page count when the cursor is made (page [i] of [n] belongs
    to range [r] when [r * n / size <= i < (r + 1) * n / size]).  The last
    range runs to the file's live end, so it also sees pages appended
    while it is open.  The ranges of one [size] partition the file: each
    page, and so each record, is read by exactly one of them.
    @raise Invalid_argument unless [0 <= rank < size]. *)

val scan : t -> cursor
(** [scan_slice ~rank:0 ~size:1]: the whole file. *)

val next_with : cursor -> (bytes -> int -> int -> 'a) -> 'a option
(** [next_with c f] is [Some (f page off len)] for the next live record,
    which lies at [off] for [len] bytes in the pinned page [page];
    [None] past the cursor's range.  [page] is valid only during the
    call: copy or decode what must outlive it. *)

val next : cursor -> (Rid.t * string) option
(** Records in page order, copied out of the page; [None] at end of the
    cursor's range. *)

val close_cursor : cursor -> unit
(** Release the cursor's pinned page, if any.  Safe to call twice. *)

val iter : t -> (Rid.t -> string -> unit) -> unit

val drop : t -> unit
(** Free every page of the file and remove its VTOC entry.  Resident pages
    are purged from the pool without write-back on virtual devices. *)

val sync_vtoc : t -> unit
(** Push the in-memory file header (page chain, counts) into the VTOC. *)
