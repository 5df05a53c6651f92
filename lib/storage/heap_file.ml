type t = {
  name : string;
  device : Device.t;
  buffer : Bufpool.t;
  lock : Mutex.t; (* serializes structural changes (append, delete) *)
  mutable first_page : int;
  mutable last_page : int;
  mutable pages : int;
  mutable records : int;
  mutable dir : int array;
      (* page directory: the first [pages] entries are the page numbers in
         chain order.  Shorter than [pages] only after [open_existing],
         until the first use rebuilds it (see [ensure_directory]). *)
}

let page_kind_heap = 1

let create ~buffer ~device ~name =
  let entry =
    { Vtoc.name; first_page = -1; last_page = -1; pages = 0; records = 0 }
  in
  Vtoc.add (Device.vtoc device) entry;
  {
    name;
    device;
    buffer;
    lock = Mutex.create ();
    first_page = -1;
    last_page = -1;
    pages = 0;
    records = 0;
    dir = [||];
  }

let open_existing ~buffer ~device ~name =
  match Vtoc.find (Device.vtoc device) name with
  | None -> raise Not_found
  | Some e ->
      {
        name;
        device;
        buffer;
        lock = Mutex.create ();
        first_page = e.first_page;
        last_page = e.last_page;
        pages = e.pages;
        records = e.records;
        dir = [||];
      }

let name t = t.name
let device t = t.device
let record_count t = t.records
let page_count t = t.pages

let sync_vtoc t =
  match Vtoc.find (Device.vtoc t.device) t.name with
  | None -> ()
  | Some e ->
      e.first_page <- t.first_page;
      e.last_page <- t.last_page;
      e.pages <- t.pages;
      e.records <- t.records

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Rebuild a stale directory with one walk of the on-disk chain; caller
   holds [t.lock].  The chain is the truth: its length becomes the page
   count. *)
let ensure_directory t =
  if Array.length t.dir < t.pages then begin
    let rec walk page acc =
      if page = -1 then List.rev acc
      else begin
        let frame = Bufpool.fix t.buffer t.device page in
        let next = Page.next_page (Bufpool.bytes frame) in
        Bufpool.unfix t.buffer frame;
        walk next (page :: acc)
      end
    in
    t.dir <- Array.of_list (walk t.first_page []);
    t.pages <- Array.length t.dir
  end

let add_page t =
  ensure_directory t;
  let page_no = Device.allocate t.device in
  let frame =
    try Bufpool.fix_new t.buffer t.device page_no
    with exn ->
      Device.free t.device page_no;
      raise exn
  in
  (* Self-clean on failure: if linking the previous tail fails (e.g. an
     injected fix denial), the new frame must not stay fixed and the file
     must be left unchanged. *)
  (try
     Page.init (Bufpool.bytes frame) ~kind:page_kind_heap;
     Bufpool.mark_dirty frame;
     if t.first_page <> -1 then begin
       (* Link the previous tail to the new page. *)
       let prev = Bufpool.fix t.buffer t.device t.last_page in
       Page.set_next_page (Bufpool.bytes prev) page_no;
       Bufpool.mark_dirty prev;
       Bufpool.unfix t.buffer prev
     end
   with exn ->
     Bufpool.unfix t.buffer frame;
     Device.free t.device page_no;
     raise exn);
  if t.first_page = -1 then t.first_page <- page_no;
  t.last_page <- page_no;
  if t.pages = Array.length t.dir then begin
    let grown = Array.make (max 8 (2 * t.pages)) (-1) in
    Array.blit t.dir 0 grown 0 t.pages;
    t.dir <- grown
  end;
  t.dir.(t.pages) <- page_no;
  t.pages <- t.pages + 1;
  (page_no, frame)

let insert t record =
  if String.length record = 0 then invalid_arg "Heap_file.insert: empty record";
  with_lock t (fun () ->
      let page_no, frame =
        if t.last_page = -1 then add_page t
        else (t.last_page, Bufpool.fix t.buffer t.device t.last_page)
      in
      match Page.insert (Bufpool.bytes frame) record with
      | Some slot ->
          Bufpool.mark_dirty frame;
          Bufpool.unfix t.buffer frame;
          t.records <- t.records + 1;
          Rid.make ~device:(Device.id t.device) ~page:page_no ~slot
      | None ->
          Bufpool.unfix t.buffer frame;
          let page_no, frame = add_page t in
          (match Page.insert (Bufpool.bytes frame) record with
          | Some slot ->
              Bufpool.mark_dirty frame;
              Bufpool.unfix t.buffer frame;
              t.records <- t.records + 1;
              Rid.make ~device:(Device.id t.device) ~page:page_no ~slot
          | None ->
              Bufpool.unfix t.buffer frame;
              invalid_arg
                (Printf.sprintf "Heap_file.insert: record of %d bytes exceeds page capacity"
                   (String.length record))))

let get t rid =
  if rid.Rid.device <> Device.id t.device then None
  else begin
    let frame = Bufpool.fix t.buffer t.device rid.Rid.page in
    let result = Page.read (Bufpool.bytes frame) rid.Rid.slot in
    Bufpool.unfix t.buffer frame;
    result
  end

let delete t rid =
  if rid.Rid.device <> Device.id t.device then false
  else
    with_lock t (fun () ->
        let frame = Bufpool.fix t.buffer t.device rid.Rid.page in
        let deleted = Page.delete (Bufpool.bytes frame) rid.Rid.slot in
        if deleted then begin
          Bufpool.mark_dirty frame;
          t.records <- t.records - 1
        end;
        Bufpool.unfix t.buffer frame;
        deleted)

let update t rid record =
  if rid.Rid.device <> Device.id t.device then false
  else
    with_lock t (fun () ->
        let frame = Bufpool.fix t.buffer t.device rid.Rid.page in
        let updated = Page.replace (Bufpool.bytes frame) rid.Rid.slot record in
        if updated then Bufpool.mark_dirty frame;
        Bufpool.unfix t.buffer frame;
        updated)

let page_chain t =
  with_lock t (fun () ->
      ensure_directory t;
      List.init t.pages (Array.get t.dir))

type cursor = {
  file : t;
  mutable frame : Bufpool.frame option; (* currently pinned page *)
  mutable index : int; (* directory index of the current page *)
  stop : int; (* directory index one past the range; [max_int] = live end *)
  mutable page_no : int;
  mutable slot : int;
  mutable finished : bool;
}

let scan_slice t ~rank ~size =
  if size < 1 || rank < 0 || rank >= size then
    invalid_arg "Heap_file.scan_slice: rank out of range";
  let lo, stop =
    with_lock t (fun () ->
        ensure_directory t;
        let n = t.pages in
        let stop = if rank = size - 1 then max_int else (rank + 1) * n / size in
        (rank * n / size, stop))
  in
  {
    file = t;
    frame = None;
    index = lo;
    stop;
    page_no = -1;
    slot = 0;
    finished = false;
  }

let scan t = scan_slice t ~rank:0 ~size:1

(* The page at the cursor's directory index, or [None] past its range.
   The page count is read under the lock, so the live-end range sees
   pages appended while the scan is open. *)
let current_page cursor =
  let t = cursor.file in
  if cursor.index >= cursor.stop then None
  else
    with_lock t (fun () ->
        if cursor.index < t.pages then Some t.dir.(cursor.index) else None)

let release cursor =
  match cursor.frame with
  | Some f ->
      Bufpool.unfix cursor.file.buffer f;
      cursor.frame <- None
  | None -> ()

let close_cursor cursor =
  release cursor;
  cursor.finished <- true

let rec next_with cursor f =
  if cursor.finished then None
  else
    match cursor.frame with
    | None -> (
        match current_page cursor with
        | None ->
            cursor.finished <- true;
            None
        | Some page_no ->
            cursor.page_no <- page_no;
            cursor.frame <- Some (Bufpool.fix cursor.file.buffer cursor.file.device page_no);
            cursor.slot <- 0;
            next_with cursor f)
    | Some frame ->
        let data = Bufpool.bytes frame in
        if cursor.slot >= Page.n_slots data then begin
          release cursor;
          cursor.index <- cursor.index + 1;
          next_with cursor f
        end
        else begin
          let slot = cursor.slot in
          cursor.slot <- slot + 1;
          let len = Page.record_len data slot in
          if len = 0 then next_with cursor f
          else Some (f data (Page.record_off data slot) len)
        end

let next cursor =
  next_with cursor (fun data off len ->
      let rid =
        Rid.make ~device:(Device.id cursor.file.device) ~page:cursor.page_no
          ~slot:(cursor.slot - 1)
      in
      (rid, Bytes.sub_string data off len))

let iter t f =
  let cursor = scan t in
  let rec step () =
    match next cursor with
    | None -> ()
    | Some (rid, record) ->
        f rid record;
        step ()
  in
  Fun.protect ~finally:(fun () -> close_cursor cursor) step

let drop t =
  with_lock t (fun () ->
      ensure_directory t;
      for i = 0 to t.pages - 1 do
        let page = t.dir.(i) in
        let _ = Bufpool.flush_page t.buffer t.device page in
        Device.free t.device page
      done;
      t.first_page <- -1;
      t.last_page <- -1;
      t.pages <- 0;
      t.records <- 0;
      t.dir <- [||];
      let _ = Vtoc.remove (Device.vtoc t.device) t.name in
      ())
