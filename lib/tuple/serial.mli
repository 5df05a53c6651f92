(** Binary serialization of tuples for storage in slotted pages.

    Layout: a 2-byte field count, then per field a 1-byte tag followed by the
    payload (ints and floats as 8 bytes little-endian, strings as a 2-byte
    length plus bytes, nulls as the tag alone). *)

val encoded_size : Tuple.t -> int

val encode : Tuple.t -> bytes

val encode_into : Tuple.t -> bytes -> pos:int -> int
(** [encode_into t buf ~pos] writes at [pos] and returns the bytes written.
    @raise Invalid_argument if the buffer is too small. *)

val decode : ?len:int -> bytes -> pos:int -> Tuple.t
(** Decode the tuple at [pos].  With [~len], the record is the [len]
    bytes from [pos] — a record in place inside a larger buffer such as a
    page — and a field running past them is truncation even where the
    buffer goes on; without it the record may run to the buffer's end.
    @raise Invalid_argument on malformed input. *)

val decode_bytes : bytes -> Tuple.t
(** Decode a buffer produced by {!encode}. *)
