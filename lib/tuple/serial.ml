let tag_null = 0
let tag_int = 1
let tag_float = 2
let tag_str = 3

let field_size = function
  | Value.Null -> 1
  | Value.Int _ -> 9
  | Value.Float _ -> 9
  | Value.Str s ->
      if String.length s > 0xffff then invalid_arg "Serial: string too long";
      3 + String.length s

let encoded_size t = Array.fold_left (fun acc v -> acc + field_size v) 2 t

let encode_into t buf ~pos =
  let size = encoded_size t in
  if pos + size > Bytes.length buf then invalid_arg "Serial.encode_into: buffer too small";
  Bytes.set_uint16_le buf pos (Array.length t);
  let cursor = ref (pos + 2) in
  let put_field v =
    match v with
    | Value.Null ->
        Bytes.set_uint8 buf !cursor tag_null;
        cursor := !cursor + 1
    | Value.Int x ->
        Bytes.set_uint8 buf !cursor tag_int;
        Bytes.set_int64_le buf (!cursor + 1) (Int64.of_int x);
        cursor := !cursor + 9
    | Value.Float x ->
        Bytes.set_uint8 buf !cursor tag_float;
        Bytes.set_int64_le buf (!cursor + 1) (Int64.bits_of_float x);
        cursor := !cursor + 9
    | Value.Str s ->
        Bytes.set_uint8 buf !cursor tag_str;
        Bytes.set_uint16_le buf (!cursor + 1) (String.length s);
        Bytes.blit_string s 0 buf (!cursor + 3) (String.length s);
        cursor := !cursor + 3 + String.length s
  in
  Array.iter put_field t;
  size

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let _ = encode_into t buf ~pos:0 in
  buf

let decode ?len buf ~pos =
  let limit =
    match len with
    | None -> Bytes.length buf
    | Some len ->
        if len < 0 || pos + len > Bytes.length buf then
          invalid_arg "Serial.decode: length out of bounds";
        pos + len
  in
  if pos + 2 > limit then invalid_arg "Serial.decode: truncated header";
  let nfields = Bytes.get_uint16_le buf pos in
  let cursor = ref (pos + 2) in
  let need n =
    if !cursor + n > limit then invalid_arg "Serial.decode: truncated field"
  in
  let get_field () =
    need 1;
    let tag = Bytes.get_uint8 buf !cursor in
    if tag = tag_null then begin
      cursor := !cursor + 1;
      Value.Null
    end
    else if tag = tag_int then begin
      need 9;
      let x = Int64.to_int (Bytes.get_int64_le buf (!cursor + 1)) in
      cursor := !cursor + 9;
      Value.Int x
    end
    else if tag = tag_float then begin
      need 9;
      let x = Int64.float_of_bits (Bytes.get_int64_le buf (!cursor + 1)) in
      cursor := !cursor + 9;
      Value.Float x
    end
    else if tag = tag_str then begin
      need 3;
      let len = Bytes.get_uint16_le buf (!cursor + 1) in
      need (3 + len);
      let s = Bytes.sub_string buf (!cursor + 3) len in
      cursor := !cursor + 3 + len;
      Value.Str s
    end
    else invalid_arg "Serial.decode: bad tag"
  in
  Array.init nfields (fun _ -> get_field ())

let decode_bytes buf = decode buf ~pos:0
