(* Recursive-descent JSON parser, shared by the obs tests and the
   bench checker, plus the string and float spellings every
   hand-rolled emitter in the project uses. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> bad "expected %c at offset %d" c !pos
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some (('"' | '\\' | '/') as c) ->
          Buffer.add_char buf c;
          advance ()
        | Some 'n' ->
          Buffer.add_char buf '\n';
          advance ()
        | Some 't' ->
          Buffer.add_char buf '\t';
          advance ()
        | Some 'r' ->
          Buffer.add_char buf '\r';
          advance ()
        | Some 'b' ->
          Buffer.add_char buf '\b';
          advance ()
        | Some 'f' ->
          Buffer.add_char buf '\012';
          advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then bad "truncated unicode escape";
          let hex = String.sub s !pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> bad "bad unicode escape %S" hex
          in
          (* our emitters only escape control characters, so a raw
             byte round-trip suffices *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
          pos := !pos + 4
        | _ -> bad "bad escape at offset %d" !pos);
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some v -> Num v
    | None -> bad "bad number %S" tok
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> bad "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> bad "expected , or } at offset %d" !pos
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> bad "expected , or ] at offset %d" !pos
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then bad "trailing garbage at offset %d" !pos;
  v

let of_string s = match parse s with v -> Ok v | exception Bad m -> Error m

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"
