(* Minimal single-line JSON for the serve protocol.

   The repo deliberately carries no external JSON dependency, and the
   wire format is one JSON value per line, so this is a small recursive
   printer/parser over an explicit value type.  Two properties matter to
   the protocol and its cram tests: the printer never emits a newline
   (line framing is the message framing), and floats are always printed
   in plain fixed-point (no exponents), so shell scripts can extract and
   compare them with sed/awk.  A float gets at least 6 decimals and as
   many more as it needs to read back as the same double; every finite
   double has a finite decimal expansion, so the search always ends. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

(* --- printing ----------------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* non-finite values have no JSON spelling; null keeps the line parseable *)
    let rec fixed p =
      let s = Printf.sprintf "%.*f" p f in
      if float_of_string s = f then s else fixed (p + 1)
    in
    Buffer.add_string buf (if Float.is_finite f then fixed 6 else "null")
  | String s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------------ *)

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, found end of input" ch c.pos

let expect_word c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "malformed literal at offset %d" c.pos

(* UTF-8 encode one code point; \uXXXX escapes outside the BMP surrogate
   mechanism are passed through as-is (the protocol only ships ASCII). *)
let add_code_point buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail "unterminated string at offset %d" c.pos
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' ->
      advance c;
      (match peek c with
      | None -> fail "unterminated escape at offset %d" c.pos
      | Some e ->
        advance c;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.text then fail "truncated \\u escape";
          let hex = String.sub c.text c.pos 4 in
          c.pos <- c.pos + 4;
          let cp =
            try int_of_string ("0x" ^ hex)
            with Failure _ -> fail "bad \\u escape \"%s\"" hex
          in
          add_code_point buf cp
        | e -> fail "bad escape '\\%c' at offset %d" e c.pos));
      loop ()
    | Some ch when Char.code ch < 0x20 -> fail "raw control character in string at offset %d" c.pos
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
      advance c;
      true
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance c;
      true
    | _ -> false
  in
  while consume () do
    ()
  done;
  let s = String.sub c.text start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "malformed number %S at offset %d" s start
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> fail "malformed number %S at offset %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input at offset %d" c.pos
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ()
        | Some '}' -> advance c
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements ()
        | Some ']' -> advance c
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' ->
    advance c;
    String (parse_string_body c)
  | Some 't' -> expect_word c "true" (Bool true)
  | Some 'f' -> expect_word c "false" (Bool false)
  | Some 'n' -> expect_word c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected character '%c' at offset %d" ch c.pos

let of_string text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then fail "trailing garbage at offset %d" c.pos;
  v

(* --- accessors ----------------------------------------------------------------- *)

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

let to_bool ?(default = false) = function
  | Bool b -> b
  | Null -> default
  | v -> fail "expected a boolean, found %s" (to_string v)

let to_int ?default v =
  match (v, default) with
  | Int i, _ -> i
  | Null, Some d -> d
  | v, _ -> fail "expected an integer, found %s" (to_string v)

let to_float ?default v =
  match (v, default) with
  | Float f, _ -> f
  | Int i, _ -> float_of_int i
  | Null, Some d -> d
  | v, _ -> fail "expected a number, found %s" (to_string v)

let to_str ?default v =
  match (v, default) with
  | String s, _ -> s
  | Null, Some d -> d
  | v, _ -> fail "expected a string, found %s" (to_string v)

let to_list = function
  | List xs -> xs
  | Null -> []
  | v -> fail "expected a list, found %s" (to_string v)
