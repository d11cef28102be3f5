type t =
  | Uint of int
  | Int of int
  | Address
  | Bool
  | Bytes_n of int
  | Bytes
  | String_t
  | Sarray of t * int
  | Darray of t
  | Tuple of t list
  | Decimal
  | Vbytes of int
  | Vstring of int

type lang = Solidity | Vyper

let rec equal a b =
  match (a, b) with
  | Uint m, Uint n | Int m, Int n | Bytes_n m, Bytes_n n -> m = n
  | Address, Address | Bool, Bool | Bytes, Bytes | String_t, String_t
  | Decimal, Decimal ->
    true
  | Vbytes m, Vbytes n | Vstring m, Vstring n -> m = n
  | Sarray (x, m), Sarray (y, n) -> m = n && equal x y
  | Darray x, Darray y -> equal x y
  | Tuple xs, Tuple ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | _ -> false

let rec to_string = function
  | Uint m -> "uint" ^ string_of_int m
  | Int m -> "int" ^ string_of_int m
  | Address -> "address"
  | Bool -> "bool"
  | Bytes_n m -> "bytes" ^ string_of_int m
  | Bytes -> "bytes"
  | String_t -> "string"
  | Sarray (t, n) -> to_string t ^ "[" ^ string_of_int n ^ "]"
  | Darray t -> to_string t ^ "[]"
  | Tuple ts -> "(" ^ String.concat "," (List.map to_string ts) ^ ")"
  | Decimal -> "decimal"
  | Vbytes n -> "bytes[" ^ string_of_int n ^ "]"
  | Vstring n -> "string[" ^ string_of_int n ^ "]"

let compare a b = Stdlib.compare (to_string a) (to_string b)
let pp fmt t = Format.pp_print_string fmt (to_string t)

(* -- parser ------------------------------------------------------------ *)

exception Parse_error of string

let fail msg = raise (Parse_error msg)

(* Split "a,b,(c,d),e" at top-level commas. *)
let split_top_commas s =
  let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' -> incr depth; Buffer.add_char buf c
      | ')' -> decr depth; Buffer.add_char buf c
      | ',' when !depth = 0 ->
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let rec parse s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then fail "empty type";
  (* peel a trailing array suffix "[...]" *)
  if s.[n - 1] = ']' then begin
    (* find matching '[' scanning backwards (suffix has no nesting) *)
    match String.rindex_opt s '[' with
    | None -> fail "unbalanced ]"
    | Some i ->
      let inner = String.sub s (i + 1) (n - i - 2) in
      let elem_str = String.sub s 0 i in
      (* "bytes[50]" / "string[50]" are Vyper fixed-size sequences, not
         arrays, when the element spelling is exactly bytes/string *)
      if (elem_str = "bytes" || elem_str = "string") && inner <> "" then
        let len = int_of_string inner in
        if elem_str = "bytes" then Vbytes len else Vstring len
      else
        let elem = parse elem_str in
        if inner = "" then Darray elem
        else
          let k = try int_of_string inner with _ -> fail "bad array size" in
          if k <= 0 then fail "array size must be positive" else Sarray (elem, k)
  end
  else if n >= 2 && s.[0] = '(' && s.[n - 1] = ')' then
    let body = String.sub s 1 (n - 2) in
    if String.trim body = "" then Tuple []
    else Tuple (List.map parse (split_top_commas body))
  else
    match s with
    | "address" -> Address
    | "bool" -> Bool
    | "bytes" -> Bytes
    | "string" -> String_t
    | "decimal" -> Decimal
    | "uint" -> Uint 256
    | "int" -> Int 256
    | "byte" -> Bytes_n 1
    | _ ->
      let prefix p =
        if String.length s > String.length p && String.sub s 0 (String.length p) = p
        then
          Some
            (try int_of_string (String.sub s (String.length p) (n - String.length p))
             with _ -> fail ("bad width in " ^ s))
        else None
      in
      (match prefix "uint" with
      | Some m when m mod 8 = 0 && m >= 8 && m <= 256 -> Uint m
      | Some _ -> fail ("bad uint width: " ^ s)
      | None -> (
        match prefix "int" with
        | Some m when m mod 8 = 0 && m >= 8 && m <= 256 -> Int m
        | Some _ -> fail ("bad int width: " ^ s)
        | None -> (
          match prefix "bytes" with
          | Some m when m >= 1 && m <= 32 -> Bytes_n m
          | Some _ -> fail ("bad bytesM width: " ^ s)
          | None -> fail ("unknown type: " ^ s))))

let of_string s =
  try parse s with Parse_error m -> invalid_arg ("Abity.of_string: " ^ m)

let of_string_opt s = try Some (parse s) with Parse_error _ -> None

(* -- structural properties --------------------------------------------- *)

let rec is_dynamic = function
  | Bytes | String_t | Darray _ | Vbytes _ | Vstring _ -> true
  | Sarray (t, _) -> is_dynamic t
  | Tuple ts -> List.exists is_dynamic ts
  | Uint _ | Int _ | Address | Bool | Bytes_n _ | Decimal -> false

let rec head_size t =
  if is_dynamic t then 32
  else
    match t with
    | Sarray (elem, n) -> n * head_size elem
    | Tuple ts -> List.fold_left (fun acc t -> acc + head_size t) 0 ts
    | _ -> 32

let is_basic = function
  | Uint _ | Int _ | Address | Bool | Bytes_n _ -> true
  | _ -> false

let rec dims = function
  | Sarray (t, _) | Darray t -> 1 + dims t
  | _ -> 0

let rec base_elem = function
  | Sarray (t, _) | Darray t -> base_elem t
  | t -> t

let is_nested_array t =
  (* dynamic dimension somewhere below the top dimension *)
  let rec has_dynamic = function
    | Darray _ -> true
    | Sarray (t, _) -> has_dynamic t
    | _ -> false
  in
  match t with
  | Sarray (t, _) | Darray t -> has_dynamic t
  | _ -> false

let rec valid_in lang t =
  match lang with
  | Solidity -> (
    match t with
    | Decimal | Vbytes _ | Vstring _ -> false
    | Sarray (t, _) | Darray t -> valid_in Solidity t
    | Tuple ts -> ts <> [] && List.for_all (valid_in Solidity) ts
    | _ -> true)
  | Vyper -> (
    match t with
    | Bool | Int 128 | Uint 256 | Address | Bytes_n 32 | Decimal | Vbytes _
    | Vstring _ ->
      true
    | Sarray (elem, _) -> (
      (* fixed-size list of (possibly listed) basic Vyper types *)
      match elem with
      | Sarray _ -> valid_in Vyper elem
      | Bool | Int 128 | Uint 256 | Address | Bytes_n 32 | Decimal -> true
      | _ -> false)
    | Tuple ts ->
      ts <> []
      && List.for_all
           (function
             | Bool | Int 128 | Uint 256 | Address | Bytes_n 32 | Decimal ->
               true
             | _ -> false)
           ts
    | _ -> false)

let canonical_sig name params =
  name ^ "(" ^ String.concat "," (List.map to_string params) ^ ")"
