(* Generic hash-cons table.

   Maps a construction request (the key) to its canonical, uniquely
   numbered value. Buckets are plain association lists; the table doubles
   when the load factor passes 2. A table is single-domain state: Sexpr
   keeps one set of tables per domain in Domain.DLS, so no locking is
   needed here. *)

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  ids : int ref;  (* shared across the tables of one interner *)
  mutable buckets : ('k * 'v) list array;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?ids ~hash ~equal n =
  {
    hash;
    equal;
    ids = (match ids with Some r -> r | None -> ref 0);
    buckets = Array.make (max 8 n) [];
    size = 0;
    hits = 0;
    misses = 0;
  }

let index t k = (t.hash k land Stdlib.max_int) mod Array.length t.buckets

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun ((k, _) as cell) ->
         let i = index t k in
         t.buckets.(i) <- cell :: t.buckets.(i)))
    old

(* [build] receives the key so call sites can pass a closed (statically
   allocated) function, and the bucket walk is top-level recursion
   rather than an inner closure: the hit path — the overwhelmingly
   common one — then allocates nothing at all. *)
let rec find_in t k build bucket =
  match bucket with
  | [] -> add t k build
  | (k', v) :: rest ->
    if t.equal k k' then begin
      t.hits <- t.hits + 1;
      v
    end
    else find_in t k build rest

and add t k build =
  t.misses <- t.misses + 1;
  let id = !(t.ids) in
  t.ids := id + 1;
  (* [build] may recursively intern other keys (and so resize the
     table), so the bucket index is recomputed after it returns. *)
  let v = build k ~id in
  let i = index t k in
  t.buckets.(i) <- (k, v) :: t.buckets.(i);
  t.size <- t.size + 1;
  if t.size > 2 * Array.length t.buckets then resize t;
  v

let find_or_add t k build = find_in t k build t.buckets.(index t k)

let length t = t.size
let hits t = t.hits
let misses t = t.misses
