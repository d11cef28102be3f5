(* Bounded LRU map: a hashtable over an intrusive doubly-linked list in
   recency order. [find] promotes to most-recent; [add] evicts from the
   least-recent end once the capacity is exceeded. Capacity 0 means
   unbounded (the list still tracks recency, which costs two pointer
   writes per hit — negligible against a recovery analysis).

   Not thread-safe: Engine guards its instance with the engine lock. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards most-recent *)
  mutable next : ('k, 'v) node option; (* towards least-recent *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
  mutable evictions : int;
}

let create ~capacity =
  {
    capacity = Stdlib.max 0 capacity;
    table = Hashtbl.create (if capacity > 0 then Stdlib.min capacity 1024 else 256);
    head = None;
    tail = None;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let evictions t = t.evictions
let mem t k = Hashtbl.mem t.table k

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let promote t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let find_opt t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
    promote t n;
    Some n.value

(* Peek without touching recency: metrics and assertions must not
   reorder the eviction queue. *)
let peek_opt t k =
  Option.map (fun n -> n.value) (Hashtbl.find_opt t.table k)

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.evictions <- t.evictions + 1

let add t k v =
  (match Hashtbl.find_opt t.table k with
  | Some n ->
    n.value <- v;
    promote t n
  | None ->
    let n = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k n;
    push_front t n);
  if t.capacity > 0 then
    while Hashtbl.length t.table > t.capacity do
      evict_lru t
    done
