open Evm
module Absint = Sigrec_static.Absint
module Domain = Sigrec_static.Domain
module Tr = Sigrec_trace.Trace

type member = { bit_offset : int; bit_width : int }

type decl =
  | Word
  | Packed of member list
  | Mapping
  | Dyn_array

type entry = { slot : U256.t; decl : decl; reads : int; writes : int }

type t = {
  entries : entry list;
  unknown_ops : int;
  total_ops : int;
  complete : bool;
}

(* -- classification ---------------------------------------------------- *)

type info = {
  slot : U256.t;
  mutable map : bool;
  mutable arr : bool;
  mutable members : (int * int) list;
  mutable reads : int;
  mutable writes : int;
}

(* Evidence priority per base slot: a keccak derivation outranks
   everything (the word at a mapping/array slot is the declaration
   itself — for arrays, its length), mask evidence outranks the
   full-word default. *)
(* The write path for a lane ending at bit 256 clears with a low-run
   keep mask — which spans every lane below it and so records one
   composite "member". Drop any member that is exactly a concatenation
   of other recorded members: real lanes never overlap, so a covered
   span can only be such a keep-mask artefact. *)
let drop_composites ms =
  let rec covers pos (k, w) =
    pos = k + w
    || List.exists
         (fun (k', w') ->
           k' = pos
           && not (k' = k && w' = w)
           && pos + w' <= k + w
           && covers (pos + w') (k, w))
         ms
  in
  List.filter (fun (k, w) -> not (covers k (k, w))) ms

let decl_of info =
  if info.map then Mapping
  else if info.arr then Dyn_array
  else
    match drop_composites (List.sort_uniq compare info.members) with
    | [] -> Word
    | ms ->
      Packed
        (List.map (fun (bit_offset, bit_width) -> { bit_offset; bit_width }) ms)

let of_result (r : Absint.result) =
  let infos : (string, info) Hashtbl.t = Hashtbl.create 16 in
  let info c =
    let key = U256.to_bytes_be c in
    match Hashtbl.find_opt infos key with
    | Some i -> i
    | None ->
      let i =
        { slot = c; map = false; arr = false; members = []; reads = 0;
          writes = 0 }
      in
      Hashtbl.replace infos key i;
      i
  in
  let unknown = ref 0 in
  let total = ref 0 in
  let derive = function
    | Domain.Fixed _ -> ()
    | Domain.Map_of c -> (info c).map <- true
    | Domain.Arr_of c -> (info c).arr <- true
  in
  let base = function
    | Domain.Fixed c | Domain.Map_of c | Domain.Arr_of c -> c
  in
  List.iter
    (fun { Absint.ev; _ } ->
      match ev with
      | Absint.Sload sl ->
        incr total;
        (match sl with
        | None -> incr unknown
        | Some sl ->
          derive sl;
          let i = info (base sl) in
          i.reads <- i.reads + 1)
      | Absint.Sstore (sl, _) ->
        incr total;
        (match sl with
        | None -> incr unknown
        | Some sl ->
          derive sl;
          let i = info (base sl) in
          i.writes <- i.writes + 1)
      | Absint.Sderive sl -> derive sl
      | Absint.Smask (sl, k, w) -> (
        match sl with
        | Domain.Fixed c ->
          let i = info c in
          i.members <- (k, w) :: i.members
        | Domain.Map_of _ | Domain.Arr_of _ ->
          (* value-type detail of a mapping/array element: outside the
             slot-layout model *)
          ()))
    r.Absint.storage;
  let entries =
    Hashtbl.fold
      (fun _ i acc ->
        ({ slot = i.slot; decl = decl_of i; reads = i.reads;
           writes = i.writes }
          : entry)
        :: acc)
      infos []
    |> List.sort (fun (a : entry) (b : entry) -> U256.compare a.slot b.slot)
  in
  {
    entries;
    unknown_ops = !unknown;
    total_ops = !total;
    complete = r.Absint.summary.Sigrec_static.Summary.complete;
  }

(* -- driving the fixpoint ---------------------------------------------- *)

let of_cfg cfg =
  (* Mirror the signature engine's lifting discipline: one
     whole-contract run resolves pushed cross-block jump targets, a
     second run over the resolved graph reaches the code behind them
     with full precision. *)
  let r0 = Absint.analyze ~depth:0 ~entry:0 cfg in
  let r =
    if Absint.resolved_count r0 > 0 then
      Absint.analyze ~depth:0 ~entry:0 (Absint.resolved_cfg r0)
    else r0
  in
  of_result r

let recover code =
  let t0_ns = if Tr.enabled () then Tr.now_ns () else 0 in
  let layout = of_cfg (Cfg.build code) in
  if Tr.enabled () then
    Tr.complete Tr.Layout "storage_pass" ~t0_ns
      [
        ("bytes", Tr.Int (String.length code));
        ("slots", Tr.Int (List.length layout.entries));
        ("storage_ops", Tr.Int layout.total_ops);
        ("unknown_ops", Tr.Int layout.unknown_ops);
        ("complete", Tr.Bool layout.complete);
      ];
  layout

(* -- comparison and rendering ------------------------------------------ *)

let equal_decl a b =
  match (a, b) with
  | Word, Word | Mapping, Mapping | Dyn_array, Dyn_array -> true
  | Packed xs, Packed ys -> xs = ys
  | _ -> false

(* Shape equality is what the oracles compare: the declared slots and
   their types, not how often the sampled code happened to touch them. *)
let equal_shape a b =
  List.length a.entries = List.length b.entries
  && List.for_all2
       (fun (x : entry) (y : entry) ->
         U256.equal x.slot y.slot && equal_decl x.decl y.decl)
       a.entries b.entries

let decl_to_string = function
  | Word -> "word"
  | Packed ms ->
    Printf.sprintf "packed(%s)"
      (String.concat ","
         (List.map
            (fun m -> Printf.sprintf "%d:%d" m.bit_offset m.bit_width)
            ms))
  | Mapping -> "mapping"
  | Dyn_array -> "dynamic-array"

let pp fmt t =
  Format.fprintf fmt "@[<v>storage layout: %d slot%s%s@,"
    (List.length t.entries)
    (if List.length t.entries = 1 then "" else "s")
    (if t.complete then "" else " (incomplete analysis)");
  List.iter
    (fun (e : entry) ->
      Format.fprintf fmt "  slot 0x%s: %-14s reads %d writes %d@,"
        (U256.to_hex e.slot) (decl_to_string e.decl) e.reads e.writes)
    t.entries;
  if t.unknown_ops > 0 then
    Format.fprintf fmt "  unresolved storage operations: %d/%d@,"
      t.unknown_ops t.total_ops;
  Format.fprintf fmt "@]"
