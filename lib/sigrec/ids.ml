open Evm
module Sexpr = Symex.Sexpr

type entry = { selector : string; entry_pc : int }

(* The function id a selector comparison tests: an EQ, under an even
   number of ISZEROs, of a constant of at most 32 bits and a non-constant
   expression that [is_selector] accepts. *)
let selector_id ~is_selector cond =
  let core, iszeros = Sexpr.iszero_depth cond in
  match Sexpr.node core with
  | Sexpr.Bin (Sexpr.Beq, a, b) when iszeros mod 2 = 0 -> (
    let id_of e =
      match Sexpr.to_const e with
      | Some v when U256.bits v <= 32 ->
        Some (String.sub (U256.to_bytes_be v) 28 4)
      | _ -> None
    in
    let selector e = Sexpr.to_const e = None && is_selector e in
    match (id_of a, id_of b) with
    | Some id, None when selector b -> Some id
    | None, Some id when selector a -> Some id
    | _ -> None)
  | _ -> None

(* The equal arm of a comparison against call data leads into a function
   body, so the dispatcher run stops there and only goes on down the
   fall-through arm to the next comparison. *)
let stop_taken cond =
  selector_id ~is_selector:(fun e -> Sexpr.loads_of e <> []) cond <> None

let dedup entries =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e.selector then false
      else begin
        Hashtbl.replace seen e.selector ();
        true
      end)
    entries

(* Symbolic execution of the dispatcher. The selector is whatever the
   contract computes from the first call-data word; every branch whose
   condition compares that expression against a 4-byte constant is a
   dispatch decision, and the equal branch leads to the function body.
   This is robust to junk instructions and constant re-encodings,
   because it looks at the executed comparison, not the instruction
   text (the same philosophy as TASE itself). *)
let extract_prepared program =
  let budget =
    { Symex.Exec.default_budget with Symex.Exec.max_paths = 256 }
  in
  let trace =
    Symex.Exec.run_prepared ~budget ~stop_taken program ~entry:0
      ~init_stack:[] ()
  in
  (* the selector expression derives from the load at offset 0 *)
  let selector_load_ids =
    List.filter_map
      (fun (l : Symex.Trace.load) ->
        match Sexpr.to_const_int l.Symex.Trace.loc with
        | Some 0 -> Some l.Symex.Trace.id
        | _ -> None)
      trace.Symex.Trace.loads
  in
  let is_selector e = List.exists (Sexpr.mentions_load e) selector_load_ids in
  let out = ref [] in
  Hashtbl.iter
    (fun pc conds ->
      match Hashtbl.find_opt trace.Symex.Trace.jumpi_targets pc with
      | None -> ()
      | Some target ->
        List.iter
          (fun cond ->
            match selector_id ~is_selector cond with
            | Some id -> out := (pc, id, target) :: !out
            | None -> ())
          conds)
    trace.Symex.Trace.jumpi_conds;
  (* dispatch order = ascending JUMPI pc *)
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !out
  |> List.map (fun (_, selector, entry_pc) -> { selector; entry_pc })
  |> dedup

let extract bytecode = extract_prepared (Symex.Exec.prepare bytecode)

let uses_shr_dispatch bytecode =
  let instrs = Disasm.disassemble bytecode in
  let rec scan = function
    | { Disasm.op = Opcode.CALLDATALOAD; _ }
      :: { Disasm.op = Opcode.PUSH (_, v); _ }
      :: { Disasm.op = Opcode.SHR; _ }
      :: _
      when U256.to_int v = Some 0xe0 ->
      true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan instrs
