open Evm
module Summary = Sigrec_static.Summary
module Absint = Sigrec_static.Absint

type finding =
  | Mask_conflict of { offset : int; mask : U256.t; recovered : Abi.Abity.t }
  | Signext_conflict of { offset : int; byte : int; recovered : Abi.Abity.t }
  | Param_never_read of { offset : int; recovered : Abi.Abity.t }
  | Read_beyond_params of { offset : int }
  | Dead_firing of { rule : string; param_index : int }
  | Unreachable_entry

type verdict = {
  selector_hex : string;
  entry_pc : int;
  recovered : Recover.recovered;
  findings : finding list;
  summary : Summary.t;
}

let agree v = v.findings = []

(* -- head layout ------------------------------------------------------ *)

let head_offsets params =
  let rec go off = function
    | [] -> []
    | ty :: rest -> (off, ty) :: go (off + Abi.Abity.head_size ty) rest
  in
  go 4 params

let head_end params =
  List.fold_left (fun acc ty -> acc + Abi.Abity.head_size ty) 4 params

(* The basic type occupying the 32-byte word at byte [rel] of [ty]'s
   head block; [None] when the word is an offset slot, out of range, or
   not a basic value we can judge. *)
let rec word_type ty rel =
  match ty with
  | _ when Abi.Abity.is_dynamic ty -> None
  | Abi.Abity.Sarray (elem, n) ->
    let esz = Abi.Abity.head_size elem in
    if esz > 0 && rel < n * esz then word_type elem (rel mod esz) else None
  | Abi.Abity.Tuple fields ->
    let rec walk rel = function
      | [] -> None
      | f :: rest ->
        let sz = Abi.Abity.head_size f in
        if rel < sz then word_type f rel else walk (rel - sz) rest
    in
    walk rel fields
  | ty when Abi.Abity.is_basic ty -> if rel = 0 then Some ty else None
  | _ -> None

let word_type_at params off =
  List.find_map
    (fun (h, ty) ->
      if off >= h && off < h + Abi.Abity.head_size ty then
        word_type ty (off - h)
      else None)
    (head_offsets params)

(* -- mask shapes ------------------------------------------------------ *)

(* Only canonical solc type masks are judged: anything else (a nibble
   test, a flag probe) is application logic the lint has no opinion
   on. *)
let low_shape m =
  let rec go k =
    if k > 31 then None
    else if U256.equal m (U256.ones_low k) then Some k
    else go (k + 1)
  in
  go 1

let high_shape m =
  let rec go k =
    if k > 31 then None
    else if U256.equal m (U256.ones_high k) then Some k
    else go (k + 1)
  in
  go 1

let mask_agrees ty m =
  match (low_shape m, high_shape m) with
  | Some k, _ -> (
    match ty with
    | Abi.Abity.Uint w -> w = 8 * k
    | Abi.Abity.Address -> k = 20
    | _ -> false)
  | None, Some k -> ( match ty with Abi.Abity.Bytes_n w -> w = k | _ -> false)
  | None, None -> true

(* -- rule groups ------------------------------------------------------ *)

let copy_rules = [ "R5"; "R6"; "R7"; "R8"; "R9"; "R10"; "R23" ]
let item_load_rules = [ "R2"; "R3"; "R24" ]

(* -- the per-function diff -------------------------------------------- *)

let check_function ~(global : Absint.result) ~(summary : Summary.t)
    (r : Recover.recovered) =
  let params = r.Recover.params in
  let solidity = r.Recover.lang = Abi.Abity.Solidity in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let quiescent =
    (* the summary provably saw every call-data access of the body *)
    summary.Summary.complete
    && summary.Summary.sym_reads = 0
    && summary.Summary.copies = []
    && not summary.Summary.uses_cdsize
  in
  (* 1. a canonical type mask the static pass saw must match the type
     TASE recovered for that word *)
  if solidity then
    List.iter
      (fun (off, m) ->
        if off >= 4 then
          match word_type_at params off with
          | Some ty when not (mask_agrees ty m) ->
            add (Mask_conflict { offset = off; mask = m; recovered = ty })
          | _ -> ())
      summary.Summary.masks;
  (* 2. same for sign extensions: SIGNEXTEND k pins int(8(k+1)) *)
  if solidity then
    List.iter
      (fun (off, k) ->
        if off >= 4 && k <= 30 then
          match word_type_at params off with
          | Some ty when not (Abi.Abity.equal ty (Abi.Abity.Int (8 * (k + 1))))
            ->
            add (Signext_conflict { offset = off; byte = k; recovered = ty })
          | _ -> ())
      summary.Summary.signexts;
  (* 3. a recovered parameter whose head slot the static pass proves is
     never read anywhere *)
  if quiescent then
    List.iter
      (fun (h, ty) ->
        if not (Summary.reads_offset summary h) then
          add (Param_never_read { offset = h; recovered = ty }))
      (head_offsets params);
  (* 4. head-aligned constant reads past the recovered head: TASE
     dropped a parameter the body demonstrably touches *)
  if solidity && summary.Summary.complete then begin
    let bound = head_end params in
    List.iter
      (fun off ->
        if off >= bound && (off - 4) mod 32 = 0 then
          add (Read_beyond_params { offset = off }))
      summary.Summary.const_reads
  end;
  (* 5. rule firings whose premise the static pass refutes: a copy rule
     with no CALLDATACOPY in the body, an item-load rule with no
     symbolic-location read *)
  if summary.Summary.complete then
    List.iteri
      (fun i path ->
        List.iter
          (fun rule ->
            if List.mem rule copy_rules && summary.Summary.copies = [] then
              add (Dead_firing { rule; param_index = i })
            else if
              List.mem rule item_load_rules && summary.Summary.sym_reads = 0
            then add (Dead_firing { rule; param_index = i }))
          (List.sort_uniq compare path))
      r.Recover.rule_paths;
  (* 6. a dispatcher entry the whole-contract run proves unreachable *)
  if
    global.Absint.summary.Summary.complete
    && not (Absint.reached global r.Recover.entry_pc)
  then add Unreachable_entry;
  List.rev !findings

let check_contract ?stats ?config ?static_prune ?budget contract =
  let module Tr = Sigrec_trace.Trace in
  let recovered =
    Recover.recover_contract ?stats ?config ?static_prune ?budget contract
  in
  let global = Contract.static contract in
  let verdicts =
    List.map
      (fun (r : Recover.recovered) ->
        let t0_ns = if Tr.enabled () then Tr.now_ns () else 0 in
        let absint =
          Absint.analyze ~depth:1 ~entry:r.Recover.entry_pc
            contract.Contract.cfg
        in
        let summary = absint.Absint.summary in
        let findings = check_function ~global ~summary r in
        if Tr.enabled () then
          Tr.complete Tr.Lint "verdict" ~t0_ns
            [
              ("selector", Tr.Str ("0x" ^ r.Recover.selector_hex));
              ("findings", Tr.Int (List.length findings));
              ("agree", Tr.Bool (findings = []));
            ];
        {
          selector_hex = r.Recover.selector_hex;
          entry_pc = r.Recover.entry_pc;
          recovered = r;
          findings;
          summary;
        })
      recovered
  in
  Option.iter
    (fun s ->
      List.iter
        (fun v -> if agree v then Stats.lint_agree s else Stats.lint_disagree s)
        verdicts)
    stats;
  verdicts

let check ?stats ?config ?static_prune ?budget code =
  check_contract ?stats ?config ?static_prune ?budget (Contract.make code)

(* -- storage-layout differential -------------------------------------- *)

module Layout = Sigrec_layout.Layout

type layout_finding =
  | Unexplained_write of { slot : U256.t }
  | Unexercised_slot of { slot : U256.t }

type layout_verdict = {
  layout : Layout.t;
  selectors_run : int;
  selectors_ok : int;
  writes_observed : int;
  layout_findings : layout_finding list;
}

let layout_agree v = v.layout_findings = []

(* Every slot the recovered layout can account for, as 32-byte keys:
   direct slots themselves, the caller-keyed keccak(key . slot) cell of
   each mapping (the concrete drive below calls with the interpreter's
   default caller), and a small window of element cells above each
   dynamic array's keccak(slot) data base. *)
let explained_slots (layout : Layout.t) =
  let key32 = U256.to_bytes_be in
  let explained = Hashtbl.create 32 in
  let add u = Hashtbl.replace explained (key32 u) () in
  let caller = Interp.default_env.Interp.caller in
  List.iter
    (fun (e : Layout.entry) ->
      match e.Layout.decl with
      | Layout.Word | Layout.Packed _ -> add e.Layout.slot
      | Layout.Mapping ->
        add
          (U256.of_bytes_be
             (Keccak.digest (key32 caller ^ key32 e.Layout.slot)))
      | Layout.Dyn_array ->
        add e.Layout.slot;
        let base = U256.of_bytes_be (Keccak.digest (key32 e.Layout.slot)) in
        for k = 0 to 7 do
          add (U256.add base (U256.of_int k))
        done)
    layout.Layout.entries;
  explained

let check_layout ?stats code =
  let module Tr = Sigrec_trace.Trace in
  let t0_ns = if Tr.enabled () then Tr.now_ns () else 0 in
  let contract = Contract.make code in
  let layout = Layout.recover code in
  let explained = explained_slots layout in
  (* Drive every dispatcher entry concretely with benign word
     arguments; each run starts from empty storage and only successful
     outcomes contribute (a reverted frame's writes are rolled back). *)
  let arg_word = String.make 31 '\000' ^ "\001" in
  let calldata_tail = String.concat "" (List.init 8 (fun _ -> arg_word)) in
  let observed = Hashtbl.create 32 in
  let ok = ref 0 in
  let entries = Contract.entries contract in
  let program = Interp.prepare code in
  List.iter
    (fun { Ids.selector; _ } ->
      let r = Interp.run program ~calldata:(selector ^ calldata_tail) () in
      if Interp.succeeded r.Interp.outcome then begin
        incr ok;
        List.iter
          (fun (slot, _) ->
            Hashtbl.replace observed (U256.to_bytes_be slot) slot)
          (Machine.Storage.bindings r.Interp.storage)
      end)
    entries;
  let findings = ref [] in
  Hashtbl.iter
    (fun key slot ->
      if not (Hashtbl.mem explained key) then
        findings := Unexplained_write { slot } :: !findings)
    observed;
  (* A slot the static pass saw written must show concrete traffic —
     meaningful only when every entry actually ran to completion, so
     reverted paths cannot masquerade as missing writes. *)
  if !ok = List.length entries then
    List.iter
      (fun (e : Layout.entry) ->
        if e.Layout.writes > 0 then begin
          let probe =
            match e.Layout.decl with
            | Layout.Word | Layout.Packed _ | Layout.Dyn_array ->
              Some e.Layout.slot
            | Layout.Mapping ->
              Some
                (U256.of_bytes_be
                   (Keccak.digest
                      (U256.to_bytes_be Interp.default_env.Interp.caller
                      ^ U256.to_bytes_be e.Layout.slot)))
          in
          match probe with
          | Some slot when not (Hashtbl.mem observed (U256.to_bytes_be slot))
            -> findings := Unexercised_slot { slot = e.Layout.slot } :: !findings
          | _ -> ()
        end)
      layout.Layout.entries;
  let layout_findings =
    List.sort
      (fun a b ->
        let key = function
          | Unexplained_write { slot } -> (0, U256.to_bytes_be slot)
          | Unexercised_slot { slot } -> (1, U256.to_bytes_be slot)
        in
        compare (key a) (key b))
      !findings
  in
  let v =
    {
      layout;
      selectors_run = List.length entries;
      selectors_ok = !ok;
      writes_observed = Hashtbl.length observed;
      layout_findings;
    }
  in
  Option.iter
    (fun s -> if layout_agree v then Stats.lint_agree s else Stats.lint_disagree s)
    stats;
  if Tr.enabled () then
    Tr.complete Tr.Layout "lint" ~t0_ns
      [
        ("selectors", Tr.Int v.selectors_run);
        ("writes_observed", Tr.Int v.writes_observed);
        ("findings", Tr.Int (List.length layout_findings));
      ];
  v

(* -- reporting -------------------------------------------------------- *)

let finding_to_string = function
  | Mask_conflict { offset; mask; recovered } ->
    Printf.sprintf
      "mask conflict at offset %d: static mask 0x%s vs recovered %s" offset
      (U256.to_hex mask)
      (Abi.Abity.to_string recovered)
  | Signext_conflict { offset; byte; recovered } ->
    Printf.sprintf
      "signextend conflict at offset %d: static byte %d vs recovered %s"
      offset byte
      (Abi.Abity.to_string recovered)
  | Param_never_read { offset; recovered } ->
    Printf.sprintf "parameter at offset %d (%s) is never read statically"
      offset
      (Abi.Abity.to_string recovered)
  | Read_beyond_params { offset } ->
    Printf.sprintf "static read at offset %d beyond the recovered head"
      offset
  | Dead_firing { rule; param_index } ->
    Printf.sprintf "rule %s fired for parameter %d without its premise"
      rule param_index
  | Unreachable_entry -> "dispatcher entry unreachable in the static CFG"

let layout_finding_to_string = function
  | Unexplained_write { slot } ->
    Printf.sprintf "concrete write to slot 0x%s unexplained by the layout"
      (U256.to_hex slot)
  | Unexercised_slot { slot } ->
    Printf.sprintf
      "declared slot 0x%s is written statically but never concretely"
      (U256.to_hex slot)

let pp_layout_verdict fmt v =
  Format.fprintf fmt "@[<v>layout lint: %s (%d/%d selectors ok, %d cells written)@,"
    (if layout_agree v then "agree" else "DISAGREE")
    v.selectors_ok v.selectors_run v.writes_observed;
  List.iter
    (fun f -> Format.fprintf fmt "  %s@," (layout_finding_to_string f))
    v.layout_findings;
  Format.fprintf fmt "@]"

let pp_verdict fmt v =
  Format.fprintf fmt "@[<v>0x%s entry %04x: %s@," v.selector_hex v.entry_pc
    (if agree v then "agree" else "DISAGREE");
  List.iter
    (fun f -> Format.fprintf fmt "  %s@," (finding_to_string f))
    v.findings;
  Format.fprintf fmt "@]"
