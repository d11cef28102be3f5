module Abity = Abi.Abity
module Funsig = Abi.Funsig
module Layout = Sigrec_layout.Layout

(* -- interface specs ---------------------------------------------------- *)

type member = { fsig : Funsig.t; required : bool }

type spec = {
  spec_name : string;
  extension : bool;
  members : member list;
  wants_mapping : bool;
}

let req name params = { fsig = Funsig.make name params; required = true }
let opt name params = { fsig = Funsig.make name params; required = false }

open Abity

(* Selectors are always computed from the canonical signature via
   [Funsig.selector]; no 4-byte constant is ever written down. *)
let erc20 =
  {
    spec_name = "ERC-20";
    extension = false;
    wants_mapping = true;
    members =
      [
        req "totalSupply" [];
        req "balanceOf" [ Address ];
        req "transfer" [ Address; Uint 256 ];
        req "transferFrom" [ Address; Address; Uint 256 ];
        req "approve" [ Address; Uint 256 ];
        req "allowance" [ Address; Address ];
        opt "name" [];
        opt "symbol" [];
        opt "decimals" [];
      ];
  }

let erc721 =
  {
    spec_name = "ERC-721";
    extension = false;
    wants_mapping = true;
    members =
      [
        req "balanceOf" [ Address ];
        req "ownerOf" [ Uint 256 ];
        req "safeTransferFrom" [ Address; Address; Uint 256; Bytes ];
        req "safeTransferFrom" [ Address; Address; Uint 256 ];
        req "transferFrom" [ Address; Address; Uint 256 ];
        req "approve" [ Address; Uint 256 ];
        req "setApprovalForAll" [ Address; Bool ];
        req "getApproved" [ Uint 256 ];
        req "isApprovedForAll" [ Address; Address ];
        req "supportsInterface" [ Bytes_n 4 ];
        opt "name" [];
        opt "symbol" [];
        opt "tokenURI" [ Uint 256 ];
      ];
  }

let erc1155 =
  {
    spec_name = "ERC-1155";
    extension = false;
    wants_mapping = true;
    members =
      [
        req "safeTransferFrom" [ Address; Address; Uint 256; Uint 256; Bytes ];
        req "safeBatchTransferFrom"
          [ Address; Address; Darray (Uint 256); Darray (Uint 256); Bytes ];
        req "balanceOf" [ Address; Uint 256 ];
        req "balanceOfBatch" [ Darray Address; Darray (Uint 256) ];
        req "setApprovalForAll" [ Address; Bool ];
        req "isApprovedForAll" [ Address; Address ];
        req "supportsInterface" [ Bytes_n 4 ];
        opt "uri" [ Uint 256 ];
      ];
  }

let erc165 =
  {
    spec_name = "ERC-165";
    extension = true;
    wants_mapping = false;
    members = [ req "supportsInterface" [ Bytes_n 4 ] ];
  }

let ownable =
  {
    spec_name = "Ownable";
    extension = true;
    wants_mapping = false;
    members =
      [
        req "owner" [];
        req "transferOwnership" [ Address ];
        req "renounceOwnership" [];
      ];
  }

let erc2612 =
  {
    spec_name = "ERC-2612";
    extension = true;
    wants_mapping = true;
    members =
      [
        req "permit"
          [
            Address; Address; Uint 256; Uint 256; Uint 8; Bytes_n 32;
            Bytes_n 32;
          ];
        req "nonces" [ Address ];
        req "DOMAIN_SEPARATOR" [];
      ];
  }

let standards = [ erc20; erc721; erc1155 ]
let extensions = [ erc165; ownable; erc2612 ]
let specs = standards @ extensions

let spec_by_name name =
  List.find_opt (fun s -> s.spec_name = name) specs

let required_members spec = List.filter (fun m -> m.required) spec.members

(* -- evidence ----------------------------------------------------------- *)

type evidence = {
  ev_selector : string;
  ev_params : Abity.t list option;
  ev_partial : bool;
}

let evidence ?(partial = false) ~selector params =
  { ev_selector = selector; ev_params = Some params; ev_partial = partial }

let bare selector =
  { ev_selector = selector; ev_params = None; ev_partial = false }

(* -- type-compatibility relaxation -------------------------------------- *)

(* Exactly the §5.2 information losses: width of an integer after a
   conversion, address vs uint160, bytes vs string (indistinguishable
   without a byte access), bytes32 vs uint256 (same word, different
   alignment convention when the word is never sliced). Anything else —
   address where an integer was recovered, a different arity, a
   different array shape — is a real mismatch. *)
let rec compatible spec got =
  Abity.equal spec got
  ||
  match (spec, got) with
  | Uint _, Uint _ | Int _, Int _ -> true
  | Address, Uint 160 | Uint 160, Address -> true
  | Bytes, String_t | String_t, Bytes -> true
  | Bytes_n 32, Uint 256 | Uint 256, Bytes_n 32 -> true
  | Darray a, Darray b -> compatible a b
  | Sarray (a, n), Sarray (b, m) -> n = m && compatible a b
  | _ -> false

(* -- matching ----------------------------------------------------------- *)

type member_match =
  | Matched of { relaxed : bool }
  | Corroborated
  | Mismatched
  | Missing

type level = Exact | Partial | No_match

let level_to_string = function
  | Exact -> "exact"
  | Partial -> "partial"
  | No_match -> "no match"

type spec_result = {
  spec : spec;
  level : level;
  required_total : int;
  required_matched : int;
  optional_matched : int;
  relaxed : int;
  corroborated : int;
  missing : string list;
  mismatched : string list;
  layout_support : bool;
  member_matches : (member * member_match) list;
}

type verdict = {
  best : spec_result option;
  results : spec_result list;
  matched_extensions : spec_result list;
  probes_run : int;
}

let label v =
  match v.best with
  | None -> "unknown"
  | Some r -> (
    match r.level with
    | Exact -> r.spec.spec_name
    | Partial -> r.spec.spec_name ^ " (partial)"
    | No_match -> "unknown")

(* Member selectors are fixed at module initialization: Keccak-256 per
   member per classified contract would dominate the whole scoring
   pass. *)
let spec_table : (spec * (member * string) list) list =
  List.map
    (fun s -> (s, List.map (fun m -> (m, Funsig.selector m.fsig)) s.members))
    specs

let members_with_selectors spec = List.assq spec spec_table

let match_member evs (m, selector) =
  match Hashtbl.find_opt evs selector with
  | None -> Missing
  | Some { ev_params = None; _ } ->
    (* dispatcher entry without types: presence evidence only *)
    Corroborated
  | Some { ev_params = Some got; ev_partial = true; _ } ->
    (* a truncated recovery's parameter list is a lower bound: compare
       only the recovered prefix, and lend partial credit, never an
       exact match *)
    let rec prefix_ok want got =
      match (want, got) with
      | _, [] -> true
      | [], _ :: _ -> false
      | w :: want, g :: got -> compatible w g && prefix_ok want got
    in
    if prefix_ok m.fsig.Funsig.params got then Corroborated else Mismatched
  | Some { ev_params = Some got; ev_partial = false; _ } ->
    let want = m.fsig.Funsig.params in
    if
      List.length want = List.length got
      && List.for_all2 compatible want got
    then Matched { relaxed = not (List.for_all2 Abity.equal want got) }
    else Mismatched

(* Near-miss threshold for behavioural corroboration: exactly one
   required member short of full conformance — the one genuinely
   ambiguous boundary, where recovery noise and real absence read the
   same. Two or more members short is partial whatever a probe says
   (corroboration never upgrades to exact), so probing there would
   burn interpreter time without moving the verdict. *)
let near_miss ~present ~total = total - present = 1 && present > 0

let score_spec ~probe ~probe_budget ~probes_run spec matches =
  let required = List.filter (fun (m, _) -> m.required) matches in
  let required_total = List.length required in
  let present =
    List.length
      (List.filter
         (fun (_, mm) ->
           match mm with Matched _ | Corroborated -> true | _ -> false)
         required)
  in
  (* behavioural corroboration for the members recovery left open *)
  let matches =
    match probe with
    | Some probe when near_miss ~present ~total:required_total ->
      List.map
        (fun (m, mm) ->
          match mm with
          | Missing when m.required && !probe_budget > 0 ->
            decr probe_budget;
            incr probes_run;
            if probe m.fsig then (m, Corroborated) else (m, mm)
          | _ -> (m, mm))
        matches
    | _ -> matches
  in
  let required = List.filter (fun (m, _) -> m.required) matches in
  let count p = List.length (List.filter p matches) in
  let required_matched =
    List.length
      (List.filter
         (fun (_, mm) ->
           match mm with Matched _ | Corroborated -> true | _ -> false)
         required)
  in
  let fully_matched =
    List.for_all
      (fun (_, mm) -> match mm with Matched _ -> true | _ -> false)
      required
  in
  let level =
    if required_total > 0 && fully_matched then Exact
    else if required_matched > 0 && 2 * required_matched >= required_total
    then Partial
    else No_match
  in
  {
    spec;
    level;
    required_total;
    required_matched;
    optional_matched =
      count (fun (m, mm) ->
          (not m.required)
          && match mm with Matched _ | Corroborated -> true | _ -> false);
    relaxed =
      count (fun (_, mm) ->
          match mm with Matched { relaxed } -> relaxed | _ -> false);
    corroborated =
      count (fun (_, mm) -> match mm with Corroborated -> true | _ -> false);
    missing =
      List.filter_map
        (fun (m, mm) ->
          if m.required && mm = Missing then Some (Funsig.canonical m.fsig)
          else None)
        matches;
    mismatched =
      List.filter_map
        (fun (m, mm) ->
          if m.required && mm = Mismatched then
            Some (Funsig.canonical m.fsig)
          else None)
        matches;
    layout_support = false;
    member_matches = matches;
  }

let level_rank = function Exact -> 2 | Partial -> 1 | No_match -> 0

(* [a] strictly better than [b]: level, then required-match ratio (by
   cross-multiplication), then absolute match count, then typed-state
   support. Declaration order breaks exact ties because the fold keeps
   the earlier result unless [b] strictly improves on it. *)
let better a b =
  let la = level_rank a.level and lb = level_rank b.level in
  if la <> lb then la > lb
  else
    let ra = a.required_matched * b.required_total
    and rb = b.required_matched * a.required_total in
    if ra <> rb then ra > rb
    else if a.required_matched <> b.required_matched then
      a.required_matched > b.required_matched
    else a.layout_support && not b.layout_support

let run ?layout ?probe ?(max_probes = 8) evs =
  let probes_run = ref 0 in
  let probe_budget = ref max_probes in
  (* memoize probes by selector: shared members (balanceOf, approve...)
     appear in several specs and must not pay twice *)
  let probe =
    Option.map
      (fun p ->
        let memo = Hashtbl.create 8 in
        fun fsig ->
          let key = Funsig.selector fsig in
          match Hashtbl.find_opt memo key with
          | Some r -> r
          | None ->
            let r = p fsig in
            Hashtbl.add memo key r;
            r)
      probe
  in
  let index = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem index e.ev_selector) then
        Hashtbl.add index e.ev_selector e)
    evs;
  let score spec =
    let matches =
      List.map
        (fun ms -> (fst ms, match_member index ms))
        (members_with_selectors spec)
    in
    score_spec ~probe ~probe_budget ~probes_run spec matches
  in
  let std_results = List.map score standards in
  let ext_results = List.map score extensions in
  (* The storage layout is a tie-breaker, so it is only forced when
     two standards actually tie on level and required-match ratio —
     the one case where {!better} consults [layout_support]. Any
     single-winner verdict, exact or partial, never pays for the
     layout pass. *)
  let contenders =
    List.filter (fun r -> level_rank r.level >= 1) std_results
  in
  let need_layout =
    match contenders with
    | [] | [ _ ] -> false
    | r :: rest ->
      List.exists
        (fun r' ->
          level_rank r'.level = level_rank r.level
          && r'.required_matched * r.required_total
             = r.required_matched * r'.required_total)
        rest
  in
  let mapping_present =
    if need_layout then
      match layout with
      | None -> false
      | Some force ->
        let l = force () in
        List.exists
          (fun (e : Layout.entry) -> e.Layout.decl = Layout.Mapping)
          l.Layout.entries
    else false
  in
  let support r =
    if mapping_present && r.spec.wants_mapping && level_rank r.level >= 1
    then { r with layout_support = true }
    else r
  in
  let std_results = List.map support std_results in
  let ext_results = List.map support ext_results in
  let best =
    List.fold_left
      (fun acc r ->
        if level_rank r.level >= 1 then
          match acc with
          | None -> Some r
          | Some b -> if better r b then Some r else acc
        else acc)
      None std_results
  in
  let std_sorted =
    List.stable_sort
      (fun a b ->
        Stdlib.compare
          (level_rank b.level, b.required_matched * a.required_total)
          (level_rank a.level, a.required_matched * b.required_total))
      std_results
  in
  {
    best;
    results = std_sorted;
    matched_extensions =
      List.filter (fun r -> level_rank r.level >= 1) ext_results;
    probes_run = !probes_run;
  }

(* -- behavioural corroboration ------------------------------------------ *)

(* Deterministic calldata: the argument values come from a generator
   seeded with the selector bytes, so the same member probes the same
   way in every run and on every domain. *)
let probe_calldata fsig =
  let selector = Funsig.selector fsig in
  let seed =
    Array.init 4 (fun i -> Char.code selector.[i]) |> Array.append [| 0x51672ec |]
  in
  let rng = Random.State.make seed in
  let params = fsig.Funsig.params in
  let values = List.map (Abi.Valgen.value rng) params in
  Abi.Encode.encode_call ~selector params values

let xor_selector mask s = String.map (fun c -> Char.chr (Char.code c lxor mask)) s

let probe_dispatch ~code =
  (* The fallback trace is a property of the contract, not of the
     probed member — junk selectors all fall through the dispatcher the
     same way — so one probe closure computes it once and every further
     probe of the same contract pays a single execution. *)
  let fallback = ref None in
  (* decoded on the first probe, shared by every execution after it *)
  let program = lazy (Evm.Interp.prepare code) in
  fun fsig ->
    let calldata = probe_calldata fsig in
    (* the halt fingerprint — outcome plus step count — separates "fell
       through to the fallback" from "dispatched into a body" exactly as
       well as a full pc trace, without recording one *)
    let trace calldata =
      let r = Evm.Interp.run (Lazy.force program) ~calldata () in
      (r.Evm.Interp.outcome, r.Evm.Interp.steps)
    in
    let fb =
      match !fallback with
      | Some fb -> fb
      | None ->
        let args = String.sub calldata 4 (String.length calldata - 4) in
        let selector = String.sub calldata 0 4 in
        let junk1 = xor_selector 0xff selector
        and junk2 = xor_selector 0x5a selector in
        let fallback1 = trace (junk1 ^ args)
        and fallback2 = trace (junk2 ^ args) in
        (* an unstable fallback means the junk selectors hit real
           functions — every probe of this contract is inconclusive,
           never a confirmation *)
        let fb = if fallback1 = fallback2 then Some fallback1 else None in
        fallback := Some fb;
        fb
    in
    match fb with None -> false | Some f -> trace calldata <> f

(* -- rendering ---------------------------------------------------------- *)

let pp fmt v =
  Format.fprintf fmt "@[<v>classification: %s@," (label v);
  List.iter
    (fun r ->
      if level_rank r.level >= 1 then begin
        Format.fprintf fmt "  %s: %s (%d/%d required, %d optional%s%s)@,"
          r.spec.spec_name
          (level_to_string r.level)
          r.required_matched r.required_total r.optional_matched
          (if r.relaxed > 0 then
             Printf.sprintf ", %d relaxed" r.relaxed
           else "")
          (if r.layout_support then ", mapping state" else "");
        List.iter
          (fun sig_ -> Format.fprintf fmt "    missing: %s@," sig_)
          r.missing;
        List.iter
          (fun sig_ -> Format.fprintf fmt "    mismatched: %s@," sig_)
          r.mismatched
      end)
    v.results;
  (match v.matched_extensions with
  | [] -> ()
  | exts ->
    Format.fprintf fmt "  extensions: %s@,"
      (String.concat ", "
         (List.map
            (fun r ->
              Printf.sprintf "%s (%s)" r.spec.spec_name
                (level_to_string r.level))
            exts)));
  if v.probes_run > 0 then
    Format.fprintf fmt "  behavioural probes: %d@," v.probes_run;
  Format.fprintf fmt "@]"
