(* Token-standard interface classification: the spec matcher against
   compiled ground truth, the §5.2 type-compatibility relaxation, and
   the hostile cases — selector collisions with genuinely wrong types,
   fallback-only contracts, budget-starved recoveries — none of which
   may ever produce a false exact verdict. *)

open Abi.Abity
module C = Sigrec_classify.Classify
module Funsig = Abi.Funsig

let engine ?config () =
  let config =
    Option.value config ~default:Sigrec.Engine.Config.default
  in
  Sigrec.Engine.make config

let spec name = Option.get (C.spec_by_name name)

let required_sigs name =
  List.map (fun (m : C.member) -> m.C.fsig) (C.required_members (spec name))

(* Compile a contract carrying exactly [fns] (plus token-shaped
   storage, so every body has state to touch). *)
let compile_fns fns =
  Solc.Compile.compile
    {
      Solc.Compile.fns;
      version = Solc.Version.latest_solidity;
      storage = [ Solc.Lang.svalue 0; Solc.Lang.smapping 1 ];
    }

let compile_sigs sigs = compile_fns (List.map Solc.Lang.fn_of_sig sigs)

let best_level (v : C.verdict) =
  match v.C.best with Some b -> Some b.C.level | None -> None

let classify_code ?config code =
  (Sigrec.Engine.classify (engine ?config ()) code).Sigrec.Engine.verdict

(* -- §5.2 type-compatibility relaxation ---------------------------------- *)

let test_compatible () =
  let yes a b = Alcotest.(check bool) "compatible" true (C.compatible a b) in
  let no a b = Alcotest.(check bool) "incompatible" false (C.compatible a b) in
  yes (Uint 256) (Uint 256);
  yes (Uint 256) (Uint 128);
  yes (Int 256) (Int 8);
  yes Address (Uint 160);
  yes (Uint 160) Address;
  yes Bytes String_t;
  yes String_t Bytes;
  yes (Bytes_n 32) (Uint 256);
  yes (Uint 256) (Bytes_n 32);
  yes (Darray (Uint 256)) (Darray (Uint 64));
  yes (Sarray (Address, 3)) (Sarray (Uint 160, 3));
  (* anything beyond the documented §5.2 losses is a real mismatch *)
  no Address (Uint 8);
  no Address Bool;
  no (Uint 256) Address;
  no (Bytes_n 4) (Uint 256);
  no Bool (Uint 256);
  no (Darray (Uint 256)) (Sarray (Uint 256, 2));
  no (Sarray (Uint 256, 2)) (Sarray (Uint 256, 3))

(* -- exact conformance and the verdict LRU ------------------------------- *)

let test_exact_erc20 () =
  let code = compile_sigs (required_sigs "ERC-20") in
  let e = engine () in
  let r = Sigrec.Engine.classify e code in
  let v = r.Sigrec.Engine.verdict in
  Alcotest.(check string) "label" "ERC-20" (C.label v);
  Alcotest.(check bool) "exact" true (best_level v = Some C.Exact);
  Alcotest.(check bool) "cold verdict" false r.Sigrec.Engine.classify_from_cache;
  let r2 = Sigrec.Engine.classify e code in
  Alcotest.(check bool) "warm verdict" true r2.Sigrec.Engine.classify_from_cache;
  Alcotest.(check string) "warm label" "ERC-20"
    (C.label r2.Sigrec.Engine.verdict);
  Alcotest.(check bool) "verdict cache hit counted" true
    (Sigrec.Stats.classify_cache_hits (Sigrec.Engine.stats e) > 0)

let test_relaxed_still_exact () =
  (* a §5.2-convertible cast on one parameter (declared uint256, body
     uses uint128) recovers as uint128 — compatible, so still exact *)
  let target = Funsig.make "transfer" [ Address; Uint 256 ] in
  let converted =
    Solc.Lang.fn target
      [
        Solc.Lang.param Address;
        Solc.Lang.param ~quirk:(Solc.Lang.Converted (Uint 128)) (Uint 256);
      ]
  in
  let rest =
    List.filter
      (fun f -> not (Funsig.equal f target))
      (required_sigs "ERC-20")
  in
  let code = compile_fns (List.map Solc.Lang.fn_of_sig rest @ [ converted ]) in
  let v = classify_code code in
  Alcotest.(check string) "label" "ERC-20" (C.label v);
  let best = Option.get v.C.best in
  Alcotest.(check bool) "exact through relaxation" true
    (best.C.level = C.Exact && best.C.relaxed > 0)

(* -- demotion: a dropped required member is never papered over ----------- *)

let test_dropped_member_demotes () =
  let dropped = Funsig.make "transfer" [ Address; Uint 256 ] in
  let kept =
    List.filter
      (fun f -> not (Funsig.equal f dropped))
      (required_sigs "ERC-20")
  in
  let v = classify_code (compile_sigs kept) in
  Alcotest.(check string) "label" "ERC-20 (partial)" (C.label v);
  let best = Option.get v.C.best in
  Alcotest.(check (list string))
    "missing lists the dropped member"
    [ Funsig.canonical dropped ]
    best.C.missing;
  Alcotest.(check bool) "never exact" true
    (List.for_all (fun r -> r.C.level <> C.Exact) v.C.results)

(* -- hostile: selector collision with genuinely wrong types -------------- *)

let test_selector_collision_never_exact () =
  (* same 4-byte id as transfer(address,uint256) — the declared types
     fix the selector — but the body reads the first parameter as a
     uint8, which is outside every §5.2 tolerance, so recovery reports
     incompatible types *)
  let target = Funsig.make "transfer" [ Address; Uint 256 ] in
  let collided =
    Solc.Lang.fn target
      [
        Solc.Lang.param ~quirk:(Solc.Lang.Converted (Uint 8)) Address;
        Solc.Lang.param (Uint 256);
      ]
  in
  let rest =
    List.filter
      (fun f -> not (Funsig.equal f target))
      (required_sigs "ERC-20")
  in
  let code = compile_fns (List.map Solc.Lang.fn_of_sig rest @ [ collided ]) in
  let v = classify_code code in
  let best = Option.get v.C.best in
  Alcotest.(check string) "demoted to partial" "ERC-20 (partial)" (C.label v);
  Alcotest.(check (list string))
    "collision reported as mismatch"
    [ Funsig.canonical target ]
    best.C.mismatched;
  Alcotest.(check bool) "never exact" true
    (List.for_all (fun r -> r.C.level <> C.Exact) v.C.results)

(* -- hostile: nothing to classify ---------------------------------------- *)

let test_fallback_only_unknown () =
  (* a bare STOP has no dispatcher at all *)
  let v = classify_code "\x00" in
  Alcotest.(check string) "label" "unknown" (C.label v);
  Alcotest.(check bool) "no best" true (v.C.best = None)

let test_non_token_unknown () =
  let sigs =
    [
      Funsig.make "frobnicate" [ Uint 256 ];
      Funsig.make "quux" [ Bool; Bytes_n 8 ];
    ]
  in
  let v = classify_code (compile_sigs sigs) in
  Alcotest.(check string) "label" "unknown" (C.label v);
  Alcotest.(check bool) "nothing matched exactly" true
    (List.for_all (fun r -> r.C.level = C.No_match) v.C.results)

(* -- hostile: budget-starved recovery ------------------------------------ *)

let test_budget_exhausted_never_exact () =
  let code = compile_sigs (required_sigs "ERC-20") in
  let starved =
    {
      Symex.Exec.max_paths = 1;
      Symex.Exec.max_steps = 4;
      Symex.Exec.max_forks_per_pc = 0;
    }
  in
  let config = Sigrec.Engine.Config.(default |> with_budget starved) in
  let e = engine ~config () in
  let report = Sigrec.Engine.recover e code in
  (* precondition: the starved run really is budget-limited *)
  Alcotest.(check bool) "recovery was truncated" true
    (List.exists
       (function Sigrec.Engine.Budget_exhausted _ -> true | _ -> false)
       report.Sigrec.Engine.outcomes);
  let v = (Sigrec.Engine.classify e code).Sigrec.Engine.verdict in
  Alcotest.(check bool) "truncated evidence never classifies exact" true
    (List.for_all (fun r -> r.C.level <> C.Exact) v.C.results);
  (* the partial evidence still lends partial credit *)
  Alcotest.(check string) "still recognized partially" "ERC-20 (partial)"
    (C.label v)

let test_bare_selectors_partial_only () =
  (* dispatcher-only evidence (per-function analysis failures) counts
     toward partial conformance, never exact *)
  let evs =
    List.map (fun f -> C.bare (Funsig.selector f)) (required_sigs "ERC-20")
  in
  let v = C.run evs in
  Alcotest.(check string) "label" "ERC-20 (partial)" (C.label v);
  let best = Option.get v.C.best in
  Alcotest.(check int) "all members corroborated" 6 best.C.corroborated;
  Alcotest.(check bool) "never exact" true (best.C.level <> C.Exact)

(* -- behavioural corroboration ------------------------------------------- *)

let test_probe_corroborates_withheld_member () =
  (* the contract implements full ERC-20, but we withhold transfer's
     recovery evidence: the near-miss probe must find the member in the
     dispatcher and corroborate it — raising the match count without
     ever upgrading to exact *)
  let code = compile_sigs (required_sigs "ERC-20") in
  let withheld = Funsig.selector (Funsig.make "transfer" [ Address; Uint 256 ]) in
  let report = Sigrec.Engine.recover (engine ()) code in
  let evs =
    List.filter
      (fun ev -> ev.C.ev_selector <> withheld)
      (Sigrec.Engine.evidence_of_report report)
  in
  let v = C.run ~probe:(C.probe_dispatch ~code) evs in
  Alcotest.(check bool) "probes ran" true (v.C.probes_run > 0);
  let best = Option.get v.C.best in
  Alcotest.(check string) "label" "ERC-20 (partial)" (C.label v);
  Alcotest.(check int) "all six members counted" 6 best.C.required_matched;
  Alcotest.(check int) "the withheld one is corroborated" 1 best.C.corroborated;
  (* control: without the probe the member stays missing *)
  let v0 = C.run evs in
  Alcotest.(check int) "without probe: five members"
    5 (Option.get v0.C.best).C.required_matched

let test_probe_rejects_absent_member () =
  (* drop transfer from the contract entirely: the probe must not
     corroborate a member the dispatcher does not have *)
  let dropped = Funsig.make "transfer" [ Address; Uint 256 ] in
  let kept =
    List.filter
      (fun f -> not (Funsig.equal f dropped))
      (required_sigs "ERC-20")
  in
  let code = compile_sigs kept in
  let report = Sigrec.Engine.recover (engine ()) code in
  let v =
    C.run ~probe:(C.probe_dispatch ~code)
      (Sigrec.Engine.evidence_of_report report)
  in
  let best = Option.get v.C.best in
  Alcotest.(check int) "five members only" 5 best.C.required_matched;
  Alcotest.(check (list string))
    "dropped member still missing"
    [ Funsig.canonical dropped ]
    best.C.missing

(* -- lazy layout: forced for tie-breaks only ----------------------------- *)

(* Evidence matching 3/6 of ERC-20 and 5/10 of ERC-721 — same level
   (partial), same required-match ratio — via their shared members plus
   two 721-only ones. *)
let tied_evidence () =
  let shared =
    [
      Funsig.make "balanceOf" [ Address ];
      Funsig.make "transferFrom" [ Address; Address; Uint 256 ];
      Funsig.make "approve" [ Address; Uint 256 ];
    ]
  in
  let erc721_only =
    [ Funsig.make "ownerOf" [ Uint 256 ]; Funsig.make "getApproved" [ Uint 256 ] ]
  in
  List.map
    (fun f ->
      C.evidence ~selector:(Funsig.selector f) f.Funsig.params)
    (shared @ erc721_only)

let test_layout_lazy_on_clear_winner () =
  let forced = ref false in
  let layout () =
    forced := true;
    Sigrec_layout.Layout.recover (compile_sigs (required_sigs "ERC-20"))
  in
  let evs =
    List.map
      (fun f -> C.evidence ~selector:(Funsig.selector f) f.Funsig.params)
      (required_sigs "ERC-20")
  in
  let v = C.run ~layout evs in
  Alcotest.(check string) "exact without the layout pass" "ERC-20" (C.label v);
  Alcotest.(check bool) "layout never forced" false !forced

let test_layout_forced_breaks_tie () =
  let forced = ref false in
  let layout () =
    forced := true;
    (* any layout with a mapping slot *)
    Sigrec_layout.Layout.recover (compile_sigs (required_sigs "ERC-20"))
  in
  let v = C.run ~layout (tied_evidence ()) in
  Alcotest.(check bool) "layout forced on the tie" true !forced;
  let best = Option.get v.C.best in
  (* both contenders want mapping state, so support marks them both and
     the absolute match count prefers ERC-721 (5 members over 3) *)
  Alcotest.(check string) "tie resolved" "ERC-721 (partial)" (C.label v);
  Alcotest.(check bool) "typed-state support recorded" true
    best.C.layout_support;
  (* control: no layout available — same winner, no support mark *)
  let v0 = C.run (tied_evidence ()) in
  Alcotest.(check bool) "no support without layout" false
    (Option.get v0.C.best).C.layout_support

(* -- accuracy on the labeled corpus ------------------------------------- *)

(* Over the generator's labeled token corpus, every exact verdict is
   right (precision 1.0: the planted negatives — dropped members,
   selector collisions, non-tokens — never classify exact) and at least
   95% of the exact positives are found. *)
let test_labeled_corpus_accuracy () =
  let samples = Solc.Corpus.token_set ~seed:20230723 ~n:60 in
  let reports =
    Sigrec.Engine.classify_all (engine ())
      (List.map (fun s -> s.Solc.Corpus.tcode) samples)
  in
  let positives = ref 0 and claims = ref 0 and correct = ref 0 in
  List.iter2
    (fun (s : Solc.Corpus.token_sample) (r : Sigrec.Engine.classify_report) ->
      let v = r.Sigrec.Engine.verdict in
      if s.Solc.Corpus.texact then incr positives;
      if best_level v = Some C.Exact then begin
        incr claims;
        if s.Solc.Corpus.texact && C.label v = s.Solc.Corpus.tlabel then
          incr correct
      end)
    samples reports;
  Alcotest.(check int) "precision: every exact claim correct" !claims !correct;
  Alcotest.(check bool) "the corpus has exact positives" true (!positives > 0);
  if float_of_int !correct < 0.95 *. float_of_int !positives then
    Alcotest.failf "recall %d/%d below 0.95" !correct !positives

let suite =
  [
    Alcotest.test_case "§5.2 type compatibility" `Quick test_compatible;
    Alcotest.test_case "exact ERC-20, verdict LRU" `Quick test_exact_erc20;
    Alcotest.test_case "relaxed types still exact" `Quick
      test_relaxed_still_exact;
    Alcotest.test_case "dropped member demotes to partial" `Quick
      test_dropped_member_demotes;
    Alcotest.test_case "selector collision never exact" `Quick
      test_selector_collision_never_exact;
    Alcotest.test_case "fallback-only contract is unknown" `Quick
      test_fallback_only_unknown;
    Alcotest.test_case "non-token is unknown" `Quick test_non_token_unknown;
    Alcotest.test_case "budget exhaustion never exact" `Quick
      test_budget_exhausted_never_exact;
    Alcotest.test_case "bare selectors lend partial credit only" `Quick
      test_bare_selectors_partial_only;
    Alcotest.test_case "probe corroborates a withheld member" `Quick
      test_probe_corroborates_withheld_member;
    Alcotest.test_case "probe rejects an absent member" `Quick
      test_probe_rejects_absent_member;
    Alcotest.test_case "layout lazy on a clear winner" `Quick
      test_layout_lazy_on_clear_winner;
    Alcotest.test_case "layout forced to break a tie" `Quick
      test_layout_forced_breaks_tie;
    Alcotest.test_case "labeled corpus: precision 1.0, recall >= 0.95" `Quick
      test_labeled_corpus_accuracy;
  ]
