(** Token-standard interface classification over recovered signatures.

    The headline downstream application of signature recovery (Fröwis
    et al., {e Detecting Token Systems on Ethereum}): match a
    contract's recovered 4-byte ids and parameter types against ERC
    interface specs and report conformance — exact, partial with the
    missing members listed, or no match.

    The matcher is deliberately tolerant of SigRec's §5.2 recovery
    inaccuracies ({!compatible}): a spec [uint256] accepts any
    recovered [uintN], [bytes] accepts [string], and so on — the
    relaxations mirror exactly the information the bytecode cannot
    preserve, never more, so a selector collision with genuinely wrong
    parameter types still counts as a mismatch.

    The classifier consumes neutral {!evidence} values rather than
    engine reports, so the library sits below [Sigrec] in the
    dependency order; [Engine.classify] adapts its reports and adds
    caching on top. *)

(* -- interface specs ---------------------------------------------------- *)

type member = {
  fsig : Abi.Funsig.t;  (** canonical signature of the interface member *)
  required : bool;      (** optional members refine the score only *)
}

type spec = {
  spec_name : string;   (** e.g. ["ERC-20"] *)
  extension : bool;
      (** extensions (Ownable, ERC-165, ERC-2612 permit) are reported
          alongside the winning standard but never compete for it *)
  members : member list;
  wants_mapping : bool;
      (** the standard implies per-holder state, so a recovered
          [mapping] slot corroborates it (typed-state tie-breaker) *)
}

val standards : spec list
(** ERC-20, ERC-721, ERC-1155 — the specs that compete for the
    verdict, in tie-break declaration order. *)

val extensions : spec list
(** ERC-165, Ownable, ERC-2612 — matched and reported, never the
    headline answer. *)

val specs : spec list
(** [standards @ extensions]. *)

val spec_by_name : string -> spec option
val required_members : spec -> member list

(* -- evidence ----------------------------------------------------------- *)

type evidence = {
  ev_selector : string;  (** 4 raw bytes *)
  ev_params : Abi.Abity.t list option;
      (** [None]: the dispatcher proves the selector exists but no
          parameter types were recovered *)
  ev_partial : bool;
      (** the recovery ran out of budget: the types are a lower bound,
          good enough for partial credit, never for an exact match *)
}

val evidence : ?partial:bool -> selector:string -> Abi.Abity.t list -> evidence
val bare : string -> evidence

(* -- matching ----------------------------------------------------------- *)

val compatible : Abi.Abity.t -> Abi.Abity.t -> bool
(** [compatible spec recovered]: equal, or apart only by a §5.2
    recovery tolerance — [uintN] width, [address]/[uint160],
    [bytes]/[string], [bytes32]/[uint256], recursively under arrays. *)

type member_match =
  | Matched of { relaxed : bool }
      (** full recovery, types compatible; [relaxed] when not
          byte-identical to the canonical types *)
  | Corroborated
      (** the member is present on behavioural or partial-recovery
          evidence only — counts toward partial conformance, never
          toward an exact match *)
  | Mismatched  (** selector present with incompatible types *)
  | Missing

type level = Exact | Partial | No_match

val level_to_string : level -> string

type spec_result = {
  spec : spec;
  level : level;
  required_total : int;
  required_matched : int;  (** [Matched] or [Corroborated] required members *)
  optional_matched : int;
  relaxed : int;           (** matched only through {!compatible} *)
  corroborated : int;
  missing : string list;      (** canonical sigs of absent required members *)
  mismatched : string list;   (** selector present, wrong types *)
  layout_support : bool;
      (** [wants_mapping] and the storage layout shows a mapping slot *)
  member_matches : (member * member_match) list;
}

type verdict = {
  best : spec_result option;  (** [None]: no standard reached [Partial] *)
  results : spec_result list;
      (** every standard, scored, best first (ties broken by layout
          support, then declaration order) *)
  matched_extensions : spec_result list;
      (** extensions at [Exact] or [Partial] only *)
  probes_run : int;
}

val label : verdict -> string
(** ["ERC-20"], ["ERC-721 (partial)"], or ["unknown"]. *)

val run :
  ?layout:(unit -> Sigrec_layout.Layout.t) ->
  ?probe:(Abi.Funsig.t -> bool) ->
  ?max_probes:int ->
  evidence list ->
  verdict
(** Score the evidence against every spec. [probe] is consulted for
    near-miss specs only (at most two required members short) on
    members the recovery left bare or missing — at most [max_probes]
    (default 8) calls per classification. [layout] is forced only when
    two standards tie on level and required-match ratio — the one case
    where a mapping slot breaks the tie — so callers can pass the full
    storage-layout recovery without paying for it on every
    contract. *)

val probe_dispatch : code:string -> Abi.Funsig.t -> bool
(** Behavioural corroboration: execute [code] with canonical calldata
    for the member and with two junk selectors, comparing halt
    fingerprints (outcome and step count). The member counts as
    dispatched when the junk runs agree with each other (the fallback
    is stable) and the member's run diverges from it.
    Deterministic: argument values come from a fixed-seed generator.
    [probe_dispatch ~code] decodes [code] and computes the fallback
    trace once each and shares them across every probe of the same
    closure, so partially apply it per contract. *)

val pp : Format.formatter -> verdict -> unit
