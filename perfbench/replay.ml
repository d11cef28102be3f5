(* The traced run's sequential replay.

   The replay answers the same input as the untraced round, one line or
   request at a time, by calling each layer's public entry points
   itself and wrapping every call in a bench-side span ([Spans]). It
   assembles the [Contract.t] record the engine would build and the
   report the engine would return; its rendered answers are checked
   byte-identical (after [Check.normalise]) to the engine's, so the
   per-layer numbers describe the program the end-to-end numbers
   measure.

   Two layers are timed by subtraction:

   - rules: [Infer.infer] runs symbolic execution internally before its
     rules. The replay first runs [Exec.run_prepared] itself (the symex
     span, with this function's nodes not yet interned — the state the
     engine's own run sees), then [Infer.infer] (the rules span), whose
     internal symex re-run now finds every node in the domain's
     hash-cons interner. A third, calibration run right after is in the
     same warm state; its duration is charged to a synthetic overhead
     child of the rules span, so rules self time is [Infer.infer] minus
     a warm symex re-run, and neither re-run counts as program work.
   - engine: a repeated code is answered by [Engine.recover] (or
     [classify], [layout]) on an engine of the replay's own, which the
     replay fills with that code, the first time it is needed, by a
     call marked as calibration. The code hash inside the timed call
     is measured by a calibration [Contract.hash_of_code] of the same,
     now cache-warm, bytes and charged to a synthetic child: keccak
     time where the line has no keccak span of its own (cold, census),
     replay overhead where it has (serve). A warm re-hash runs faster
     than the first, so engine time is slightly over-stated and keccak
     time under-stated by the difference.

   The replay runs in the process's main domain with nothing analysed
   before it, so its interner starts as empty as the untraced round's.
   Work the sequential replay cannot see — the engine's batching,
   locking and pool hand-off on a miss — is not attributed to any
   layer. *)

module S = Spans
module Engine = Sigrec.Engine
module Contract = Sigrec.Contract
module Absint = Sigrec_static.Absint
module Exec = Symex.Exec
module Json = Sigrec.Json

type t = {
  spans : S.t;
  stats : Sigrec.Stats.t;
  mutable contracts : int;  (** analyses run (contract ids) *)
  mutable functions : int;
  mutable paths : int;
  mutable pruned : int;
  mutable forks : int;  (** forks taken plus forks pruned *)
  mutable keccak_bytes : int;
  mutable render_bytes : int;
  mutable rendered : int;
  mutable classified : int;
  mutable probes : int;
  mutable layouts : int;
  mutable absints : int;
}

let create () =
  {
    spans = S.create ();
    stats = Sigrec.Stats.create ();
    contracts = 0;
    functions = 0;
    paths = 0;
    pruned = 0;
    forks = 0;
    keccak_bytes = 0;
    render_bytes = 0;
    rendered = 0;
    classified = 0;
    probes = 0;
    layouts = 0;
    absints = 0;
  }

(* [Contract.hash_of_code], timed. *)
let keccak t ~id code =
  t.keccak_bytes <- t.keccak_bytes + String.length code;
  S.span t.spans S.Keccak ~id (fun () -> Contract.hash_of_code code)

(* An engine answer for a code this product answered before. [call]
   asks the replay's engine; the first time, the engine does not hold
   the code yet and the call is a fill, excluded as calibration. [call]
   hashes the code itself: a calibration hash of the same, now
   cache-warm, bytes right after gives that part's duration, charged to
   a synthetic child of the engine span — replay overhead when the
   replay already timed this code's keccak ([hashed]), the line's own
   keccak work otherwise. *)
let warm t ~id ~filled ~hashed code call =
  if not filled then ignore (S.calib t.spans ~id (fun () -> ignore (call ())));
  if not hashed then t.keccak_bytes <- t.keccak_bytes + String.length code;
  S.span t.spans S.Engine ~id (fun () ->
      let v = call () in
      let dur =
        S.calib t.spans ~id (fun () -> ignore (Contract.hash_of_code code))
      in
      S.synthetic t.spans (if hashed then S.Overhead else S.Keccak) ~id ~dur;
      v)

(* Per product: the codes answered so far, and whether the replay's
   engine holds each one yet. *)
let answered tbl hash =
  (* the first 8 bytes of a Keccak-256 digest are key enough *)
  let key = Int64.to_int (String.get_int64_le hash 0) in
  match Hashtbl.find_opt tbl key with
  | None ->
    Hashtbl.replace tbl key false;
    `Fresh
  | Some true -> `Seen true
  | Some false ->
    Hashtbl.replace tbl key true;
    `Seen false

let render t ~id f =
  let s = S.span t.spans S.Render ~id f in
  t.render_bytes <- t.render_bytes + String.length s;
  t.rendered <- t.rendered + 1;
  s

let init_stack () = [ Symex.Sexpr.env "selector_residue" ]

let prune_of absint pc =
  match Absint.prune_decision absint pc with
  | Some Absint.Take_jump -> Some Exec.Take_jump
  | Some Absint.Take_fallthrough -> Some Exec.Take_fallthrough
  | None -> None

(* [Contract.make], call by call. *)
let lift t ~id ~hash code =
  let program, raw_cfg =
    S.span t.spans S.Lift ~id (fun () ->
        let program = Exec.prepare code in
        (program, Evm.Cfg.of_instructions (Exec.instructions program)))
  in
  let static, cfg =
    S.span t.spans S.Absint_contract ~id (fun () ->
        let static = Absint.analyze ~depth:0 ~entry:0 raw_cfg in
        (static, Absint.resolved_cfg static))
  in
  t.absints <- t.absints + 1;
  S.span t.spans S.Lift ~id (fun () ->
      {
        Contract.code;
        code_hash = hash;
        program;
        cfg;
        deps = Evm.Cfg.control_deps cfg;
        entries = Sigrec.Ids.extract_prepared program;
        static;
        unresolved_before = Evm.Cfg.unresolved_count raw_cfg;
        unresolved_after = Evm.Cfg.unresolved_count cfg;
        absint_cache = Hashtbl.create 8;
      })

let failed ~selector ~entry_pc e =
  Engine.Failed
    {
      Engine.selector;
      selector_hex = Evm.Hex.encode selector;
      entry_pc;
      message = Printexc.to_string e;
    }

(* One dispatcher entry: absint pre-screen, symex, rules. *)
let entry t ~id contract { Sigrec.Ids.selector; entry_pc; _ } =
  let ns0 = S.now_ns () in
  match
    let absint =
      S.span t.spans S.Absint_entry ~id (fun () ->
          Contract.absint_for contract ~entry:entry_pc)
    in
    t.absints <- t.absints + 1;
    let run () =
      Exec.run_prepared ~prune:(prune_of absint) contract.Contract.program
        ~entry:entry_pc ~init_stack:(init_stack ()) ()
    in
    let trace = S.span t.spans S.Symex ~id run in
    t.functions <- t.functions + 1;
    t.paths <- t.paths + trace.Symex.Trace.paths_explored;
    t.pruned <- t.pruned + trace.Symex.Trace.forks_pruned;
    (* every path beyond the first came from a fork *)
    t.forks <-
      t.forks + trace.Symex.Trace.forks_pruned
      + Stdlib.max 0 (trace.Symex.Trace.paths_explored - 1);
    S.span t.spans S.Rules ~id (fun () ->
        let result =
          Sigrec.Infer.infer ~stats:t.stats
            ~config:Sigrec.Rules.default_config ~static_prune:true ~contract
            ~entry:entry_pc ()
        in
        let r = Sigrec.Recover.of_infer ~selector ~entry_pc result in
        let dur = S.calib t.spans ~id (fun () -> ignore (run ())) in
        S.synthetic t.spans S.Overhead ~id ~dur;
        (result, r))
  with
  | result, r ->
    let elapsed_ns = S.now_ns () - ns0 in
    if Symex.Trace.truncated result.Sigrec.Infer.trace then
      Engine.Budget_exhausted
        {
          partial = r;
          paths_explored = result.Sigrec.Infer.trace.Symex.Trace.paths_explored;
          elapsed_ns;
        }
    else Engine.Recovered { result = r; elapsed_ns }
  | exception e -> failed ~selector ~entry_pc e

(* A fresh analysis: what [Engine] does on a cache miss. *)
let analyze t ~hash code =
  t.contracts <- t.contracts + 1;
  let id = t.contracts in
  let code_hash = Evm.Hex.encode hash in
  match lift t ~id ~hash code with
  | exception e ->
    {
      Engine.code_hash;
      outcomes = [ failed ~selector:"" ~entry_pc:(-1) e ];
      from_cache = false;
    }
  | contract ->
    {
      Engine.code_hash;
      outcomes = List.map (entry t ~id contract) contract.Contract.entries;
      from_cache = false;
    }

(* -- cold / census ------------------------------------------------------- *)

(* The [batch --stream] path, one line at a time: [Input.fold_reads]
   (the reader under [Input.fold_lines]) delivers each bytecode to a
   callback whose layer calls are child spans. *)
(* For each input line: a code's first occurrence, its first repeat
   (the replay's engine must be filled first) or a later repeat. Worked
   out before the replay starts, so the bookkeeping is not timed. *)
let plan input =
  let seen = Hashtbl.create 4096 in
  let states, _ =
    In_channel.with_open_bin input
      (Sigrec.Input.fold_lines
         ~f:(fun acc code ->
           let state =
             match Hashtbl.find_opt seen code with
             | None -> `Fresh
             | Some filled -> `Seen filled
           in
           Hashtbl.replace seen code (state <> `Fresh);
           state :: acc)
         [])
  in
  Array.of_list (List.rev states)

(* A repeat is one [Engine.recover] call, keccak included, as in the
   engine; a first occurrence is hashed, then analysed. *)
let stream t ~plan ~engine ~input ~output =
  let lines = ref 0 in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          let read buf = In_channel.input ic buf 0 (Bytes.length buf) in
          let f () code =
            let id = !lines + 1 in
            lines := id;
            S.span t.spans S.Callback ~id (fun () ->
                let report =
                  match plan.(id - 1) with
                  | `Seen filled ->
                    warm t ~id ~filled ~hashed:false code (fun () ->
                        Engine.recover engine code)
                  | `Fresh -> analyze t ~hash:(keccak t ~id code) code
                in
                ignore
                  (render t ~id (fun () ->
                       let line = Sigrec.Render.report report in
                       output_string oc line;
                       output_char oc '\n';
                       flush oc;
                       line)
                    : string))
          in
          let (), totals =
            S.span t.spans S.Input ~id:0 (fun () ->
                Sigrec.Input.fold_reads ~read ~f ())
          in
          totals.Sigrec.Input.codes + totals.Sigrec.Input.skipped))

(* -- serve ------------------------------------------------------------------ *)

(* [Serve.handle_line]'s dispatch rebuilt from the calls it makes, so
   each can carry a span; whatever the [Serve] span keeps for itself
   (request parsing, response assembly) is the serve layer. Cache
   decisions follow the engine's: a code is a hit when the same op
   answered it earlier in the session. That matches the engine's LRUs
   only while they never evict, which the traced run checks. *)
type session = {
  reports : (int, bool) Hashtbl.t;
  layouts : (int, bool) Hashtbl.t;
  verdicts : (int, bool) Hashtbl.t;
}

let error_response id msg =
  Json.obj [ ("id", id); ("ok", "false"); ("error", Json.quote msg) ]

let warning_json (index, reason) =
  Json.obj [ ("index", string_of_int index); ("reason", Json.quote reason) ]

let recover_one t s engine ~id code =
  let hash = keccak t ~id code in
  match answered s.reports hash with
  | `Seen filled -> warm t ~id ~filled ~hashed:true code (fun () -> Engine.recover engine code)
  | `Fresh -> analyze t ~hash code

let classify_one t s engine ~id code =
  let hash = keccak t ~id code in
  match answered s.verdicts hash with
  | `Seen filled -> warm t ~id ~filled ~hashed:true code (fun () -> Engine.classify engine code)
  | `Fresh ->
    let report =
      match answered s.reports hash with
      | `Seen filled ->
        warm t ~id ~filled ~hashed:true code (fun () -> Engine.recover engine code)
      | `Fresh -> analyze t ~hash code
    in
    let layout () =
      ignore (answered s.layouts hash);
      t.layouts <- t.layouts + 1;
      S.span t.spans S.Layout ~id (fun () -> Sigrec_layout.Layout.recover code)
    in
    let verdict =
      S.span t.spans S.Classify ~id (fun () ->
          Sigrec_classify.Classify.run ~layout
            ~probe:(Sigrec_classify.Classify.probe_dispatch ~code)
            (Engine.evidence_of_report report))
    in
    t.classified <- t.classified + 1;
    t.probes <- t.probes + verdict.Sigrec_classify.Classify.probes_run;
    {
      Engine.classify_code_hash = report.Engine.code_hash;
      verdict;
      classify_from_cache = false;
    }

let layout_one t s engine ~id code =
  let hash = keccak t ~id code in
  match answered s.layouts hash with
  | `Seen filled -> warm t ~id ~filled ~hashed:true code (fun () -> Engine.layout engine code)
  | `Fresh ->
    t.layouts <- t.layouts + 1;
    let layout =
      S.span t.spans S.Layout ~id (fun () -> Sigrec_layout.Layout.recover code)
    in
    {
      Engine.layout_code_hash = Evm.Hex.encode hash;
      layout;
      layout_from_cache = false;
    }

let handle t s engine ~id line =
  match Json.parse line with
  | Error msg -> error_response "null" ("parse error " ^ msg)
  | Ok req -> (
    let rid =
      match Json.member "id" req with Some v -> Json.to_string v | None -> "null"
    in
    let op = Option.bind (Json.member "op" req) Json.to_string_opt in
    let entries =
      Option.bind (Json.member "codes" req) Json.to_list_opt
      |> Option.map (List.filter_map Json.to_string_opt)
    in
    match (op, entries) with
    | Some op, Some entries ->
      let batch =
        S.span t.spans S.Input ~id (fun () -> Sigrec.Input.parse_codes entries)
      in
      let codes = batch.Sigrec.Input.codes in
      let field, rendered =
        match op with
        | "recover" ->
          let reports = List.map (recover_one t s engine ~id) codes in
          ( "reports",
            List.map
              (fun r -> render t ~id (fun () -> Sigrec.Render.report r))
              reports )
        | "classify" ->
          let verdicts = List.map (classify_one t s engine ~id) codes in
          ( "classifications",
            List.map
              (fun r -> render t ~id (fun () -> Sigrec.Render.classify_report r))
              verdicts )
        | _ ->
          let layouts = List.map (layout_one t s engine ~id) codes in
          ( "layouts",
            List.map
              (fun r -> render t ~id (fun () -> Sigrec.Render.layout_report r))
              layouts )
      in
      Json.obj
        [
          ("id", rid);
          ("ok", "true");
          (field, Json.arr rendered);
          ("warnings", Json.arr (List.map warning_json batch.Sigrec.Input.skipped));
        ]
    | _ -> error_response rid "unsupported request in the replay")

let serve t ~engine ~input ~output =
  let s =
    {
      reports = Hashtbl.create 4096;
      layouts = Hashtbl.create 4096;
      verdicts = Hashtbl.create 4096;
    }
  in
  let requests = ref 0 in
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          let rec loop () =
            match In_channel.input_line ic with
            | None -> ()
            | Some line ->
              incr requests;
              let id = !requests in
              let response =
                S.span t.spans S.Serve ~id (fun () -> handle t s engine ~id line)
              in
              output_string oc response;
              output_char oc '\n';
              loop ()
          in
          loop ()));
  !requests
