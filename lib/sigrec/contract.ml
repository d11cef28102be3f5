type t = {
  code : string;
  code_hash : string;
  program : Symex.Exec.program;
  cfg : Evm.Cfg.t;
  deps : (int, int list) Hashtbl.t;
  entries : Ids.entry list;
  static : Sigrec_static.Absint.result;
  unresolved_before : int;
  unresolved_after : int;
  absint_cache : (int, Sigrec_static.Absint.result) Hashtbl.t;
}

let hash_of_code code = Evm.Keccak.digest code

let make ?hash code =
  let module Tr = Sigrec_trace.Trace in
  let t0_ns = if Tr.enabled () then Tr.now_ns () else 0 in
  let program = Symex.Exec.prepare code in
  let raw_cfg = Evm.Cfg.of_instructions (Symex.Exec.instructions program) in
  (* One whole-contract abstract-interpretation run from offset 0:
     resolves cross-block pushed jump targets before anything downstream
     looks at the graph, so the control-dependence table and every
     per-function pass see the fed-back edges. *)
  let static = Sigrec_static.Absint.analyze ~depth:0 ~entry:0 raw_cfg in
  let cfg = Sigrec_static.Absint.resolved_cfg static in
  let t =
    {
      code;
      code_hash = (match hash with Some h -> h | None -> hash_of_code code);
      program;
      cfg;
      deps = Evm.Cfg.control_deps cfg;
      entries = Ids.extract_prepared program;
      static;
      unresolved_before = Evm.Cfg.unresolved_count raw_cfg;
      unresolved_after = Evm.Cfg.unresolved_count cfg;
      absint_cache = Hashtbl.create 8;
    }
  in
  if Tr.enabled () then
    Tr.complete Tr.Lift "contract" ~t0_ns
      [
        ("bytes", Tr.Int (String.length code));
        ("entries", Tr.Int (List.length t.entries));
        ("jumps_resolved", Tr.Int (t.unresolved_before - t.unresolved_after));
      ];
  t

let absint_for t ~entry =
  match Hashtbl.find_opt t.absint_cache entry with
  | Some r -> r
  | None ->
    let r = Sigrec_static.Absint.analyze ~depth:1 ~entry t.cfg in
    Hashtbl.replace t.absint_cache entry r;
    r

let code_hash_hex t = Evm.Hex.encode t.code_hash
let entries t = t.entries
let static t = t.static
