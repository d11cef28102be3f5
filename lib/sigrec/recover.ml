type recovered = {
  selector : string;
  selector_hex : string;
  params : Abi.Abity.t list;
  rule_paths : string list list;
  evidence : Rules.evidence list;
  lang : Abi.Abity.lang;
  entry_pc : int;
  paths_explored : int;
}

let of_infer ~selector ~entry_pc (result : Infer.result) =
  {
    selector;
    selector_hex = Evm.Hex.encode selector;
    params = result.Infer.params;
    rule_paths = result.Infer.rule_paths;
    evidence = result.Infer.evidence;
    lang = result.Infer.lang;
    entry_pc;
    paths_explored = result.Infer.trace.Symex.Trace.paths_explored;
  }

let recover_contract ?stats ?config ?static_prune ?budget contract =
  List.map
    (fun { Ids.selector; entry_pc } ->
      of_infer ~selector ~entry_pc
        (Infer.infer ?stats ?config ?static_prune ?budget ~contract
           ~entry:entry_pc ()))
    contract.Contract.entries

let recover ?stats ?config ?static_prune ?budget bytecode =
  recover_contract ?stats ?config ?static_prune ?budget (Contract.make bytecode)

let type_list r = String.concat "," (List.map Abi.Abity.to_string r.params)

let pp fmt r =
  Format.fprintf fmt "0x%s(%s)%s" r.selector_hex (type_list r)
    (match r.lang with Abi.Abity.Solidity -> "" | Abi.Abity.Vyper -> " [vyper]")
