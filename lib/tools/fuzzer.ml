open Evm

type mode = Signature_aware of Abi.Abity.t list | Raw

type campaign_result = {
  bug_found : bool;
  executions : int;
  first_hit : int option;
}

let dictionary code =
  List.filter_map
    (fun i ->
      match i.Disasm.op with
      | Opcode.PUSH (n, v) when n >= 4 -> Some v
      | _ -> None)
    (Disasm.disassemble code)

(* Inject a dictionary word into a typed value, coerced to the type's
   width — the standard magic-constant mutation. *)
let coerce_to ty word =
  match ty with
  | Abi.Abity.Uint m -> Abi.Value.VUint (U256.logand word (U256.ones_low (m / 8)))
  | Abi.Abity.Int m ->
    Abi.Value.VInt (U256.signextend ((m / 8) - 1) word)
  | Abi.Abity.Address ->
    Abi.Value.VAddr (U256.logand word (U256.ones_low 20))
  | Abi.Abity.Bool -> Abi.Value.VBool (not (U256.is_zero word))
  | Abi.Abity.Bytes_n m ->
    (* bytesM values live in the high-order bytes of the word *)
    Abi.Value.VFixed (String.sub (U256.to_bytes_be word) 0 m)
  | _ -> Abi.Value.VUint word

let typed_input rng ~dict tys =
  List.map
    (fun ty ->
      match dict with
      | w :: _ when Abi.Abity.is_basic ty && Random.State.int rng 100 < 50 ->
        let w =
          if List.length dict = 1 || Random.State.bool rng then w
          else List.nth dict (Random.State.int rng (List.length dict))
        in
        coerce_to ty w
      | _ -> Abi.Valgen.value rng ty)
    tys

let raw_input rng selector =
  (* the paper's ContractFuzzer- regards the parameter list as a byte
     sequence and generates random bytes *)
  let len = Random.State.int rng 260 in
  selector ^ String.init len (fun _ -> Char.chr (Random.State.int rng 256))

let run_campaign ?(budget = 96) ~rng ~code ~selector mode =
  let dict = dictionary code in
  let program = Interp.prepare code in
  let executions = ref 0 and first_hit = ref None in
  (try
     for i = 1 to budget do
       incr executions;
       let calldata =
         match mode with
         | Signature_aware tys ->
           let args = typed_input rng ~dict tys in
           Abi.Encode.encode_call ~selector tys args
         | Raw -> raw_input rng selector
       in
       let res = Interp.run ~gas_limit:500_000 program ~calldata () in
       if res.Interp.outcome = Interp.Invalid_op then begin
         first_hit := Some i;
         raise Exit
       end
     done
   with Exit -> ());
  { bug_found = !first_hit <> None; executions = !executions; first_hit = !first_hit }

(* Coverage-guided variant: keep inputs that discover new program
   counters, mutate one argument of a kept seed at a time. *)
let run_coverage_campaign ?(budget = 96) ~rng ~code ~selector tys =
  let dict = dictionary code in
  let program = Interp.prepare code in
  let seen_pcs = Hashtbl.create 256 in
  let corpus = ref [] in
  let executions = ref 0 and first_hit = ref None in
  let mutate args =
    match args with
    | [] -> args
    | _ ->
      let i = Random.State.int rng (List.length args) in
      List.mapi
        (fun j v ->
          if j <> i then v
          else
            let ty = List.nth tys j in
            if dict <> [] && Abi.Abity.is_basic ty && Random.State.bool rng
            then coerce_to ty (List.nth dict (Random.State.int rng (List.length dict)))
            else Abi.Valgen.value rng ty)
        args
  in
  (try
     for i = 1 to budget do
       incr executions;
       let args =
         match !corpus with
         | seed :: _ when Random.State.int rng 100 < 60 -> mutate seed
         | _ -> typed_input rng ~dict tys
       in
       let calldata = Abi.Encode.encode_call ~selector tys args in
       let res =
         Interp.run ~gas_limit:500_000 ~record_trace:true program ~calldata ()
       in
       if res.Interp.outcome = Interp.Invalid_op then begin
         first_hit := Some i;
         raise Exit
       end;
       let fresh =
         List.exists (fun pc -> not (Hashtbl.mem seen_pcs pc)) res.Interp.trace_pcs
       in
       if fresh then begin
         List.iter (fun pc -> Hashtbl.replace seen_pcs pc ()) res.Interp.trace_pcs;
         corpus := args :: !corpus
       end
     done
   with Exit -> ());
  {
    bug_found = !first_hit <> None;
    executions = !executions;
    first_hit = !first_hit;
  }
