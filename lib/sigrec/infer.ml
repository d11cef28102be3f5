module Sexpr = Symex.Sexpr
module Trace = Symex.Trace
module Tr = Sigrec_trace.Trace

type result = {
  params : Abi.Abity.t list;
  rule_paths : string list list;  (* per parameter, in firing order *)
  evidence : Rules.evidence list; (* every rule decision, oldest first *)
  lang : Abi.Abity.lang;
  trace : Trace.t;
}

(* A parameter anchor: where its head slot sits in the call data, the
   inferred type, and how many head bytes it spans (for absorbing the
   item loads of static arrays). *)
type anchor = { head : int; ty : Abi.Abity.t; span : int; path : string list }

let product = List.fold_left ( * ) 1

(* Wrap an element type in static dimensions given outermost-first:
   [D1; D2] over elem yields elem[...][D2][D1]-style nesting, i.e.
   Sarray (Sarray (elem, D2), D1). *)
let wrap_outer_first elem dims =
  List.fold_left (fun acc n -> Abi.Abity.Sarray (acc, n)) elem
    (List.rev dims)

(* The static pre-screen for one function body: abstract-interpret from
   its entry (one opaque stack slot, the selector residue) and hand the
   executor a prune oracle for calldata-independent branches. The
   per-entry analysis is memoized on the contract, so re-inferring the
   same entry (config sweeps, ablations) reuses it. *)
let prune_oracle contract entry =
  let absint = Contract.absint_for contract ~entry in
  fun pc ->
    match Sigrec_static.Absint.prune_decision absint pc with
    | Some Sigrec_static.Absint.Take_jump -> Some Symex.Exec.Take_jump
    | Some Sigrec_static.Absint.Take_fallthrough ->
      Some Symex.Exec.Take_fallthrough
    | None -> None

let infer ?stats ?config ?(static_prune = true) ?budget ~contract ~entry () =
  let prune =
    if static_prune then prune_oracle contract entry else fun _ -> None
  in
  let trace =
    Symex.Exec.run_prepared ?budget ~prune contract.Contract.program ~entry
      ~init_stack:[ Sexpr.env "selector_residue" ] ()
  in
  Option.iter
    (fun s ->
      Stats.add_paths s trace.Trace.paths_explored;
      Stats.add_pruned s trace.Trace.forks_pruned)
    stats;
  let t_rules = if Tr.enabled () then Tr.now_ns () else 0 in
  let ctx =
    Rules.make ?stats ?config ~deps:contract.Contract.deps trace
      contract.Contract.cfg
  in
  let vyper = Rules.vyper_contract ctx in
  if vyper then
    Rules.hit ctx "R20" ~note:"range-check comparisons mark Vyper output";
  let loads = trace.Trace.loads in
  let claimed : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let claim (l : Trace.load) = Hashtbl.replace claimed l.Trace.id () in
  let is_claimed (l : Trace.load) = Hashtbl.mem claimed l.Trace.id in
  let anchors : anchor list ref = ref [] in
  let add_anchor ?(path = []) head ty span =
    anchors := { head; ty; span; path } :: !anchors
  in
  let mentions (l : Trace.load) id = Sexpr.mentions_load l.Trace.loc id in
  let derefs_of id =
    List.filter (fun l -> l.Trace.id <> id && mentions l id) loads
  in
  let is_dereffed (l : Trace.load) = derefs_of l.Trace.id <> [] in
  let fine subject = Rules.fine_basic ctx ~vyper subject in

  (* ---- pass 1: CALLDATACOPY anchors (public-mode parameters, Vyper
     fixed byte arrays) ---------------------------------------------- *)
  let copies_by_pc = Hashtbl.create 16 in
  List.iter
    (fun (c : Trace.copy) ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt copies_by_pc c.Trace.pc)
      in
      Hashtbl.replace copies_by_pc c.Trace.pc (c :: cur))
    trace.Trace.copies;
  Hashtbl.iter
    (fun pc cs ->
      let c0 = List.hd (List.rev cs) in
      let srcs_const =
        List.filter_map (fun c -> Sexpr.to_const_int c.Trace.src) cs
      in
      if List.length srcs_const = List.length cs then begin
        (* R6/R9: static array of a public function; the innermost row
           is the copy length, outer dimensions come from the constant
           loop bounds the copy is control-dependent on *)
        let base = List.fold_left Stdlib.min (List.hd srcs_const) srcs_const in
        match Sexpr.to_const_int c0.Trace.len with
        | Some len when len >= 32 ->
          let ty, path =
            Rules.with_path ctx (fun () ->
                let guards = Rules.guards_for_pc ctx pc in
                let outer = List.rev (Rules.loop_const_guards guards) in
                Rules.hit ctx
                  (if outer = [] then "R6" else "R9")
                  ~pc ~note:"constant-source CALLDATACOPY";
                let row_items = len / 32 in
                let elem = fine (Trace.Sub_region pc) in
                ( wrap_outer_first (Abi.Abity.Sarray (elem, row_items)) outer,
                  product outer ))
          in
          let ty, outer_product = ty in
          add_anchor ~path base ty (len * outer_product)
        | _ -> ()
      end
      else begin
        (* the source involves an offset field: dynamic data *)
        let src_loads = Sexpr.loads_of c0.Trace.src in
        let offset_load =
          List.find_map
            (fun id ->
              match Trace.load_by_id trace id with
              | Some l when Sexpr.to_const_int l.Trace.loc <> None -> Some l
              | _ -> None)
            src_loads
        in
        match offset_load with
        | None -> ()
        | Some x ->
          let head = Option.get (Sexpr.to_const_int x.Trace.loc) in
          claim x;
          let num =
            List.find_opt
              (fun (l : Trace.load) ->
                Rules.is_offset_plus_4 l.Trace.loc x.Trace.id)
              loads
          in
          Option.iter claim num;
          let region = Trace.Sub_region pc in
          let has_byte_read =
            List.mem Trace.Byte_read (Rules.usages ctx region)
          in
          let rec contains_div e =
            match Sexpr.node e with
            | Sexpr.Bin (Sexpr.Bdiv, _, _) -> true
            | Sexpr.Bin (_, a, b) -> contains_div a || contains_div b
            | Sexpr.Un (_, a) -> contains_div a
            | _ -> false
          in
          let ty, path =
            Rules.with_path ctx (fun () ->
            match Sexpr.to_const_int c0.Trace.len with
            | Some const_len when const_len >= 32 && num = None ->
              (* R23: Vyper fixed byte array / string: a constant
                 32+maxLen bytes are copied *)
              Rules.hit ctx "R23" ~pc
                ~note:
                  (Printf.sprintf "constant %d-byte copy (32+maxLen)"
                     const_len);
              let max_len = const_len - 32 in
              if has_byte_read then begin
                Rules.hit ctx "R26" ~pc ~note:"byte reads of copied region";
                Abi.Abity.Vbytes max_len
              end
              else Abi.Abity.Vstring max_len
            | Some const_len when const_len >= 32 ->
              (* R10 with constant rows under loops *)
              Rules.hit ctx "R1" ~pc ~note:"offset field feeds copy source";
              Rules.hit ctx "R10" ~pc ~note:"constant rows copied under loop";
              let guards = Rules.guards_for_pc ctx pc in
              let outer = List.rev (Rules.loop_const_guards guards) in
              let row_items = const_len / 32 in
              let elem = fine region in
              Abi.Abity.Darray
                (wrap_outer_first (Abi.Abity.Sarray (elem, row_items)) outer)
            | _ ->
              Rules.hit ctx "R1" ~pc ~note:"offset field feeds copy source";
              Rules.hit ctx "R5" ~pc ~note:"dynamic-length CALLDATACOPY";
              if contains_div c0.Trace.len then begin
                (* R8: ceil32 read size: bytes or string *)
                Rules.hit ctx "R8" ~pc ~note:"copy length is ceil32(num)";
                if has_byte_read then begin
                  Rules.hit ctx "R17" ~pc ~note:"byte reads of copied region";
                  Abi.Abity.Bytes
                end
                else Abi.Abity.String_t
              end
              else begin
                (* R7: read size is num*32: one-dimensional dynamic *)
                Rules.hit ctx "R7" ~pc ~note:"copy length is num*32";
                Abi.Abity.Darray (fine region)
              end)
          in
          add_anchor ~path head ty 32
      end)
    copies_by_pc;

  (* ---- pass 2: offset-chain parameters accessed with CALLDATALOAD
     (external dynamic arrays, nested arrays, dynamic structs, external
     bytes) ----------------------------------------------------------- *)
  (* classify the block owned by offset-load [o]; consumes loads *)
  let rec classify_block (o : Trace.load) : Abi.Abity.t =
    let derefs = derefs_of o.Trace.id in
    List.iter claim derefs;
    let o2 = List.filter is_dereffed derefs in
    let o2_ids = List.map (fun l -> l.Trace.id) o2 in
    let direct =
      List.filter
        (fun (l : Trace.load) ->
          not (List.exists (fun id -> mentions l id) o2_ids)
          && not (List.memq l o2))
        derefs
    in
    let num =
      List.find_opt
        (fun (l : Trace.load) ->
          Rules.is_offset_plus_4 l.Trace.loc o.Trace.id
          && not (List.memq l o2))
        direct
    in
    let indexed =
      List.filter
        (fun (l : Trace.load) ->
          Sexpr.has_mul_by l.Trace.loc 32 && Some l <> num)
        direct
    in
    let indexed_leaves =
      List.filter (fun l -> not (List.memq l o2)) indexed
    in
    let o2 = if ctx.Rules.config.Rules.nested then o2 else [] in
    match (o2, indexed_leaves) with
    | [], il :: _ ->
      (* R2: n-dimensional dynamic array in an external function: the
         location is offset-relative and 32-scaled, the load sits under
         one dynamic and n-1 constant bound checks *)
      Rules.hit ctx "R1" ~pc:o.Trace.pc ~note:"offset field dereferenced";
      Rules.hit ctx "R2" ~pc:il.Trace.pc
        ~note:"32-scaled item loads under bound checks";
      let guards =
        Rules.guards_with_idx_in
          (Rules.guards_for_pc ctx il.Trace.pc)
          il.Trace.loc
      in
      let emission_order = List.rev guards in
      let const_dims =
        List.filter_map
          (fun (g : Rules.guard) ->
            match g.Rules.bound with Rules.Bconst n -> Some n | _ -> None)
          emission_order
      in
      let elem = fine (Trace.Sub_load il.Trace.id) in
      Abi.Abity.Darray (wrap_outer_first elem const_dims)
    | [], [] ->
      Rules.hit ctx "R1" ~pc:o.Trace.pc ~note:"offset field dereferenced";
      let byte_item =
        List.exists
          (fun (l : Trace.load) ->
            Some l <> num
            && List.mem Trace.Byte_read
                 (Rules.usages ctx (Trace.Sub_load l.Trace.id)))
          direct
      in
      if byte_item then begin
        (* byte-granular addressing without the 32 multiplier: a bytes
           value accessed byte-wise in an external function (R17) *)
        Rules.hit ctx "R17" ~pc:o.Trace.pc ~note:"byte-granular item access";
        Abi.Abity.Bytes
      end
      else
        (* R1 alone: a dynamic parameter that is never item-accessed.
           Byte-wise access would have revealed a bytes (R17) and scaled
           access an array (R2), so the default is string — the paper's
           case-5 ambiguity *)
        Abi.Abity.String_t
    | _ :: _, _ ->
      let nested_offsets =
        List.filter
          (fun (l : Trace.load) -> Sexpr.has_mul_by l.Trace.loc 32)
          o2
      in
      if nested_offsets <> [] then begin
        (* R22/R19: a nested array: the items of the top dimension are
           themselves offset fields *)
        let z = List.hd nested_offsets in
        Rules.hit ctx "R22" ~pc:z.Trace.pc
          ~note:"items of top dimension are offset fields";
        let child = classify_block z in
        let guards =
          Rules.guards_with_idx_in
            (Rules.guards_for_pc ctx z.Trace.pc)
            z.Trace.loc
        in
        let top =
          List.find_map
            (fun (g : Rules.guard) ->
              match g.Rules.bound with
              | Rules.Bload id
                when Some id
                     = Option.map (fun (l : Trace.load) -> l.Trace.id) num ->
                Some `Dyn
              | Rules.Bconst n -> Some (`Const n)
              | _ -> None)
            guards
        in
        match top with
        | Some (`Const n) when num = None -> Abi.Abity.Sarray (child, n)
        | _ -> Abi.Abity.Darray child
      end
      else begin
        (* R21: dynamic struct: fields sit at constant offsets behind
           the struct's offset field *)
        Rules.hit ctx "R21" ~pc:o.Trace.pc
          ~note:"fields at constant offsets behind struct offset";
        let fields =
          List.filter_map
            (fun (l : Trace.load) ->
              match Rules.split_terms l.Trace.loc with
              | c, [ only ] when c >= 4 -> (
                match Sexpr.node only with
                | Sexpr.CDLoad id when id = o.Trace.id -> Some (c, l)
                | _ -> None)
              | _ -> None)
            derefs
        in
        let fields = List.sort (fun (a, _) (b, _) -> compare a b) fields in
        let field_tys =
          List.map
            (fun (_, (l : Trace.load)) ->
              if List.memq l o2 then begin
                Rules.hit ctx "R19" ~pc:l.Trace.pc ~note:"nested dynamic field";
                classify_block l
              end
              else fine (Trace.Sub_load l.Trace.id))
            fields
        in
        match field_tys with
        | [] -> Abi.Abity.Darray (Abi.Abity.Uint 256)
        | tys -> Abi.Abity.Tuple tys
      end
  in
  List.iter
    (fun (x : Trace.load) ->
      match Sexpr.to_const_int x.Trace.loc with
      | Some head when head >= 4 && (not (is_claimed x)) && is_dereffed x ->
        claim x;
        let ty, path = Rules.with_path ctx (fun () -> classify_block x) in
        add_anchor ~path head ty 32
      | _ -> ())
    loads;

  (* ---- pass 3: external static arrays (R3) / Vyper fixed lists (R24):
     item loads at locations built from a constant base plus scaled
     symbolic indices, protected by constant bound checks -------------- *)
  let static_groups = Hashtbl.create 8 in
  List.iter
    (fun (l : Trace.load) ->
      if
        (not (is_claimed l))
        && Sexpr.to_const_int l.Trace.loc = None
        && Sexpr.loads_of l.Trace.loc = []
        && Sexpr.has_mul_by l.Trace.loc 32
      then begin
        let base = Sexpr.const_offset l.Trace.loc in
        if base >= 4 then begin
          claim l;
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt static_groups base)
          in
          Hashtbl.replace static_groups base (l :: cur)
        end
      end)
    loads;
  Hashtbl.iter
    (fun base group ->
      let (l : Trace.load) = List.hd group in
      let guards =
        Rules.guards_with_idx_in (Rules.guards_for_pc ctx l.Trace.pc)
          l.Trace.loc
      in
      let dims =
        List.filter_map
          (fun (g : Rules.guard) ->
            match g.Rules.bound with Rules.Bconst n -> Some n | _ -> None)
          (List.rev guards)
      in
      if dims = [] then begin
        (* no surviving bound checks: indistinguishable from a basic
           parameter (the paper's case-5 optimisation blind spot) *)
        let elem, path =
          Rules.with_path ctx (fun () -> fine (Trace.Sub_load l.Trace.id))
        in
        add_anchor ~path base elem 32
      end
      else begin
        let ty, path =
          Rules.with_path ctx (fun () ->
              Rules.hit ctx
                (if vyper then "R24" else "R3")
                ~pc:l.Trace.pc ~note:"scaled loads under constant bounds";
              let elem = fine (Trace.Sub_load l.Trace.id) in
              wrap_outer_first elem dims)
        in
        add_anchor ~path base ty (32 * product dims)
      end)
    static_groups;

  (* ---- pass 4: remaining constant-location loads are basic-type
     parameters (R4 default, then fine-grained refinement) ------------- *)
  let spans = List.map (fun a -> (a.head, a.span)) !anchors in
  let inside_span off =
    List.exists (fun (h, s) -> off >= h && off < h + s) spans
  in
  List.iter
    (fun (l : Trace.load) ->
      match Sexpr.to_const_int l.Trace.loc with
      | Some off
        when off >= 4 && (off - 4) mod 32 = 0 && (not (is_claimed l))
             && not (inside_span off) ->
        claim l;
        let ty, path =
          Rules.with_path ctx (fun () ->
              Rules.hit ctx
                (if vyper then "R25" else "R4")
                ~pc:l.Trace.pc ~note:"word load at constant head slot";
              fine (Trace.Sub_load l.Trace.id))
        in
        add_anchor ~path off ty 32
      | _ -> ())
    loads;

  (* ---- assemble: order parameters by head location ------------------ *)
  let by_head = Hashtbl.create 16 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt by_head a.head with
      | Some prev when prev.ty <> Abi.Abity.Uint 256 -> ignore prev
      | _ -> Hashtbl.replace by_head a.head a)
    (List.rev !anchors);
  let ordered =
    Hashtbl.fold (fun _ a acc -> a :: acc) by_head []
    |> List.filter (fun a ->
           not
             (List.exists
                (fun (h, s) -> a.head > h && a.head < h + s)
                spans))
    |> List.sort (fun a b -> compare a.head b.head)
  in
  if Tr.enabled () then
    Tr.complete Tr.Rules "classify" ~t0_ns:t_rules
      [
        ("entry", Tr.Int entry);
        ("params", Tr.Int (List.length ordered));
        ("paths", Tr.Int trace.Trace.paths_explored);
      ];
  {
    params = List.map (fun a -> a.ty) ordered;
    rule_paths = List.map (fun a -> a.path) ordered;
    evidence = Rules.evidence ctx;
    lang = (if vyper then Abi.Abity.Vyper else Abi.Abity.Solidity);
    trace;
  }
