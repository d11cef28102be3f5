(* Output checks, run after the measured region on the files a round
   wrote. Structural mismatches (a missing answer, a wrong selector
   set, a duplicate answered differently, a false exact verdict, an
   inexact layout) are collected as errors and fail the run; failed
   analyses and refused requests are counted, not fatal. *)

module Json = Sigrec.Json

type t = {
  mutable answered : int;
  mutable failed : int;
      (** answers with a [Failed] outcome, plus (by the caller) skipped
          input lines and the codes of [ok:false] replies *)
  mutable declared : int;  (** generator-declared functions scored *)
  mutable correct : int;  (** ... whose selector and types came back *)
  mutable exact_claims : int;
  mutable errors : string list;
}

let create () =
  {
    answered = 0;
    failed = 0;
    declared = 0;
    correct = 0;
    exact_claims = 0;
    errors = [];
  }

let error t fmt =
  Printf.ksprintf
    (fun msg -> if List.length t.errors < 20 then t.errors <- msg :: t.errors)
    fmt

(* The fields of a report that legitimately differ between two answers
   to the same bytecode: whether it came from the cache, and measured
   time. Everything else must match byte for byte. *)
let normalise line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let at i s =
    let k = String.length s in
    i + k <= n
    &&
    let rec eq j = j = k || (line.[i + j] = s.[j] && eq (j + 1)) in
    eq 0
  in
  let rec go i =
    if i < n then
      if at i {|"from_cache":true|} then begin
        Buffer.add_string b {|"from_cache":false|};
        go (i + 17)
      end
      else if at i {|"elapsed_ns":|} then begin
        Buffer.add_string b {|"elapsed_ns":0|};
        let j = ref (i + 13) in
        while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
          incr j
        done;
        go !j
      end
      else begin
        Buffer.add_char b line.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* Calls [f i a b] on the [i]th lines (from 1) of two files read in
   step; [Error i] when one ends before the other. *)
let lockstep path_a path_b f =
  In_channel.with_open_bin path_a (fun a ->
      In_channel.with_open_bin path_b (fun b ->
          let rec go i =
            match (In_channel.input_line a, In_channel.input_line b) with
            | None, None -> Ok ()
            | Some x, Some y ->
              f i x y;
              go (i + 1)
            | _ -> Error i
          in
          go 1))

let str j k = Option.bind (Json.member k j) Json.to_string_opt
let list j k = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list_opt)
let strings l = List.filter_map Json.to_string_opt l

let parse t what line =
  match Json.parse line with
  | Ok j -> Some j
  | Error e ->
    error t "%s: unparseable output (%s)" what e;
    None

(* One rendered signature report against its declared functions. *)
let check_report t ~where report truth =
  let fns = list report "functions" in
  if List.exists (fun f -> str f "outcome" = Some "failed") fns then
    t.failed <- t.failed + 1;
  let got =
    List.map
      (fun f -> (Option.value ~default:"" (str f "selector"), strings (list f "types")))
      fns
  in
  let want =
    List.map
      (fun d ->
        match Json.to_list_opt d with
        | Some [ Json.Str sel; Json.Arr tys ] -> (sel, strings tys)
        | _ -> ("", []))
      (list truth "fns")
  in
  let sels l = List.sort compare (List.map fst l) in
  if sels got <> sels want then
    error t "%s: recovered selectors %s, declared %s" where
      (String.concat "," (sels got))
      (String.concat "," (sels want));
  List.iter
    (fun (sel, tys) ->
      t.declared <- t.declared + 1;
      if List.assoc_opt sel got = Some tys then t.correct <- t.correct + 1)
    want

(* cold / census: one report line per input line, in input order.
   Every duplicate must render exactly as its first occurrence did;
   first occurrences are scored against the declared signatures. *)
let stream t ~output ~truth =
  let first = Hashtbl.create 4096 in
  let check i line truth_line =
    let where = Printf.sprintf "line %d" i in
    t.answered <- t.answered + 1;
    match parse t where line with
    | None -> ()
    | Some report -> (
      let hash = Option.value ~default:"" (str report "code_hash") in
      let norm = normalise line in
      match Hashtbl.find_opt first hash with
      | Some (prev, failed) ->
        if failed then t.failed <- t.failed + 1;
        if not (String.equal prev norm) then
          error t "%s: duplicate of %s answered differently" where hash
      | None ->
        let failed0 = t.failed in
        Option.iter (check_report t ~where report)
          (parse t (where ^ " truth") truth_line);
        Hashtbl.replace first hash (norm, t.failed > failed0))
  in
  match lockstep output truth check with
  | Ok () -> ()
  | Error i -> error t "line %d: answers and inputs differ in number" i

let member_int j k = Option.bind (Json.member k j) Json.to_int_opt

let check_layout t ~where entry truth =
  let got =
    List.map
      (fun s ->
        ( Option.value ~default:"" (str s "slot"),
          Option.value ~default:"" (str s "kind"),
          List.map
            (fun m ->
              (member_int m "bit_offset", member_int m "bit_width"))
            (list s "members") ))
      (list entry "slots")
  in
  let want =
    List.map
      (fun s ->
        match Json.to_list_opt s with
        | Some [ Json.Str slot; Json.Str kind; Json.Arr ms ] ->
          ( slot,
            kind,
            List.map
              (fun m ->
                match Json.to_list_opt m with
                | Some [ o; w ] -> (Json.to_int_opt o, Json.to_int_opt w)
                | _ -> (None, None))
              ms )
        | _ -> ("", "", []))
      (list truth "slots")
  in
  if
    got <> want
    || Json.member "complete" entry <> Some (Json.Bool true)
    || member_int entry "unknown_ops" <> Some 0
  then error t "%s: layout differs from the declared storage" where

(* Exact-verdict precision must be 1.0: an [exact] answer is only
   right for a complete token of the labelled standard. *)
let check_verdict t ~where entry truth =
  match Json.member "best" entry with
  | Some best when str best "level" = Some "exact" ->
    t.exact_claims <- t.exact_claims + 1;
    if
      not
        (Json.member "exact" truth = Some (Json.Bool true)
        && str entry "label" = str truth "label")
    then
      error t "%s: false exact verdict %s" where
        (Option.value ~default:"?" (str entry "label"))
  | _ -> ()

(* serve: every reply ok, one entry per code, each scored by what its
   source declared. *)
let serve t ~output ~truth =
  let check i line truth_line =
    let where = Printf.sprintf "request %d" i in
    match (parse t where line, parse t (where ^ " truth") truth_line) with
    | Some reply, Some truth ->
      let truths = Option.value ~default:[] (Json.to_list_opt truth) in
      if Json.member "ok" reply <> Some (Json.Bool true) then begin
        t.failed <- t.failed + List.length truths;
        error t "%s: refused (%s)" where line
      end
      else
        let entries, check =
          match truths with
          | tr0 :: _ when str tr0 "kind" = Some "token" ->
            (list reply "classifications", check_verdict)
          | tr0 :: _ when str tr0 "kind" = Some "layout" ->
            (list reply "layouts", check_layout)
          | _ -> (list reply "reports", check_report)
        in
        if List.length entries <> List.length truths then
          error t "%s: %d answers for %d codes" where (List.length entries)
            (List.length truths)
        else begin
          t.answered <- t.answered + List.length entries;
          List.iteri
            (fun k (e, tr) ->
              check t ~where:(Printf.sprintf "%s code %d" where k) e tr)
            (List.combine entries truths)
        end
    | _ -> ()
  in
  match lockstep output truth check with
  | Ok () -> ()
  | Error i -> error t "request %d: replies and requests differ in number" i
