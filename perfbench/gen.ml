(* Seeded workload generation.

   Everything here runs in its own process before any measurement: the
   measured process only ever sees the files written below — one hex
   bytecode per line (cold, census) or one pre-rendered request per line
   (serve) — so the generator's footprint never reaches [peak_rss_mb].
   The ground truth goes to a parallel file, one JSON value per input
   line, which the checker reads after the measured region. *)

module Corpus = Solc.Corpus
module Json = Sigrec.Json

let hex code = "0x" ^ Evm.Hex.encode code

(* A declared function as the checker compares it: selector and
   canonical parameter types, the paper's accuracy criterion. *)
let fn_truth (f : Solc.Lang.fn_spec) =
  let fsig = f.Solc.Lang.fsig in
  Json.arr
    [
      Json.quote ("0x" ^ Abi.Funsig.selector_hex fsig);
      Json.arr
        (List.map
           (fun ty -> Json.quote (Abi.Abity.to_string ty))
           fsig.Abi.Funsig.params);
    ]

let sig_truth fns =
  Json.obj
    [ ("kind", Json.quote "sig"); ("fns", Json.arr (List.map fn_truth fns)) ]

(* -- cold: distinct multi-function contracts ---------------------------- *)

let all_versions = Solc.Version.solidity_versions @ Solc.Version.vyper_versions

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* Draws from [values] in successive shuffled passes, so that every
   value comes up equally often in any stretch of the stream. The seed
   then picks which contracts and requests there are, not how many of
   each kind, and moves the work a round does as little as it can:
   independent draws made the work per round differ by several percent
   from seed to seed, which is spread no optimisation caused. *)
let balanced rng values =
  let a = Array.of_list values in
  let i = ref (Array.length a) in
  fun () ->
    if !i = Array.length a then begin
      for k = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let t = a.(k) in
        a.(k) <- a.(j);
        a.(j) <- t
      done;
      i := 0
    end;
    incr i;
    a.(!i - 1)

(* One multi-function contract: [nfns] functions, [nslots] storage
   slots, generator [version] (a Vyper share comes with the Vyper
   versions). [counter] keeps function names — and so bytecodes —
   distinct. *)
let cold_contract rng ~version ~nfns ~nslots counter =
  let vyper = version.Solc.Version.lang = Abi.Abity.Vyper in
  let fns =
    List.init nfns (fun j ->
        Corpus.random_fn ~abiv2:version.Solc.Version.abiv2 ~vyper rng
          ((counter * 8) + j))
  in
  let storage = List.init nslots (fun slot -> Corpus.random_svar rng slot) in
  let code = Solc.Compile.compile { Solc.Compile.fns; version; storage } in
  (code, fns)

(* Distinct contracts of 1-8 functions and 0-3 storage slots over every
   generator version, each count and version equally often. *)
let cold_stream ~seed ~salt f =
  let rng = Random.State.make [| seed; salt |] in
  let version = balanced rng all_versions
  and nfns = balanced rng (List.init 8 succ)
  and nslots = balanced rng (List.init 4 Fun.id) in
  let seen = Hashtbl.create 1024 in
  let counter = ref 0 in
  let rec next () =
    let code, fns =
      cold_contract rng ~version:(version ()) ~nfns:(nfns ())
        ~nslots:(nslots ()) !counter
    in
    incr counter;
    let h = Evm.Keccak.digest code in
    if Hashtbl.mem seen h then next ()
    else begin
      Hashtbl.replace seen h ();
      (code, fns)
    end
  in
  fun () ->
    let code, fns = next () in
    f code fns

(* -- census: Corpus.stream at dup_rate 0.9 ------------------------------- *)

(* [Corpus.stream] emits bytecodes only. To score the census against
   its declared signatures, this replays the same draws from the same
   RNG (salt 11, same order) and keeps each distinct contract's
   function spec; every emitted line is compared with the real
   [Corpus.stream] output, so the inputs are exactly that generator's
   and a divergence fails the generation instead of skewing the
   truth. *)
let census ~seed ~n f =
  let cap = 16_384 in
  let rng = Random.State.make [| seed; 11 |] in
  let pool = Array.make cap ("", None) in
  let filled = ref 0 and counter = ref 0 in
  let fresh () =
    let version = pick rng Solc.Version.solidity_versions in
    let fn =
      Corpus.random_fn ~abiv2:version.Solc.Version.abiv2 rng
        (900_000 + !counter)
    in
    incr counter;
    let code =
      Solc.Compile.compile { Solc.Compile.fns = [ fn ]; version; storage = [] }
    in
    let entry = (code, Some fn) in
    if !filled < cap then begin
      pool.(!filled) <- entry;
      incr filled
    end
    else pool.(Random.State.int rng cap) <- entry;
    entry
  in
  let replica = Queue.create () in
  for _ = 1 to n do
    let entry =
      if !filled > 0 && Random.State.float rng 1.0 < 0.9 then
        pool.(Random.State.int rng !filled)
      else fresh ()
    in
    Queue.push entry replica
  done;
  let i = ref 0 in
  Corpus.stream ~seed ~n ~dup_rate:0.9 (fun code ->
      let mine, fn = Queue.pop replica in
      if not (String.equal mine code) then
        failwith
          (Printf.sprintf "census replica diverged from Corpus.stream at line %d"
             (!i + 1));
      incr i;
      f code (Option.get fn))

(* -- serve: a closed-loop request session -------------------------------- *)

let slot_truth (v : Solc.Lang.svar) =
  let kind, members =
    match v.Solc.Lang.kind with
    | Solc.Lang.Svalue [ 256 ] -> ("word", [])
    | Solc.Lang.Svalue widths ->
      ("packed", Option.get (Solc.Storage.truth_members widths))
    | Solc.Lang.Smapping -> ("mapping", [])
    | Solc.Lang.Sarray -> ("dynamic_array", [])
  in
  Json.arr
    [
      Json.quote ("0x" ^ Evm.U256.to_hex (Evm.U256.of_int v.Solc.Lang.slot));
      Json.quote kind;
      Json.arr
        (List.map
           (fun (off, width) ->
             Json.arr [ string_of_int off; string_of_int width ])
           members);
    ]

(* New codes come from three labelled sources, one per op, so every
   answer has ground truth: cold-style contracts for recover (declared
   signatures), [Corpus.token_set] for classify (standard labels) and
   [Corpus.layout_set] for layout (declared storage). *)
type source = {
  fresh : unit -> string * string;  (** a new (code, truth) *)
  mutable sent : (string * string) array;  (** answered earlier *)
  mutable sent_n : int;
}

let source fresh = { fresh; sent = [||]; sent_n = 0 }

let of_list items =
  let rest = ref items in
  fun () ->
    match !rest with
    | item :: tl ->
      rest := tl;
      item
    | [] -> failwith "serve generator ran out of fresh codes"

let remember s item =
  if s.sent_n = Array.length s.sent then begin
    let grown = Array.make (Stdlib.max 64 (2 * s.sent_n)) item in
    Array.blit s.sent 0 grown 0 s.sent_n;
    s.sent <- grown
  end;
  s.sent.(s.sent_n) <- item;
  s.sent_n <- s.sent_n + 1

(* Request mix: recover/classify/layout at 5:3:2 and 1-16 codes a
   request, both drawn [balanced]; each code a repeat of one answered
   earlier in the session with probability 1/2 (when there is one). The
   labelled corpora are drawn with ~40 % headroom over the expected
   4.25 new codes per request. *)
let serve ~seed ~requests f =
  let rng = Random.State.make [| seed; 21 |] in
  let next_op =
    balanced rng
      (List.concat_map
         (fun (op, n) -> List.init n (fun _ -> op))
         [ (`Recover, 5); (`Classify, 3); (`Layout, 2) ])
  and next_ncodes = balanced rng (List.init 16 succ) in
  let per_op share = (requests * share * 6 / 10) + 64 in
  let recover_src =
    source (cold_stream ~seed ~salt:22 (fun code fns -> (code, sig_truth fns)))
  in
  let token_src =
    source
      (of_list @@ List.map
         (fun (s : Corpus.token_sample) ->
           ( s.Corpus.tcode,
             Json.obj
               [
                 ("kind", Json.quote "token");
                 ("label", Json.quote s.Corpus.tlabel);
                 ("exact", string_of_bool s.Corpus.texact);
               ] ))
         (Corpus.token_set ~seed ~n:(per_op 3)))
  in
  let layout_src =
    source
      (of_list @@ List.map
         (fun (s : Corpus.layout_sample) ->
           ( s.Corpus.lcode,
             Json.obj
               [
                 ("kind", Json.quote "layout");
                 ( "slots",
                   Json.arr
                     (List.map slot_truth
                        (List.sort
                           (fun (a : Solc.Lang.svar) b ->
                             compare a.Solc.Lang.slot b.Solc.Lang.slot)
                           s.Corpus.svars)) );
               ] ))
         (Corpus.layout_set ~seed ~n:(per_op 2)))
  in
  for id = 1 to requests do
    let op, src =
      match next_op () with
      | `Recover -> ("recover", recover_src)
      | `Classify -> ("classify", token_src)
      | `Layout -> ("layout", layout_src)
    in
    let ncodes = next_ncodes () in
    let batch =
      List.init ncodes (fun _ ->
          if src.sent_n > 0 && Random.State.bool rng then
            src.sent.(Random.State.int rng src.sent_n)
          else begin
            let item = src.fresh () in
            remember src item;
            item
          end)
    in
    let request =
      Json.obj
        [
          ("id", string_of_int id);
          ("op", Json.quote op);
          ("codes", Json.arr (List.map (fun (c, _) -> Json.quote (hex c)) batch));
        ]
    in
    f request (Json.arr (List.map snd batch))
  done

(* -- files ------------------------------------------------------------------ *)

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let line oc s =
  output_string oc s;
  output_char oc '\n'

(* Writes [<dir>/<workload>.in] and [<dir>/<workload>.truth]. *)
let write ~workload ~seed ~size ~dir =
  let base = Filename.concat dir workload in
  with_out (base ^ ".in") (fun inp ->
      with_out (base ^ ".truth") (fun truth ->
          match workload with
          | "cold" ->
            let next =
              cold_stream ~seed ~salt:31 (fun code fns ->
                  line inp (hex code);
                  line truth (sig_truth fns))
            in
            for _ = 1 to size do
              next ()
            done
          | "census" ->
            census ~seed ~n:size (fun code fn ->
                line inp (hex code);
                line truth (sig_truth [ fn ]))
          | "serve" ->
            serve ~seed ~requests:size (fun req t ->
                line inp req;
                line truth t)
          | w -> invalid_arg ("unknown workload " ^ w)))
