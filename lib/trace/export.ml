(* -- JSON building blocks --------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quote s = "\"" ^ escape s ^ "\""

let value_json = function
  | Trace.Int i -> string_of_int i
  | Trace.Str s -> quote s
  | Trace.Bool b -> string_of_bool b
  | Trace.Float f -> Printf.sprintf "%.17g" f

(* Chrome wants microseconds; integer division keeps the rendering
   exact (a float conversion would round once readings pass 2^53 ns). *)
let us_of_ns ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> quote k ^ ":" ^ value_json v) args)
  ^ "}"

let kind_name = function
  | Trace.Complete -> "span"
  | Trace.Instant -> "instant"
  | Trace.Counter -> "counter"

(* -- Chrome trace_event ------------------------------------------------ *)

let chrome_event (e : Trace.event) =
  let common =
    Printf.sprintf "\"name\":%s,\"cat\":%s,\"pid\":1,\"tid\":%d,\"ts\":%s"
      (quote e.Trace.name)
      (quote (Trace.phase_name e.Trace.phase))
      e.Trace.dom (us_of_ns e.Trace.ts_ns)
  in
  match e.Trace.kind with
  | Trace.Complete ->
    Printf.sprintf "{%s,\"ph\":\"X\",\"dur\":%s,\"args\":%s}" common
      (us_of_ns e.Trace.dur_ns) (args_json e.Trace.args)
  | Trace.Instant ->
    Printf.sprintf "{%s,\"ph\":\"i\",\"s\":\"t\",\"args\":%s}" common
      (args_json e.Trace.args)
  | Trace.Counter ->
    Printf.sprintf "{%s,\"ph\":\"C\",\"args\":%s}" common
      (args_json e.Trace.args)

let to_chrome events =
  "{\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.map chrome_event events)
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

(* -- JSONL ------------------------------------------------------------- *)

let jsonl_event (e : Trace.event) =
  Printf.sprintf
    "{\"ts_ns\":%d,\"dur_ns\":%d,\"domain\":%d,\"phase\":%s,\"name\":%s,\
     \"kind\":%s,\"args\":%s}"
    e.Trace.ts_ns e.Trace.dur_ns e.Trace.dom
    (quote (Trace.phase_name e.Trace.phase))
    (quote e.Trace.name)
    (quote (kind_name e.Trace.kind))
    (args_json e.Trace.args)

let to_jsonl events =
  String.concat "" (List.map (fun e -> jsonl_event e ^ "\n") events)

(* -- human summary ----------------------------------------------------- *)

type span_agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable max_ns : int;
  buckets : int array; (* <10us, <100us, <1ms, <10ms, >=10ms *)
}

let bucket_labels = [| "<10us"; "<100us"; "<1ms"; "<10ms"; ">=10ms" |]

let bucket_of dur_ns =
  if dur_ns < 10_000 then 0
  else if dur_ns < 100_000 then 1
  else if dur_ns < 1_000_000 then 2
  else if dur_ns < 10_000_000 then 3
  else 4

let rule_number name =
  if String.length name > 1 && name.[0] = 'R' then
    match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
    | Some n -> n
    | None -> max_int
  else max_int

let summary events =
  let us ns = float_of_int ns /. 1000. in
  let buf = Buffer.create 1024 in
  let spans : (string * string, span_agg) Hashtbl.t = Hashtbl.create 32 in
  let rules : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  let counters : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Complete ->
        let k = (Trace.phase_name e.Trace.phase, e.Trace.name) in
        let agg =
          match Hashtbl.find_opt spans k with
          | Some a -> a
          | None ->
            let a =
              { count = 0; total_ns = 0; max_ns = 0; buckets = Array.make 5 0 }
            in
            Hashtbl.replace spans k a;
            a
        in
        agg.count <- agg.count + 1;
        agg.total_ns <- agg.total_ns + e.Trace.dur_ns;
        agg.max_ns <- Stdlib.max agg.max_ns e.Trace.dur_ns;
        let b = bucket_of e.Trace.dur_ns in
        agg.buckets.(b) <- agg.buckets.(b) + 1
      | Trace.Instant when e.Trace.phase = Trace.Rules ->
        let fired =
          match List.assoc_opt "fired" e.Trace.args with
          | Some (Trace.Bool b) -> b
          | _ -> true
        in
        let f, r =
          Option.value ~default:(0, 0) (Hashtbl.find_opt rules e.Trace.name)
        in
        Hashtbl.replace rules e.Trace.name
          (if fired then (f + 1, r) else (f, r + 1))
      | Trace.Counter ->
        let k = (Trace.phase_name e.Trace.phase, e.Trace.name) in
        (match e.Trace.args with
        | (_, Trace.Int v) :: _ -> Hashtbl.replace counters k v
        | _ -> ())
      | Trace.Instant -> ())
    events;
  Buffer.add_string buf "trace summary\n";
  Buffer.add_string buf
    (Printf.sprintf "  events: %d\n" (List.length events));
  (* span tree: phases in pipeline order, names by total time *)
  let phase_order =
    [ "engine"; "lift"; "absint"; "symex"; "rules"; "lint"; "layout"; "bench" ]
  in
  List.iter
    (fun phase ->
      let rows =
        Hashtbl.fold
          (fun (p, name) agg acc -> if p = phase then (name, agg) :: acc else acc)
          spans []
        |> List.sort (fun (_, a) (_, b) -> Int.compare b.total_ns a.total_ns)
      in
      if rows <> [] then begin
        Buffer.add_string buf (Printf.sprintf "  %s\n" phase);
        List.iter
          (fun (name, agg) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "    %-18s %6d spans  total %9.1f us  mean %8.1f us  max \
                  %8.1f us\n"
                 name agg.count (us agg.total_ns)
                 (us agg.total_ns /. float_of_int (Stdlib.max 1 agg.count))
                 (us agg.max_ns));
            let hist =
              String.concat "  "
                (List.filteri
                   (fun i _ -> agg.buckets.(i) > 0)
                   (Array.to_list
                      (Array.mapi
                         (fun i label ->
                           Printf.sprintf "%s:%d" label agg.buckets.(i))
                         bucket_labels)))
            in
            if hist <> "" then
              Buffer.add_string buf (Printf.sprintf "      latency  %s\n" hist))
          rows
      end)
    phase_order;
  let rule_rows =
    Hashtbl.fold (fun name fr acc -> (name, fr) :: acc) rules []
    |> List.sort (fun (a, _) (b, _) ->
           compare (rule_number a, a) (rule_number b, b))
  in
  if rule_rows <> [] then begin
    Buffer.add_string buf "  rules (fired / rejected)\n";
    let maxf =
      List.fold_left (fun acc (_, (f, _)) -> Stdlib.max acc f) 1 rule_rows
    in
    List.iter
      (fun (name, (f, r)) ->
        Buffer.add_string buf
          (Printf.sprintf "    %-4s %6d / %-6d %s\n" name f r
             (String.make (40 * f / maxf) '#')))
      rule_rows
  end;
  let counter_rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
    |> List.sort compare
  in
  if counter_rows <> [] then begin
    Buffer.add_string buf "  counters (last value)\n";
    List.iter
      (fun ((phase, name), v) ->
        Buffer.add_string buf (Printf.sprintf "    %s/%-16s %d\n" phase name v))
      counter_rows
  end;
  Buffer.contents buf
