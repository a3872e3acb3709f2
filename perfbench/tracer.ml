(* In-memory spans around the benchmark's own calls into the library.
   Nothing inside lib/ is instrumented: a span wraps one call made from
   this directory.  Spans are kept until the run ends, then written as
   Chrome trace-event JSON and folded into a per-layer summary of self
   time, call count and minor-heap allocation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* the span open when this one started; -1 at top level *)
  req : int;  (* request / op id shared by the spans of one op; -1 if none *)
  start : float;
  stop : float;
  words : float;  (* Gc.minor_words allocated between start and stop *)
}

let enabled = ref false
let spans = ref []
let stack = ref []
let next_id = ref 0

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let words = Gc.minor_words () -. w0 in
      stack := List.tl !stack;
      spans := { id; name; parent; req; start = t0; stop; words } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

type layer = {
  mutable calls : int;
  mutable self_s : float;
  mutable self_words : float;
}

(* Self time and allocation: a span's own figures minus those of the
   spans it directly caused. *)
let summary () =
  let child_s = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_s s.parent (s.stop -. s.start);
        add child_w s.parent s.words
      end)
    !spans;
  let layers = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let l =
        match Hashtbl.find_opt layers s.name with
        | Some l -> l
        | None ->
            let l = { calls = 0; self_s = 0.; self_words = 0. } in
            Hashtbl.replace layers s.name l;
            l
      in
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      l.calls <- l.calls + 1;
      l.self_s <- l.self_s +. (s.stop -. s.start -. get child_s);
      l.self_words <- l.self_words +. (s.words -. get child_w))
    !spans;
  layers

let layer layers name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None -> { calls = 0; self_s = 0.; self_words = 0. }

let json_string s = Radio_serve.Json.to_string (Radio_serve.Json.Str s)

let write_chrome path =
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"minor_words\":%.0f}}"
        (json_string s.name)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.req s.words)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc

let write_summary path layers =
  let names =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) layers [])
  in
  let oc = open_out path in
  output_string oc "{";
  List.iteri
    (fun i name ->
      let l = Hashtbl.find layers name in
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc "%s:{\"calls\":%d,\"self_s\":%.6f,\"self_minor_words\":%.0f}"
        (json_string name) l.calls l.self_s l.self_words)
    names;
  output_string oc "}\n";
  close_out oc
