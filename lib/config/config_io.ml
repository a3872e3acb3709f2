module G = Radio_graph.Graph

let to_string c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "config %d\n" (Config.size c));
  Buffer.add_string buf "tags";
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf " %d" t)) (Config.tags c);
  Buffer.add_char buf '\n';
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    (G.edges (Config.graph c));
  Buffer.contents buf

let meaningful_lines s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let int_token what t =
  match int_of_string_opt t with
  | Some i -> i
  | None -> failwith (Printf.sprintf "Config_io.of_string: bad %s: %s" what t)

let of_string s =
  match meaningful_lines s with
  | header :: tag_line :: rest ->
      let n =
        match tokens header with
        | [ "config"; n ] -> int_token "vertex count" n
        | _ -> failwith "Config_io.of_string: expected 'config <n>' header"
      in
      let tags =
        match tokens tag_line with
        | "tags" :: ts when List.length ts = n ->
            Array.of_list (List.map (int_token "tag") ts)
        | "tags" :: ts ->
            failwith
              (Printf.sprintf
                 "Config_io.of_string: expected %d tags, found %d" n
                 (List.length ts))
        | _ -> failwith "Config_io.of_string: expected 'tags ...' line"
      in
      let parse_edge line =
        match tokens line with
        | [ u; v ] -> (int_token "edge endpoint" u, int_token "edge endpoint" v)
        | _ -> failwith ("Config_io.of_string: bad edge line: " ^ line)
      in
      (* Self-loops, duplicate edges and out-of-range vertices are
         malformed input too: report them as [Failure] like every other
         parse error. *)
      let graph =
        try G.of_edges n (List.map parse_edge rest)
        with G.Invalid_edge msg -> failwith ("Config_io.of_string: " ^ msg)
      in
      (try Config.create ~normalize:false graph tags
       with Config.Invalid_configuration msg ->
         failwith ("Config_io.of_string: " ^ msg))
  | _ -> failwith "Config_io.of_string: need a header and a tags line"

let to_dot ?(name = "C") c =
  Radio_graph.Io.to_dot ~name
    ~label:(fun v -> Printf.sprintf "v%d (t=%d)" v (Config.tag c v))
    (Config.graph c)

let write_file path c =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string c))

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      of_string (In_channel.input_all ic))
