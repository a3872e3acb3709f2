module C = Radio_config.Config
module CIo = Radio_config.Config_io

type error = { message : string; column : int option }

type request =
  | Classify of { config : C.t }
  | Elect of { config : C.t; max_rounds : int }
  | Simulate of { config : C.t; max_rounds : int }
  | Mc_check of {
      config : C.t;
      protocol : string;
      depth : int option;
      states : int option;
    }
  | Stats

type parsed = { id : Json.t; request : (request, error) result }

let max_config_bytes = 1024 * 1024
let max_config_nodes = 4096
let default_max_rounds = 100_000

let kind_name = function
  | Classify _ -> "classify"
  | Elect _ -> "elect"
  | Simulate _ -> "simulate"
  | Mc_check _ -> "mc-check"
  | Stats -> "stats"

let known_kinds = [ "classify"; "elect"; "simulate"; "mc-check"; "stats" ]

exception Reject of error

let reject ?column message = raise (Reject { message; column })

let fields_for_kind = function
  | "classify" -> [ "config" ]
  | "elect" | "simulate" -> [ "config"; "max_rounds" ]
  | "mc-check" -> [ "config"; "protocol"; "depth"; "states" ]
  | "stats" -> []
  | _ -> []

let known_protocols = Radio_mc.Machine.names @ Radio_mc.Mutant.names

let get_config obj =
  match Json.member "config" obj with
  | None -> reject "missing field \"config\""
  | Some (Json.Str s) ->
      if String.length s > max_config_bytes then
        reject
          (Printf.sprintf "config too large (%d bytes > limit %d)"
             (String.length s) max_config_bytes)
      else begin
        let config =
          match CIo.of_string s with
          | c -> c
          | exception Failure msg -> reject ("invalid config: " ^ msg)
        in
        if C.size config = 0 then reject "invalid config: empty configuration";
        if C.size config > max_config_nodes then
          reject
            (Printf.sprintf "config too large (%d nodes > limit %d)"
               (C.size config) max_config_nodes);
        config
      end
  | Some _ -> reject "field \"config\" must be a string"

let get_positive_int obj field default =
  match Json.member field obj with
  | None -> default
  | Some (Json.Int n) when n > 0 -> n
  | Some (Json.Int _) ->
      reject (Printf.sprintf "field \"%s\" must be positive" field)
  | Some _ -> reject (Printf.sprintf "field \"%s\" must be an integer" field)

let get_positive_int_opt obj field =
  match Json.member field obj with
  | None -> None
  | Some _ -> Some (get_positive_int obj field 1)

let parse_request obj =
  let kind =
    match Json.member "kind" obj with
    | None -> reject "missing field \"kind\""
    | Some (Json.Str k) -> k
    | Some _ -> reject "field \"kind\" must be a string"
  in
  if not (List.mem kind known_kinds) then
    reject
      (Printf.sprintf "unknown request kind %S (known: %s)" kind
         (String.concat ", " known_kinds));
  let allowed = "id" :: "kind" :: fields_for_kind kind in
  (match obj with
  | Json.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k allowed) then
            reject
              (Printf.sprintf "unknown field %S for kind %S" k kind))
        fields
  | _ -> ());
  match kind with
  | "classify" -> Classify { config = get_config obj }
  | "elect" ->
      Elect
        {
          config = get_config obj;
          max_rounds = get_positive_int obj "max_rounds" default_max_rounds;
        }
  | "simulate" ->
      Simulate
        {
          config = get_config obj;
          max_rounds = get_positive_int obj "max_rounds" default_max_rounds;
        }
  | "mc-check" ->
      let protocol =
        match Json.member "protocol" obj with
        | None -> "drip"
        | Some (Json.Str p) ->
            if not (List.mem p known_protocols) then
              reject
                (Printf.sprintf "unknown protocol %S (known: %s)" p
                   (String.concat ", " known_protocols));
            p
        | Some _ -> reject "field \"protocol\" must be a string"
      in
      Mc_check
        {
          config = get_config obj;
          protocol;
          depth = get_positive_int_opt obj "depth";
          states = get_positive_int_opt obj "states";
        }
  | "stats" -> Stats
  | _ -> assert false

let parse line =
  match Json.parse line with
  | Error (e : Json.error) ->
      {
        id = Json.Null;
        request =
          Error
            { message = "invalid JSON: " ^ e.message; column = Some e.column };
      }
  | Ok (Json.Obj _ as obj) ->
      let id = Option.value ~default:Json.Null (Json.member "id" obj) in
      let request =
        match parse_request obj with
        | req -> Ok req
        | exception Reject e -> Error e
      in
      { id; request }
  | Ok _ ->
      {
        id = Json.Null;
        request =
          Error { message = "request must be a JSON object"; column = Some 1 };
      }

let oversized_line ~limit =
  {
    id = Json.Null;
    request =
      Error
        {
          message =
            Printf.sprintf "request line exceeds %d bytes (discarded)" limit;
          column = None;
        };
  }

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)

let response_ok ~id ~kind ?cost result =
  let tail =
    match cost with
    | None -> []
    | Some c -> [ ("cost", Json.Obj c) ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("id", id);
          ("kind", Json.Str kind);
          ("status", Json.Str "ok");
          ("result", Json.Obj result);
        ]
       @ tail))

let response_error ~id (e : error) =
  let pos =
    match e.column with Some c -> [ ("column", Json.Int c) ] | None -> []
  in
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("status", Json.Str "error");
         ("error", Json.Obj (("message", Json.Str e.message) :: pos));
       ])
