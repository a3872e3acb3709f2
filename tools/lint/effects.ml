(* Interprocedural effect-and-escape analysis.

   Every call-graph definition is classified on the lattice

       Pure < LocalMut < SharedMut < IO

   Direct effects are read off the references a body makes: mutation
   primitives ([:=], [incr], [Array.set], [Hashtbl.replace], [Buffer.add_*],
   ...) and record-field assignments are [LocalMut]; any reference to a
   module-level mutable binding (read or write — both are scheduling-order
   sensitive), or to the multicore runtime, is [SharedMut]; channels,
   [Sys]/[Unix] calls and the printing entry points are [IO].  Classes then
   propagate transitively over call edges with the same reverse-edge
   worklist the taint analysis uses — the lattice has height four and the
   join is monotone, so the fixpoint terminates — and every classification
   above [Pure] carries a witness chain down to the primitive or mutable
   binding that caused it.

   The escape check is what the classes are for: everything reachable from
   a [Pool] task closure (the [~f] argument of [run_batch]/[map]/
   [map_array]/[map_reduce]/[iter_batches] — it runs
   concurrently on many domains) must stay [<= LocalMut].  A task that transitively reaches
   [SharedMut] or [IO] is reported with the full chain from the submit
   site to the offending primitive.  [Intern] local views
   (lib/exec/intern.ml — provisional ids replayed at the batch barrier,
   see docs/PARALLEL.md) and functions annotated [radiolint: allow effect]
   are the only sanctioned barriers: classes neither originate in nor flow
   through them. *)

type cls = Pure | Local_mut | Shared_mut | Io

let rank = function Pure -> 0 | Local_mut -> 1 | Shared_mut -> 2 | Io -> 3
let join a b = if rank a >= rank b then a else b
let le a b = rank a <= rank b

let cls_name = function
  | Pure -> "Pure"
  | Local_mut -> "LocalMut"
  | Shared_mut -> "SharedMut"
  | Io -> "IO"

let cls_of_name = function
  | "Pure" -> Some Pure
  | "LocalMut" -> Some Local_mut
  | "SharedMut" -> Some Shared_mut
  | "IO" -> Some Io
  | _ -> None

let rule = "effect"

(* ------------------------------------------------------------------ *)
(* Direct effects                                                      *)
(* ------------------------------------------------------------------ *)

(* [Sys] values that are compile-time constants (or the optimizer fence):
   reading them is not an observable effect. *)
let sys_pure =
  [
    "opaque_identity"; "word_size"; "int_size"; "big_endian"; "max_string_length";
    "max_array_length"; "max_floatarray_length"; "ocaml_version"; "backend_type";
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Observable input/output: channels, the ambient file system and process
   state, wall-clock and environment reads.  [Format.fprintf ppf] and
   friends are deliberately *not* here — a printer writing to a
   caller-supplied formatter has the effect of whoever supplied the
   formatter, and the std/err formatters themselves classify as IO. *)
let io_primitive comps =
  match comps with
  | "Unix" :: _ :: _ -> true
  | [ "Sys"; f ] -> not (List.mem f sys_pure)
  | ("In_channel" | "Out_channel" | "Scanf") :: _ :: _ -> true
  | [ ("stdin" | "stdout" | "stderr") ]
  | [ "Format"; ("std_formatter" | "err_formatter" | "get_std_formatter") ] ->
      true
  | [ ("Printf" | "Format"); ("printf" | "eprintf") ] -> true
  | [ "Format"; ("print_string" | "print_newline" | "print_flush") ] -> true
  | [ "Filename"; ("temp_file" | "open_temp_file" | "temp_dir") ] -> true
  | [ f ] ->
      starts_with ~prefix:"print_" f
      || starts_with ~prefix:"prerr_" f
      || starts_with ~prefix:"output" f
      || starts_with ~prefix:"input" f
      || starts_with ~prefix:"read_" f
      || List.mem f [ "open_in"; "open_out"; "open_in_bin"; "open_out_bin";
                      "close_in"; "close_out"; "flush"; "flush_all"; "exit";
                      "at_exit" ]
  | _ -> false

(* The multicore runtime: domains, atomics and locks are shared-state
   synchronization by definition. *)
let shared_primitive = function
  | ("Domain" | "Atomic" | "Mutex" | "Condition") :: _ :: _ -> true
  | _ -> false

(* In-place mutation of a data structure the function can reach.  The
   parser desugars [a.(i) <- v] to [Array.set] and [s.[i] <- c] to
   [Bytes.set], so ident matching covers indexed assignment; record-field
   assignment is the one shape that needs the AST fact
   ([Callgraph.setfield_lines]).  Allocation ([ref], [Hashtbl.create])
   counts too: a function handing out fresh mutable state is not [Pure],
   but confined mutation is exactly what [LocalMut] licenses. *)
let mutation comps =
  match comps with
  | [ (":=" | "incr" | "decr" | "ref") ] -> true
  | [ "Array"; ("set" | "unsafe_set" | "fill" | "blit" | "sort"
               | "stable_sort" | "fast_sort") ] ->
      true
  | [ "Bytes"; ("set" | "unsafe_set" | "fill" | "blit" | "blit_string") ] ->
      true
  | [ "Hashtbl"; ("create" | "add" | "replace" | "remove" | "reset" | "clear"
                 | "filter_map_inplace") ] ->
      true
  | [ "Buffer"; f ] -> starts_with ~prefix:"add_" f
                       || List.mem f [ "create"; "clear"; "reset"; "truncate" ]
  | [ ("Queue" | "Stack"); ("create" | "push" | "pop" | "add" | "take"
                           | "clear" | "transfer" | "drop_exn") ] ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Classification fixpoint — a {!Dataflow} instance                    *)
(* ------------------------------------------------------------------ *)

module Df = Dataflow.Make (struct
  type t = cls

  let bottom = Pure
  let equal a b = rank a = rank b
  let join = join
  let widen _ joined = joined
end)

type hop = Dataflow.hop = { name : string; hop_path : string; hop_line : int }

type info = {
  def : Callgraph.def;
  cls : cls;
  chain : hop list;
      (* def, helpers..., primitive/mutable — empty for Pure *)
}

type finding = {
  func : Callgraph.def;  (* the function submitting the pool task *)
  submit_line : int;  (* the Pool.<submit> call site *)
  cls : cls;  (* the class that escaped: Shared_mut or Io *)
  chain : hop list;  (* submit site, helpers..., the effect source *)
  source : string;  (* the primitive or mutable binding reached *)
}

(* The default barrier: Intern local views are the sanctioned shared-state
   protocol (commit replays them deterministically at the batch barrier). *)
let intern_exempt path =
  let path = Rules.normalize path in
  let needle = "lib/exec/intern.ml" in
  let nl = String.length needle and pl = String.length path in
  pl >= nl && String.sub path (pl - nl) nl = needle

type result = { cg : Callgraph.t; res : Df.result }

(* Direct class of one reference, with the name to blame.  Shared-state
   access is either a runtime primitive or a resolved reference to a
   module-level mutable binding. *)
let direct_of cg ~top (r : Callgraph.reference) =
  if shared_primitive r.Callgraph.target then
    Some (Shared_mut, String.concat "." r.Callgraph.target, r.Callgraph.ref_line)
  else if io_primitive r.Callgraph.target then
    Some (Io, String.concat "." r.Callgraph.target, r.Callgraph.ref_line)
  else
    match Taint.resolve cg ~top r.Callgraph.target with
    | Some key when Callgraph.is_mutable cg key ->
        let name =
          match Callgraph.find cg key with
          | Some d -> d.Callgraph.display
          | None -> key
        in
        Some (Shared_mut, name, r.Callgraph.ref_line)
    | _ ->
        if mutation r.Callgraph.target then
          Some
            ( Local_mut,
              String.concat "." r.Callgraph.target,
              r.Callgraph.ref_line )
        else None

let analyze ?(exempt = intern_exempt) cg =
  let barrier (d : Callgraph.def) =
    exempt d.Callgraph.def_path
    || Callgraph.allowed cg ~path:d.Callgraph.def_path
         ~line:d.Callgraph.def_line ~rule
  in
  let seeds ~top (d : Callgraph.def) =
    List.filter_map (direct_of cg ~top) d.Callgraph.refs
    @ List.map
        (fun line -> (Local_mut, "<- (record field)", line))
        d.Callgraph.setfield_lines
  in
  { cg; res = Df.solve ~barrier ~seeds cg }

let chain_of res d = Df.chain res.res d
let class_of res key = Df.value res.res key

let infos res =
  Callgraph.defs res.cg
  |> List.map (fun (d : Callgraph.def) ->
         let cls = class_of res d.Callgraph.key in
         let chain = if cls = Pure then [] else fst (chain_of res d) in
         { def = d; cls; chain })
  |> List.sort (fun a b ->
         compare
           (a.def.Callgraph.def_path, a.def.Callgraph.def_line,
            a.def.Callgraph.display)
           (b.def.Callgraph.def_path, b.def.Callgraph.def_line,
            b.def.Callgraph.display))

let classify ?exempt cg = infos (analyze ?exempt cg)

(* ------------------------------------------------------------------ *)
(* The escape check                                                    *)
(* ------------------------------------------------------------------ *)

(* Worst offender reachable from one task closure: the direct effects its
   body performs and the classes of everything it calls. *)
let task_offence res (d : Callgraph.def) (t : Callgraph.task) =
  let top = Callgraph.module_name_of_path d.Callgraph.def_path in
  let submit_hop =
    {
      name = d.Callgraph.display;
      hop_path = d.Callgraph.def_path;
      hop_line = t.Callgraph.submit_line;
    }
  in
  List.fold_left
    (fun worst (r : Callgraph.reference) ->
      let candidate =
        match direct_of res.cg ~top r with
        | Some (c, name, line) when not (le c Local_mut) ->
            Some
              ( c,
                [
                  submit_hop;
                  { name; hop_path = d.Callgraph.def_path; hop_line = line };
                ],
                name )
        | _ -> (
            match Taint.resolve res.cg ~top r.Callgraph.target with
            | Some callee
              when callee <> d.Callgraph.key
                   && not (le (class_of res callee) Local_mut) -> (
                match Callgraph.find res.cg callee with
                | Some cd ->
                    let chain, source = chain_of res cd in
                    Some (class_of res callee, submit_hop :: chain, source)
                | None -> None)
            | _ -> None)
      in
      match (worst, candidate) with
      | None, c -> c
      | Some _, None -> worst
      | Some (wc, _, _), Some (cc, _, _) ->
          if rank cc > rank wc then candidate else worst)
    None t.Callgraph.task_refs

let escapes ?exempt cg =
  let res = analyze ?exempt cg in
  Callgraph.defs cg
  |> List.filter_map (fun (d : Callgraph.def) ->
         if d.Callgraph.tasks = [] || Df.barrier res.res d then None
         else
           (* One finding per submitting function: the worst escape over
              all its task closures (the fingerprint is per function and
              class, so multiple reports would collide anyway). *)
           List.fold_left
             (fun worst (t : Callgraph.task) ->
               match task_offence res d t with
               | None -> worst
               | Some (c, chain, source) -> (
                   let f =
                     {
                       func = d;
                       submit_line = t.Callgraph.submit_line;
                       cls = c;
                       chain;
                       source;
                     }
                   in
                   match worst with
                   | None -> Some f
                   | Some w -> if rank c > rank w.cls then Some f else worst))
             None d.Callgraph.tasks)
  |> List.sort (fun a b ->
         compare
           (a.func.Callgraph.def_path, a.submit_line)
           (b.func.Callgraph.def_path, b.submit_line))

let edges f = List.length f.chain - 1

let pp_chain ppf f =
  Format.fprintf ppf "%s"
    (String.concat " → " (List.map (fun h -> h.name) f.chain))

let message f =
  Format.asprintf
    "Pool task reaches %s state %s — tasks run concurrently on many \
     domains, so the effect is scheduling-order dependent: %a (witness: %s)"
    (cls_name f.cls) f.source pp_chain f
    (String.concat " → "
       (List.map
          (fun h -> Printf.sprintf "%s:%d" h.hop_path h.hop_line)
          f.chain))
