module H = Radio_drip.History

type event =
  | E_silence
  | E_message of string
  | E_collision

let equal_event e1 e2 =
  match (e1, e2) with
  | E_silence, E_silence | E_collision, E_collision -> true
  | E_message m1, E_message m2 -> String.equal m1 m2
  | E_silence, _ | E_message _, _ | E_collision, _ -> false

let entry_of_event = function
  | E_silence -> H.Silence
  | E_message m -> H.Message m
  | E_collision -> H.Collision

let pp_event ppf = function
  | E_silence -> Format.pp_print_string ppf "silence"
  | E_message m -> Format.fprintf ppf "message %S" m
  | E_collision -> Format.pp_print_string ppf "collision"

module Intern = struct
  type key = int

  type t = {
    fwd : (int * event, key) Hashtbl.t;
    mutable parents : int array;  (* index key - 1 *)
    mutable events : event array;  (* index key - 1 *)
    mutable next : key;
  }

  let create () =
    {
      fwd = Hashtbl.create 1024;
      parents = Array.make 64 0;
      events = Array.make 64 E_silence;
      next = 1;
    }

  let ensure_capacity t =
    if t.next - 1 >= Array.length t.parents then begin
      let cap = 2 * Array.length t.parents in
      let parents = Array.make cap 0 in
      let events = Array.make cap E_silence in
      Array.blit t.parents 0 parents 0 (Array.length t.parents);
      Array.blit t.events 0 events 0 (Array.length t.events);
      t.parents <- parents;
      t.events <- events
    end

  let get t parent event =
    match Hashtbl.find_opt t.fwd (parent, event) with
    | Some k -> k
    | None ->
        let k = t.next in
        t.next <- k + 1;
        ensure_capacity t;
        t.parents.(k - 1) <- parent;
        t.events.(k - 1) <- event;
        Hashtbl.replace t.fwd (parent, event) k;
        k

  let size t = t.next - 1
  let parent t k = t.parents.(k - 1)
  let event t k = t.events.(k - 1)

  let depth t k =
    let rec go k acc = if k = 0 then acc else go (parent t k) (acc + 1) in
    go k 0

  let history t k =
    let len = depth t k in
    let h = Array.make len H.Silence in
    let rec fill k i =
      if k <> 0 then begin
        h.(i) <- entry_of_event (event t k);
        fill (parent t k) (i - 1)
      end
    in
    fill k (len - 1);
    h
end

type t = int array

let initial n : t = Array.make n 0

let compare_states (a : t) (b : t) =
  match Int.compare (Array.length a) (Array.length b) with
  | 0 ->
      let rec go i =
        if i = Array.length a then 0
        else
          match Int.compare a.(i) b.(i) with
          | 0 -> go (i + 1)
          | c -> c
      in
      go 0
  | c -> c

let compare = compare_states
let equal a b = compare_states a b = 0
let is_asleep (s : t) v = s.(v) = 0
let is_awake (s : t) v = s.(v) > 0
let is_terminated (s : t) v = s.(v) < 0
let all_terminated (s : t) = Array.for_all (fun k -> k < 0) s
let none_awake (s : t) = Array.for_all (fun k -> k <= 0) s
let key (s : t) v = abs s.(v)

let encode ~round_class (s : t) =
  let b = Buffer.create ((4 * Array.length s) + 8) in
  Buffer.add_string b (string_of_int round_class);
  Array.iter
    (fun k ->
      Buffer.add_char b '.';
      Buffer.add_string b (string_of_int k))
    s;
  Buffer.contents b

let permute (phi : int array) (s : t) : t =
  let n = Array.length s in
  let out = Array.make n 0 in
  for v = 0 to n - 1 do
    out.(phi.(v)) <- s.(v)
  done;
  out

(* A quotient group in the form [canonicalize] reads: the inverse of each
   automorphism, so candidate [permute phi s] can be compared position by
   position ([permute phi s].(u) = s.(phi^-1 u)) without building it. *)
type group = int array array

let group autos : group =
  Array.of_list
    (List.map
       (fun phi ->
         let inv = Array.make (Array.length phi) 0 in
         Array.iteri (fun v w -> inv.(w) <- v) phi;
         inv)
       autos)

let canonicalize (group : group) (s : t) ~(into : t) =
  let n = Array.length s in
  Array.blit s 0 into 0 n;
  for i = 0 to Array.length group - 1 do
    let inv = group.(i) in
    (* First position where the candidate differs from the best so far;
       if it is smaller there, the candidate's tail replaces the best's
       (their prefixes agree). *)
    let u = ref 0 in
    while !u < n && s.(inv.(!u)) = into.(!u) do
      incr u
    done;
    if !u < n && s.(inv.(!u)) < into.(!u) then
      for w = !u to n - 1 do
        into.(w) <- s.(inv.(w))
      done
  done

(* Bit-packed state codes.  The explorer's visited set stores millions of
   states, so the per-state key must be compact and allocation-free on the
   hot path: a code is a run of LEB128 varints — round class, crash budget
   spent, then one zigzag-mapped varint per node slot — written straight
   into a caller-supplied byte buffer (the visited set's arena).  Small
   keys (the common case: slot magnitudes follow the interner's dense
   first-seen ids) pack to one byte per node. *)
module Packed = struct
  (* radiolint: allow range-overflow -- zigzag wraps the top bit by
     design; unzigzag inverts it exactly *)
  let zigzag k = (k lsl 1) lxor (k asr (Sys.int_size - 1))
  let unzigzag u = (u lsr 1) lxor (-(u land 1))

  (* radiolint: allow range-overflow -- n is the node-slot count, tens at
     most; the product cannot approach an int *)
  let max_bytes ~n = 10 * (n + 2)

  let write_varint buf pos u =
    let pos = ref pos in
    let u = ref u in
    while !u land lnot 0x7f <> 0 do
      (* radiolint: allow range-index -- pos advances at most 10 bytes per
         varint and callers size the buffer with max_bytes *)
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
      incr pos;
      u := !u lsr 7
    done;
    (* radiolint: allow range-index -- terminator byte of the same bound;
       the loop exit proves u <= 0x7f, so the mask is the identity *)
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (!u land 0x7f));
    !pos + 1

  let read_varint buf pos =
    let pos = ref pos in
    let shift = ref 0 in
    let u = ref 0 in
    let continue = ref true in
    while !continue do
      (* radiolint: allow range-index -- pos stays within the code: every
         byte but the last has bit 7 set and codes end with a terminator
         by construction *)
      let b = Char.code (Bytes.unsafe_get buf !pos) in
      incr pos;
      (* radiolint: allow range-overflow -- shift grows by 7 up to 63 for
         the at-most-10-byte varints write_varint emits *)
      u := !u lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    (!u, !pos)

  let write buf ~pos ~round_class ~spent (s : t) =
    let pos = write_varint buf pos round_class in
    let pos = write_varint buf pos spent in
    let pos = ref pos in
    for v = 0 to Array.length s - 1 do
      pos := write_varint buf !pos (zigzag (Array.unsafe_get s v))
    done;
    !pos

  let pack ~round_class ~spent (s : t) =
    let buf = Bytes.create (max_bytes ~n:(Array.length s)) in
    let len = write buf ~pos:0 ~round_class ~spent s in
    Bytes.sub buf 0 len

  (* Decode in one loop over the code's fields (round class, spent, then
     the slots), so no varint returns a [(value, pos)] pair: the
     explorer unpacks every frontier entry without allocating. *)
  let read_into buf ~pos (into : t) =
    let n = Array.length into in
    let pos = ref pos in
    let spent = ref 0 in
    for field = 0 to n + 1 do
      let u = ref 0 in
      let shift = ref 0 in
      let continue = ref true in
      while !continue do
        (* radiolint: allow range-index -- the same varint walk as
           read_varint, over a code written by write *)
        let b = Char.code (Bytes.unsafe_get buf !pos) in
        incr pos;
        (* radiolint: allow range-overflow -- shift stays below 70 for the
           at-most-10-byte varints write emits *)
        u := !u lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        continue := b land 0x80 <> 0
      done;
      if field = 1 then spent := !u
      else if field >= 2 then into.(field - 2) <- unzigzag !u
    done;
    !spent

  let unpack ~n code =
    let s = Array.make n 0 in
    let spent = read_into code ~pos:0 s in
    (fst (read_varint code 0), spent, s)
end

let classes (s : t) =
  let n = Array.length s in
  let seen = Array.make n false in
  let acc = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let members = ref [] in
      for w = n - 1 downto v do
        if s.(w) = s.(v) then begin
          seen.(w) <- true;
          members := w :: !members
        end
      done;
      acc := !members :: !acc
    end
  done;
  List.rev !acc

let pp ppf (s : t) =
  Format.fprintf ppf "@[<h>[";
  Array.iteri
    (fun v k ->
      if v > 0 then Format.pp_print_string ppf " ";
      if k = 0 then Format.pp_print_string ppf "zzz"
      else if k > 0 then Format.fprintf ppf "+%d" k
      else Format.fprintf ppf "-%d" (-k))
    s;
  Format.fprintf ppf "]@]"
