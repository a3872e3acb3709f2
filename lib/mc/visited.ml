(* Compact visited set for the universal-mode explorer.

   The old representation — a [(string, unit) Hashtbl.t] keyed by the
   decimal encoding of each canonical state — allocates a fresh string
   plus a bucket cell per insertion and probes twice per fresh state
   (mem, then replace).  At millions of states that is hundreds of MB of
   boxed garbage and a GC-bound hot path.

   Here a state's packed code (State.Packed varints) is written once into
   a growable byte arena, and membership is a single open-addressing
   probe over an int-key table of arena offsets:

       table : int array     -- power-of-two capacity, linear probing;
                                slot 0 is "empty", else offset + 1
       arena : Bytes.t       -- [len:2 bytes LE][code bytes] per entry,
                                appended in insertion order

   [add] packs the candidate straight into the arena tail, probes once,
   and either publishes the entry (fresh: record the offset, keep the
   bytes, hand the offset back) or rolls the arena back (duplicate: no
   allocation happened at all).  Offsets stay valid across growth, so the
   explorer's frontier is a plain int array of them ([read] unpacks one).
   Growth doubles in place: the table rebuilds by walking the
   arena sequentially — entries are distinct by construction, so each
   re-probe stops at the first empty slot — and the arena reallocates
   and blits.  Both structures are unboxed, so the GC never traces the
   visited set no matter how large it grows. *)

type t = {
  mutable table : int array;  (* offset + 1; 0 = empty *)
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
  mutable count : int;
  mutable arena : Bytes.t;
  mutable len : int;  (* arena bytes in use *)
  max_code : int;  (* State.Packed.max_bytes for this state width *)
}

let entry_header = 2 (* little-endian code length *)

let create ?(bits = 12) ~slots () =
  let bits = if bits < 3 then 3 else if bits > 48 then 48 else bits in
  let capacity = 1 lsl bits in
  let max_code = State.Packed.max_bytes ~n:slots in
  (* The entry header stores the code length in two little-endian bytes;
     reject state widths whose worst-case code could not round-trip
     through it (cold path: once per explorer run). *)
  if max_code > 0xffff then
    invalid_arg "Visited.create: state width overflows the 2-byte entry header";
  {
    table = Array.make capacity 0;
    mask = capacity - 1;
    count = 0;
    arena = Bytes.create 4096;
    len = 0;
    max_code;
  }

let size t = t.count

let memory_bytes t =
  (8 * Array.length t.table) + Bytes.length t.arena

(* FNV-1a over the code bytes, folded to a non-negative int (the 64-bit
   offset basis masked into OCaml's 63-bit int range). *)
let hash_range buf pos len =
  let h = ref 0x3bf29ce484222325 in
  for i = pos to pos + len - 1 do
    (* radiolint: allow range-index range-overflow -- i spans the entry
       the caller just wrote inside the arena, and the FNV prime multiply
       wraps by design *)
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
  done;
  !h land max_int

let code_len t off =
  (* radiolint: allow range-index -- off is a published entry offset, so
     entry_header + code bytes lie within the arena *)
  let b0 = Char.code (Bytes.unsafe_get t.arena off) in
  (* radiolint: allow range-index -- second header byte of the same entry *)
  let b1 = Char.code (Bytes.unsafe_get t.arena (off + 1)) in
  b0 lor (b1 lsl 8)

let equal_range buf apos bpos len =
  let rec go i =
    i = len
    (* radiolint: allow range-index -- i < len and both ranges were sized
       by their writers inside the arena *)
    || Bytes.unsafe_get buf (apos + i) = Bytes.unsafe_get buf (bpos + i)
       && go (i + 1)
  in
  go 0

(* Insert a known-fresh entry offset during a rebuild: entries are
   pairwise distinct, so the first empty slot is the answer. *)
let place table mask off hash =
  let i = ref (hash land mask) in
  while table.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  table.(!i) <- off + 1

let grow_table t =
  (* radiolint: allow range-overflow -- table doubling; capacity is at
     most twice the entry count, far below an int *)
  let capacity = 2 * (t.mask + 1) in
  let table = Array.make capacity 0 in
  let mask = capacity - 1 in
  let off = ref 0 in
  while !off < t.len do
    let len = code_len t !off in
    place table mask !off (hash_range t.arena (!off + entry_header) len);
    off := !off + entry_header + len
  done;
  t.table <- table;
  t.mask <- mask

let ensure_arena t need =
  if t.len + need > Bytes.length t.arena then begin
    let cap = ref (2 * Bytes.length t.arena) in
    while t.len + need > !cap do
      (* radiolint: allow range-overflow -- arena doubling, bounded by
         allocatable memory *)
      cap := 2 * !cap
    done;
    let arena = Bytes.create !cap in
    Bytes.blit t.arena 0 arena 0 t.len;
    t.arena <- arena
  end

let add t ~round_class ~spent s =
  ensure_arena t (entry_header + t.max_code);
  let start = t.len + entry_header in
  let stop = State.Packed.write t.arena ~pos:start ~round_class ~spent s in
  let len = stop - start in
  let hash = hash_range t.arena start len in
  let i = ref (hash land t.mask) in
  let fresh = ref true in
  let probing = ref true in
  while !probing do
    match t.table.(!i) with
    | 0 -> probing := false
    | entry ->
        let off = entry - 1 in
        if
          code_len t off = len
          && equal_range t.arena (off + entry_header) start len
        then begin
          fresh := false;
          probing := false
        end
        else i := (!i + 1) land t.mask
  done;
  if not !fresh then -1 (* duplicate: arena rolls back *)
  else begin
    let off = t.len in
    (* radiolint: allow range-index -- ensure_arena reserved
       entry_header + max_code bytes past len *)
    Bytes.unsafe_set t.arena t.len (Char.unsafe_chr (len land 0xff));
    (* radiolint: allow range-index range-truncation -- create rejects
       widths whose max_bytes exceed 0xffff, so the high byte fits *)
    Bytes.unsafe_set t.arena (t.len + 1) (Char.unsafe_chr (len lsr 8));
    t.table.(!i) <- t.len + 1;
    t.len <- stop;
    t.count <- t.count + 1;
    (* Load factor 1/2: one resident entry per two slots keeps linear
       probing short without doubling memory over the arena itself. *)
    if 2 * t.count >= t.mask + 1 then grow_table t;
    off
  end

let read t off ~into =
  State.Packed.read_into t.arena ~pos:(off + entry_header) into

let mem t ~round_class ~spent s =
  (* Probe without publishing: pack into the scratch space past [len]
     (the arena always keeps one max-size entry of headroom). *)
  ensure_arena t (entry_header + t.max_code);
  let start = t.len + entry_header in
  let stop = State.Packed.write t.arena ~pos:start ~round_class ~spent s in
  let len = stop - start in
  let hash = hash_range t.arena start len in
  let rec probe i =
    match t.table.(i) with
    | 0 -> false
    | entry ->
        let off = entry - 1 in
        code_len t off = len
        && equal_range t.arena (off + entry_header) start len
        || probe ((i + 1) land t.mask)
  in
  probe (hash land t.mask)

let iter t ~slots ~f =
  let off = ref 0 in
  while !off < t.len do
    let len = code_len t !off in
    let code = Bytes.sub t.arena (!off + entry_header) len in
    let round_class, spent, s = State.Packed.unpack ~n:slots code in
    f ~round_class ~spent s;
    off := !off + entry_header + len
  done
