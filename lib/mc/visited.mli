(** Compact visited set over bit-packed state codes.

    An open-addressing hash table whose keys are plain [int] offsets into
    a growable byte arena of {!State.Packed} codes: linear probing,
    power-of-two capacity, in-place doubling, load factor 1/2.  Both the
    table and the arena are unboxed, so the structure is invisible to the
    GC regardless of how many states it holds — the property that lets
    the explorer's state cap rise from 10^5 to 10^7 (docs/MODELCHECK.md).

    [add] is a single find-or-insert probe: the candidate code is written
    once into the arena tail and either published (fresh) or rolled back
    (duplicate), so membership testing allocates nothing. *)

type t

val create : ?bits:int -> slots:int -> unit -> t
(** [create ~slots ()] is an empty set for states of [slots] nodes;
    [bits] sizes the initial table at [2^bits] slots (default 12). *)

val add : t -> round_class:int -> spent:int -> State.t -> int
(** [add t ~round_class ~spent s] inserts the packed code of [s] and
    returns the new entry's offset ([>= 0]), or returns [-1] if it was
    already present.  Offsets stay valid as the set grows. *)

val read : t -> int -> into:State.t -> int
(** [read t off ~into] unpacks the entry at offset [off] (as returned by
    {!add}) into [into] and returns its crash budget spent; it allocates
    nothing. *)

val mem : t -> round_class:int -> spent:int -> State.t -> bool
(** Membership without insertion. *)

val size : t -> int
(** Number of states held. *)

val memory_bytes : t -> int
(** Current footprint of the table plus the arena, in bytes — monotone,
    so the final value is also the peak. *)

val iter :
  t ->
  slots:int ->
  f:(round_class:int -> spent:int -> State.t -> unit) ->
  unit
(** Visit every entry in insertion order (test / debugging aid; unpacks
    each code). *)
