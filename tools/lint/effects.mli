(** Interprocedural effect-and-escape analysis over a {!Callgraph.t}.

    Every definition is classified on the effect lattice

    {v Pure < LocalMut < SharedMut < IO v}

    - [Pure]: no observable effect.
    - [LocalMut]: in-place mutation of state the function allocates or is
      handed ([:=], [incr], [Array.set], [Hashtbl.replace], [Buffer.add_*],
      record-field assignment, ...) — benign inside one domain.
    - [SharedMut]: access (read {e or} write) to a module-level mutable
      binding, or use of the multicore runtime
      ([Domain]/[Atomic]/[Mutex]/[Condition]) — scheduling-order dependent
      once two domains see it.
    - [IO]: channels, printing entry points, [Sys]/[Unix] calls.

    Direct effects are read off each body's references, then propagated
    transitively over call edges (the taint analysis' reverse-edge
    worklist; the lattice is finite and the join monotone, so the fixpoint
    terminates).  Every class above [Pure] carries a witness chain to the
    primitive or mutable binding that caused it.

    The {e escape check} ({!escapes}) enforces the pool's determinism
    contract (docs/PARALLEL.md): everything reachable from a [Pool] task
    closure — the [~f] argument of
    [run_batch]/[map]/[map_array]/[map_reduce]/[iter_batches], which
    runs on worker domains — must stay
    [<= LocalMut].  Barriers, through which
    classes neither originate nor flow: [lib/exec/intern.ml] (local views
    are replayed deterministically at the batch barrier) and functions
    annotated [radiolint: allow effect]. *)

type cls = Pure | Local_mut | Shared_mut | Io

val rank : cls -> int
val join : cls -> cls -> cls
val le : cls -> cls -> bool
val cls_name : cls -> string
(** ["Pure"], ["LocalMut"], ["SharedMut"], ["IO"] — the spelling used in
    fingerprints ([effect:path:Function:class]) and SARIF properties. *)

val cls_of_name : string -> cls option

val rule : string
(** The rule identifier, ["effect"] — also the annotation name that makes
    a function a barrier when placed on its definition. *)

val io_primitive : string list -> bool
val shared_primitive : string list -> bool
val mutation : string list -> bool
(** Direct-effect classification of a flattened longident (exposed for
    tests; {!classify} applies them plus mutable-binding resolution). *)

val intern_exempt : string -> bool
(** The default barrier predicate: paths ending in [lib/exec/intern.ml]. *)

type hop = Dataflow.hop = { name : string; hop_path : string; hop_line : int }

type info = {
  def : Callgraph.def;
  cls : cls;
  chain : hop list;
      (** witness for the class: def, helpers..., the primitive or mutable
          binding — empty when [cls = Pure] *)
}

type finding = {
  func : Callgraph.def;  (** the function submitting the pool task *)
  submit_line : int;  (** the [Pool.<submit>] call site *)
  cls : cls;  (** the class that escaped ([Shared_mut] or [Io]) *)
  chain : hop list;  (** submit site, helpers..., the effect source *)
  source : string;  (** the primitive or mutable binding reached *)
}

val classify : ?exempt:(string -> bool) -> Callgraph.t -> info list
(** Per-function effect classes with witnesses, sorted by definition
    site.  [exempt] defaults to {!intern_exempt}. *)

val escapes : ?exempt:(string -> bool) -> Callgraph.t -> finding list
(** The pool-task escape check: one finding per submitting function whose
    task closure transitively reaches a class above [LocalMut] (the worst
    such class, with its witness chain).  Sorted by definition site. *)

val edges : finding -> int
(** Length of the witness chain in edges. *)

val pp_chain : Format.formatter -> finding -> unit
(** [Oracle.run → Census.note → Census.cache]. *)

val message : finding -> string
(** One-line diagnostic embedding the class, the chain and the per-hop
    [path:line] witness. *)
