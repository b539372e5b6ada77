(** Facade: one entry point over every spanner construction in the library.

    Use this module when you just want a fault-tolerant spanner and a
    uniform way to compare algorithms; drop down to the per-algorithm
    modules ({!Poly_greedy}, {!Exp_greedy}, {!Dk11}, {!Baswana_sen},
    {!Classic_greedy}) for their specific options. *)

type algorithm =
  | Greedy_poly  (** Algorithms 3/4 — the paper's contribution (default) *)
  | Greedy_exponential  (** Algorithm 1 — BDPW18/BP19 baseline *)
  | Dinitz_krauthgamer  (** DK11 reduction over Baswana-Sen *)
  | Baswana_sen_union
      (** DK11 with explicit Baswana-Sen — alias of [Dinitz_krauthgamer],
          kept for CLI discoverability *)

val algorithm_name : algorithm -> string
val all_algorithms : algorithm list

(** [uses_pool a] is [true] when [a] fans work out over
    [options.pool] ({!Dinitz_krauthgamer}, {!Baswana_sen_union}); the
    greedy algorithms are sequential, so a caller need not open a pool
    for them. *)
val uses_pool : algorithm -> bool

type params = {
  k : int;  (** stretch parameter: the spanner has stretch [2k - 1] *)
  f : int;  (** number of faults tolerated *)
  mode : Fault.mode;
}

(** [stretch params] is [2k - 1] as a float. *)
val stretch : params -> float

(** Execution options, threaded through {!build} so every facade caller
    (CLI, bench, examples) passes the same knobs.

    - [order]: edge processing order for the greedy family ([None] = the
      algorithm's default, nondecreasing weight);
    - [pool]: a persistent {!Exec.Pool.t}.  [Dinitz_krauthgamer] and
      [Baswana_sen_union] fan their independent iterations out over it;
      the greedy algorithms are sequential and ignore it.

    The pool changes speed, never output: every algorithm returns the
    same selection with or without a pool, at every pool size.
    [Greedy_poly] is always the exact sequential greedy,
    {!Poly_greedy.build}. *)
type options = { order : Engine.order option; pool : Exec.Pool.t option }

(** [default_options] is [{order = None; pool = None}] — the sequential
    build. *)
val default_options : options

(** [options ?order ?batch ?pool ()] builds an options record from the
    defaults.  [batch] is the greedy's decision block size; only [1],
    the sequential greedy, exists, and any other value raises
    [Invalid_argument]. *)
val options :
  ?order:Engine.order -> ?batch:int -> ?pool:Exec.Pool.t -> unit -> options

(** [build ?rng ?algorithm ?options params g] constructs an
    f-fault-tolerant (2k-1)-spanner of [g].  [rng] is required only by
    randomized algorithms (defaults to a fixed seed); [options] defaults
    to {!default_options} (the sequential build). *)
val build :
  ?rng:Rng.t ->
  ?algorithm:algorithm ->
  ?options:options ->
  params ->
  Graph.t ->
  Selection.t

type summary = {
  algorithm : string;
  params : params;
  n : int;
  m_source : int;
  m_spanner : int;
  weight_source : float;
  weight_spanner : float;
  bound_ratio : float;
      (** spanner size divided by the paper's size bound for that
          algorithm — flat across [n] when the shape matches *)
}

(** [summarize ~algorithm params sel] computes the comparison record the
    experiment tables print. *)
val summarize : algorithm:algorithm -> params -> Selection.t -> summary

val pp_summary : Format.formatter -> summary -> unit
