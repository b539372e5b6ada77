(** The wire under both network simulators.

    {!Net} (lockstep rounds) and {!Async_net} (event queue) keep only
    their clocks; every decision about a message on a link is made here:
    the directed {!slot}, the causal id and [Msg_send] event, each
    physical copy's fate under {!Chaos}, and the run-long physical load
    per slot behind the skeleton attribution and {!hot_edges}.  Physical
    load counts what crossed the wire — a duplicated copy charges its
    slot twice, a crashed sender's message not at all — in the caller's
    unit: bits on {!Net}, one per copy on {!Async_net}. *)

type t

(** [create ?chaos ~spanner ~other g] is an idle wire over the edges of
    [g]; [spanner] / [other] receive the skeleton attribution. *)
val create :
  ?chaos:Chaos.state ->
  spanner:Obs.Counter.t ->
  other:Obs.Counter.t ->
  Graph.t ->
  t

val chaos : t -> Chaos.state option

(** [slot g ~src ~dst] is [2 * id + dir] for the edge [id = {src,dst}],
    [dir = 0] when [src < dst].  Raises [Invalid_argument] when [src] and
    [dst] are not adjacent. *)
val slot : Graph.t -> src:int -> dst:int -> int

(** [send w ?cid ~slot ~src ~dst ~at ~bits ~on_wire deliver] puts one
    message on [slot] at time [at] and returns its causal id: [cid] if
    given (a retransmit keeps its identity), else a fresh one while
    tracing and [-1] otherwise; while tracing it emits one [Msg_send].
    A sender crashed at [at] loses the message before the wire (nothing
    is charged).  Otherwise each copy charges [bits] to [slot] and runs
    [on_wire ()] (the caller's per-clock load), then is dropped or handed
    to [deliver cid chaos]; a duplication draw may send a second copy
    through the same steps.  The chaos stream is drawn in that order:
    drop, the draws inside [deliver], dup. *)
val send :
  t ->
  ?cid:int ->
  slot:int ->
  src:int ->
  dst:int ->
  at:float ->
  bits:int ->
  on_wire:(unit -> unit) ->
  (int -> Chaos.state option -> unit) ->
  int

(** [set_skeleton w mask] arms spanner-vs-rest attribution ([mask] has one
    flag per edge id): every later copy adds its load to [spanner] or
    [other].  Raises [Invalid_argument] on a size mismatch. *)
val set_skeleton : t -> bool array -> unit

(** [note_round w s]: slot [s] carried traffic in one more round. *)
val note_round : t -> int -> unit

type hot_edge = {
  he_edge : int;  (** edge id in the source graph *)
  he_dir : int;  (** [0] when the sender is the edge's smaller endpoint *)
  he_bits : int;  (** cumulative physical load over the run *)
  he_rounds : int;  (** rounds the slot carried traffic ([0] when async) *)
}

val pp_hot_edge : Format.formatter -> hot_edge -> unit

(** [hot_edges ?top w] is the congestion leaderboard: the [top] (default
    10) busiest slots by cumulative physical load, busiest first, ties
    toward the smaller slot.  Raises [Invalid_argument] on negative
    [top]. *)
val hot_edges : ?top:int -> t -> hot_edge list
