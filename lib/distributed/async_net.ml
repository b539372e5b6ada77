(* Queued events carry their message identity (causal id + endpoints) so
   the run loop can emit the matching Msg_deliver when the handler fires;
   timers use the sentinel endpoints (-1). *)
type ev = { h : unit -> unit; ev_cid : int; ev_src : int; ev_dst : int }

type t = {
  g : Graph.t;
  rng : Rng.t;
  min_delay : float;
  max_delay : float;
  wire : Wire.t;  (* slots, chaos copy fate, run-long physical load *)
  queue : Pqueue.t;
  mutable handlers : ev array;
  mutable handler_count : int;
  mutable clock : float;
  mutable sent : int;
  (* physical message copies per directed slot per 1.0-wide
     simulated-time window, flushed into the net.edge_window_load
     histogram when the clock crosses a boundary *)
  win_msgs : int array;
  mutable win_touched : int list;
  mutable win_id : int;
}

let nop () = ()
let nop_ev = { h = nop; ev_cid = -1; ev_src = -1; ev_dst = -1 }

(* Pending deliveries + timers in the event queue: a level, so a gauge. *)
let g_inflight = Obs.gauge "gauge.net.inflight"

let h_window_load = Obs.histogram "net.edge_window_load"
let m_msgs_spanner = Obs.counter "net.msgs.spanner"
let m_msgs_other = Obs.counter "net.msgs.other"

let create rng ?(min_delay = 0.1) ?(max_delay = 1.0) ?chaos g =
  if min_delay < 0. || max_delay < min_delay then
    invalid_arg "Async_net.create: need 0 <= min_delay <= max_delay";
  {
    g;
    rng;
    min_delay;
    max_delay;
    wire = Wire.create ?chaos ~spanner:m_msgs_spanner ~other:m_msgs_other g;
    queue = Pqueue.create ~capacity:64;
    handlers = Array.make 64 nop_ev;
    handler_count = 0;
    clock = 0.;
    sent = 0;
    win_msgs = Array.make (max 1 (2 * Graph.m g)) 0;
    win_touched = [];
    win_id = 0;
  }

let now net = net.clock
let messages net = net.sent
let max_delay net = net.max_delay

let wire net = net.wire

(* Windows are closed lazily, when a send observes the clock past the
   boundary — simulated time only, so the flush schedule replays
   deterministically. *)
let flush_window net =
  List.iter
    (fun s ->
      Obs.Histogram.observe_int h_window_load net.win_msgs.(s);
      net.win_msgs.(s) <- 0)
    net.win_touched;
  net.win_touched <- []

let push_ev net ~time ev =
  if net.handler_count = Array.length net.handlers then begin
    let bigger = Array.make (2 * net.handler_count) nop_ev in
    Array.blit net.handlers 0 bigger 0 net.handler_count;
    net.handlers <- bigger
  end;
  let idx = net.handler_count in
  net.handlers.(idx) <- ev;
  net.handler_count <- idx + 1;
  Pqueue.push net.queue time idx;
  Obs.Gauge.add g_inflight 1

let push net ~time handler = push_ev net ~time { nop_ev with h = handler }

let at net ~time handler =
  if time < net.clock then invalid_arg "Async_net.at: time is in the past";
  push net ~time handler

(* One physical copy on directed slot [s], into the current window. *)
let charge_window net s =
  let wid = int_of_float net.clock in
  if wid > net.win_id then begin
    flush_window net;
    net.win_id <- wid
  end;
  if net.win_msgs.(s) = 0 then net.win_touched <- s :: net.win_touched;
  net.win_msgs.(s) <- net.win_msgs.(s) + 1

let transmit net ?cid ~src ~dst handler =
  let s = Wire.slot net.g ~src ~dst in
  net.sent <- net.sent + 1;
  (* A surviving copy arrives after the base delay — stretched by a
     spike — unless the destination is down at arrival time.  The delay
     comes from the {e network's} generator; only the fault choices
     consume the chaos stream. *)
  Wire.send net.wire ?cid ~slot:s ~src ~dst ~at:net.clock ~bits:1
    ~on_wire:(fun () -> charge_window net s)
    (fun cid chaos ->
      let delay =
        net.min_delay
        +. Rng.float net.rng (net.max_delay -. net.min_delay +. 1e-12)
      in
      let ev = { h = handler; ev_cid = cid; ev_src = src; ev_dst = dst } in
      match chaos with
      | None -> push_ev net ~time:(net.clock +. delay) ev
      | Some ch ->
          let spike = Chaos.draw_spike ~cid ch ~src ~dst in
          let time = net.clock +. (delay *. spike) in
          if Chaos.crashed ch ~node:dst ~time then
            Chaos.count_crash_drop ~cid ch ~src ~dst
          else push_ev net ~time ev)

let send net ~src ~dst handler = ignore (transmit net ~src ~dst handler)

let run ?(until = infinity) ?(max_events = max_int) net =
  let processed = ref 0 in
  let continue = ref true in
  while !continue && !processed < max_events do
    match Pqueue.pop_min net.queue with
    | None -> continue := false
    | Some (time, idx) ->
        if time > until then begin
          (* put it back for a later run and stop *)
          Pqueue.push net.queue time idx;
          continue := false
        end
        else begin
          net.clock <- max net.clock time;
          incr processed;
          let ev = net.handlers.(idx) in
          net.handlers.(idx) <- nop_ev;
          Obs.Gauge.add g_inflight (-1);
          if ev.ev_src >= 0 && Obs_trace.enabled () then
            Obs_trace.emit
              (Obs_trace.Msg_deliver
                 {
                   cid = ev.ev_cid;
                   src = ev.ev_src;
                   dst = ev.ev_dst;
                   at = net.clock;
                 });
          ev.h ();
          (* one delivered event = one heartbeat operation *)
          Obs_heartbeat.pulse ()
        end
  done;
  !processed
