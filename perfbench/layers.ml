(* Measurement plumbing: clocks, sample statistics, the traced run's
   in-memory spans, and counter deltas read from the program's [Obs]
   registry.  Spans are recorded only from benchmark code, around calls
   into each layer's public functions; nothing is added inside the
   library. *)

let now = Obs.now_s

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU time the hypervisor gave to other guests while this machine's
   CPUs were ready to run ("steal"), summed over all CPUs, in seconds,
   for the fingerprint: field 8 of the cpu line of /proc/stat, in
   USER_HZ = 100 ticks per second.  0 where /proc/stat is not
   readable. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      (match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          float_of_string (List.nth fields 7) /. 100.
      | _ -> 0.)

(* {1 Busiest-thread time}

   A facade call is timed by the CPU time of the busiest thread of this
   process over the call: the time of its critical path when its work
   runs on one thread, or is spread evenly over the pool's domains.  A
   thread's CPU clock leaves out the time it waited for a CPU, whether
   other processes held the CPU or (with paravirtual time accounting)
   the hypervisor ran other guests, so the figure does not move with the
   load on the machine the way wall time does.  Unlike the process's
   total CPU time it falls when work is split over more domains. *)

external thread_cpu_s : int -> float = "perfbench_thread_cpu_s"

(* The CPU time of every thread of this process, by thread id. *)
let thread_times () =
  Array.to_list (Sys.readdir "/proc/self/task")
  |> List.filter_map (fun name ->
         let tid = int_of_string name in
         let t = thread_cpu_s tid in
         if t < 0. then None else Some (tid, t))

(* The largest CPU time any one thread spent between two readings; a
   thread started in between counts from 0. *)
let busiest before after =
  List.fold_left
    (fun acc (tid, t1) ->
      let t0 = Option.value ~default:0. (List.assoc_opt tid before) in
      Float.max acc (t1 -. t0))
    0. after

(* [critical f] is [(f (), busiest-thread seconds)]. *)
let critical f =
  let before = thread_times () in
  let r = f () in
  (r, busiest before (thread_times ()))

(* [timed f] is [(f (), wall seconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [phase name f] runs one stage of a run and logs its wall time on
   stderr, so an operator can see where a run's time went. *)
let phase name f =
  let r, dt = timed f in
  Printf.eprintf "perfbench: %s %.3f s\n%!" name dt;
  r

(* Linear-interpolation quantile of a sample, 0 for an empty one (the
   same rule as Python's statistics.quantiles 'inclusive' method). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* {1 Spans}

   One record per call into a layer: name, start, end and the enclosing
   span.  Kept in memory and written as JSON when the run ends. *)

type span = { id : int; parent : int; name : string; t0 : float; mutable t1 : float }

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let tracing = ref false

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; parent; name; t0 = now (); t1 = nan } in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

let write_spans file =
  let oc = open_out file in
  output_string oc "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.9f, \"end_s\": %.9f}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.name s.t0 s.t1)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* {1 Counter deltas}

   The program's own work counters, read by name from the [Obs] registry
   before and after a facade call. *)

let counted =
  [
    "bfs.searches";
    "bfs.edges_scanned";
    "bfs.nodes_scanned";
    "dijkstra.runs";
    "lbc.calls";
    "lbc.yes";
    "lbc.bfs_rounds";
    "pool.regions";
    "dynamic.inserts";
    "dynamic.deletes.edges";
    "dynamic.deletes.vertices";
    "dynamic.repair.touched_vertices";
    "dynamic.repair.rechecks";
    "dynamic.repair.readded";
    "dynamic.repair.shed";
  ]

let counters = List.map (fun name -> (name, Obs.counter name)) counted

(* A scope accumulates counter deltas over every call wrapped by
   [counting scope]. *)
let counting scope f =
  let before = List.map (fun (_, c) -> Obs.Counter.value c) counters in
  Fun.protect f ~finally:(fun () ->
      List.iter2
        (fun (name, c) v0 ->
          let d = Obs.Counter.value c - v0 in
          Hashtbl.replace scope name
            (d + Option.value ~default:0 (Hashtbl.find_opt scope name)))
        counters before)

let delta scope name = Option.value ~default:0 (Hashtbl.find_opt scope name)

let busy_s pool =
  let total = ref 0. in
  for w = 0 to Exec.Pool.size pool - 1 do
    total := !total +. Obs.Timer.total_s (Obs.timer (Printf.sprintf "pool.busy.%d" w))
  done;
  !total
