(* The ftspan benchmark: seeded inputs, four workloads through the public
   facades (Spanner.build, Dynamic.apply / Dynamic.query_batch, Verify),
   output checks, and one JSON result line.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with no benchmark-side
   tracing; --trace 1 is a separate run that reports the per-layer
   metrics.  Metric and workload names must match BENCHMARK.json;
   perfbench/run.py builds this program and checks that they do. *)

open Layers

let k = 2
let f = 2
let stretch = float_of_int ((2 * k) - 1)

(* Set-up is repeated and its median reported, so one slow load does
   not move setup_s (see [setup]). *)
let setup_reps = 5
let setup_budget_s = 2.5

(* One executor for every facade that takes one: min(nproc, 2) domains. *)
let pool_domains = min (Domain.recommended_domain_count ()) 2
let pool = lazy (Exec.Pool.create ~domains:pool_domains ())

(* Self-test hook: replace every output by the empty spanner before it is
   checked, so the checks must fail. *)
let corrupt = ref false

let checked_selection (sel : Selection.t) =
  if !corrupt then Selection.of_ids sel.source [] else sel

(* {1 Inputs}

   Each workload's input graph, drawn from the seed.  Sizes are chosen so
   one facade call takes at most about a second, and a run repeats it
   many times. *)

let dynamic_n = 4000
let dynamic_degree = 10.

let input_graph workload st =
  match workload with
  | "build-dense" -> Inputs.connected_gnp st ~n:500 ~p:0.2
  | "build-geo" -> fst (Inputs.geometric st ~n:10_000 ~avg_degree:20.)
  | "dynamic-mixed" -> fst (Inputs.geometric st ~n:dynamic_n ~avg_degree:dynamic_degree)
  | "verify-battery" -> Inputs.connected_gnp st ~n:400 ~p:0.1
  | w -> invalid_arg ("input_graph: " ^ w)

let input_name workload seed = Printf.sprintf "%s-seed%d" workload seed

(* The input is generated by a child process (this program with
   --generate), so generation leaves nothing in this process's heap peak
   or caches.  Returns the ftspan.graph.v1 file it wrote. *)
let input_file workload seed =
  let self = Sys.executable_name in
  let pid =
    Unix.create_process self
      [| self; "--generate"; "--workload"; workload; "--seed"; string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Inputs.path (input_name workload seed)
  | _ -> failwith "perfbench: input generation failed"

(* {1 Result} *)

let metrics : (string * (float * string)) list ref = ref []
let emit name unit_ value = metrics := (name, (value, unit_)) :: !metrics

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "-1"

let print_result () =
  let body =
    List.rev_map
      (fun (name, (v, u)) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) u)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!Checks.failed = 0) (max 1 !Checks.attempted) !Checks.failed
    (String.concat ", " body)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The heap's high-water mark after set-up and the first repetition:
   what doing the workload's work once takes.  Read there rather than at
   the end, so it does not grow with the number of repetitions that fit
   in the run. *)
let heap_peak_mb = ref 0.

(* {1 Shared phases} *)

(* The storage backend [Graph_io.load] chose, for the fingerprint. *)
let loaded_backend = ref (Csr.default_backend ())

(* The median set-up time, emitted with the end-to-end metrics once the
   run's machine speed is known. *)
let setup_s = ref 0.

(* [setup ~extra file] loads the generated graph, each load followed by
   [extra] (e.g. [Dynamic.create]), at least [setup_reps] times and until
   [setup_budget_s] is spent, and reports the median as setup_s: a
   sub-millisecond load gets hundreds of samples.  Each step is timed by
   its busiest thread ([Layers.critical]).  Returns the last load and the
   last [extra] result, the median load alone, and the file size. *)
let setup ~extra file =
  let loads = ref [] and totals = ref [] and last = ref None in
  let started = now () and reps = ref 0 in
  while !reps < setup_reps || (now () -. started < setup_budget_s && !reps < 500) do
    incr reps;
    last := None;
    Gc.compact ();
    let g, load_s = critical (fun () -> span "graph_io.load" (fun () -> Graph_io.load file)) in
    let x, extra_s = critical (fun () -> extra g) in
    loads := load_s :: !loads;
    totals := (load_s +. extra_s) :: !totals;
    last := Some (g, x);
    loaded_backend := Graph.backend g
  done;
  setup_s := median !totals;
  let bytes = (Unix.stat file).Unix.st_size in
  Sys.remove file;
  (Option.get !last, median !loads, bytes)

let half_edge_bytes = function
  | Csr.Int_array -> 2 * (Sys.word_size / 8)
  | Csr.Int32_bigarray -> 8

(* The spanner facade, configured the same way on every workload. *)
let facade_build ~mode g =
  let options = Spanner.options ~batch:1 ~pool:(Lazy.force pool) () in
  span "spanner.build" (fun () -> Spanner.build ~options { Spanner.k; f; mode } g)

(* Wall, CPU and pool-busy seconds summed over the facade calls a
   workload measures. *)
type meter = { mutable wall : float; mutable cpu : float; mutable busy : float }

let meter () = { wall = 0.; cpu = 0.; busy = 0. }

(* [metered mt f] is [critical f], also adding the call's wall, CPU and
   pool-busy time to [mt]. *)
let metered mt f =
  let busy0 = busy_s (Lazy.force pool) and cpu0 = cpu_s () in
  let (r, dt), wall = timed (fun () -> critical f) in
  mt.wall <- mt.wall +. wall;
  mt.cpu <- mt.cpu +. (cpu_s () -. cpu0);
  mt.busy <- mt.busy +. (busy_s (Lazy.force pool) -. busy0);
  (r, dt)

(* Counter deltas are taken on the first repetition only, so counts do
   not depend on how many repetitions fit in the run. *)
let first_rep_counted rep scope f = if rep = 0 then counting scope f else f ()

(* {1 Per-layer probe of the greedy build}

   Run on every workload's source graph in the traced run: the facade
   build, the sequential [Poly_greedy.build] without a pool, a replica
   build that calls [Engine.ordered_edges] and then [Engine.run] with a
   decider wrapping each [Lbc.decide] exactly as [Poly_greedy] does, and
   the facade build with [Obs] collection off.  Each is timed by its
   fastest of [probe_reps] runs; counters are read on a first, separate
   facade build.  Returns that build's counter deltas and meter. *)

let probe_reps = 3

(* [fastest f] runs [f] [probe_reps] times and returns the result and
   wall time of the fastest run. *)
let fastest f =
  let best = ref None in
  for _ = 1 to probe_reps do
    let r, dt = timed f in
    match !best with Some (_, b) when b <= dt -> () | _ -> best := Some (r, dt)
  done;
  Option.get !best

(* One replica build: the selection, the order and run times, and the
   duration of every [Lbc.decide] call in microseconds. *)
let replica_build ~mode g =
  span "replica.build" @@ fun () ->
  let t = (2 * k) - 1 in
  let decide_us = Array.make (Graph.m g) 0. in
  let ws = Lbc.Workspace.create () in
  let decide h edges decisions lo hi =
    for i = lo to hi - 1 do
      let e = edges.(i) in
      let t0 = now () in
      (match
         Lbc.decide ~ws ~edge:e.Graph.id ~mode h ~u:e.Graph.u ~v:e.Graph.v ~t ~alpha:f
       with
      | Lbc.Yes { cut } -> decisions.(i) <- Engine.Keep { cut }
      | Lbc.No _ -> ());
      decide_us.(i) <- (now () -. t0) *. 1e6
    done
  in
  let edges, order_s =
    timed (fun () ->
        span "engine.ordered_edges" (fun () -> Engine.ordered_edges Engine.By_weight g))
  in
  let perm = Array.map (fun e -> e.Graph.id) edges in
  let res, run_s =
    timed (fun () ->
        span "engine.run" (fun () -> Engine.run ~order:(Engine.Explicit perm) ~decide g))
  in
  (res.Engine.selection, order_s, run_s, decide_us)

let build_probe ~mode g =
  let m = Graph.m g in
  let facade = Hashtbl.create 16 and mt = meter () in
  let minor0 = Gc.minor_words () in
  let sel, _ = metered mt (fun () -> counting facade (fun () -> facade_build ~mode g)) in
  let minor_words = Gc.minor_words () -. minor0 in
  let _, facade_s = fastest (fun () -> facade_build ~mode g) in
  let seq_sel, seq_s =
    fastest (fun () -> span "poly_greedy.build" (fun () -> Poly_greedy.build ~mode ~k ~f g))
  in
  let replica = Hashtbl.create 16 in
  ignore (counting replica (fun () -> replica_build ~mode g));
  let (rep_sel, order_s, run_s, decide_us), replica_s =
    fastest (fun () -> replica_build ~mode g)
  in
  Obs.set_enabled false;
  let _, obs_off_s = fastest (fun () -> facade_build ~mode g) in
  Obs.set_enabled true;
  let same = Checks.digest rep_sel = Checks.digest sel in
  Checks.record "replica build selection equals Spanner.build" same;
  Checks.record "Poly_greedy.build selection equals Spanner.build"
    (Checks.digest seq_sel = Checks.digest sel);
  let us = Array.to_list decide_us in
  let decide_s = sum us /. 1e6 in
  (* The time split is reported only when the replica reproduced the
     facade's output; otherwise it reads -1 (unavailable). *)
  let split v = if same then v else -1. in
  let calls = float_of_int (delta facade "lbc.calls") in
  emit "lbc.calls_per_edge" "ratio" (ratio calls (float_of_int m));
  emit "lbc.bfs_rounds_per_call" "ratio"
    (ratio (float_of_int (delta facade "lbc.bfs_rounds")) calls);
  emit "lbc.yes_ratio" "ratio" (ratio (float_of_int (delta facade "lbc.yes")) calls);
  emit "lbc.decide_s" "s" (split decide_s);
  emit "lbc.decide_us_p50" "us" (split (median us));
  emit "lbc.decide_us_p99" "us" (split (quantile us 0.99));
  emit "lbc.ns_per_edge_scanned" "ns"
    (split (ratio (decide_s *. 1e9) (float_of_int (delta replica "bfs.edges_scanned"))));
  emit "engine.order_s" "s" (split order_s);
  emit "engine.commit_s" "s" (split (run_s -. decide_s));
  emit "exec.speedup_vs_sequential" "ratio" (ratio seq_s facade_s);
  emit "obs.overhead_ratio" "ratio" (ratio facade_s obs_off_s);
  emit "trace.overhead_ratio" "ratio" (ratio replica_s seq_s);
  emit "gc.minor_words_per_edge" "ratio" (ratio minor_words (float_of_int m));
  (facade, mt)

(* Work counters, CPU and pool busy time over the workload's measured
   facade calls ([scope]), plus graph-level figures. *)
let emit_layer_counts ~scope ~meter:mt ~m ~scan_backend ~load_s ~file_bytes g =
  let d name = float_of_int (delta scope name) in
  emit "graph_io.load_s" "s" load_s;
  emit "graph_io.file_bytes" "bytes" (float_of_int file_bytes);
  emit "csr.resident_bytes" "bytes" (float_of_int (Graph.resident_bytes g));
  emit "csr.computed_bytes_scanned" "bytes"
    (d "bfs.edges_scanned" *. float_of_int (half_edge_bytes scan_backend));
  emit "bfs.searches" "count" (d "bfs.searches");
  emit "bfs.edges_scanned" "count" (d "bfs.edges_scanned");
  emit "bfs.nodes_scanned" "count" (d "bfs.nodes_scanned");
  emit "bfs.edges_scanned_per_edge" "ratio" (ratio (d "bfs.edges_scanned") (float_of_int m));
  emit "exec.cpu_over_wall" "ratio" (ratio mt.cpu mt.wall);
  emit "exec.busy_ratio" "ratio" (ratio mt.busy (mt.wall *. float_of_int pool_domains));
  emit "exec.regions" "count" (d "pool.regions")

let zeros names = List.iter (fun (name, u) -> emit name u 0.) names

let dynamic_layer_names =
  [
    ("dynamic.repair.touched_vertices", "count");
    ("dynamic.repair.rechecks", "count");
    ("dynamic.repair.readded", "count");
    ("dynamic.repair.shed", "count");
    ("dynamic.repair.readd_ratio", "ratio");
    ("dynamic.lbc_calls_per_op", "ratio");
    ("dynamic.apply_ms_p50", "ms");
    ("dynamic.apply_ms_p90", "ms");
    ("dynamic.snapshot_ms_p50", "ms");
    ("dynamic.query_ms_p50", "ms");
    ("dynamic.query_ms_p90", "ms");
  ]

let verify_layer_names =
  [
    ("verify.adversarial_ms_per_fault_set", "ms");
    ("verify.random_ms_per_fault_set", "ms");
    ("verify.profile_ms_per_fault_set", "ms");
    ("verify.bfs_searches_per_fault_set", "ratio");
  ]

(* {1 Workloads}

   A run repeats identical work until [--seconds] have passed: the same
   build, the same script of dynamic rounds, the same verify battery
   cycle.  Each facade call is timed by its busiest thread
   ([Layers.critical]): on a shared host the hypervisor takes CPU time
   from this machine in bursts of tens of seconds ("steal"), which
   stretches wall times by up to 2x but leaves thread CPU clocks alone.
   Each distinct call is reported by the median of its repetitions.
   Every repetition's output is checked. *)

(* Repetition times of each distinct facade call of a workload. *)
let samples n = Array.make n []

let medians samples = Array.map median samples

(* {2 Machine speed}

   A shared host also runs the same code faster or slower from second to
   second, CPU clocks and all: another guest on the sibling hardware
   thread, or the package's clock speed, moves it by up to a third.  So
   between facade calls the run times [Reference.run], a fixed
   computation that depends neither on the seed nor on the program, and
   every end-to-end time is scaled by [reference_nominal_s] over the
   run's median reference time: it reads as the time on a machine where
   the reference takes [reference_nominal_s].

   The verify batteries keep both pool domains busy, and two busy
   domains do not speed up and slow down as one does (they may share a
   core), so that workload runs the reference's searches spread over
   the pool one source at a time, as the batteries spread their fault
   sets ([pooled_reference]). *)

let pooled_reference = ref false
let reference_nominal_s () = if !pooled_reference then 0.015 else 0.028
let reference_times = ref []

let pooled_scratch =
  lazy (Exec.Worker_local.create (Lazy.force pool) (fun _ -> Reference.scratch ()))

let reference () =
  if not !pooled_reference then ignore (Reference.run ())
  else
    let scratch = Lazy.force pooled_scratch in
    Exec.parallel_for (Lazy.force pool) ~chunk:1 ~lo:0 ~hi:Reference.sources
      (fun ~worker lo hi ->
        ignore (Reference.run_sources (Exec.Worker_local.get scratch ~worker) lo hi))

let last_reference = ref neg_infinity

(* Times the reference if half a second has passed since it was last
   timed.  Called after every facade call, so the reference samples the
   machine's speed evenly over the run, as the calls do. *)
let time_reference () =
  if now () -. !last_reference >= 0.5 then begin
    let (), dt = critical reference in
    reference_times := dt :: !reference_times;
    last_reference := now ()
  end

let at_nominal_speed t = t *. reference_nominal_s () /. median !reference_times

(* [timed_loop ~seconds step] calls [step i note] (i from 0) at least
   twice and then as long as the next call should end within [seconds].
   [note samples j dt] adds the time [dt] of facade call [j] to
   [samples], except in repetition 0, a warm-up, and times the
   reference if it is due. *)
let timed_loop ~seconds step =
  (* builds the fixed graph before any domain reads it *)
  ignore (Reference.run ());
  reference ();
  let deadline = now () +. seconds in
  let i = ref 0 and last_rep_s = ref 0. in
  while !i < 2 || now () +. !last_rep_s < deadline do
    let rep = !i in
    let note samples j dt =
      if rep > 0 then samples.(j) <- dt :: samples.(j);
      time_reference ()
    in
    let (), dt = timed (fun () -> step rep note) in
    if rep = 0 then heap_peak_mb := heap_mb ();
    last_rep_s := dt;
    incr i
  done

(* The end-to-end figures common to every workload: [units] are the
   repetition times of each distinct facade call (one build; each round
   of the dynamic script; each battery), [items] the work items (edges
   decided, ops and queries, fault sets) those calls handle. *)
let emit_calls ~items units =
  let typical = List.map at_nominal_speed (Array.to_list (medians units)) in
  emit "items_per_s" "1/s" (ratio (float_of_int items) (sum typical));
  emit "call_ms" "ms" (median typical *. 1e3)

(* {2 build-dense / build-geo}: repeated [Spanner.build] on one input.
   The first build is the reference output; every later one must repeat
   its selection digest. *)
let build_workload ~name ~mode ~seed ~seconds ~traced =
  let file = phase "generate" (fun () -> input_file name seed) in
  let (g, ()), load_s, file_bytes = phase "setup" (fun () -> setup file ~extra:ignore) in
  let m = Graph.m g in
  let build () = Checks.guard "Spanner.build" (fun () -> facade_build ~mode g) in
  let reference = ref None in
  let check sel =
    match !reference with
    | None -> reference := Some (sel, Checks.digest sel)
    | Some (_, d) -> Checks.record "build selection digest repeats" (Checks.digest sel = d)
  in
  if not traced then begin
    let times = samples 1 in
    phase "measure" (fun () ->
        timed_loop ~seconds (fun _ note ->
            match critical build with
            | Some sel, dt ->
                note times 0 dt;
                check sel
            | None, _ -> ()));
    emit_calls ~items:m times
  end
  else begin
    Option.iter check (build ());
    let scope, mt = phase "build probe" (fun () -> build_probe ~mode g) in
    emit_layer_counts ~scope ~meter:mt ~m ~scan_backend:(Csr.default_backend ()) ~load_s
      ~file_bytes g;
    zeros dynamic_layer_names;
    zeros verify_layer_names
  end;
  (* -1: no build succeeded (the failure is already counted) *)
  let size = match !reference with Some (sel, _) -> sel.Selection.size | None -> -1 in
  if not traced then emit "spanner_edges" "count" (float_of_int size);
  match !reference with
  | None -> ()
  | Some (sel, _) ->
      phase "spot check" (fun () ->
          Checks.spot_check (Inputs.rng ~seed ~salt:2) (checked_selection sel) ~mode ~k ~f
            ~samples:24 ~tries:3)

(* {2 dynamic-mixed}

   One closed-loop client.  Each round applies one update batch, then
   sends one batch of fault-masked queries.  The script of rounds is
   drawn once from the seed by an op generator that keeps its own model
   of the live graph, so the untraced run never calls [Dynamic.snapshot]
   between an apply and the next query batch; each repetition replays
   the script on a fresh handle. *)

type model = {
  pts : Inputs.points;
  retired : bool array;
  adj : (int, unit) Hashtbl.t array;
  slot : (int * int, int) Hashtbl.t;  (* live edge -> index in [live] *)
  mutable live : (int * int) array;
  mutable nlive : int;
}

let key u v = if u < v then (u, v) else (v, u)

let model_add md u v =
  let e = key u v in
  if md.nlive = Array.length md.live then
    md.live <- Array.append md.live (Array.make (max 16 md.nlive) (0, 0));
  md.live.(md.nlive) <- e;
  Hashtbl.replace md.slot e md.nlive;
  md.nlive <- md.nlive + 1;
  Hashtbl.replace md.adj.(u) v ();
  Hashtbl.replace md.adj.(v) u ()

let model_remove md u v =
  let e = key u v in
  let i = Hashtbl.find md.slot e in
  let last = md.live.(md.nlive - 1) in
  md.live.(i) <- last;
  Hashtbl.replace md.slot last i;
  Hashtbl.remove md.slot e;
  md.nlive <- md.nlive - 1;
  Hashtbl.remove md.adj.(u) v;
  Hashtbl.remove md.adj.(v) u

let model_of pts g =
  let n = Graph.n g in
  let md =
    {
      pts;
      retired = Array.make n false;
      adj = Array.init n (fun _ -> Hashtbl.create 8);
      slot = Hashtbl.create (2 * Graph.m g);
      live = [||];
      nlive = 0;
    }
  in
  Graph.iter_edges g (fun e -> model_add md e.Graph.u e.Graph.v);
  md

let rec random_live_vertex st md =
  let x = Random.State.int st (Array.length md.retired) in
  if md.retired.(x) then random_live_vertex st md else x

(* 1-3 deletions of random live edges, 3-5 local inserts (a point within
   1.5 radii, Euclidean weight, so weights arrive in arbitrary order),
   and, if [retire], a vertex retirement.  Retirements set off the
   largest repairs, so the script has a fixed number of them (every
   tenth round) rather than a random one, which would make the work of
   a script vary by a third from seed to seed. *)
let gen_ops st md ~retire =
  let ops = ref [] in
  for _ = 1 to 1 + Random.State.int st 3 do
    if md.nlive > 0 then begin
      let u, v = md.live.(Random.State.int st md.nlive) in
      model_remove md u v;
      ops := Dynamic.Delete_edge { u; v } :: !ops
    end
  done;
  let inserted = ref 0 and tries = ref 0 in
  let want = 3 + Random.State.int st 3 in
  while !inserted < want && !tries < 100 do
    incr tries;
    let u = random_live_vertex st md in
    let cands = ref [] in
    Inputs.iter_near md.pts u ~within:(1.5 *. md.pts.Inputs.radius) (fun v d ->
        if (not md.retired.(v)) && d > 0. && not (Hashtbl.mem md.adj.(u) v) then
          cands := (v, d) :: !cands);
    match !cands with
    | [] -> ()
    | cs ->
        let v, w = List.nth cs (Random.State.int st (List.length cs)) in
        model_add md u v;
        ops := Dynamic.Insert { u; v; w } :: !ops;
        incr inserted
  done;
  if retire then begin
    let x = random_live_vertex st md in
    Hashtbl.iter (fun y () -> model_remove md x y) (Hashtbl.copy md.adj.(x));
    md.retired.(x) <- true;
    ops := Dynamic.Delete_vertex x :: !ops
  end;
  List.rev !ops

let queries_per_batch = 32

(* 2 random vertex faults and [queries_per_batch] pairs of other live
   vertices. *)
let gen_queries st md =
  let a = random_live_vertex st md in
  let rec other x =
    let y = random_live_vertex st md in
    if y = x then other x else y
  in
  let b = other a in
  let rec endpoint () =
    let x = random_live_vertex st md in
    if x = a || x = b then endpoint () else x
  in
  let pairs =
    Array.init queries_per_batch (fun _ ->
        let u = endpoint () in
        let rec pick () =
          let v = endpoint () in
          if v = u then pick () else v
        in
        (u, pick ()))
  in
  (Fault.of_vertices [ a; b ], pairs)

type round = { ops : Dynamic.op list; faults : Fault.t; pairs : (int * int) array }

let script_rounds = 48

(* Sampled answers are compared with [Dijkstra.distances] on the masked
   snapshot. *)
let cross_check st h round (answers : Dynamic.query_result array) =
  let sel = checked_selection (Dynamic.snapshot h) in
  let g = sel.Selection.source in
  let bv, _ = Fault.masks g round.faults in
  let blocked = Checks.spanner_blocked sel [] in
  for _ = 1 to 2 do
    let i = Random.State.int st (Array.length round.pairs) in
    let u, v = round.pairs.(i) in
    let d = Dijkstra.distances ?blocked_vertices:bv ~blocked_edges:blocked g u in
    Checks.record
      (Printf.sprintf "query d(%d,%d) matches Dijkstra on the masked snapshot" u v)
      (Checks.close_enough answers.(i).Dynamic.distance d.(v))
  done

(* The final state, with unit weights: out-of-order weighted inserts void
   the weighted stretch guarantee but keep H a valid hop-spanner. *)
let check_final_state st h =
  let sel = Dynamic.snapshot h in
  let g = sel.Selection.source in
  let unit_g = Graph.create (Graph.n g) in
  Graph.iter_edges g (fun e -> ignore (Graph.add_edge_unit unit_g e.Graph.u e.Graph.v));
  let unit_sel = checked_selection (Selection.of_mask unit_g sel.Selection.selected) in
  Checks.spot_check st unit_sel ~mode:Fault.VFT ~k ~f ~samples:16 ~tries:2;
  let cfg = Verify.config ~pool:(Lazy.force pool) ~trials:1 ~seed:(Random.State.bits st) () in
  match
    Checks.guard "Verify.adversarial" (fun () ->
        Verify.adversarial ~cfg unit_sel ~mode:Fault.VFT ~stretch ~f)
  with
  | Some r -> Checks.record "final dynamic state passes Verify.adversarial" (Verify.ok r)
  | None -> ()

let dynamic_workload ~seed ~seconds ~traced =
  let file = phase "generate" (fun () -> input_file "dynamic-mixed" seed) in
  (* the points the input was drawn from, for local inserts *)
  let pts =
    Inputs.scatter (Inputs.rng ~seed ~salt:1) ~n:dynamic_n ~avg_degree:dynamic_degree
  in
  let opts = Dynamic.opts ~mode:Fault.VFT ~k ~f ~pool:(Lazy.force pool) () in
  let create g = span "dynamic.create" (fun () -> Dynamic.create ~opts g) in
  let (g, h0), load_s, file_bytes = phase "setup" (fun () -> setup file ~extra:create) in
  let script =
    let md = model_of pts g and st = Inputs.rng ~seed ~salt:3 in
    Array.init script_rounds (fun r ->
        let ops = gen_ops st md ~retire:(r mod 10 = 9) in
        let faults, pairs = gen_queries st md in
        { ops; faults; pairs })
  in
  let rounds () = samples script_rounds in
  let round_s = rounds () and apply_s = rounds () in
  let snap_s = rounds () and query_s = rounds () in
  let first_answers = Array.make script_rounds [||] and first_size = ref (-1) in
  let check_st = Inputs.rng ~seed ~salt:4 in
  let apply_scope = Hashtbl.create 16 and scope = Hashtbl.create 16 and mt = meter () in
  let replay rep note h =
    Array.iteri
      (fun r round ->
        let applied, apply_dt =
          metered mt (fun () ->
              first_rep_counted rep scope (fun () ->
                  first_rep_counted rep apply_scope (fun () ->
                      Checks.guard "Dynamic.apply" (fun () ->
                          span "dynamic.apply" (fun () -> Dynamic.apply h round.ops)))))
        in
        let snap_dt =
          if not traced then 0.
          else
            snd
              (metered mt (fun () ->
                   span "dynamic.snapshot" (fun () -> ignore (Dynamic.snapshot h))))
        in
        let answers, query_dt =
          metered mt (fun () ->
              first_rep_counted rep scope (fun () ->
                  Checks.guard "Dynamic.query_batch" (fun () ->
                      span "dynamic.query_batch" (fun () ->
                          Dynamic.query_batch h ~faults:round.faults round.pairs))))
        in
        note apply_s r apply_dt;
        note snap_s r snap_dt;
        note query_s r query_dt;
        note round_s r (apply_dt +. snap_dt +. query_dt);
        match (applied, answers) with
        | Some _, Some answers when rep = 0 ->
            first_answers.(r) <- answers;
            cross_check check_st h round answers
        | Some _, Some answers ->
            Checks.record "query answers repeat across replays" (answers = first_answers.(r))
        | _ -> ())
      script;
    if rep = 0 then first_size := Dynamic.size h
    else Checks.record "final spanner size repeats across replays" (Dynamic.size h = !first_size)
  in
  (* One handle alive at a time: the previous one is dropped before the
     next is created. *)
  let handle = ref (Some h0) in
  phase "measure" (fun () ->
      timed_loop ~seconds (fun rep note ->
          let h =
            match !handle with
            | Some h when rep = 0 -> h
            | _ ->
                handle := None;
                create g
          in
          replay rep note h;
          handle := Some h));
  if not traced then begin
    let items =
      Array.fold_left (fun acc r -> acc + List.length r.ops + Array.length r.pairs) 0 script
    in
    emit_calls ~items round_s;
    emit "spanner_edges" "count" (float_of_int !first_size)
  end
  else begin
    emit_layer_counts ~scope ~meter:mt ~m:(Graph.m g) ~scan_backend:(Graph.backend g) ~load_s
      ~file_bytes g;
    ignore (phase "build probe" (fun () -> build_probe ~mode:Fault.VFT g));
    let d name = float_of_int (delta apply_scope name) in
    emit "dynamic.repair.touched_vertices" "count" (d "dynamic.repair.touched_vertices");
    emit "dynamic.repair.rechecks" "count" (d "dynamic.repair.rechecks");
    emit "dynamic.repair.readded" "count" (d "dynamic.repair.readded");
    emit "dynamic.repair.shed" "count" (d "dynamic.repair.shed");
    emit "dynamic.repair.readd_ratio" "ratio"
      (ratio (d "dynamic.repair.readded") (d "dynamic.repair.rechecks"));
    emit "dynamic.lbc_calls_per_op" "ratio"
      (ratio (d "lbc.calls")
         (d "dynamic.inserts" +. d "dynamic.deletes.edges" +. d "dynamic.deletes.vertices"));
    let ms a q = quantile (Array.to_list (medians a)) q *. 1e3 in
    emit "dynamic.apply_ms_p50" "ms" (ms apply_s 0.5);
    emit "dynamic.apply_ms_p90" "ms" (ms apply_s 0.9);
    emit "dynamic.snapshot_ms_p50" "ms" (ms snap_s 0.5);
    emit "dynamic.query_ms_p50" "ms" (ms query_s 0.5);
    emit "dynamic.query_ms_p90" "ms" (ms query_s 0.9);
    zeros verify_layer_names
  end;
  phase "final-state check" (fun () ->
      check_final_state (Inputs.rng ~seed ~salt:5) (Option.get !handle))

(* {2 verify-battery}

   Verify.adversarial, then Verify.random, then Verify.profile on one
   shared rng and the pool, over the greedy spanner of G(400, 0.1).  Each
   repetition restarts the rng from the same state, so every cycle checks
   the same fault sets and must report the same figures. *)

let battery_trials = 36

let bfs_tree g =
  let n = Graph.n g in
  let seen = Array.make n false and ids = ref [] in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Graph.iter_neighbors g u (fun v id ->
            if not seen.(v) then begin
              seen.(v) <- true;
              ids := id :: !ids;
              Queue.add v q
            end)
      done
    end
  done;
  Selection.of_ids g !ids

let verify_workload ~seed ~seconds ~traced =
  pooled_reference := true;
  let mode = Fault.VFT in
  let file = phase "generate" (fun () -> input_file "verify-battery" seed) in
  let (g, sel), load_s, file_bytes =
    phase "setup" (fun () ->
        setup file ~extra:(fun g ->
            Option.get (Checks.guard "Spanner.build" (fun () -> facade_build ~mode g))))
  in
  let checked = checked_selection sel in
  let base = Rng.create ~seed in
  let times = samples 3 in
  let scope = Hashtbl.create 16 and mt = meter () in
  let battery rep note cfg i name first run ok =
    let r, dt =
      metered mt (fun () ->
          first_rep_counted rep scope (fun () ->
              Checks.guard name (fun () -> span name (fun () -> run cfg))))
    in
    note times i dt;
    match (r, !first) with
    | None, _ -> ()
    | Some r, None ->
        first := Some r;
        Checks.record (name ^ " accepts the greedy spanner") (ok r)
    | Some r, Some r0 -> Checks.record (name ^ " repeats its figures") (r = r0)
  in
  let adversarial = ref None and random = ref None and profile = ref None in
  let cycle rep note =
    let cfg =
      Verify.config ~pool:(Lazy.force pool) ~trials:battery_trials ~rng:(Rng.copy base) ()
    in
    battery rep note cfg 0 "verify.adversarial" adversarial
      (fun cfg -> Verify.adversarial ~cfg checked ~mode ~stretch ~f)
      Verify.ok;
    battery rep note cfg 1 "verify.random" random
      (fun cfg -> Verify.random ~cfg checked ~mode ~stretch ~f)
      Verify.ok;
    battery rep note cfg 2 "verify.profile" profile
      (fun cfg -> Verify.profile ~cfg checked ~mode ~f)
      (fun p -> p.Verify.worst <= stretch +. 1e-9 && p.Verify.disconnections = 0)
  in
  phase "measure" (fun () -> timed_loop ~seconds cycle);
  let sets = 3 * battery_trials in
  if not traced then begin
    emit_calls ~items:sets times;
    emit "spanner_edges" "count" (float_of_int sel.Selection.size)
  end
  else begin
    emit_layer_counts ~scope ~meter:mt ~m:(Graph.m g) ~scan_backend:(Graph.backend g) ~load_s
      ~file_bytes g;
    ignore (phase "build probe" (fun () -> build_probe ~mode g));
    zeros dynamic_layer_names;
    let per_set i = median times.(i) *. 1e3 /. float_of_int battery_trials in
    emit "verify.adversarial_ms_per_fault_set" "ms" (per_set 0);
    emit "verify.random_ms_per_fault_set" "ms" (per_set 1);
    emit "verify.profile_ms_per_fault_set" "ms" (per_set 2);
    let searches = delta scope "bfs.searches" + delta scope "dijkstra.runs" in
    emit "verify.bfs_searches_per_fault_set" "ratio"
      (ratio (float_of_int searches) (float_of_int sets))
  end;
  let tree = bfs_tree g in
  let cfg = Verify.config ~pool:(Lazy.force pool) ~trials:4 ~seed () in
  match
    Checks.guard "Verify.adversarial" (fun () ->
        Verify.adversarial ~cfg (checked_selection tree) ~mode ~stretch ~f)
  with
  | Some r ->
      Checks.record "planted spanning tree is reported as a violation" (not (Verify.ok r))
  | None -> ()

(* {1 Entry point} *)

let workloads =
  [
    ("build-dense", build_workload ~name:"build-dense" ~mode:Fault.VFT);
    ("build-geo", build_workload ~name:"build-geo" ~mode:Fault.EFT);
    ("dynamic-mixed", dynamic_workload);
    ("verify-battery", verify_workload);
  ]

let fingerprint ~workload ~seed ~traced ~wall ~cpu ~steal =
  Printf.printf
    "{\"fingerprint\": {\"workload\": %S, \"seed\": %d, \"trace\": %b, \"nproc\": %d, \
     \"ocaml\": %S, \"csr_default_backend\": %S, \"csr_loaded_backend\": %S, \
     \"pool_domains\": %d, \"wall_s\": %.6f, \"cpu_s\": %.6f, \"steal_s\": %.2f, \
     \"reference_s\": %.6f}}\n%!"
    workload seed traced
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Csr.backend_name (Csr.default_backend ()))
    (Csr.backend_name !loaded_backend)
    pool_domains wall cpu steal (median !reference_times)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let generate = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--corrupt", Arg.Set corrupt, " self-test: check the empty spanner instead of the output");
      ("--generate", Arg.Set generate, " only write the workload's input file");
    ]
  in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (expected one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "perfbench: --trace must be 0 or 1";
      exit 2
  | Some _ when !generate ->
      Inputs.write
        (input_graph !workload (Inputs.rng ~seed:!seed ~salt:1))
        (input_name !workload !seed)
  | Some run ->
      let traced = !trace = 1 in
      tracing := traced;
      let wall0 = now () and cpu0 = cpu_s () and steal0 = steal_s () in
      run ~seed:!seed ~seconds:!seconds ~traced;
      if not traced then begin
        emit "setup_s" "s" (at_nominal_speed !setup_s);
        emit "heap_peak_mb" "MB" !heap_peak_mb
      end;
      if traced then
        write_spans
          (Filename.concat Inputs.work_dir
             (Printf.sprintf "%s-seed%d-spans.json" !workload !seed));
      Exec.Pool.shutdown (Lazy.force pool);
      fingerprint ~workload:!workload ~seed:!seed ~traced ~wall:(now () -. wall0)
        ~cpu:(cpu_s () -. cpu0) ~steal:(steal_s () -. steal0);
      print_result ();
      exit (if !Checks.failed = 0 then 0 else 1)
