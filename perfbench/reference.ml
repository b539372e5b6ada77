(* A fixed reference computation: breadth-first searches over one
   random graph that never changes (it depends neither on --seed nor on
   the program under test), written in the benchmark's own code.  Its
   time tracks how fast this machine runs such code at the moment.  All
   its arrays live outside the OCaml heap, so it leaves the program's
   heap figures alone. *)

open Bigarray

let n = 4096
let degree = 32
let sources = 48

let ints len = Array1.create int c_layout len

(* The fixed graph in compressed form: the neighbours of [u] are
   [targets.{offsets.{u}} .. targets.{offsets.{u+1} - 1}].  Its edges
   are drawn twice from the same seed, once to count degrees and once to
   place them. *)
let graph =
  lazy
    (let draw f =
       let st = Random.State.make [| 0x7e5; 0xbf5 |] in
       for u = 0 to n - 1 do
         for _ = 1 to degree / 2 do
           let v = Random.State.int st n in
           if v <> u then f u v
         done
       done
     in
     let offsets = ints (n + 1) in
     Array1.fill offsets 0;
     draw (fun u v ->
         offsets.{u + 1} <- offsets.{u + 1} + 1;
         offsets.{v + 1} <- offsets.{v + 1} + 1);
     for u = 1 to n do
       offsets.{u} <- offsets.{u} + offsets.{u - 1}
     done;
     let targets = ints offsets.{n} and next = ints n in
     for u = 0 to n - 1 do
       next.{u} <- offsets.{u}
     done;
     let place u v =
       targets.{next.{u}} <- v;
       next.{u} <- next.{u} + 1
     in
     draw (fun u v ->
         place u v;
         place v u);
     (offsets, targets))

(* Per-thread work arrays: BFS distances and queue. *)
type scratch = { dist : (int, int_elt, c_layout) Array1.t; queue : (int, int_elt, c_layout) Array1.t }

let scratch () = { dist = ints n; queue = ints n }

(* The sum of the distances found by a BFS from [src]. *)
let bfs { dist; queue } src =
  let offsets, targets = Lazy.force graph in
  let total = ref 0 in
  Array1.fill dist (-1);
  dist.{src} <- 0;
  queue.{0} <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.{!head} in
    incr head;
    let du = dist.{u} in
    total := !total + du;
    for i = offsets.{u} to offsets.{u + 1} - 1 do
      let v = targets.{i} in
      if dist.{v} < 0 then begin
        dist.{v} <- du + 1;
        queue.{!tail} <- v;
        incr tail
      end
    done
  done;
  !total

(* [run_sources sc lo hi] runs the BFS of sources [lo, hi) and returns
   the sum of all distances found. *)
let run_sources sc lo hi =
  let total = ref 0 in
  for s = lo to hi - 1 do
    total := !total + bfs sc (s * (n / sources))
  done;
  !total

let main_scratch = lazy (scratch ())

(* [run ()] runs the BFS of every source on the calling thread. *)
let run () = run_sources (Lazy.force main_scratch) 0 sources
