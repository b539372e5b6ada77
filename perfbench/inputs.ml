(* Seeded input generation, owned by the benchmark.

   Every input is a deterministic function of the command-line seed and
   a per-input salt; the program under test only ever sees the generated
   graphs after they are written as ftspan.graph.v1 files and reloaded
   through [Graph_io.load].  Generation is never timed. *)

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eb0 |]

(* Union-find over [0, n), used to connect G(n, p) samples. *)
let find parent x =
  let rec go x = if parent.(x) = x then x else go parent.(x) in
  let r = go x in
  let rec compress x =
    if parent.(x) <> r then begin
      let next = parent.(x) in
      parent.(x) <- r;
      compress next
    end
  in
  compress x;
  r

(* [connected_gnp st ~n ~p] is a unit-weight Erdos-Renyi sample whose
   extra components are then joined to vertex 0's by one edge each, from
   the component's smallest vertex to a random vertex of 0's. *)
let connected_gnp st ~n ~p =
  let g = Graph.create n in
  let parent = Array.init n Fun.id in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1.0 < p then begin
        ignore (Graph.add_edge_unit g u v);
        parent.(find parent u) <- find parent v
      end
    done
  done;
  for u = 0 to n - 1 do
    let ru = find parent u in
    if ru <> find parent 0 then begin
      let rec partner () =
        let v = Random.State.int st n in
        if find parent v = find parent 0 then v else partner ()
      in
      let v = partner () in
      ignore (Graph.add_edge_unit g u v);
      parent.(ru) <- find parent v
    end
  done;
  g

(* Points in the unit square, bucketed on a grid of [radius]-sized
   cells, so neighbour queries touch 9 cells: O(n * deg) generation
   instead of the all-pairs scan. *)
type points = {
  xs : float array;
  ys : float array;
  radius : float;
  cells : int;  (* cells per side *)
  bucket : int list array;  (* cell -> point ids *)
}

let cell_of pts x = min (pts.cells - 1) (int_of_float (x /. pts.radius))

let scatter st ~n ~avg_degree =
  let radius = sqrt (avg_degree /. (Float.pi *. float_of_int n)) in
  let cells = max 1 (int_of_float (1.0 /. radius)) in
  let xs = Array.init n (fun _ -> Random.State.float st 1.0) in
  let ys = Array.init n (fun _ -> Random.State.float st 1.0) in
  let pts = { xs; ys; radius; cells; bucket = Array.make (cells * cells) [] } in
  for i = n - 1 downto 0 do
    let c = (cell_of pts ys.(i) * cells) + cell_of pts xs.(i) in
    pts.bucket.(c) <- i :: pts.bucket.(c)
  done;
  pts

let dist pts i j = Float.hypot (pts.xs.(i) -. pts.xs.(j)) (pts.ys.(i) -. pts.ys.(j))

(* [iter_near pts i ~within fn] calls [fn j d] for every point [j <> i]
   at distance [d <= within], for [within <= 2 * radius]. *)
let iter_near pts i ~within fn =
  let reach = if within <= pts.radius then 1 else 2 in
  let cx = cell_of pts pts.xs.(i) and cy = cell_of pts pts.ys.(i) in
  for y = max 0 (cy - reach) to min (pts.cells - 1) (cy + reach) do
    for x = max 0 (cx - reach) to min (pts.cells - 1) (cx + reach) do
      List.iter
        (fun j ->
          if j <> i then
            let d = dist pts i j in
            if d <= within then fn j d)
        pts.bucket.((y * pts.cells) + x)
    done
  done

(* [geometric st ~n ~avg_degree] is a random geometric graph with
   Euclidean edge weights, plus the points it was drawn from. *)
let geometric st ~n ~avg_degree =
  let pts = scatter st ~n ~avg_degree in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    iter_near pts i ~within:pts.radius (fun j d ->
        if j > i && d > 0. then ignore (Graph.add_edge g i j ~w:d))
  done;
  (g, pts)

(* Inputs live in a scratch directory under the working directory (the
   benchmark reads and writes nothing outside it). *)
let work_dir = ".perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

let path name = Filename.concat work_dir (name ^ Graph_io.binary_suffix)

(* [write g name] saves [g] as the ftspan.graph.v1 file [path name]. *)
let write g name =
  ensure_work_dir ();
  Graph_io.save g (path name)
