module Workspace = struct
  type t = {
    mutable seen : int array;  (* stamp marking, never cleared *)
    mutable parent_edge : int array;
    mutable parent_vertex : int array;
    mutable depth : int array;
    mutable queue : int array;
    mutable stamp : int;
  }

  let create () =
    {
      seen = [||];
      parent_edge = [||];
      parent_vertex = [||];
      depth = [||];
      queue = [||];
      stamp = 0;
    }

  let ensure ws n =
    if Array.length ws.seen < n then begin
      let cap = max n (2 * Array.length ws.seen) in
      ws.seen <- Array.make cap 0;
      ws.parent_edge <- Array.make cap (-1);
      ws.parent_vertex <- Array.make cap (-1);
      ws.depth <- Array.make cap 0;
      ws.queue <- Array.make cap 0;
      ws.stamp <- 0
    end
end

(* Work counters flushed once per traversal: the loops below accumulate
   into locals, so the per-edge cost of instrumentation is one register
   increment. *)
let m_searches = Obs.counter "bfs.searches"
let m_nodes = Obs.counter "bfs.nodes_scanned"
let m_edges = Obs.counter "bfs.edges_scanned"

let vertex_blocked mask x =
  match mask with
  | None -> false
  | Some a -> x < Array.length a && a.(x)

let edge_blocked mask id =
  match mask with
  | None -> false
  | Some a -> id < Array.length a && a.(id)

(* Core BFS loop shared by path extraction: fills [ws] with the BFS tree up
   to [max_hops] levels, stopping as soon as [dst] is reached.  Returns
   [true] iff [dst] was reached.

   The frontier scan goes through one [Csr.scanner] built per traversal:
   the storage-backend dispatch and array captures happen once, and the
   per-vertex scan walks the append-buffer chain first, then the packed
   slice — the same newest-first order the list adjacency had, identical
   for both backends.  This is the hot path of every LBC call and hence
   of the whole greedy pipeline. *)
let search ws ~blocked_vertices ~blocked_edges g ~src ~dst ~max_hops =
  let open Workspace in
  ensure ws (Graph.n g);
  ws.stamp <- ws.stamp + 1;
  let stamp = ws.stamp in
  Obs.Counter.incr m_searches;
  if vertex_blocked blocked_vertices src || vertex_blocked blocked_vertices dst
  then false
  else if src = dst then true
  else begin
    let scan = Csr.scanner (Graph.adjacency g) in
    ws.seen.(src) <- stamp;
    ws.depth.(src) <- 0;
    ws.parent_edge.(src) <- -1;
    ws.queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    let scanned = ref 0 in
    while (not !found) && !head < !tail do
      let x = ws.queue.(!head) in
      incr head;
      let d = ws.depth.(x) in
      if d < max_hops then begin
        let visit y id =
          incr scanned;
          if
            (not !found)
            && ws.seen.(y) <> stamp
            && (not (edge_blocked blocked_edges id))
            && not (vertex_blocked blocked_vertices y)
          then begin
            ws.seen.(y) <- stamp;
            ws.depth.(y) <- d + 1;
            ws.parent_edge.(y) <- id;
            ws.parent_vertex.(y) <- x;
            if y = dst then found := true
            else begin
              ws.queue.(!tail) <- y;
              incr tail
            end
          end
        in
        scan x visit
      end
    done;
    Obs.Counter.add m_nodes !head;
    Obs.Counter.add m_edges !scanned;
    !found
  end

let extract_path ws ~src ~dst =
  let open Workspace in
  if src = dst then { Path.vertices = [ src ]; edges = [] }
  else begin
    let rec climb x vertices edges =
      if x = src then { Path.vertices = src :: vertices; edges }
      else climb ws.parent_vertex.(x) (x :: vertices) (ws.parent_edge.(x) :: edges)
    in
    climb dst [] []
  end

(* One per domain: callers on Exec pool workers (Dynamic.query_batch)
   that pass no workspace must not share scratch arrays. *)
let default_ws = Domain.DLS.new_key Workspace.create

let hop_bounded_path ?ws ?blocked_vertices ?blocked_edges g ~src ~dst ~max_hops =
  let ws =
    match ws with Some ws -> ws | None -> Domain.DLS.get default_ws
  in
  if search ws ~blocked_vertices ~blocked_edges g ~src ~dst ~max_hops then
    Some (extract_path ws ~src ~dst)
  else None

let distances ?blocked_vertices ?blocked_edges g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  Obs.Counter.incr m_searches;
  if vertex_blocked blocked_vertices src then dist
  else begin
    let scan = Csr.scanner (Graph.adjacency g) in
    let queue = Array.make n 0 in
    dist.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let scanned = ref 0 in
    while !head < !tail do
      let x = queue.(!head) in
      incr head;
      let visit y id =
        incr scanned;
        if
          dist.(y) < 0
          && (not (edge_blocked blocked_edges id))
          && not (vertex_blocked blocked_vertices y)
        then begin
          dist.(y) <- dist.(x) + 1;
          queue.(!tail) <- y;
          incr tail
        end
      in
      scan x visit
    done;
    Obs.Counter.add m_nodes !head;
    Obs.Counter.add m_edges !scanned;
    dist
  end

let hop_distance g u v =
  let d = (distances g u).(v) in
  if d < 0 then None else Some d

let eccentricity g u =
  Array.fold_left (fun acc d -> if d > acc then d else acc) 0 (distances g u)
