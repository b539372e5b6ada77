(* Output checks.  Each check is one attempt; a failed check or an
   exception escaping a facade call is one failure.  The build spot
   check shares no code with [Lbc]: it searches the output with
   [Dijkstra] only. *)

let attempted = ref 0
let failed = ref 0

let record what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* [guard what f] runs a facade call; an exception counts as a failed
   check and yields [None]. *)
let guard what f =
  match f () with
  | r -> Some r
  | exception e ->
      record (what ^ " raised " ^ Printexc.to_string e) false;
      None

let digest (sel : Selection.t) =
  Digest.to_hex
    (Digest.string (String.init (Array.length sel.selected) (fun i ->
         if sel.selected.(i) then '1' else '0')))

(* [close_enough a b] compares path weights that may have been summed in
   different orders. *)
let close_enough a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

(* Mask of the spanner's edges that are unavailable: unselected, or
   faulted ([EFT]). *)
let spanner_blocked (sel : Selection.t) faulted_edges =
  let b = Array.map not sel.selected in
  List.iter (fun id -> b.(id) <- true) faulted_edges;
  b

(* [spot_check st sel ~mode ~k ~f ~samples] samples skipped edges of
   [sel]; around each one it builds [tries] adversarial fault sets by
   repeatedly faulting a random interior element of the current shortest
   [u]-[v] path of [H \ F], then requires a path of weight at most
   [(2k-1) w(e)] to survive in [H \ F]. *)
let spot_check st (sel : Selection.t) ~mode ~k ~f ~samples ~tries =
  let g = sel.source in
  let m = Graph.m g in
  let stretch = float_of_int ((2 * k) - 1) in
  let skipped = List.filter (fun id -> not sel.selected.(id)) (List.init m Fun.id) in
  let skipped = Array.of_list skipped in
  if Array.length skipped > 0 then
    for _ = 1 to samples do
      let e = Graph.edge g skipped.(Random.State.int st (Array.length skipped)) in
      let bound = stretch *. e.Graph.w in
      for _ = 1 to tries do
        let bv = Array.make (Graph.n g) false in
        let faulted = ref [] in
        let blocked () = spanner_blocked sel !faulted in
        for _ = 1 to f do
          match
            Dijkstra.shortest_path ~blocked_vertices:bv ~blocked_edges:(blocked ())
              g ~src:e.Graph.u ~dst:e.Graph.v
          with
          | None -> ()
          | Some p -> (
              match mode with
              | Fault.VFT -> (
                  match Path.interior p with
                  | [] -> ()
                  | xs -> bv.(List.nth xs (Random.State.int st (List.length xs))) <- true)
              | Fault.EFT ->
                  let es = p.Path.edges in
                  faulted := List.nth es (Random.State.int st (List.length es)) :: !faulted)
        done;
        let survives =
          Dijkstra.distance_upto ~blocked_vertices:bv ~blocked_edges:(blocked ()) g
            ~src:e.Graph.u ~dst:e.Graph.v
            ~cutoff:(bound *. (1. +. 1e-9))
        in
        record
          (Printf.sprintf "skipped edge %d survives %d adversarial faults" e.Graph.id f)
          (Option.is_some survives)
      done
    done
