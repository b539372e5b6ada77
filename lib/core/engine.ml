type order =
  | By_weight
  | Input_order
  | Reverse_weight
  | Shuffled of Rng.t
  | Explicit of int array

type decision = Keep of { cut : int list } | Skip

type decider = Graph.t -> Graph.edge array -> decision array -> int -> int -> unit

type result = { selection : Selection.t }

let ordered_edges ?(caller = "Engine") order g =
  let edges = Graph.edge_array g in
  (match order with
  | By_weight -> Array.sort (fun a b -> compare a.Graph.w b.Graph.w) edges
  | Input_order -> ()
  | Reverse_weight -> Array.sort (fun a b -> compare b.Graph.w a.Graph.w) edges
  | Shuffled rng -> Rng.shuffle rng edges
  | Explicit perm ->
      if Array.length perm <> Graph.m g then
        invalid_arg (caller ^ ": explicit order must be a permutation of edge ids");
      let seen = Array.make (Graph.m g) false in
      Array.iter
        (fun id ->
          if id < 0 || id >= Graph.m g || seen.(id) then
            invalid_arg
              (caller ^ ": explicit order must be a permutation of edge ids");
          seen.(id) <- true)
        perm;
      Array.iteri (fun i id -> edges.(i) <- Graph.edge g id) perm);
  edges

let run ?(order = By_weight) ?(caller = "Engine") ?span ?on_add ?(trace = true)
    ~decide g =
  let body () =
    let edges = ordered_edges ~caller order g in
    let h = Graph.create (Graph.n g) in
    let selected = Array.make (Graph.m g) false in
    let decisions = Array.make (max 1 (Array.length edges)) Skip in
    let tracing = trace && Obs_trace.enabled () in
    Array.iteri
      (fun i e ->
        (* Each decision sees every earlier commit. *)
        decide h edges decisions i (i + 1);
        let cut =
          match decisions.(i) with Keep { cut } -> Some cut | Skip -> None
        in
        if tracing then
          Obs_trace.emit
            (Obs_trace.Greedy_edge
               { edge = e.Graph.id; kept = cut <> None; weight = e.Graph.w });
        Option.iter
          (fun cut ->
            (match on_add with Some fn -> fn e cut | None -> ());
            ignore (Graph.add_edge h e.Graph.u e.Graph.v ~w:e.Graph.w);
            selected.(e.Graph.id) <- true)
          cut)
      edges;
    { selection = Selection.of_mask g selected }
  in
  match span with Some name -> Obs.with_span name body | None -> body ()
