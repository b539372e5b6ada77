type t = {
  g : Graph.t;
  chaos : Chaos.state option;
  load : int array;  (* run-long physical load per directed slot *)
  rounds : int array;  (* rounds the slot carried traffic (Net only) *)
  spanner : Obs.Counter.t;
  other : Obs.Counter.t;
  mutable skeleton : bool array option;  (* per edge id: in the spanner? *)
}

let create ?chaos ~spanner ~other g =
  let slots = max 1 (2 * Graph.m g) in
  let load = Array.make slots 0 and rounds = Array.make slots 0 in
  { g; chaos; load; rounds; spanner; other; skeleton = None }

let chaos w = w.chaos

let slot g ~src ~dst =
  match Graph.find_edge g src dst with
  | None ->
      invalid_arg
        (Printf.sprintf "Wire.slot: %d and %d are not adjacent" src dst)
  | Some id -> (2 * id) + if src < dst then 0 else 1

let set_skeleton w mask =
  if Array.length mask <> Graph.m w.g then
    invalid_arg
      (Printf.sprintf "Wire.set_skeleton: mask has %d slots for %d edges"
         (Array.length mask) (Graph.m w.g));
  w.skeleton <- Some mask

let note_round w s = w.rounds.(s) <- w.rounds.(s) + 1

let send w ?cid ~slot ~src ~dst ~at ~bits ~on_wire deliver =
  let tracing = Obs_trace.enabled () in
  let cid =
    match cid with
    | Some c -> c
    | None -> if tracing then Obs_trace.mint_cid () else -1
  in
  if tracing then
    Obs_trace.emit (Obs_trace.Msg_send { cid; src; dst; at; bits });
  (* one physical copy crosses the wire *)
  let charge () =
    w.load.(slot) <- w.load.(slot) + bits;
    (match w.skeleton with
    | None -> ()
    | Some mask ->
        Obs.Counter.add (if mask.(slot / 2) then w.spanner else w.other) bits);
    on_wire ()
  in
  (match w.chaos with
  | None ->
      charge ();
      deliver cid None
  | Some ch when Chaos.crashed ch ~node:src ~time:at ->
      Chaos.count_crash_drop ~cid ch ~src ~dst
  | Some ch ->
      let copy () =
        charge ();
        if not (Chaos.draw_drop ~cid ch ~src ~dst) then deliver cid (Some ch)
      in
      copy ();
      if Chaos.draw_dup ~cid ch ~src ~dst then copy ());
  cid

type hot_edge = {
  he_edge : int;
  he_dir : int;
  he_bits : int;
  he_rounds : int;
}

let pp_hot_edge ppf h =
  Format.fprintf ppf "edge=%d dir=%d bits=%d rounds=%d" h.he_edge h.he_dir
    h.he_bits h.he_rounds

let hot_edges ?(top = 10) w =
  if top < 0 then invalid_arg "Wire.hot_edges: top must be >= 0";
  let loaded = ref [] in
  Array.iteri (fun s b -> if b > 0 then loaded := (s, b) :: !loaded) w.load;
  List.sort (fun (s1, b1) (s2, b2) -> compare (b2, s1) (b1, s2)) !loaded
  |> List.filteri (fun i _ -> i < top)
  |> List.map (fun (s, b) ->
         { he_edge = s / 2; he_dir = s mod 2; he_bits = b;
           he_rounds = w.rounds.(s) })
