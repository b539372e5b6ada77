(* Tests for the fault-injection layer (Chaos), the chaos-aware simulators
   and the reliable-delivery protocol (Reliable): seeded determinism, each
   fault kind in isolation on the raw network, protocol masking, and
   end-to-end "same spanner as the chaos-free run" on the Section 5
   constructions. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------- seeded determinism ------------------------- *)

(* Drive the same traffic through two networks armed with the same plan:
   every per-round inbox and the fault tally must coincide.  A third
   network with a different fault seed must diverge somewhere. *)
let drive_schedule ~seed =
  let g = Generators.complete 5 in
  let ch = Chaos.start (Chaos.plan ~drop:0.3 ~dup:0.2 ~reorder:2 ~seed ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 8) g in
  let schedule = ref [] in
  for round = 0 to 19 do
    for src = 0 to 4 do
      Net.broadcast net ~src (round, src)
    done;
    Net.next_round net;
    for v = 0 to 4 do
      schedule := (round, v, Net.inbox net v) :: !schedule
    done
  done;
  (!schedule, Chaos.counts ch)

let test_same_seed_same_schedule () =
  let s1, c1 = drive_schedule ~seed:42 in
  let s2, c2 = drive_schedule ~seed:42 in
  checkb "same seed, same schedule" true (s1 = s2);
  checkb "same seed, same counts" true (c1 = c2);
  checkb "faults actually injected" true (c1.Chaos.c_drops > 0);
  let s3, _ = drive_schedule ~seed:43 in
  checkb "different seed, different schedule" true (s1 <> s3)

let test_chaos_stream_is_private () =
  (* The algorithm's generator is untouched by fault draws: the same
     algorithm rng produces the same values with and without chaos. *)
  let draw_with chaos =
    let g = Generators.complete 4 in
    let net =
      match chaos with
      | None -> Net.create ~model:Net.Local ~bits:(fun _ -> 1) g
      | Some ch -> Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 1) g
    in
    let rng = Rng.create ~seed:5 in
    let out = ref [] in
    for _ = 1 to 10 do
      Net.broadcast net ~src:0 ();
      Net.next_round net;
      out := Rng.int rng 1000 :: !out
    done;
    !out
  in
  let clean = draw_with None in
  let chaotic =
    draw_with (Some (Chaos.start (Chaos.plan ~drop:0.5 ~dup:0.5 ~reorder:3 ())))
  in
  checkb "algorithm draws unchanged under chaos" true (clean = chaotic)

(* ------------------------ faults in isolation ------------------------- *)

let test_drop_only () =
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~drop:1.0 ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Net.next_round net;
  checki "nothing delivered" 0 (List.length (Net.inbox net 1));
  checki "all drops counted" 20 (Chaos.counts ch).Chaos.c_drops;
  checki "no dups" 0 (Chaos.counts ch).Chaos.c_dups;
  (* offered-load accounting is untouched by the faults *)
  checki "sends still accounted" 20 (Net.stats net).Net.messages

let test_dup_only () =
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~dup:1.0 ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  for i = 1 to 5 do
    Net.send net ~src:0 ~dst:1 i
  done;
  Net.next_round net;
  checki "every message doubled" 10 (List.length (Net.inbox net 1));
  checki "dups counted" 5 (Chaos.counts ch).Chaos.c_dups;
  (* one network message per copy pair was offered *)
  checki "offered load unchanged" 5 (Net.stats net).Net.messages

let test_reorder_only () =
  let lag_bound = 3 in
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~reorder:lag_bound ~seed:9 ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  let rounds = 30 in
  let deliveries = ref [] in
  for round = 0 to rounds - 1 do
    if round < 20 then Net.send net ~src:0 ~dst:1 round;
    Net.next_round net;
    List.iter
      (fun (_, tag) -> deliveries := (tag, round) :: !deliveries)
      (Net.inbox net 1)
  done;
  checki "no copy lost or duplicated" 20 (List.length !deliveries);
  List.iter
    (fun (tag, round) ->
      checkb
        (Printf.sprintf "tag %d delivered at %d within lag bound" tag round)
        true
        (round >= tag && round <= tag + lag_bound))
    !deliveries;
  let late = List.length (List.filter (fun (tag, r) -> r > tag) !deliveries) in
  checki "late copies = reorder count" late (Chaos.counts ch).Chaos.c_reorders;
  checkb "some copies actually lagged" true (late > 0)

let test_crash_window () =
  let g = Generators.path 3 in
  (* node 1 is down for rounds [1, 3) *)
  let ch = Chaos.start (Chaos.plan ~crashes:[ (1, 1., 3.) ] ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  (* sent in round 0, delivered at time 1: destination just crashed *)
  Net.send net ~src:0 ~dst:1 "lost-on-delivery";
  Net.next_round net;
  checki "delivery into the crash window is lost" 0 (List.length (Net.inbox net 1));
  (* round 1: the crashed node cannot send either *)
  Net.send net ~src:1 ~dst:2 "lost-at-send";
  Net.next_round net;
  checki "crashed sender emits nothing" 0 (List.length (Net.inbox net 2));
  (* round 2: delivery lands at time 3, the node is back *)
  Net.send net ~src:0 ~dst:1 "arrives";
  Net.next_round net;
  checki "delivery after recovery" 1 (List.length (Net.inbox net 1));
  checki "both window losses counted" 2 (Chaos.counts ch).Chaos.c_drops

(* ------------------------ physical congestion ------------------------- *)

(* Both simulators charge one shared wire: [sims] drives each the same
   way, so every congestion test below runs on Net and on Async_net.
   [send] offers one message, [settle] delivers everything offered so
   far (one round / the whole event queue), and the physical unit of a
   copy is 4 bits on Net and one message on Async_net. *)
type driver = {
  send : src:int -> dst:int -> unit;
  settle : unit -> unit;
  wire : Wire.t;
}

type sim = {
  label : string;
  unit_load : int;  (* physical load of one copy *)
  round_cost : int;  (* he_rounds after one busy round *)
  split : string * string;  (* skeleton attribution counters *)
  make : Chaos.state option -> Graph.t -> driver;
}

let sims =
  [
    {
      label = "net";
      unit_load = 4;
      round_cost = 1;
      split = ("net.bits.spanner", "net.bits.other");
      make =
        (fun chaos g ->
          let net = Net.create ?chaos ~model:Net.Local ~bits:(fun _ -> 4) g in
          {
            send = (fun ~src ~dst -> Net.send net ~src ~dst ());
            settle = (fun () -> Net.next_round net);
            wire = Net.wire net;
          });
    };
    {
      label = "async";
      unit_load = 1;
      round_cost = 0;
      split = ("net.msgs.spanner", "net.msgs.other");
      make =
        (fun chaos g ->
          let net = Async_net.create (Rng.create ~seed:3) ?chaos g in
          {
            send = (fun ~src ~dst -> Async_net.send net ~src ~dst ignore);
            settle = (fun () -> ignore (Async_net.run net));
            wire = Async_net.wire net;
          });
    };
  ]

let test_congestion_counts_duplicates () =
  (* dup=1.0 doubles every physical copy: the busiest per-edge-per-round
     load is exactly twice the clean run's, while offered load matches *)
  let flood chaos =
    let g = Generators.path 2 in
    let net =
      match chaos with
      | None -> Net.create ~model:Net.Local ~bits:(fun _ -> 4) g
      | Some ch -> Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g
    in
    for i = 1 to 5 do
      Net.send net ~src:0 ~dst:1 i
    done;
    Net.next_round net;
    net
  in
  let clean = flood None in
  let dup = flood (Some (Chaos.start (Chaos.plan ~dup:1.0 ()))) in
  let sc = Net.stats clean and sd = Net.stats dup in
  checki "clean busiest slot: 5 msgs x 4 bits" 20 sc.Net.max_edge_round_bits;
  checki "dup'd copies charge the wire twice" 40 sd.Net.max_edge_round_bits;
  checki "offered bits identical" sc.Net.total_bits sd.Net.total_bits;
  (* a crashed sender's message never touches the wire *)
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~crashes:[ (0, 0., 10.) ] ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  Net.send net ~src:0 ~dst:1 0;
  Net.next_round net;
  checki "crashed sender charges nothing" 0
    (Net.stats net).Net.max_edge_round_bits;
  (* the run-long leaderboard, on both simulators *)
  List.iter
    (fun sim ->
      let flood chaos =
        let d = sim.make chaos (Generators.path 2) in
        for _ = 1 to 5 do
          d.send ~src:0 ~dst:1
        done;
        d.settle ();
        Wire.hot_edges d.wire
      in
      let check_load what load = function
        | [ he ] ->
            checki (sim.label ^ ": " ^ what) load he.Wire.he_bits;
            checki (sim.label ^ ": busy rounds") sim.round_cost
              he.Wire.he_rounds
        | _ -> Alcotest.fail (sim.label ^ ": expected one hot slot")
      in
      check_load "clean load" (5 * sim.unit_load) (flood None);
      check_load "dup'd copies charge the wire twice" (10 * sim.unit_load)
        (flood (Some (Chaos.start (Chaos.plan ~dup:1.0 ()))));
      checki (sim.label ^ ": crashed sender charges nothing") 0
        (List.length
           (flood
              (Some (Chaos.start (Chaos.plan ~crashes:[ (0, 0., 10.) ] ()))))))
    sims

let test_congestion_seeded_replay () =
  let run () =
    let g = Generators.complete 5 in
    let ch =
      Chaos.start (Chaos.plan ~drop:0.3 ~dup:0.3 ~reorder:2 ~seed:21 ())
    in
    let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 8) g in
    for round = 0 to 9 do
      for src = 0 to 4 do
        Net.broadcast net ~src round
      done;
      Net.next_round net
    done;
    ((Net.stats net).Net.max_edge_round_bits, Wire.hot_edges (Net.wire net))
  in
  let m1, h1 = run () in
  let m2, h2 = run () in
  checki "max_edge_round_bits identical across replays" m1 m2;
  checkb "hot-edge leaderboard identical" true (h1 = h2);
  checkb "faults actually moved the physical load" true (m1 > 0);
  List.iter
    (fun sim ->
      let run () =
        let plan =
          Chaos.plan ~drop:0.3 ~dup:0.3 ~reorder:2 ~spike:0.3 ~seed:21 ()
        in
        let d = sim.make (Some (Chaos.start plan)) (Generators.complete 5) in
        for _ = 0 to 9 do
          for src = 0 to 4 do
            for dst = 0 to 4 do
              if dst <> src then d.send ~src ~dst
            done
          done;
          d.settle ()
        done;
        Wire.hot_edges ~top:20 d.wire
      in
      let h1 = run () in
      checkb (sim.label ^ ": leaderboard identical across replays") true
        (h1 = run ());
      checki (sim.label ^ ": every directed slot loaded") 20 (List.length h1))
    sims

let test_congestion_skeleton_attribution () =
  Obs.set_enabled true;
  List.iter
    (fun sim ->
      Obs.reset ();
      let g = Generators.path 3 in
      (* edge 0 = {0,1} in the skeleton, edge 1 = {1,2} outside it *)
      let d = sim.make None g in
      Wire.set_skeleton d.wire [| true; false |];
      for _ = 1 to 3 do
        d.send ~src:0 ~dst:1
      done;
      d.send ~src:1 ~dst:2;
      d.settle ();
      let spanner, other = sim.split in
      checki (spanner ^ " attributed") (3 * sim.unit_load)
        (Obs.Counter.value (Obs.counter spanner));
      checki (other ^ " attributed") sim.unit_load
        (Obs.Counter.value (Obs.counter other));
      checkb (sim.label ^ ": size mismatch rejected") true
        (try
           Wire.set_skeleton d.wire [| true |];
           false
         with Invalid_argument _ -> true))
    sims

(* ----------------------------- spec grammar --------------------------- *)

let test_parse_spec () =
  (match Chaos.parse_spec "drop=0.2,dup=0.05,reorder=4,seed=7" with
  | Ok p ->
      checkb "drop" true (p.Chaos.drop = 0.2);
      checkb "dup" true (p.Chaos.dup = 0.05);
      checki "reorder" 4 p.Chaos.reorder;
      checki "seed" 7 p.Chaos.seed
  | Error e -> Alcotest.fail e);
  (match Chaos.parse_spec "crash=3@2.5,recover=3@9" with
  | Ok p -> checkb "crash window" true (p.Chaos.crashes = [ (3, 2.5, 9.) ])
  | Error e -> Alcotest.fail e);
  let rejects spec =
    match Chaos.parse_spec spec with
    | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S should be rejected" spec)
    | Error _ -> ()
  in
  rejects "drop=1.5";
  rejects "frobnicate=1";
  rejects "drop";
  rejects "recover=3@9";
  (* pp round-trips through the parser *)
  match Chaos.parse_spec "drop=0.1,reorder=2,crash=1@0,recover=1@5" with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      match Chaos.parse_spec (Format.asprintf "%a" Chaos.pp_plan p) with
      | Ok p' -> checkb "pp_plan round-trips" true (p = p')
      | Error e -> Alcotest.fail e)

(* --------------------------- reliable layer --------------------------- *)

let test_reliable_passthrough_is_free () =
  let traffic create_send =
    let g = Generators.complete 4 in
    let net, send, next = create_send g in
    for round = 0 to 4 do
      for src = 0 to 3 do
        for dst = 0 to 3 do
          if src <> dst then send ~src ~dst (round * src)
        done
      done;
      next ()
    done;
    net ()
  in
  let raw =
    traffic (fun g ->
        let net = Net.create ~model:(Net.Congest 32) ~bits:(fun _ -> 16) g in
        ( (fun () -> Net.stats net),
          (fun ~src ~dst m -> Net.send net ~src ~dst m),
          fun () -> Net.next_round net ))
  in
  let wrapped =
    traffic (fun g ->
        let t = Reliable.create ~model:(Net.Congest 32) ~bits:(fun _ -> 16) g in
        ( (fun () -> Reliable.stats t),
          (fun ~src ~dst m -> Reliable.send t ~src ~dst m),
          fun () -> Reliable.next_round t ))
  in
  checkb "passthrough accounting is bit-identical" true (raw = wrapped)

let test_reliable_masks_drops () =
  let g = Generators.complete 5 in
  let chaos = Chaos.plan ~drop:0.3 ~dup:0.1 ~reorder:2 ~seed:11 () in
  let t = Reliable.create ~chaos ~model:Net.Local ~bits:(fun _ -> 8) g in
  for round = 0 to 9 do
    for src = 0 to 4 do
      Reliable.broadcast t ~src (round, src)
    done;
    Reliable.next_round t;
    (* lockstep semantics hold exactly: every vertex sees one message per
       neighbor per logical round, in canonical sender order *)
    for v = 0 to 4 do
      let senders = List.map fst (Reliable.inbox t v) in
      let expected = List.filter (fun s -> s <> v) [ 0; 1; 2; 3; 4 ] in
      check
        (Alcotest.list Alcotest.int)
        (Printf.sprintf "round %d inbox of %d" round v)
        expected senders;
      List.iter
        (fun (s, (r, s')) ->
          checki "payload round" round r;
          checki "payload sender" s s')
        (Reliable.inbox t v)
    done
  done;
  checkb "drops forced retransmissions" true (Reliable.retransmits t > 0);
  checki "no packet abandoned" 0 (Reliable.giveups t);
  match Reliable.chaos_counts t with
  | None -> Alcotest.fail "chaos should be armed"
  | Some c -> checkb "faults were injected" true (c.Chaos.c_drops > 0)

let test_reliable_same_seed_bit_identical () =
  let run () =
    let g = Generators.complete 4 in
    let chaos = Chaos.plan ~drop:0.25 ~dup:0.1 ~seed:3 () in
    let t = Reliable.create ~chaos ~model:Net.Local ~bits:(fun _ -> 8) g in
    let log = ref [] in
    for round = 0 to 7 do
      for src = 0 to 3 do
        Reliable.broadcast t ~src round
      done;
      Reliable.next_round t;
      for v = 0 to 3 do
        log := Reliable.inbox t v :: !log
      done
    done;
    (!log, Reliable.stats t, Reliable.retransmits t)
  in
  checkb "same seeds, same run" true (run () = run ())

(* ------------------------ end-to-end constructions -------------------- *)

let chaos_heavy = Chaos.plan ~drop:0.2 ~dup:0.05 ~reorder:2 ~seed:21 ()

let test_congest_bs_selection_survives_chaos () =
  let g = Generators.connected_gnp (Rng.create ~seed:100) ~n:30 ~p:0.2 in
  let clean = Congest_bs.build (Rng.create ~seed:4) ~k:2 g in
  let lossy = Congest_bs.build (Rng.create ~seed:4) ~chaos:chaos_heavy ~k:2 g in
  check
    (Alcotest.list Alcotest.int)
    "same selection"
    (Selection.ids clean.Congest_bs.selection)
    (Selection.ids lossy.Congest_bs.selection);
  checkb "lossy run paid extra rounds" true
    (lossy.Congest_bs.rounds > clean.Congest_bs.rounds)

let test_congest_ft_selection_survives_chaos () =
  let g = Generators.connected_gnp (Rng.create ~seed:101) ~n:26 ~p:0.25 in
  let clean = Congest_ft.build (Rng.create ~seed:4) ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:1 g in
  let lossy =
    Congest_ft.build (Rng.create ~seed:4) ~c:0.5 ~chaos:chaos_heavy
      ~mode:Fault.VFT ~k:2 ~f:1 g
  in
  check
    (Alcotest.list Alcotest.int)
    "same selection"
    (Selection.ids clean.Congest_ft.selection)
    (Selection.ids lossy.Congest_ft.selection)

let test_local_spanner_selection_survives_chaos () =
  let g = Generators.connected_gnp (Rng.create ~seed:102) ~n:40 ~p:0.15 in
  let clean =
    Local_spanner.build (Rng.create ~seed:4) ~mode:Fault.EFT ~k:2 ~f:1 g
  in
  let lossy =
    Local_spanner.build (Rng.create ~seed:4) ~chaos:chaos_heavy ~mode:Fault.EFT
      ~k:2 ~f:1 g
  in
  check
    (Alcotest.list Alcotest.int)
    "same selection"
    (Selection.ids clean.Local_spanner.selection)
    (Selection.ids lossy.Local_spanner.selection)

let test_synchronizer_completes_on_lossy_network () =
  let g = Generators.connected_gnp (Rng.create ~seed:103) ~n:40 ~p:0.15 in
  let skel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  let clean = Synchronizer.run (Rng.create ~seed:5) ~pulses:5 ~skeleton:skel g in
  let chaos = Chaos.plan ~drop:0.2 ~dup:0.05 ~seed:77 () in
  let lossy =
    Synchronizer.run (Rng.create ~seed:5) ~chaos ~pulses:5 ~skeleton:skel g
  in
  checki "all pulses completed" 5 lossy.Synchronizer.pulses;
  checki "clean run needs no retransmissions" 0 clean.Synchronizer.retransmits;
  checkb "lossy run retransmitted" true (lossy.Synchronizer.retransmits > 0);
  checkb "acks and retries cost messages" true
    (lossy.Synchronizer.messages > clean.Synchronizer.messages)

let () =
  Alcotest.run "chaos"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same schedule" `Quick
            test_same_seed_same_schedule;
          Alcotest.test_case "private fault stream" `Quick
            test_chaos_stream_is_private;
        ] );
      ( "faults in isolation",
        [
          Alcotest.test_case "drop" `Quick test_drop_only;
          Alcotest.test_case "dup" `Quick test_dup_only;
          Alcotest.test_case "reorder" `Quick test_reorder_only;
          Alcotest.test_case "crash window" `Quick test_crash_window;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "duplicates charge the wire" `Quick
            test_congestion_counts_duplicates;
          Alcotest.test_case "seeded replay identical" `Quick
            test_congestion_seeded_replay;
          Alcotest.test_case "skeleton attribution" `Quick
            test_congestion_skeleton_attribution;
        ] );
      ("spec grammar", [ Alcotest.test_case "parse" `Quick test_parse_spec ]);
      ( "reliable delivery",
        [
          Alcotest.test_case "passthrough is free" `Quick
            test_reliable_passthrough_is_free;
          Alcotest.test_case "masks drops" `Quick test_reliable_masks_drops;
          Alcotest.test_case "seeded determinism" `Quick
            test_reliable_same_seed_bit_identical;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "congest bs" `Quick
            test_congest_bs_selection_survives_chaos;
          Alcotest.test_case "congest ft" `Quick
            test_congest_ft_selection_survives_chaos;
          Alcotest.test_case "local spanner" `Quick
            test_local_spanner_selection_survives_chaos;
          Alcotest.test_case "lossy synchronizer" `Quick
            test_synchronizer_completes_on_lossy_network;
        ] );
    ]
