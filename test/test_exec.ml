(* Tests of the persistent domain-pool executor (lib/exec) and its
   determinism contract: results computed through Exec.parallel_for must
   be bit-identical to the sequential computation at every domain count,
   chunk size, and steal order. *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let rng ?(seed = 0xC0FFEE) () = Rng.create ~seed
let ids sel = Selection.ids sel

(* ------------------------- parallel_for core ------------------------ *)

let test_covers_every_index_once () =
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains @@ fun pool ->
      List.iter
        (fun chunk ->
          let n = 1013 in
          let hits = Array.make n 0 in
          Exec.parallel_for ?chunk pool ~lo:0 ~hi:n (fun ~worker:_ l h ->
              for i = l to h - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Array.iteri
            (fun i c ->
              checki (Printf.sprintf "index %d hit once (d=%d)" i domains) 1 c)
            hits)
        [ None; Some 1; Some 7; Some 64; Some 10_000 ])
    [ 1; 2; 4 ]

let test_empty_range_runs_nothing () =
  Exec.Pool.with_pool ~domains:2 @@ fun pool ->
  let ran = ref false in
  Exec.parallel_for pool ~lo:5 ~hi:5 (fun ~worker:_ _ _ -> ran := true);
  Exec.parallel_for pool ~lo:9 ~hi:3 (fun ~worker:_ _ _ -> ran := true);
  checkb "no body call on empty range" false !ran

let test_worker_indices_in_range () =
  let domains = 4 in
  Exec.Pool.with_pool ~domains @@ fun pool ->
  checki "pool size" domains (Exec.Pool.size pool);
  let bad = Atomic.make 0 in
  Exec.parallel_for ~chunk:1 pool ~lo:0 ~hi:500 (fun ~worker _ _ ->
      if worker < 0 || worker >= domains then Atomic.incr bad);
  checki "worker index always in [0, size)" 0 (Atomic.get bad)

let test_rejects_bad_arguments () =
  (try
     ignore (Exec.Pool.create ~domains:0 ());
     Alcotest.fail "domains=0 should fail"
   with Invalid_argument _ -> ());
  Exec.Pool.with_pool ~domains:2 @@ fun pool ->
  try
    Exec.parallel_for ~chunk:0 pool ~lo:0 ~hi:10 (fun ~worker:_ _ _ -> ());
    Alcotest.fail "chunk=0 should fail"
  with Invalid_argument _ -> ()

(* -------------------- failure and lifecycle -------------------------- *)

exception Boom

let test_exception_propagates_pool_survives () =
  let pool = Exec.Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  (* A body raise must reach the caller... *)
  let raised =
    try
      Exec.parallel_for ~chunk:1 pool ~lo:0 ~hi:200 (fun ~worker:_ l _ ->
          if l = 97 then raise Boom);
      false
    with Boom -> true
  in
  checkb "exception re-raised in caller" true raised;
  (* ...and leave every helper parked, not leaked or wedged: the same
     pool must run a full region afterwards. *)
  let n = 300 in
  let out = Array.make n 0 in
  Exec.parallel_for ~chunk:8 pool ~lo:0 ~hi:n (fun ~worker:_ l h ->
      for i = l to h - 1 do
        out.(i) <- i * i
      done);
  let ok = ref true in
  Array.iteri (fun i v -> if v <> i * i then ok := false) out;
  checkb "pool usable after exception" true !ok

let test_shutdown_idempotent_and_fences () =
  let pool = Exec.Pool.create ~domains:3 () in
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool;
  (* idempotent *)
  try
    Exec.parallel_for ~chunk:1 pool ~lo:0 ~hi:100 (fun ~worker:_ _ _ -> ());
    Alcotest.fail "submit to a shut-down pool should fail"
  with Invalid_argument _ -> ()

let test_worker_local_lazy_per_worker () =
  Exec.Pool.with_pool ~domains:3 @@ fun pool ->
  let inits = Atomic.make 0 in
  let slots =
    Exec.Worker_local.create pool (fun w ->
        Atomic.incr inits;
        ref w)
  in
  (* Alcotest is not domain-safe: count mismatches in the body and
     assert on the caller. *)
  let mismatches = Atomic.make 0 in
  Exec.parallel_for ~chunk:1 pool ~lo:0 ~hi:300 (fun ~worker _ _ ->
      let r = Exec.Worker_local.get slots ~worker in
      if !r <> worker then Atomic.incr mismatches);
  checki "slot bound to its worker" 0 (Atomic.get mismatches);
  checkb "each worker initialized at most once"
    true
    (Atomic.get inits <= Exec.Pool.size pool);
  checki "outside a region, worker 0" 0 !(Exec.Worker_local.get slots ~worker:0)

(* ----------------- determinism: builds and verify -------------------- *)

(* --jobs changes speed, never output: every facade build through a pool
   is bit-identical to the build without one, on every family, both
   fault modes, at any domain count. *)
let graph_families () =
  let r = rng () in
  [
    ("gnp", Generators.connected_gnp r ~n:80 ~p:0.15);
    ("grid", Generators.grid ~rows:8 ~cols:8);
    ( "hard",
      Lower_bound.hard_instance ~f:1 (Lower_bound.projective_plane_incidence ~q:3)
    );
  ]

let build ?pool algorithm params g =
  ids (Spanner.build ~algorithm ~options:(Spanner.options ?pool ()) params g)

let test_build_bit_identical_across_domains () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (mode, algorithm) ->
          let params = { Spanner.k = 2; f = 1; mode } in
          let seq = build algorithm params g in
          List.iter
            (fun domains ->
              let par =
                Exec.Pool.with_pool ~domains (fun pool ->
                    build ~pool algorithm params g)
              in
              check
                (Alcotest.list Alcotest.int)
                (Printf.sprintf "%s %s %s domains=%d" name
                   (Spanner.algorithm_name algorithm)
                   (match mode with Fault.VFT -> "VFT" | Fault.EFT -> "EFT")
                   domains)
                seq par)
            [ 1; 2; 4 ])
        [
          (Fault.VFT, Spanner.Greedy_poly);
          (Fault.EFT, Spanner.Greedy_poly);
          (Fault.VFT, Spanner.Dinitz_krauthgamer);
          (Fault.EFT, Spanner.Dinitz_krauthgamer);
        ])
    (graph_families ())

let test_pool_reused_across_builds () =
  let r = rng () in
  let g1 = Generators.connected_gnp r ~n:60 ~p:0.2 in
  let g2 = Generators.grid ~rows:7 ~cols:7 in
  let p1 = { Spanner.k = 2; f = 2; mode = Fault.VFT } in
  let p2 = { Spanner.k = 3; f = 1; mode = Fault.EFT } in
  let dk = Spanner.Dinitz_krauthgamer in
  let seq1 = build dk p1 g1 and seq2 = build dk p2 g2 in
  Exec.Pool.with_pool ~domains:4 @@ fun pool ->
  (* Two consecutive builds on one pool both stay identical to the
     builds without a pool. *)
  let par1 = build ~pool dk p1 g1 in
  let par2 = build ~pool dk p2 g2 in
  check (Alcotest.list Alcotest.int) "first build on shared pool" seq1 par1;
  check (Alcotest.list Alcotest.int) "second build on shared pool" seq2 par2

let test_spanner_options_facade () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:50 ~p:0.25 in
  let params = { Spanner.k = 2; f = 1; mode = Fault.VFT } in
  let plain = Spanner.build params g in
  check (Alcotest.list Alcotest.int) "greedy-poly is Poly_greedy.build"
    (ids (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g))
    (ids plain);
  let dflt = Spanner.build ~options:Spanner.default_options params g in
  check (Alcotest.list Alcotest.int) "default options = plain" (ids plain)
    (ids dflt);
  (* batch=1 through a pool still equals the sequential greedy. *)
  let pooled =
    Exec.Pool.with_pool ~domains:2 (fun pool ->
        Spanner.build ~options:(Spanner.options ~batch:1 ~pool ()) params g)
  in
  check (Alcotest.list Alcotest.int) "pooled batch=1 = sequential" (ids plain)
    (ids pooled);
  List.iter
    (fun batch ->
      try
        ignore (Spanner.options ~batch ());
        Alcotest.fail (Printf.sprintf "batch=%d should fail" batch)
      with Invalid_argument _ -> ())
    [ 0; 2; 512 ]

(* Dk11's iterations draw from streams pre-split before any of them
   runs, so the pool only decides which domain runs each one: no pool
   and pools of 1/2/4 give the same selection, directly and through the
   facade's dk11 and dk11-bs routes. *)
let test_dk11_pooled_bit_identical () =
  let g = Generators.connected_gnp (rng ()) ~n:40 ~p:0.12 in
  let direct ?pool () =
    Dk11.build (Rng.create ~seed:77) ~mode:Fault.VFT ~k:2 ~f:1 ?pool g
  in
  let reference = ids (direct ()) in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains @@ fun pool ->
      check
        (Alcotest.list Alcotest.int)
        (Printf.sprintf "dk11 jobs=%d matches no pool" domains)
        reference
        (ids (direct ~pool ()));
      List.iter
        (fun algorithm ->
          check
            (Alcotest.list Alcotest.int)
            (Printf.sprintf "%s facade jobs=%d matches no pool"
               (Spanner.algorithm_name algorithm)
               domains)
            reference
            (ids
               (Spanner.build ~rng:(Rng.create ~seed:77) ~algorithm
                  ~options:(Spanner.options ~pool ())
                  { Spanner.k = 2; f = 1; mode = Fault.VFT }
                  g)))
        [ Spanner.Dinitz_krauthgamer; Spanner.Baswana_sen_union ])
    [ 1; 2; 4 ];
  let cfg = Verify.config ~rng:(rng ()) ~trials:30 () in
  checkb "dk11 is a valid spanner" true
    (Verify.ok (Verify.random ~cfg (direct ()) ~mode:Fault.VFT ~stretch:3.0 ~f:1))

let test_verify_batteries_deterministic () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:50 ~p:0.25 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  let run ?pool () =
    let rv = Rng.create ~seed:77 in
    let cfg = Verify.config ?pool ~rng:rv ~trials:40 () in
    let a = Verify.adversarial ~cfg sel ~mode:Fault.VFT ~stretch:3.0 ~f:2 in
    let b = Verify.random ~cfg sel ~mode:Fault.VFT ~stretch:3.0 ~f:2 in
    let p =
      Verify.profile ~cfg:(Verify.config ?pool ~rng:rv ~trials:20 ()) sel
        ~mode:Fault.VFT ~f:2
    in
    (a, b, p)
  in
  let seq = run () in
  Exec.Pool.with_pool ~domains:4 @@ fun pool ->
  let par = run ~pool () in
  checkb "verify batteries identical under a pool" true (seq = par)

(* ------------------------- default_jobs ------------------------------ *)

(* Kept last: set_default_jobs installs a process-wide override that
   cannot be cleared again. *)
let test_default_jobs () =
  let case env expect =
    Unix.putenv "FTSPAN_JOBS" env;
    checki (Printf.sprintf "FTSPAN_JOBS=%S" env) expect (Exec.default_jobs ())
  in
  case "3" 3;
  case " 5 " 5;
  case "0" 1;
  case "-2" 1;
  case "abc" 1;
  Exec.set_default_jobs 2;
  case "7" 2;
  (* the override wins over the environment *)
  Exec.set_default_jobs 1;
  try
    Exec.set_default_jobs 0;
    Alcotest.fail "set_default_jobs 0 should fail"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "exec"
    [
      ( "parallel_for",
        [
          Alcotest.test_case "covers once" `Quick test_covers_every_index_once;
          Alcotest.test_case "empty range" `Quick test_empty_range_runs_nothing;
          Alcotest.test_case "worker indices" `Quick test_worker_indices_in_range;
          Alcotest.test_case "bad arguments" `Quick test_rejects_bad_arguments;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "exception survives" `Quick
            test_exception_propagates_pool_survives;
          Alcotest.test_case "shutdown fences" `Quick
            test_shutdown_idempotent_and_fences;
          Alcotest.test_case "worker-local" `Quick test_worker_local_lazy_per_worker;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "builds bit-identical" `Quick
            test_build_bit_identical_across_domains;
          Alcotest.test_case "pool reuse" `Quick test_pool_reused_across_builds;
          Alcotest.test_case "spanner options" `Quick test_spanner_options_facade;
          Alcotest.test_case "verify batteries" `Quick
            test_verify_batteries_deterministic;
        ] );
      ( "facade",
        [
          Alcotest.test_case "dk11 pooled determinism" `Quick
            test_dk11_pooled_bit_identical;
        ] );
      ( "default_jobs",
        [ Alcotest.test_case "parsing and override" `Quick test_default_jobs ] );
    ]
