(* Bench regression gate over two ftspan.metrics.v1 reports.

   Usage:
     compare.exe [--slack F] [--tol-wall F] [--tol-wall-abs S]
                 [--tol-counter F] BASELINE.json RUN.json
     compare.exe --check-heartbeat STREAM.jsonl
     compare.exe --check-trace TRACE.json

   Entries are matched by id; the wall time and every counter are judged
   by Obs_compare against per-metric tolerances (counters tight — the
   repo's seeds make them deterministic; wall time loose, with an
   absolute floor so sub-noise timings cannot fail).  [--slack] scales
   every tolerance at once: the @obs-check alias passes [--slack 2] so
   the gate stays stable on shared runners.  Scheduling-dependent
   [pool.*] counters are skipped by Obs_compare in both documents, so
   the parallel entries (dk11-parallel) gate on their deterministic
   algorithm counters but never on steal order or jobs count.

   [--check-heartbeat] is the second gate mode: it validates an
   ftspan.heartbeat.v1 JSON-lines stream (every line parses, every line
   carries the schema tag, at least one beat reports quantiles), so the
   @obs-stream-check alias can assert the streaming plane end to end.

   [--check-trace] is the third: it validates an ftspan.trace.v1
   document structurally (Obs_analyze.validate — per-event fields,
   monotonic seqs, lifecycle pairing), so the @trace-analyze-check alias
   can assert the causal-tracing plane end to end.  A file that is not a
   v1 trace at all is a usage-class failure (exit 2); a trace that
   parses but violates the structural contract is a gate failure
   (exit 1).

   Exit status: 0 when every metric is within tolerance (improvements
   included) / the stream or trace is valid, 1 on any regression,
   baseline metric missing from the run, or semantically invalid
   stream/trace, 2 on usage or parse errors — the same error/usage
   split as main.exe. *)

let usage () =
  prerr_endline
    "usage: compare.exe [--slack F] [--tol-wall F] [--tol-wall-abs S] \
     [--tol-counter F] BASELINE.json RUN.json";
  prerr_endline "       compare.exe --check-heartbeat STREAM.jsonl";
  prerr_endline "       compare.exe --check-trace TRACE.json";
  exit 2

let bad fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "compare.exe: %s\n" msg;
      usage ())
    fmt

let read_report file =
  let text =
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> bad "%s" msg
  in
  match Obs_json.of_string text with
  | Ok j -> j
  | Error msg -> bad "%s: %s" file msg

(* Validate one ftspan.heartbeat.v1 JSON-lines stream: every line must
   parse and carry the schema tag (parse errors are usage-class, exit 2);
   an empty stream or one whose beats never report a quantile block with
   p50/p99 is a gate failure (exit 1) — it means the quantile pipeline
   went dark while the run was alive. *)
let check_heartbeat file =
  let ic = try open_in file with Sys_error msg -> bad "%s" msg in
  let beats = ref 0 and with_quantiles = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then begin
            incr beats;
            let j =
              match Obs_json.of_string line with
              | Ok j -> j
              | Error msg -> bad "%s: beat %d: %s" file !beats msg
            in
            (match Option.bind (Obs_json.member "schema" j) Obs_json.to_str with
            | Some "ftspan.heartbeat.v1" -> ()
            | Some other -> bad "%s: beat %d: schema %S" file !beats other
            | None -> bad "%s: beat %d: missing schema tag" file !beats);
            match Obs_json.member "quantiles" j with
            | Some (Obs_json.Obj hists) ->
                let has_q (_, h) =
                  Obs_json.member "p50" h <> None
                  && Obs_json.member "p99" h <> None
                in
                if hists <> [] && List.for_all has_q hists then
                  incr with_quantiles
            | _ -> ()
          end
        done
      with End_of_file -> ());
  Printf.printf "heartbeat stream %s: %d beats, %d with quantiles\n" file
    !beats !with_quantiles;
  if !beats = 0 then begin
    print_endline "INVALID: stream is empty";
    exit 1
  end;
  if !with_quantiles = 0 then begin
    print_endline "INVALID: no beat reports latency quantiles";
    exit 1
  end;
  print_endline "OK: valid ftspan.heartbeat.v1 stream"

(* Validate one ftspan.trace.v1 document.  Not-a-trace (I/O error, JSON
   syntax, wrong schema, missing top-level fields) is usage-class, exit
   2; a trace whose events break the structural contract — malformed
   typed events, non-monotonic seqs, inconsistent accounting, deliveries
   without their send on a lossless trace — is a gate failure, exit 1. *)
let check_trace file =
  match Obs_analyze.load file with
  | Error msg -> bad "%s" msg
  | Ok tr -> (
      match Obs_analyze.validate tr with
      | [] ->
          Printf.printf
            "trace %s: %d events (%d seen, %d sampled, %d dropped)\n" file
            (List.length tr.Obs_analyze.t_events)
            tr.Obs_analyze.t_seen tr.Obs_analyze.t_sampled
            tr.Obs_analyze.t_dropped;
          print_endline "OK: valid ftspan.trace.v1 document"
      | violations ->
          List.iter (fun v -> Printf.printf "INVALID: %s\n" v) violations;
          exit 1)

(* Which gate carve-outs actually fired: the prefixes under which either
   document has at least one counter.  Printed so a reader of the gate
   log can see what was deliberately not compared. *)
let matched_exclusions docs =
  let counter_names j =
    match Option.bind (Obs_json.member "entries" j) Obs_json.to_list with
    | None -> []
    | Some entries ->
        List.concat_map
          (fun e ->
            match Obs_json.member "counters" e with
            | Some (Obs_json.Obj fields) -> List.map fst fields
            | _ -> [])
          entries
  in
  let names = List.concat_map counter_names docs in
  let starts_with p s =
    String.length s >= String.length p
    && String.sub s 0 (String.length p) = p
  in
  List.filter
    (fun p -> List.exists (starts_with p) names)
    Obs_compare.excluded_prefixes

let () =
  let tol = ref Obs_compare.default_tolerances in
  let slack = ref 1.0 in
  let files = ref [] in
  let float_of name s =
    match float_of_string_opt s with
    | Some f when f > 0. -> f
    | _ -> bad "%s expects a positive number, got %S" name s
  in
  let heartbeat = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--check-heartbeat" :: v :: rest ->
        heartbeat := Some v;
        go rest
    | "--check-trace" :: v :: rest ->
        trace := Some v;
        go rest
    | [ ("--check-heartbeat" | "--check-trace") ] -> bad "missing option value"
    | "--slack" :: v :: rest ->
        slack := float_of "--slack" v;
        go rest
    | "--tol-wall" :: v :: rest ->
        tol := { !tol with Obs_compare.wall_rel = float_of "--tol-wall" v };
        go rest
    | "--tol-wall-abs" :: v :: rest ->
        tol := { !tol with Obs_compare.wall_abs = float_of "--tol-wall-abs" v };
        go rest
    | "--tol-counter" :: v :: rest ->
        tol := { !tol with Obs_compare.counter_rel = float_of "--tol-counter" v };
        go rest
    | [ ("--slack" | "--tol-wall" | "--tol-wall-abs" | "--tol-counter") ] ->
        bad "missing option value"
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        bad "unknown option %S" arg
    | file :: rest ->
        files := file :: !files;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  (match (!heartbeat, !trace, !files) with
  | Some file, None, [] ->
      check_heartbeat file;
      exit 0
  | None, Some file, [] ->
      check_trace file;
      exit 0
  | Some _, Some _, _ -> bad "--check-heartbeat and --check-trace are exclusive"
  | Some _, None, _ -> bad "--check-heartbeat takes no report files"
  | None, Some _, _ -> bad "--check-trace takes no report files"
  | None, None, _ -> ());
  let base_file, run_file =
    match List.rev !files with
    | [ b; r ] -> (b, r)
    | _ -> bad "expected exactly two report files"
  in
  let tol = Obs_compare.scale !slack !tol in
  let base = read_report base_file and run = read_report run_file in
  match Obs_compare.compare_reports ~tol base run with
  | Error msg -> bad "%s" msg
  | Ok findings ->
      Printf.printf "baseline %s vs run %s (slack %.2g)\n\n" base_file run_file
        !slack;
      (match matched_exclusions [ base; run ] with
      | [] -> ()
      | ps ->
          Printf.printf "gate-excluded prefixes skipped: %s\n\n"
            (String.concat " " ps));
      Format.printf "%a@." Obs_compare.pp_findings findings;
      if Obs_compare.regressed findings then begin
        print_endline "\nREGRESSION: run exceeds the baseline tolerance";
        exit 1
      end
      else print_endline "\nOK: within tolerance of the baseline"
