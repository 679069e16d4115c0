(* Time-to-target benchmark of the ASTRX/OBLX synthesis system.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
   perfbench --self-test

   Prints progress on stderr and, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. See
   perfbench/README.md for the workloads, targets and metric map. *)

open Common

(* --- Workloads ------------------------------------------------------------

   Budgets are small so that one (circuit, seed) run lasts well under a
   second on OTA-class circuits and a measured run holds tens of seeds:
   the mean over seeds is what makes the figures repeat. Each target is a
   cost the seed code's default configuration (incremental evaluation,
   probe batch 8, one domain) reaches within the budget on most seeds but
   not all, chosen from the best-cost trajectories of 16-40 seeds per
   circuit. Targets are constants, never derived from the run under test. *)

(* two-stage: 85% of 40 seeds reach 6.0 within 600 moves. The cost drops
   from 2539 to below 6 when the relaxed-dc bias snaps into place; a run
   that misses spends the budget polishing a worse basin. *)
let two_stage = { Synth.c_name = "two-stage"; c_moves = 600; c_target = 6.0 }

(* folded-cascode: the largest OTA of the suite; 83% of 30 seeds reach 140
   within 500 moves. AWE ROM builds of its jigs and the probe screen take
   most of each move. *)
let folded_cascode = { Synth.c_name = "folded-cascode"; c_moves = 500; c_target = 140.0 }

(* ladder-bias-amp: its 36-rung bias ladder makes the incremental
   evaluator's dirty-slice reuse the main saving; 88% of 40 seeds reach
   3.4 within 600 moves. A miss costs three times a typical hit, so a
   rarer miss keeps the mean over a run's seeds steadier. *)
let ladder = { Synth.c_name = "ladder-bias-amp"; c_moves = 600; c_target = 3.4 }

(* tran-buffer: every exact eval runs a step transient (~20 ms), so the
   budget is 150 moves (~3 s); 87% of 15 seeds reach 450. *)
let tran_buffer = { Synth.c_name = "tran-buffer"; c_moves = 150; c_target = 450.0 }

(* The served jobs: small cold budgets so that two clients in a closed
   loop on one pool worker complete ~150 jobs in a 30 s run. The targets
   only judge the traced run's local pass over the same inputs: 87%
   (simple-ota) and 80% (two-stage) of 30 seeds reach them in 200 moves. *)
let serve_simple_ota = { Synth.c_name = "simple-ota"; c_moves = 200; c_target = 170.0 }
let serve_two_stage = { Synth.c_name = "two-stage"; c_moves = 200; c_target = 800.0 }

type workload = {
  name : string;
  circuits : Synth.circuit list;
  round_s : float;
      (** seconds one round takes on the reference host — one run of each
          circuit on one lane, or one cold + resynth loop of every serve
          client; sets how many seeds fill [--seconds] *)
  serve : bool;  (** the load goes through oblxd instead of direct calls *)
}

(* serve-resynth is runnable but not declared in BENCHMARK.json: on a
   shared 2-vCPU host its times did not repeat within the declared bounds
   (quartile spread 0.19-0.26 of the median over 6-10 seeds, raw or
   normalized), because the single-threaded host probe does not track the
   slowdowns of its five domains (server, pool worker, two clients, main).
   Its serve layers are still measured by the short probe in every traced
   run. *)
let workloads =
  [
    { name = "awe-synth"; circuits = [ two_stage; folded_cascode ]; round_s = 0.86; serve = false };
    { name = "bias-synth"; circuits = [ ladder ]; round_s = 0.2; serve = false };
    { name = "tran-synth"; circuits = [ tran_buffer ]; round_s = 3.1; serve = false };
    {
      name = "serve-resynth";
      circuits = [ serve_simple_ota; serve_two_stage ];
      round_s = 0.8;
      serve = true;
    };
  ]

let rounds w ~seconds = Int.max 1 (int_of_float (Float.round (seconds /. w.round_s)))

(* --- Shared steps ----------------------------------------------------------- *)

(* Set-up: compile every problem of the workload. One repetition compiles
   them all [per_rep] times (a single compile takes 0.2-0.6 ms, too short
   to time alone); the set-up time is the median repetition over
   [per_rep]. *)
let setup_compile w ~reps =
  let per_rep = 10 in
  let once () =
    ignore (probe_host ());
    let t0 = now () in
    let ps =
      List.init per_rep (fun _ ->
          List.map
            (fun c -> span "core.compile.compile_source" (fun () -> Synth.compile c))
            w.circuits)
    in
    ((now () -. t0) /. float_of_int per_rep, List.hd ps)
  in
  let times = List.init (reps - 1) (fun _ -> fst (once ())) in
  let t, ps = once () in
  (median (t :: times), List.combine w.circuits ps)

type tally = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let record tally failures =
  tally.attempted <- tally.attempted + 1;
  if failures <> [] then begin
    tally.failed <- tally.failed + 1;
    tally.failures <- tally.failures @ failures
  end

let tmp_dir () =
  let root = ".perfbench-tmp" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat root (string_of_int (Unix.getpid ()))

let cleanup_tmp () = try Unix.rmdir ".perfbench-tmp" with Unix.Unix_error _ -> ()

(* The (circuit, seed) runs of one pass, circuits interleaved. *)
let plan w ~seed ~rounds =
  List.concat_map (fun s -> List.map (fun c -> (c, s)) w.circuits) (Synth.seeds ~seed rounds)

(* The output checks of every run; [~simulate] picks the runs whose winner
   also goes through the reference simulator (slow: 0.1-1 s each). *)
let checked_runs ?(simulate = fun _ -> true) tally problems runs =
  List.concat_map
    (fun (r : Synth.run) ->
      let p = List.assoc r.Synth.circuit problems in
      let label = Printf.sprintf "%s seed %d" r.Synth.circuit.Synth.c_name r.Synth.seed in
      let v =
        if simulate r then
          span "core.verify.simulate_specs" (fun () -> Synth.check p ~label r.Synth.result)
        else Synth.check ~simulate:false p ~label r.Synth.result
      in
      record tally v.Synth.failures;
      v.Synth.gaps)
    runs

(* Runs [f] over [plan] in order. A slow host could stretch a pass far past
   its seeds' nominal length, so whole rounds stop being started once
   [cap_s] has elapsed. *)
let timed_pass plan ~cap_s ~round f =
  let t0 = now () in
  let rec go i acc = function
    | [] -> List.rev acc
    | _ when i mod round = 0 && i > 0 && now () -. t0 > cap_s ->
        log "pass capped at %.1f s after %d runs" cap_s i;
        List.rev acc
    | cs :: rest -> go (i + 1) (f cs :: acc) rest
  in
  go 0 [] plan

(* --- Untraced runs: the end-to-end metrics --------------------------------- *)

let synth_e2e w ~seed ~seconds tally =
  let setup_s, problems = setup_compile w ~reps:50 in
  let setup_slow = take_slowdown () in
  let plan = plan w ~seed ~rounds:(rounds w ~seconds) in
  (* Warm-up: the first (circuit, seed) once, untimed; the timed pass must
     reproduce its best cost bit for bit. *)
  let c0, s0 = List.hd plan in
  let warm = Synth.run (List.assoc c0 problems) c0 s0 in
  ignore (take_slowdown ());
  let t0 = now () in
  let runs =
    timed_pass plan ~cap_s:(1.25 *. seconds) ~round:(List.length w.circuits) (fun (c, s) ->
        Synth.run (List.assoc c problems) c s)
  in
  let wall = now () -. t0 in
  let heap = Synth.peak_heap_mb () in
  let first = List.hd runs in
  if
    not
      (Synth.same_bits warm.Synth.result.Core.Oblx.best_cost
         first.Synth.result.Core.Oblx.best_cost)
  then
    record tally
      [ Printf.sprintf "%s seed %d: re-run best cost differs" c0.Synth.c_name s0 ];
  (* The reference simulator re-measures the first round's winners only;
     the traced run simulates every winner it produces. *)
  let first_round = List.filteri (fun i _ -> i < List.length w.circuits) runs in
  ignore (checked_runs ~simulate:(fun r -> List.memq r first_round) tally problems runs);
  let slow = take_slowdown () in
  let norm = Synth.normalized runs in
  log
    "%s: %d runs in %.2f s (host slowdown %.3f, raw time to target %.4f s), %d missed the \
     target, mean moves to target %.0f"
    w.name (List.length runs) wall slow (Synth.time_to_target_s runs)
    (List.length (List.filter (fun r -> not r.Synth.hit) runs))
    (Synth.moves_to_target runs);
  [
    metric "time_to_target_s" "s" (Synth.time_to_target_s norm);
    metric "jobs_per_s" "1/s"
      (float_of_int (List.length norm)
      /. List.fold_left (fun a r -> a +. r.Synth.wall_s) 0.0 norm);
    metric "peak_heap_mb" "MB" heap;
    metric "setup_s" "s" (setup_s /. setup_slow);
  ]

let serve_checks tally (o : Serve_load.outcome) =
  List.iter
    (fun (j : Serve_load.job) ->
      record tally
        (if j.Serve_load.j_record = None then
           [
             Printf.sprintf "served %s seed %d did not finish done"
               j.Serve_load.j_circuit.Synth.c_name j.Serve_load.j_seed;
           ]
         else []))
    o.Serve_load.jobs;
  List.iter
    (fun id -> record tally [ Printf.sprintf "job %d lost across the reboot" id ])
    o.Serve_load.lost_ids;
  let failure, local = Serve_load.check_determinism o in
  record tally (Option.to_list failure);
  (* The locally reproduced job's winner goes through the other checks,
     the reference simulator included. *)
  match local with
  | Some (p, res) ->
      record tally (Synth.check p ~label:"served job, local rerun" res).Synth.failures
  | None -> ()

let serve_e2e w ~seed ~seconds ~force_error tally =
  let o =
    Serve_load.run ~dir:(tmp_dir ()) ~seed ~boots:8
      { Serve_load.circuits = w.circuits; clients = 2; loops = rounds w ~seconds; force_error }
  in
  let heap = Synth.peak_heap_mb () in
  serve_checks tally o;
  let done_ = List.length (Serve_load.done_jobs o) in
  log
    "%s: %d jobs (%d done) in %.2f s (host slowdown %.3f, raw mean latency %.4f s), %d of %d \
     client calls failed"
    w.name (List.length o.Serve_load.jobs) done_ o.Serve_load.load_wall_s o.Serve_load.load_slowdown
    (mean (Serve_load.latencies o)) o.Serve_load.errors o.Serve_load.attempts;
  [
    metric "time_to_target_s" "s" (mean (Serve_load.latencies o) /. o.Serve_load.load_slowdown);
    metric "jobs_per_s" "1/s"
      (float_of_int done_ /. o.Serve_load.load_wall_s *. o.Serve_load.load_slowdown);
    metric "peak_heap_mb" "MB" heap;
    metric "setup_s" "s" (median o.Serve_load.boot_s /. o.Serve_load.boot_slowdown);
  ]

(* --- Traced runs: the per-layer metrics ------------------------------------ *)

(* Each (circuit, seed) runs untraced, then traced with an in-memory
   Moves-level sink; the two must agree bit for bit. The traced runs'
   accepted states are then replayed through the layer calls. *)
let synth_layers w ~seed ~seconds ~rounds tally =
  let _, problems = setup_compile w ~reps:2 in
  let plan = plan w ~seed ~rounds in
  let pairs =
    timed_pass plan ~cap_s:seconds ~round:(List.length w.circuits) (fun (c, s) ->
        let p = List.assoc c problems in
        let plain = Synth.run p c s in
        let traced = Synth.run ~traced:true p c s in
        if
          not
            (Synth.same_bits plain.Synth.result.Core.Oblx.best_cost
               traced.Synth.result.Core.Oblx.best_cost)
        then record tally [ Printf.sprintf "%s seed %d: traced run differs" c.Synth.c_name s ];
        (plain, traced))
  in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  List.iter
    (fun (r : Synth.run) ->
      Layers.replay (List.assoc r.Synth.circuit problems) r.Synth.states ~blocks:2 ~block:4)
    traced;
  let gaps = checked_runs tally problems traced in
  [
    metric "runs" "count" (float_of_int (List.length traced));
    metric "moves_to_target" "count" (Synth.moves_to_target traced);
    metric "target_miss_frac" "ratio" (Synth.miss_frac traced);
    metric "spec_sim_gap" "ratio" (median gaps);
    metric "obs.overhead_s" "s" (Synth.time_to_target_s traced -. Synth.time_to_target_s plain);
    metric "host.slowdown" "ratio" (take_slowdown ());
  ]
  @ Synth.eval_counter_metrics traced
  @ Layers.metrics ()
  @ List.concat_map layer_metrics [ "core.compile.compile_source"; "core.verify.simulate_specs" ]

let serve_workload = List.find (fun w -> w.serve) workloads

let traced_run w ~seed ~seconds ~force_error tally =
  (* Serve layers: the full load on serve-resynth; elsewhere a short probe
     of two loops per client over the served circuits. *)
  let o =
    Serve_load.run ~dir:(tmp_dir ()) ~seed ~boots:1
      {
        Serve_load.circuits = serve_workload.circuits;
        clients = 2;
        loops = (if w.serve then rounds w ~seconds else 2);
        force_error;
      }
  in
  serve_checks tally o;
  (* Each traced (circuit, seed) also runs untraced, so a third of the
     untraced run's rounds fill about two thirds of its time. *)
  let synth_rounds = if w.serve then 2 else Int.max 1 (rounds w ~seconds / 3) in
  let synth = synth_layers w ~seed ~seconds ~rounds:synth_rounds tally in
  synth @ Serve_load.metrics o

(* --- Entry points ------------------------------------------------------------- *)

(* [target] replaces every circuit's target (the self-test's forced miss);
   [force_error] adds one refused client call to the serve load. *)
let run_workload w ~seed ~seconds ~trace ?target ?(force_error = false) () =
  let w =
    match target with
    | None -> w
    | Some t -> { w with circuits = List.map (fun c -> { c with Synth.c_target = t }) w.circuits }
  in
  let tally = { attempted = 0; failed = 0; failures = [] } in
  let metrics =
    if trace then traced_run w ~seed ~seconds ~force_error tally
    else if w.serve then serve_e2e w ~seed ~seconds ~force_error tally
    else synth_e2e w ~seed ~seconds tally
  in
  cleanup_tmp ();
  List.iter (fun f -> log "check failed: %s" f) tally.failures;
  (tally, metrics)

(* Quick mode: every workload at a tiny budget in both modes, checking
   that each metric BENCHMARK.json names is printed with its unit, that an
   unreachable target is counted as a miss and that a refused client call
   is counted as a failed request — neither aborting the run. *)
let self_test () =
  let spec =
    match Obs.Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let declared key =
    List.map
      (fun m -> (Obs.Json.to_str (Obs.Json.mem "name" m), Obs.Json.to_str (Obs.Json.mem "unit" m)))
      (Obs.Json.to_list (Obs.Json.mem key spec))
  in
  let problems = ref [] in
  let expect cond fmt =
    Printf.ksprintf (fun m -> if not cond then problems := m :: !problems) fmt
  in
  let tiny w =
    {
      w with
      circuits =
        List.map (fun c -> { c with Synth.c_moves = Int.max 20 (c.Synth.c_moves / 10) }) w.circuits;
      round_s = 1.0;
    }
  in
  List.iter
    (fun w0 ->
      let w = tiny w0 in
      List.iter
        (fun trace ->
          let key = if trace then "per_layer" else "end_to_end" in
          let tally, ms =
            run_workload w ~seed:1 ~seconds:1.0 ~trace
              ?target:(if w.serve then None else Some Float.neg_infinity)
              ~force_error:w.serve ()
          in
          expect (tally.failed = 0) "%s %s: %d checks failed" w.name key tally.failed;
          List.iter
            (fun (name, unit_) ->
              match List.find_opt (fun (m : metric) -> m.name = name) ms with
              | Some m ->
                  expect (m.unit_ = unit_) "%s: %s has unit %s, declared %s" w.name name m.unit_
                    unit_
              | None -> expect false "%s %s: %s not printed" w.name key name)
            (declared key);
          let value n =
            Option.map (fun m -> m.value) (List.find_opt (fun (m : metric) -> m.name = n) ms)
          in
          if trace && not w.serve then
            expect (value "target_miss_frac" = Some 1.0) "%s: forced miss not counted" w.name;
          if trace && w.serve then
            expect
              (match value "request_fail_frac" with Some v -> v > 0.0 | None -> false)
              "%s: forced client error not counted" w.name)
        [ false; true ])
    workloads;
  List.iter (fun m -> log "self-test: %s" m) (List.rev !problems);
  if !problems = [] then log "self-test: ok";
  exit (if !problems = [] then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (per-run seeds derive from it)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds on the reference host");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--self-test", Arg.Set selftest, " quick mode: every workload at a tiny budget");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then self_test ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        log "unknown workload %S (one of: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
    | Some w ->
        let tally, metrics = run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) () in
        print_result ~correct:(tally.failed = 0) ~attempted:tally.attempted ~failed:tally.failed
          metrics
