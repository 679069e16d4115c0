(* Time-to-target synthesis runs: one cold [Core.Oblx.synthesize] per
   (circuit, seed), stopped by a [~control] cutoff at the first annealing
   stage whose best cost is at or below the circuit's fixed target, and the
   output checks every run must pass. *)

open Common

(* A suite circuit as a benchmark input: its move budget and its fixed
   target cost (the reasons for each value live beside the constants in
   perfbench.ml). *)
type circuit = { c_name : string; c_moves : int; c_target : float }

type run = {
  circuit : circuit;
  seed : int;
  wall_s : float;  (** from the synthesize call until it returns *)
  slowdown : float;  (** host probe just before the call *)
  hit : bool;  (** reached the target within the budget *)
  moves_to_target : int;  (** moves at the hitting stage; the budget on a miss *)
  result : Core.Oblx.result;
  states : (float array * int array) list;
      (** accepted design points, oldest first (traced runs only) *)
}

let source c =
  match Suite.Ckts.find c.c_name with
  | Some e -> e.Suite.Ckts.source
  | None -> failwith ("unknown suite circuit " ^ c.c_name)

let compile c =
  match Core.Compile.compile_source (source c) with
  | Ok p -> p
  | Error e -> failwith (c.c_name ^ ": " ^ e)

(* Per-run seeds derive from the workload seed only. *)
let seeds ~seed n =
  let rng = Anneal.Rng.create (1 + seed) in
  List.init n (fun _ -> 1 + Anneal.Rng.int rng 1_000_000_000)

let target_reason = "target"

(* An in-memory Moves-level sink keeping the design point of every
   accepted move. *)
let state_sink () =
  let acc = ref [] in
  let emit (e : Obs.Event.t) =
    match e.Obs.Event.body with
    | Obs.Event.Move { state = Some st; _ } -> acc := st :: !acc
    | _ -> ()
  in
  (Obs.Trace.make ~level:Obs.Event.Moves [ { Obs.Sink.emit; close = ignore } ], acc)

let run ?(traced = false) p c seed =
  let hit = ref false in
  let control =
    {
      Core.Oblx.publish = ignore;
      cutoff =
        (fun ~progress:_ ~best ->
          if best <= c.c_target then begin
            hit := true;
            Some target_reason
          end
          else None);
    }
  in
  let obs, acc = if traced then state_sink () else (Obs.Trace.none, ref []) in
  let slowdown = probe_host () in
  let t0 = now () in
  let r = Core.Oblx.synthesize ~seed ~moves:c.c_moves ~control ~obs p in
  let wall_s = now () -. t0 in
  {
    circuit = c;
    seed;
    wall_s;
    slowdown;
    hit = !hit;
    moves_to_target = (if !hit then r.Core.Oblx.moves else c.c_moves);
    result = r;
    states = List.rev !acc;
  }

(* --- Output checks ------------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_values a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, v1) (n2, v2) ->
         n1 = n2
         && match (v1, v2) with
            | Some x, Some y -> same_bits x y
            | None, None -> true
            | Some _, None | None, Some _ -> false)
       a b

(* What one run's checks found: the failures (empty = passed) and the
   |prediction - simulation| / |simulation| gap of every spec the reference
   simulator measured. *)
type verdict = { failures : string list; gaps : float list }

let check ?(simulate = true) p ~label (res : Core.Oblx.result) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := (label ^ ": " ^ m) :: !failures) fmt in
  (match res.Core.Oblx.eval_stats with
  | Some s when s.Core.Eval.Incr.resync_mismatches <> 0 ->
      fail "%d incremental resync mismatches" s.Core.Eval.Incr.resync_mismatches
  | Some _ | None -> ());
  let m = Core.Eval.measure p res.Core.Oblx.final in
  if not (same_values m.Core.Eval.spec_values res.Core.Oblx.predicted) then
    fail "re-measured winner differs from result.predicted";
  let gaps =
    match if simulate then Core.Verify.simulate_specs p res.Core.Oblx.final else Ok [] with
    | Error e ->
        fail "reference simulation failed: %s" e;
        []
    | Ok rows ->
        List.filter_map
          (fun (name, sim) ->
            match (sim, List.assoc_opt name res.Core.Oblx.predicted) with
            | Ok s, Some (Some pred)
              when Float.is_finite s && Float.is_finite pred && Float.abs s > 0.0 ->
                Some (Float.abs (pred -. s) /. Float.abs s)
            | _ -> None)
          rows
  in
  { failures = List.rev !failures; gaps }

(* --- Aggregates ---------------------------------------------------------- *)

let circuits_of runs =
  List.sort_uniq compare (List.map (fun r -> r.circuit.c_name) runs)

(* Mean per run, averaged over the workload's circuits so that each
   circuit weighs the same whatever its speed. *)
let per_circuit_mean f runs =
  mean
    (List.map
       (fun name ->
         mean (List.filter_map (fun r -> if r.circuit.c_name = name then Some (f r) else None) runs))
       (circuits_of runs))

let time_to_target_s runs = per_circuit_mean (fun r -> r.wall_s) runs

(* The host drifts within a pass too, so each run's wall time is divided by
   the median probe over the nine runs around it. *)
let normalized runs =
  List.map2
    (fun r s -> { r with wall_s = r.wall_s /. s })
    runs
    (rolling_median ~half:4 (List.map (fun r -> r.slowdown) runs))
let moves_to_target runs = per_circuit_mean (fun r -> float_of_int r.moves_to_target) runs

let miss_frac runs =
  ratio (List.length (List.filter (fun r -> not r.hit) runs)) (List.length runs)

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Counters the incremental evaluator and the annealer keep per run,
   summed over [runs] and turned into the per-layer ratios. *)
let eval_counter_metrics runs =
  let sum f =
    List.fold_left
      (fun a r -> match r.result.Core.Oblx.eval_stats with Some s -> a + f s | None -> a)
      0 runs
  in
  let open Core.Eval.Incr in
  let exact = sum (fun s -> s.full_evals + s.incr_evals) in
  let total f = List.fold_left (fun a r -> a +. f r.result) 0.0 runs in
  let eval_s =
    total (fun r -> float_of_int r.Core.Oblx.evals *. r.Core.Oblx.eval_time_ms /. 1000.0)
  in
  let run_s = total (fun r -> r.Core.Oblx.run_time_s) in
  [
    metric "core.eval.incr.op_hit_ratio" "ratio"
      (ratio (sum (fun s -> s.op_hits)) (sum (fun s -> s.op_hits + s.op_misses)));
    metric "core.eval.incr.rom_reuse_ratio" "ratio"
      (ratio (sum (fun s -> s.rom_reuses)) (sum (fun s -> s.rom_builds + s.rom_reuses)));
    metric "core.eval.incr.spec_reuse_ratio" "ratio"
      (ratio (sum (fun s -> s.spec_reuses)) (sum (fun s -> s.spec_evals + s.spec_reuses)));
    metric "core.eval.incr.dirty_vars_per_eval" "count"
      (ratio (sum (fun s -> s.dirty_vars)) (sum (fun s -> s.incr_evals)));
    metric "core.eval.incr.probes_per_exact_eval" "count" (ratio (sum (fun s -> s.probes)) exact);
    metric "core.eval.incr.probe_fallback_ratio" "ratio"
      (ratio (sum (fun s -> s.probe_fallbacks)) (sum (fun s -> s.probe_rom_builds)));
    metric "core.eval.incr.resync_mismatches" "count"
      (float_of_int (sum (fun s -> s.resync_mismatches)));
    metric "core.oblx.non_eval_s" "s" ((run_s -. eval_s) /. float_of_int (List.length runs));
    metric "core.oblx.exact_eval_share" "ratio" (if run_s > 0.0 then eval_s /. run_s else 0.0);
    metric "core.oblx.accept_ratio" "ratio"
      (ratio
         (List.fold_left (fun a r -> a + r.result.Core.Oblx.accepted) 0 runs)
         (List.fold_left (fun a r -> a + r.result.Core.Oblx.moves) 0 runs));
  ]
