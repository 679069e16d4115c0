(* Incremental evaluation (Eval.Incr) must be bit-identical to the full
   evaluator. Random 1k-move walks over every synthesizable suite circuit
   compare the complete breakdown after every step — including the
   rejected/undone ones, which exercise the diff-based dirtying both
   ways. *)

let compile name =
  let e = Option.get (Suite.Ckts.find name) in
  match Core.Compile.compile_source e.Suite.Ckts.source with
  | Ok p -> p
  | Error msg -> Alcotest.failf "%s: %s" name msg

let check_bits name what a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %s differs: full %h vs incr %h" name what a b

let check_breakdown name (full : Core.Eval.breakdown) (incr : Core.Eval.breakdown) =
  check_bits name "total" full.Core.Eval.total incr.Core.Eval.total;
  check_bits name "c_obj" full.Core.Eval.c_obj incr.Core.Eval.c_obj;
  check_bits name "c_perf" full.Core.Eval.c_perf incr.Core.Eval.c_perf;
  check_bits name "c_dev" full.Core.Eval.c_dev incr.Core.Eval.c_dev;
  check_bits name "c_dc" full.Core.Eval.c_dc incr.Core.Eval.c_dc

(* The annealer's dominant move: scale a uniformly chosen variable by a
   random step, clamped to its bounds. Returns the variable and the value
   it held, so the move can be undone. *)
let perturb rng (st : Core.State.t) =
  let v = Anneal.Rng.int rng (Core.State.n_vars st) in
  let prev = st.Core.State.values.(v) in
  st.Core.State.values.(v) <-
    Core.State.clamp st v (prev +. ((Anneal.Rng.float rng -. 0.5) *. (Float.abs prev +. 0.1)));
  (v, prev)

(* A move: perturb one variable (or a couple), sometimes undo the previous
   move, sometimes mutate a weight — everything the annealer does to a
   session between evaluations. *)
let random_walk ?(moves = 1000) ?(resync_every = 128) name =
  let p = compile name in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create 42 in
  let w = ref (Core.Weights.create ()) in
  let ss = Core.Eval.Incr.create ~resync_every p in
  let snapshot = ref (Core.State.snapshot st) in
  for step = 1 to moves do
    (match Anneal.Rng.int rng 10 with
    | 0 ->
        (* undo: jump back to the last snapshot *)
        Core.State.restore ~from:!snapshot st
    | 1 | 2 ->
        (* multi-variable move *)
        snapshot := Core.State.snapshot st;
        for _ = 0 to 1 + Anneal.Rng.int rng 2 do
          ignore (perturb rng st)
        done
    | _ ->
        (* single-variable move, the annealer's common case *)
        snapshot := Core.State.snapshot st;
        ignore (perturb rng st));
    if step mod 97 = 0 then
      (* the annealer re-weights between stages; caches must not care *)
      w :=
        {
          Core.Weights.w_perf = 1.0 +. Anneal.Rng.float rng;
          w_dev = 1.0 +. Anneal.Rng.float rng;
          w_dc = 1.0 +. Anneal.Rng.float rng;
        };
    Core.Eval.Incr.set_class ss (if step mod 2 = 0 then "even" else "odd");
    let incr = Core.Eval.Incr.cost ss !w st in
    let full = Core.Eval.cost p !w st in
    check_breakdown name full incr;
    (* the quick residual path must match the full one bitwise too *)
    if step mod 37 = 0 then begin
      let rq_full = Core.Eval.residuals_quick p st in
      let rq_incr = Core.Eval.Incr.residuals_quick ss st in
      Alcotest.(check int) "residual length" (Array.length rq_full) (Array.length rq_incr);
      Array.iteri (fun i v -> check_bits name (Printf.sprintf "residual %d" i) v rq_incr.(i)) rq_full
    end
  done;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) (name ^ ": no resync mismatches") 0 s.Core.Eval.Incr.resync_mismatches;
  Alcotest.(check bool)
    (name ^ ": incremental path actually used")
    true
    (s.Core.Eval.Incr.incr_evals > moves / 2);
  Alcotest.(check bool)
    (name ^ ": specs reused")
    true
    (s.Core.Eval.Incr.spec_reuses > 0 || s.Core.Eval.Incr.rom_reuses > 0)

(* Batched screening must probe without perturbing: a fuzz walk that
   screens k candidate perturbations per step with [probe_cost] (the
   approximate reduced-order path) and then confirms the chosen one exactly
   must leave [Incr.cost] bit-identical to the full evaluator at every
   confirmation — probing never writes the exact caches. *)
let probe_walk ?(moves = 400) name =
  let p = compile name in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create 1234 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  (* prime the session: probing screens against its cached state *)
  ignore (Core.Eval.Incr.cost ss w st);
  for _step = 1 to moves do
    let base = Core.State.snapshot st in
    let k = 1 + Anneal.Rng.int rng 4 in
    let best = ref None in
    for _ = 1 to k do
      Core.State.restore ~from:base st;
      for _ = 0 to Anneal.Rng.int rng 2 do
        ignore (perturb rng st)
      done;
      let c = Core.Eval.Incr.probe_cost ss w st in
      match !best with
      | Some (bc, _) when bc <= c -> ()
      | _ -> best := Some (c, Core.State.snapshot st)
    done;
    (* confirm the tournament winner — or reject the whole batch — through
       the exact path, and it must still match the full evaluator bitwise *)
    (match !best with
    | Some (_, winner) when Anneal.Rng.int rng 4 > 0 -> Core.State.restore ~from:winner st
    | _ -> Core.State.restore ~from:base st);
    let incr = Core.Eval.Incr.cost ss w st in
    let full = Core.Eval.cost p w st in
    check_breakdown name full incr
  done;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) (name ^ ": no resync mismatches") 0 s.Core.Eval.Incr.resync_mismatches;
  Alcotest.(check bool) (name ^ ": probes ran") true (s.Core.Eval.Incr.probes > 0);
  Alcotest.(check bool)
    (name ^ ": probe path refit jigs")
    true
    (s.Core.Eval.Incr.probe_rom_builds > 0)

(* The measured view itself (ops, roms, spec values) must round-trip. *)
let test_measure_identical () =
  let p = compile "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let ss = Core.Eval.Incr.create p in
  let rng = Anneal.Rng.create 7 in
  let n = Core.State.n_vars st in
  for _ = 1 to 50 do
    let v = Anneal.Rng.int rng n in
    st.Core.State.values.(v) <-
      Core.State.clamp st v (st.Core.State.values.(v) *. (1.0 +. (0.01 *. Anneal.Rng.float rng)));
    let mi = Core.Eval.Incr.measure_with ss st in
    let mf = Core.Eval.measure p st in
    List.iter2
      (fun (sn_f, vf) (sn_i, vi) ->
        Alcotest.(check string) "spec order" sn_f sn_i;
        match (vf, vi) with
        | None, None -> ()
        | Some a, Some b -> check_bits "simple-ota" ("spec " ^ sn_f) a b
        | Some _, None | None, Some _ -> Alcotest.failf "spec %s: presence differs" sn_f)
      mf.Core.Eval.spec_values mi.Core.Eval.spec_values;
    List.iter2
      (fun (en_f, _) (en_i, _) -> Alcotest.(check string) "ops order" en_f en_i)
      mf.Core.Eval.bias.Core.Eval.ops mi.Core.Eval.bias.Core.Eval.ops;
    Array.iteri
      (fun i v -> check_bits "simple-ota" (Printf.sprintf "node %d" i) v mi.Core.Eval.bias.Core.Eval.node_v.(i))
      mf.Core.Eval.bias.Core.Eval.node_v
  done

(* Resync must be able to recover a poisoned session: invalidate drops all
   caches and the next eval runs full. *)
let test_invalidate_recovers () =
  let p = compile "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  let a = Core.Eval.Incr.cost ss w st in
  Core.Eval.Incr.invalidate ss;
  let b = Core.Eval.Incr.cost ss w st in
  check_breakdown "simple-ota" a b;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) "both were full evals" 2 s.Core.Eval.Incr.full_evals

(* Same recovery story with probes in the mix: poisoning the session must
   not leave stale state behind for the screen — the next exact eval
   rebuilds every cache, and the same candidate screens to the same bits. *)
let test_probe_invalidate_recovers () =
  let p = compile "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  let full = Core.Eval.cost p w st in
  ignore (Core.Eval.Incr.cost ss w st);
  let v0 = st.Core.State.values.(0) in
  let perturb () = st.Core.State.values.(0) <- Core.State.clamp st 0 (v0 *. 1.01) in
  perturb ();
  let pc1 = Core.Eval.Incr.probe_cost ss w st in
  st.Core.State.values.(0) <- v0;
  Core.Eval.Incr.invalidate ss;
  (* recovery: full re-eval repopulates every cache, bit-identically *)
  let b = Core.Eval.Incr.cost ss w st in
  check_breakdown "simple-ota" full b;
  (* and the rebuilt caches serve the same screen again *)
  perturb ();
  let pc2 = Core.Eval.Incr.probe_cost ss w st in
  check_bits "simple-ota" "probe cost across invalidate" pc1 pc2;
  st.Core.State.values.(0) <- v0;
  let c = Core.Eval.Incr.cost ss w st in
  check_breakdown "simple-ota" full c;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) "probes" 2 s.Core.Eval.Incr.probes

(* The whole point: an annealing run with the incremental evaluator must
   produce the same trajectory as one without — same accepted count, same
   winner, bit-identical best cost and final design point. Batched probing
   deliberately changes the trajectory (k candidates per decision instead
   of one), so the unbatched incremental run ([probe_batch:1]) is the one
   that must match the full evaluator move for move. *)
let test_synthesize_equivalent name =
  let p = compile name in
  let run incremental =
    Core.Oblx.synthesize ~seed:3 ~moves:800 ~incremental ~probe_batch:1 p
  in
  let a = run false in
  let b = run true in
  Alcotest.(check int) "moves" a.Core.Oblx.moves b.Core.Oblx.moves;
  Alcotest.(check int) "accepted" a.Core.Oblx.accepted b.Core.Oblx.accepted;
  check_bits name "best cost" a.Core.Oblx.best_cost b.Core.Oblx.best_cost;
  Array.iteri
    (fun i v -> check_bits name (Printf.sprintf "final var %d" i) v b.Core.Oblx.final.Core.State.values.(i))
    a.Core.Oblx.final.Core.State.values;
  List.iter2
    (fun (sn, va) (_, vb) ->
      match (va, vb) with
      | None, None -> ()
      | Some x, Some y -> check_bits name ("predicted " ^ sn) x y
      | Some _, None | None, Some _ -> Alcotest.failf "prediction presence differs for %s" sn)
    a.Core.Oblx.predicted b.Core.Oblx.predicted;
  match b.Core.Oblx.eval_stats with
  | None -> Alcotest.fail "incremental run reports no eval stats"
  | Some s ->
      Alcotest.(check int) "no resync mismatches" 0 s.Core.Eval.Incr.resync_mismatches;
      Alcotest.(check bool) "incremental evals dominate" true (s.Core.Eval.Incr.incr_evals > 0)

(* With batched probing ON (the default), the screen orders candidates
   approximately — but every ACCEPTED state must still carry the exact
   cost. Record a probed run at move granularity and replay every accepted
   state against the full evaluator with zero tolerance. *)
let test_batched_accepted_exact name =
  let p = compile name in
  let ring = Obs.Sink.Ring.create ~capacity:200_000 in
  let trace = Obs.Trace.make ~level:Obs.Event.Moves [ Obs.Sink.Ring.sink ring ] in
  let r = Core.Oblx.synthesize ~seed:5 ~moves:800 ~obs:trace p in
  Obs.Trace.close trace;
  (match r.Core.Oblx.eval_stats with
  | None -> Alcotest.fail "probed run reports no eval stats"
  | Some s ->
      Alcotest.(check bool) (name ^ ": probes ran") true (s.Core.Eval.Incr.probes > 0);
      Alcotest.(check int) (name ^ ": no resync mismatches") 0 s.Core.Eval.Incr.resync_mismatches);
  match Core.Oblx.replay ~tol:0.0 p (Obs.Sink.Ring.contents ring) with
  | Ok stats ->
      Alcotest.(check bool)
        (name ^ ": accepted states replayed")
        true
        (stats.Obs.Replay.rs_checked > 0)
  | Error (ms, _) ->
      Alcotest.failf "%s: %d accepted states do not re-evaluate exactly" name (List.length ms)

(* The spec context memoizes each tf's transient until it is repointed.
   One tran-buffer session is repointed by every path that can do so —
   exact cost, probe screening, reset — between two states whose
   transients differ; after every exact step the transient rows must
   equal the full evaluator's for the state just evaluated, so a repoint
   that kept the previous state's waveform shows as a mismatch. *)
let test_transient_memo_not_stale () =
  let name = "tran-buffer" in
  let p = compile name in
  let w = Core.Weights.create () in
  let a = Core.State.snapshot p.Core.Problem.state0 in
  let b = Core.State.snapshot a in
  let ib =
    let rec find i =
      match b.Core.State.info.(i) with
      | Core.State.User { name = "ib"; _ } -> i
      | Core.State.User _ | Core.State.Node_voltage _ -> find (i + 1)
    in
    find 0
  in
  b.Core.State.values.(ib) <- Core.State.clamp b ib (4.0 *. b.Core.State.values.(ib));
  let transient_rows (m : Core.Eval.measured) =
    List.map (fun row -> List.assoc row m.Core.Eval.spec_values) [ "sr"; "ts" ]
  in
  let expect what st (m : Core.Eval.measured) =
    List.iter2
      (fun row (full, incr) ->
        match (full, incr) with
        | Some f, Some i -> check_bits name (what ^ ": " ^ row) f i
        | None, None -> ()
        | Some _, None | None, Some _ -> Alcotest.failf "%s: %s: presence differs" what row)
      [ "sr"; "ts" ]
      (List.combine (transient_rows (Core.Eval.measure p st)) (transient_rows m))
  in
  (* the two states must differ where it matters, or the test proves nothing *)
  (match (transient_rows (Core.Eval.measure p a), transient_rows (Core.Eval.measure p b)) with
  | Some sa :: _, Some sb :: _ ->
      Alcotest.(check bool) "A and B slew differently" false (Float.equal sa sb)
  | _ -> Alcotest.fail "slew_rate unmeasurable at A or B");
  let ss = Core.Eval.Incr.create p in
  let cost what st = expect what st (Core.Eval.Incr.cost ss w st).Core.Eval.measured in
  cost "cost A" a;
  ignore (Core.Eval.Incr.probe_cost ss w b);
  cost "cost B after probe B" b;
  cost "cost A" a;
  Core.Eval.Incr.reset ss;
  cost "cost B after reset" b

(* Minor-heap words [f ()] allocates. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Screening pays only while a screen costs less than the exact
   evaluation it stands in for. Counted in minor-heap words, which do not
   depend on the host: a primed session, variable 0 scaled by 5%, and the
   second probe of that candidate (the first one warms the device memo),
   against the full evaluator on the same candidate. *)
let test_screen_cheaper name =
  let p = compile name in
  let w = Core.Weights.create () in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let ss = Core.Eval.Incr.create p in
  ignore (Core.Eval.Incr.cost ss w st);
  st.Core.State.values.(0) <- Core.State.clamp st 0 (st.Core.State.values.(0) *. 1.05);
  ignore (Core.Eval.Incr.probe_cost ss w st);
  let probe = minor_words (fun () -> Core.Eval.Incr.probe_cost ss w st) in
  let full = minor_words (fun () -> (Core.Eval.cost p w st).Core.Eval.total) in
  if not (probe < full) then
    Alcotest.failf "%s: probe_cost allocates %.0f words, Eval.cost %.0f" name probe full

(* Work per decision. A screened decision costs [probe_batch] screens and
   one exact confirmation; the screen pays only while that stays well
   below one exact evaluation per candidate. Throughput ratios swing by
   half between identical runs on a shared host, so these gates count work
   that is fixed for a seed and a build: minor-heap words and exact ROM
   builds, over 1,000 candidates of the annealer's dominant move with
   about half the moves undone. *)
let work_seed = 1988 + 17
let work_candidates = 1000

(* One evaluation per candidate. *)
let plain_walk p eval =
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create work_seed in
  for _ = 1 to work_candidates do
    let v, prev = perturb rng st in
    ignore (eval st);
    if Anneal.Rng.bool rng then st.Core.State.values.(v) <- prev
  done

(* The annealer's tournament: each decision screens [probe_batch]
   candidates from one base state, confirms the best-screened one exactly,
   and is rejected about half the time. *)
let screened_walk p ss w =
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create work_seed in
  let k = Core.Oblx.default_probe_batch in
  for _ = 1 to work_candidates / k do
    let base = Core.State.snapshot st in
    let best_c = ref Float.infinity and best_st = ref base in
    for _ = 1 to k do
      Core.State.restore ~from:base st;
      ignore (perturb rng st);
      let c = Core.Eval.Incr.probe_cost ss w st in
      if c < !best_c then begin
        best_c := c;
        best_st := Core.State.snapshot st
      end
    done;
    Core.State.restore ~from:!best_st st;
    Core.Eval.Incr.set_class ss "confirm";
    ignore (Core.Eval.Incr.cost_scalar ss w st);
    if Anneal.Rng.bool rng then Core.State.restore ~from:base st
  done

(* (a) On the best circuit, an exact evaluation must allocate at least
   [words_floor] times what a screened candidate does, confirmation
   included. Both walks cover [work_candidates] candidates, so the ratio
   of their totals is the per-candidate ratio. The count is exact, so the
   floor needs no noise margin: ladder-bias-amp reads 8.1, and a screen
   that falls through to the exact incremental path reads 5.6 there. *)
let words_floor = 7.0

let test_screen_words () =
  let ratio name =
    let p = compile name in
    let w = Core.Weights.create () in
    let exact = minor_words (fun () -> plain_walk p (fun st -> Core.Eval.cost p w st)) in
    let ss = Core.Eval.Incr.create p in
    let screened = minor_words (fun () -> screened_walk p ss w) in
    Printf.printf "%s: %.0f exact / %.0f screened words per candidate = %.2f\n" name
      (exact /. float_of_int work_candidates)
      (screened /. float_of_int work_candidates)
      (exact /. screened);
    exact /. screened
  in
  let ratios = List.map ratio [ "simple-ota"; "two-stage"; "folded-cascode"; "ladder-bias-amp" ] in
  let best = List.fold_left Float.max 0.0 ratios in
  if best < words_floor then
    Alcotest.failf "best exact/screened words ratio %.2f is below the floor %.1f" best words_floor

(* (b) On ladder-bias-amp, the screened walk must build at most
   1/[rom_builds_drop] as many exact ROMs per candidate as the plain
   incremental walk does per move: the exact path refits once per
   decision, not once per candidate. *)
let rom_builds_drop = 2.5

let test_screen_rom_builds () =
  let name = "ladder-bias-amp" in
  let p = compile name in
  let w = Core.Weights.create () in
  let builds walk =
    let ss = Core.Eval.Incr.create p in
    walk ss;
    (Core.Eval.Incr.stats ss).Core.Eval.Incr.rom_builds
  in
  let plain = builds (fun ss -> plain_walk p (Core.Eval.Incr.cost_scalar ss w)) in
  let screened = builds (fun ss -> screened_walk p ss w) in
  Printf.printf "%s: %d exact ROM builds plain, %d screened, per %d candidates\n" name plain
    screened work_candidates;
  if float_of_int screened *. rom_builds_drop > float_of_int plain then
    Alcotest.failf "%s: %d exact ROM builds screened vs %d plain; the floor is 1/%.1f" name
      screened plain rom_builds_drop

(* [f ss w st] at [state0] and after each of 50 random single-variable
   moves, on one session. *)
let at_single_moves name f =
  let p = compile name in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create 99 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  f ss w st;
  for _ = 1 to 50 do
    ignore (perturb rng st);
    f ss w st
  done

(* The screen and the exact sync share one element kernel and one dirty
   walk. Screening the state just evaluated exactly finds nothing dirty,
   so it must read back the exact total bit for bit. *)
let test_screen_of_accepted name =
  at_single_moves name (fun ss w st ->
      let exact = (Core.Eval.Incr.cost ss w st).Core.Eval.total in
      check_bits name "screen of the accepted state" exact (Core.Eval.Incr.probe_cost ss w st))

(* The screen warms the shared device memo with the very keys the exact
   sync of the same candidate asks for, so confirming a screened candidate
   evaluates no device model. *)
let test_confirm_after_screen name =
  at_single_moves name (fun ss w st ->
      ignore (Core.Eval.Incr.probe_cost ss w st);
      let misses () = (Core.Eval.Incr.stats ss).Core.Eval.Incr.op_misses in
      let before = misses () in
      ignore (Core.Eval.Incr.cost ss w st);
      Alcotest.(check int) (name ^ ": op misses of the confirm") before (misses ()))

let () =
  let synthesized =
    List.filter_map
      (fun (e : Suite.Ckts.entry) ->
        if e.Suite.Ckts.synthesized then Some e.Suite.Ckts.name else None)
      Suite.Ckts.all
  in
  let per_circuit what speed f =
    List.map
      (fun name -> Alcotest.test_case (what ^ " " ^ name) speed (fun () -> f name))
      synthesized
  in
  Alcotest.run "incr"
    [
      ("bit-identity walks", per_circuit "walk" `Slow (fun name -> random_walk name));
      ("probe-then-confirm walks", per_circuit "probe walk" `Slow (fun name -> probe_walk name));
      ( "measured view",
        [
          Alcotest.test_case "measure identical" `Quick test_measure_identical;
          Alcotest.test_case "invalidate recovers" `Quick test_invalidate_recovers;
          Alcotest.test_case "probe invalidate recovers" `Quick test_probe_invalidate_recovers;
          Alcotest.test_case "transient memo not stale" `Quick test_transient_memo_not_stale;
        ] );
      ( "screen cost",
        List.map
          (fun name ->
            Alcotest.test_case ("cheaper than full eval " ^ name) `Quick (fun () ->
                test_screen_cheaper name))
          [ "simple-ota"; "two-stage"; "folded-cascode"; "tran-buffer" ] );
      ( "work per decision",
        [
          Alcotest.test_case "exact words per screened candidate" `Slow test_screen_words;
          Alcotest.test_case "exact ROM builds per screened candidate" `Slow
            test_screen_rom_builds;
        ] );
      ( "shared kernel",
        per_circuit "screen of the accepted state is its exact cost" `Quick
          test_screen_of_accepted
        @ per_circuit "confirm after screen evaluates no device model" `Quick
            test_confirm_after_screen );
      ( "synthesis equivalence",
        [
          Alcotest.test_case "simple-ota" `Slow (fun () ->
              test_synthesize_equivalent "simple-ota");
          Alcotest.test_case "two-stage" `Slow (fun () ->
              test_synthesize_equivalent "two-stage");
          Alcotest.test_case "ladder-bias-amp" `Slow (fun () ->
              test_synthesize_equivalent "ladder-bias-amp");
          Alcotest.test_case "batched accepted exact simple-ota" `Slow (fun () ->
              test_batched_accepted_exact "simple-ota");
          Alcotest.test_case "batched accepted exact two-stage" `Slow (fun () ->
              test_batched_accepted_exact "two-stage");
        ] );
    ]
