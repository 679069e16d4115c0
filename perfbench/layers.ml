(* The traced replay: accepted design points recorded by traced runs are
   pushed again through the public calls of each evaluation layer, in
   pipeline order, each call inside a span. Per state: full eval, full
   measure, bias point, then per test jig linearize -> factor -> per
   transfer function moments -> Pade -> ROM measurements, then one step
   transient. Consecutive states of one block also go through a single
   incremental session (exact cost, probe screen, Newton step). *)

open Common

let moment_count = (2 * 6) + 2 (* Rom.of_moments' default qmax is 6 *)
let qmax = 6

(* Orders the Pade descent fitted per ROM build, and the builds that found
   no stable model at any order. *)
let orders_tried = ref 0
let rom_builds = ref 0
let no_stable_model = ref 0

(* One step transient: over the first jig declaring a .tran card, at its
   in-loop step, else over the first jig with a fixed 1 us / 10 ns / 10 mV
   step so the layer is timed on every circuit. *)
let transient p ~value =
  let jigs = p.Core.Problem.jigs in
  let with_card =
    List.filter (fun (j : Core.Problem.jig) -> j.Core.Problem.jig_tran <> None) jigs
  in
  match with_card @ jigs with
  | { Core.Problem.tfs = (tf, _) :: _; jig_tran; _ } :: _ -> (
      let tstop, dt, vstep =
        match jig_tran with
        | Some tc ->
            ( tc.Netlist.Ast.tr_tstop,
              Option.value tc.Netlist.Ast.tr_dtloop ~default:tc.Netlist.Ast.tr_dt,
              tc.Netlist.Ast.tr_vstep )
        | None -> (1e-6, 1e-8, 1e-2)
      in
      try ignore (Core.Eval.transient_response p ~value ~tf ~vstep ~tstop ~dt)
      with Core.Eval.Measurement_failed _ -> ())
  | _ -> ()

let rom_measure (rom : Awe.Rom.t) =
  ignore (Awe.Rom.unity_gain_freq rom);
  ignore (Awe.Rom.phase_margin rom);
  ignore (Awe.Rom.bandwidth_3db rom)

let jig_pipeline ~group ~value ~ops (j : Core.Problem.jig) =
  match
    span ~group "mna.linearize.build" (fun () ->
        Mna.Linearize.build ~value ~ops j.Core.Problem.jig_circuit)
  with
  | exception Failure _ -> ()
  | lin -> (
      match span ~group "awe.moments.factor" (fun () -> Awe.Moments.factor lin) with
      | exception (Failure _ | La.Lu.Singular _) -> ()
      | fac ->
          List.iter
            (fun (_, (tf : Core.Problem.tf)) ->
              match
                let b = Mna.Linearize.excitation_of lin ~src:tf.Core.Problem.src in
                let sel =
                  Mna.Linearize.output_vector lin ~pos:tf.Core.Problem.out_pos
                    ~neg:tf.Core.Problem.out_neg
                in
                span ~group "awe.moments.compute_with" (fun () ->
                    Awe.Moments.compute_with fac ~b ~sel ~count:moment_count)
              with
              | exception (Failure _ | La.Lu.Singular _) -> ()
              | moments -> (
                  incr rom_builds;
                  match
                    span ~group "awe.rom.of_moments" (fun () -> Awe.Rom.of_moments ~qmax moments)
                  with
                  | Ok rom ->
                      orders_tried := !orders_tried + (qmax - rom.Awe.Rom.rom.Awe.Pade.q + 1);
                      span ~group "awe.rom.measure" (fun () -> rom_measure rom)
                  | Error _ ->
                      orders_tried := !orders_tried + qmax;
                      incr no_stable_model))
            j.Core.Problem.tfs)

(* The layers [Eval.measure] runs internally; its own remainder (spec
   expressions, corner rows, list plumbing) is its time minus theirs. *)
let measure_children =
  [
    "core.eval.bias_point";
    "mna.linearize.build";
    "awe.moments.factor";
    "awe.moments.compute_with";
    "awe.rom.of_moments";
    "awe.rom.measure";
  ]

let state_of p (values, grid) =
  {
    Core.State.info = p.Core.Problem.state0.Core.State.info;
    values = Array.copy values;
    grid_index = Array.copy grid;
  }

let next_group = ref 0

let replay_state p st =
  incr next_group;
  let group = !next_group in
  let w = Core.Weights.create () in
  span ~group "replay.state" (fun () ->
      ignore (span ~group "core.eval.cost" (fun () -> Core.Eval.cost p w st));
      ignore (span ~group "core.eval.measure" (fun () -> Core.Eval.measure p st));
      let bp = span ~group "core.eval.bias_point" (fun () -> Core.Eval.bias_point p st) in
      let env = Core.Eval.value_env p st in
      let value e = Netlist.Expr.eval env e in
      let ops name = List.assoc_opt name bp.Core.Eval.ops in
      List.iter (jig_pipeline ~group ~value ~ops) p.Core.Problem.jigs;
      span ~group "mna.tran.transient_response" (fun () -> transient p ~value))

(* A block of consecutive accepted states through one incremental session:
   each state is first screened with [probe_cost] against the caches the
   previous state left, then evaluated exactly, then given one Newton step
   (on a copy — the step moves the state). *)
let replay_block p states =
  let ss = Core.Eval.Incr.create p in
  let w = Core.Weights.create () in
  List.iteri
    (fun i st ->
      incr next_group;
      let group = !next_group in
      if i > 0 then
        ignore
          (span ~group "core.eval.incr.probe_cost" (fun () -> Core.Eval.Incr.probe_cost ss w st));
      ignore (span ~group "core.eval.incr.cost" (fun () -> Core.Eval.Incr.cost ss w st));
      let cp = Core.State.snapshot st in
      ignore
        (span ~group "core.moves.newton_step_with" (fun () ->
             Core.Moves.newton_step_with ~session:ss p cp ~damping:1.0)))
    states

(* [blocks] evenly spaced runs of [block] consecutive accepted states. *)
let sample ~blocks ~block states =
  let a = Array.of_list states in
  let n = Array.length a in
  if n = 0 then []
  else
    List.init blocks (fun b ->
        let start = Int.max 0 (Int.min (n - block) (b * n / blocks)) in
        List.init (Int.min block (n - start)) (fun k -> a.(start + k)))
    |> List.sort_uniq compare

let replay p recorded ~blocks ~block =
  List.iter
    (fun blk ->
      let sts = List.map (state_of p) blk in
      List.iter (replay_state p) sts;
      replay_block p sts)
    (sample ~blocks ~block recorded)

let spec_self_us () =
  let by_group = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let cur = Option.value (Hashtbl.find_opt by_group s.sp_group) ~default:(0.0, 0.0) in
      if s.sp_name = "core.eval.measure" then
        Hashtbl.replace by_group s.sp_group (fst cur +. duration s, snd cur)
      else if List.mem s.sp_name measure_children then
        Hashtbl.replace by_group s.sp_group (fst cur, snd cur +. duration s))
    !spans;
  let selfs =
    Hashtbl.fold
      (fun _ (m, kids) acc -> if m > 0.0 then (1e6 *. (m -. kids)) :: acc else acc)
      by_group []
  in
  median selfs

let layer_names =
  [
    "core.eval.cost";
    "core.eval.measure";
    "core.eval.bias_point";
    "mna.linearize.build";
    "awe.moments.factor";
    "awe.moments.compute_with";
    "awe.rom.of_moments";
    "awe.rom.measure";
    "mna.tran.transient_response";
    "core.eval.incr.cost";
    "core.eval.incr.probe_cost";
    "core.moves.newton_step_with";
  ]

let metrics () =
  List.concat_map layer_metrics layer_names
  @ [
      metric "core.eval.spec_self.us_per_call" "us" (spec_self_us ());
      metric "awe.rom.orders_tried" "count" (ratio !orders_tried !rom_builds);
      metric "awe.rom.no_stable_model" "count" (float_of_int !no_stable_model);
    ]
