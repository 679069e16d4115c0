(* Tests for the post-synthesis robustness extensions: process corners,
   sensitivity analysis, and the transient slew-rate cross-check. *)

let compile_simple_ota () =
  match Core.Compile.compile_source Suite.Simple_ota.source with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* A fixed, known-good sizing for the simple OTA (from a converged run) so
   these tests don't have to synthesize first. *)
let sizing =
  [
    ("w1", 60e-6); ("l1", 1.6e-6); ("w3", 30e-6); ("l3", 1.6e-6); ("w5", 50e-6);
    ("l5", 2.4e-6); ("ib", 120e-6);
  ]

let sized_state p =
  let st = Core.State.snapshot p.Core.Problem.state0 in
  Array.iteri
    (fun i info ->
      match info with
      | Core.State.User { name; _ } -> begin
          match List.assoc_opt name sizing with
          | Some v -> Core.State.set_initial st i v
          | None -> ()
        end
      | Core.State.Node_voltage _ -> ())
    st.Core.State.info;
  st

let test_corner_skew_changes_current () =
  let nominal = Result.get_ok (Devices.Registry.build ~process:"p1u2" []) in
  let slow_corner = List.nth Core.Corners.standard 1 in
  let slow = Result.get_ok (Devices.Registry.build ~process:"p1u2" ~corner:slow_corner []) in
  let id reg =
    match Devices.Registry.find_exn reg "nmos" with
    | Devices.Sig.Mos { eval; _ } ->
        (eval ~w:10e-6 ~l:2e-6 ~m:1.0 ~vd:2.5 ~vg:2.0 ~vs:0.0 ~vb:0.0).Devices.Sig.id_
    | Devices.Sig.Bjt _ -> Alcotest.fail "nmos"
  in
  Alcotest.(check bool) "slow silicon carries less current" true (id slow < 0.92 *. id nominal)

let test_corners_analyze () =
  let p = compile_simple_ota () in
  match Core.Corners.analyze ~source:Suite.Simple_ota.source ~sizing () with
  | Error e -> Alcotest.fail e
  | Ok results ->
      Alcotest.(check int) "five corners" 5 (List.length results);
      (* Every corner of this healthy design must simulate, and gain must
         vary across corners but stay in a plausible band. *)
      let gains =
        List.map
          (fun sc ->
            match List.assoc "adm" sc.Core.Corners.sc_values with
            | Ok v -> v
            | Error e -> Alcotest.failf "%s: %s" sc.sc_corner e)
          results
      in
      List.iter
        (fun g -> Alcotest.(check bool) "gain plausible" true (g > 20.0 && g < 70.0))
        gains;
      let mn = List.fold_left Float.min infinity gains in
      let mx = List.fold_left Float.max neg_infinity gains in
      Alcotest.(check bool) "corners actually differ" true (mx -. mn > 0.05);
      (* Worst case folds in the pessimistic direction. *)
      let wc = Core.Corners.worst_case p results in
      (match List.assoc "adm" wc with
      | Ok v -> Alcotest.(check (float 1e-9)) "worst gain is the min" mn v
      | Error e -> Alcotest.fail e);
      match List.assoc "pwr" wc with
      | Ok v ->
          let pwrs =
            List.filter_map
              (fun sc ->
                match List.assoc "pwr" sc.Core.Corners.sc_values with
                | Ok v -> Some v
                | Error _ -> None)
              results
          in
          Alcotest.(check (float 1e-12)) "worst power is the max"
            (List.fold_left Float.max 0.0 pwrs) v
      | Error e -> Alcotest.fail e

let test_sensitivity_shapes () =
  let p = compile_simple_ota () in
  let st = sized_state p in
  let s = Core.Sensitivity.compute p st in
  Alcotest.(check int) "vars" 7 (Array.length s.Core.Sensitivity.var_names);
  Alcotest.(check int) "specs" (List.length p.Core.Problem.specs)
    (Array.length s.Core.Sensitivity.spec_names);
  (* Slew rate is sr = ib/(cl + cd): its sensitivity to ib must be
     positive and close to +1 (cd's ib-dependence is second order). *)
  let dom = Core.Sensitivity.dominant s ~spec:"sr" 7 in
  let sens_ib = List.assoc "ib" dom in
  Alcotest.(check bool) "d(sr)/d(ib) ~ +1" true (sens_ib > 0.5 && sens_ib < 1.3);
  (* Area is sum w*l: sensitivity to any width is positive. *)
  let dom_area = Core.Sensitivity.dominant s ~spec:"area" 7 in
  List.iter
    (fun (v, sv) ->
      if String.length v = 2 && v.[0] = 'w' then
        Alcotest.(check bool) (v ^ " grows area") true (sv > 0.0))
    dom_area

let test_transient_slew_cross_check () =
  let p = compile_simple_ota () in
  let st = sized_state p in
  (* Expression-based SR at this sizing. *)
  ignore (Core.Moves.newton_global p st);
  let m = Core.Eval.measure p st in
  let sr_expr =
    match List.assoc "sr" m.Core.Eval.spec_values with
    | Some v -> v
    | None -> Alcotest.fail "sr unmeasured"
  in
  (* Transient-measured SR: simulate ~3x the expected slewing time. *)
  let tstop = 10.0 *. 2.5 /. sr_expr in
  match Core.Verify.transient_slew p st ~tf:"tf" ~vstep:2.0 ~tstop ~dt:(tstop /. 600.0) with
  | Error e -> Alcotest.failf "transient: %s" e
  | Ok sr_tran ->
      (* The hand expression and the bench measurement agree in order of
         magnitude (the paper's own SR rows differ by ~15%). *)
      let ratio = sr_tran /. sr_expr in
      if ratio < 0.3 || ratio > 3.0 then
        Alcotest.failf "slew mismatch: expr %g vs transient %g" sr_expr sr_tran

(* A jig-only element whose value expression cannot be evaluated (0/0)
   must fail the jig's transfer functions as measurements, never raise out
   of the evaluator: both evaluators price the penalty identically, and
   the annealer runs to completion. *)
let poisoned_simple_ota () =
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then Alcotest.failf "netlist fragment %S not found" sub
      else if String.sub s i n = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let src =
    Suite.Simple_ota.source
    |> replace ~sub:".param cl=1p\n" ~by:".param cl=1p\n.param rzero=0\n"
    |> replace ~sub:".pz tf v(out) vin\n" ~by:"rz out 0 'rzero/rzero'\n.pz tf v(out) vin\n"
  in
  match Core.Compile.compile_source src with Ok p -> p | Error e -> Alcotest.fail e

let test_jig_expression_error () =
  let p = poisoned_simple_ota () in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let check what =
    let full = (Core.Eval.cost p w st).Core.Eval.total in
    let incr = (Core.Eval.Incr.cost ss w st).Core.Eval.total in
    if not (Float.is_finite full) then Alcotest.failf "%s: full cost %g" what full;
    if not (Int64.equal (Int64.bits_of_float full) (Int64.bits_of_float incr)) then
      Alcotest.failf "%s: full %h vs incremental %h" what full incr
  in
  check "state0";
  st.Core.State.values.(0) <- Core.State.clamp st 0 (st.Core.State.values.(0) *. 1.05);
  check "moved";
  let r = Core.Oblx.synthesize ~seed:3 ~moves:200 p in
  if Float.is_nan r.Core.Oblx.best_cost then Alcotest.fail "synthesis returned a NaN cost"

let () =
  Alcotest.run "robustness"
    [
      ( "corners",
        [
          Alcotest.test_case "skew changes current" `Quick test_corner_skew_changes_current;
          Alcotest.test_case "analyze + worst case" `Slow test_corners_analyze;
        ] );
      ("sensitivity", [ Alcotest.test_case "shapes and signs" `Slow test_sensitivity_shapes ]);
      ("slew", [ Alcotest.test_case "expression vs transient" `Slow test_transient_slew_cross_check ]);
      ( "failures",
        [
          Alcotest.test_case "jig expression error is a failed measurement" `Quick
            test_jig_expression_error;
        ] );
    ]
