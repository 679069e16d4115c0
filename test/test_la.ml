(* Unit and property tests for the dense linear-algebra substrate. *)

let approx ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)

let check_approx ?tol msg a b =
  if not (approx ?tol a b) then Alcotest.failf "%s: %.17g vs %.17g" msg a b

(* --- Vec --- *)

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  check_approx "dot" (La.Vec.dot x y) 32.0;
  check_approx "norm2" (La.Vec.norm2 x) (Float.sqrt 14.0);
  check_approx "norm_inf" (La.Vec.norm_inf [| -5.0; 2.0 |]) 5.0;
  let z = La.Vec.copy y in
  La.Vec.axpy 2.0 x z;
  check_approx "axpy" z.(2) 12.0;
  Alcotest.(check int) "max_abs_index" 0 (La.Vec.max_abs_index [| -9.0; 2.0; 8.0 |])

let test_vec_errors () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: dim mismatch") (fun () ->
      ignore (La.Vec.dot [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "empty max_abs" (Invalid_argument "Vec.max_abs_index: empty") (fun () ->
      ignore (La.Vec.max_abs_index [||]))

(* --- Mat --- *)

let test_mat_mul () =
  let a = La.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = La.Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = La.Mat.mul a b in
  check_approx "c00" (La.Mat.get c 0 0) 19.0;
  check_approx "c11" (La.Mat.get c 1 1) 50.0;
  let x = La.Mat.mul_vec a [| 1.0; 1.0 |] in
  check_approx "mv" x.(1) 7.0

let test_mat_transpose_identity () =
  let a = La.Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let at = La.Mat.transpose a in
  Alcotest.(check int) "rows" 3 (La.Mat.rows at);
  check_approx "t" (La.Mat.get at 2 1) 6.0;
  let i3 = La.Mat.identity 3 in
  let prod = La.Mat.mul i3 at in
  check_approx "I*a" (La.Mat.get prod 0 1) (La.Mat.get at 0 1)

(* --- LU --- *)

let random_matrix rng n =
  La.Mat.init n n (fun _ _ -> QCheck.Gen.float_range (-10.0) 10.0 rng)

let prop_lu_solve =
  QCheck.Test.make ~name:"lu: A x = b residual small" ~count:120
    QCheck.(pair (int_range 1 12) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_matrix rng n in
      (* Make it diagonally dominant so it is comfortably nonsingular. *)
      for k = 0 to n - 1 do
        La.Mat.add_to a k k (30.0 *. float_of_int n)
      done;
      let b = Array.init n (fun _ -> QCheck.Gen.float_range (-5.0) 5.0 rng) in
      let lu = La.Lu.factor a in
      let x = La.Lu.solve lu b in
      let r = La.Vec.sub (La.Mat.mul_vec a x) b in
      La.Vec.norm_inf r < 1e-8)

let prop_lu_transposed =
  QCheck.Test.make ~name:"lu: A^T x = b via solve_transposed" ~count:80
    QCheck.(pair (int_range 1 10) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed + 77 |] in
      let a = random_matrix rng n in
      for k = 0 to n - 1 do
        La.Mat.add_to a k k (30.0 *. float_of_int n)
      done;
      let b = Array.init n (fun _ -> QCheck.Gen.float_range (-5.0) 5.0 rng) in
      let lu = La.Lu.factor a in
      let x = La.Lu.solve_transposed lu b in
      let r = La.Vec.sub (La.Mat.mul_vec (La.Mat.transpose a) x) b in
      La.Vec.norm_inf r < 1e-8)

let test_lu_singular () =
  let a = La.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match La.Lu.factor a with
  | exception La.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_lu_det () =
  let a = La.Mat.of_arrays [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  check_approx "det" (La.Lu.det (La.Lu.factor a)) 6.0;
  (* Pivoting flips the sign bookkeeping, not the determinant. *)
  let b = La.Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_approx "perm det" (La.Lu.det (La.Lu.factor b)) (-1.0)

(* Reference for bit identity: LU written with one [Mat.get]/[Mat.add_to]
   call per flop, the formulation [La.Lu] used before it indexed the
   backing array directly. Kept verbatim so the two can be compared bit
   for bit; [factor] returns the factor matrix, pivot vector and sign. *)
module Ref_lu = struct
  exception Singular of int

  let factor a =
    let n = La.Mat.rows a in
    let lu = La.Mat.copy a in
    let piv = Array.init n (fun k -> k) in
    let sign = ref 1.0 in
    for k = 0 to n - 1 do
      let p = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (La.Mat.get lu i k) > Float.abs (La.Mat.get lu !p k) then p := i
      done;
      if !p <> k then begin
        for j = 0 to n - 1 do
          let tmp = La.Mat.get lu k j in
          La.Mat.set lu k j (La.Mat.get lu !p j);
          La.Mat.set lu !p j tmp
        done;
        let tp = piv.(k) in
        piv.(k) <- piv.(!p);
        piv.(!p) <- tp;
        sign := -. !sign
      end;
      let pivot = La.Mat.get lu k k in
      if Float.abs pivot < 1e-300 || not (Float.is_finite pivot) then raise (Singular k);
      for i = k + 1 to n - 1 do
        let f = La.Mat.get lu i k /. pivot in
        La.Mat.set lu i k f;
        if f <> 0.0 then
          for j = k + 1 to n - 1 do
            La.Mat.add_to lu i j (-.f *. La.Mat.get lu k j)
          done
      done
    done;
    (lu, piv, !sign)

  let solve (lu, piv, _) b =
    let n = La.Mat.rows lu in
    let y = Array.init n (fun i -> b.(piv.(i))) in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        y.(i) <- y.(i) -. (La.Mat.get lu i j *. y.(j))
      done
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        y.(i) <- y.(i) -. (La.Mat.get lu i j *. y.(j))
      done;
      y.(i) <- y.(i) /. La.Mat.get lu i i
    done;
    y

  let solve_transposed (lu, piv, _) b =
    let n = La.Mat.rows lu in
    let z = Array.copy b in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        z.(i) <- z.(i) -. (La.Mat.get lu j i *. z.(j))
      done;
      z.(i) <- z.(i) /. La.Mat.get lu i i
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        z.(i) <- z.(i) -. (La.Mat.get lu j i *. z.(j))
      done
    done;
    let x = Array.make n 0.0 in
    for i = 0 to n - 1 do
      x.(piv.(i)) <- z.(i)
    done;
    x
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_vec x y = Array.length x = Array.length y && Array.for_all2 same_bits x y

(* Unscaled random entries (no diagonal boost) so partial pivoting swaps
   rows; [zero_col] zeroes a column to force [Singular] at some step. *)
let prop_lu_bit_identical =
  QCheck.Test.make ~name:"lu: bit-identical to the accessor formulation" ~count:200
    QCheck.(triple (int_range 1 14) (int_range 0 10000) (int_range (-6) 13))
    (fun (n, seed, zero_col) ->
      let rng = Random.State.make [| seed + 4242 |] in
      let a = random_matrix rng n in
      if zero_col >= 0 && zero_col < n then
        for i = 0 to n - 1 do
          La.Mat.set a i zero_col 0.0
        done;
      let a_before = La.Mat.copy a in
      match Ref_lu.factor a with
      | exception Ref_lu.Singular k -> begin
          let raised f = match f () with _ -> None | exception La.Lu.Singular k' -> Some k' in
          raised (fun () -> La.Lu.factor a) = Some k
          && raised (fun () -> La.Lu.factor_in_place (La.Mat.copy a)) = Some k
        end
      | (ref_lu, _, ref_sign) as r ->
          let lu = La.Lu.factor a in
          (* [factor] leaves its argument alone *)
          let untouched =
            Array.for_all2 (Array.for_all2 same_bits) (La.Mat.to_arrays a)
              (La.Mat.to_arrays a_before)
          in
          (* [factor_in_place] writes exactly the reference factors over its argument *)
          let a_in = La.Mat.copy a in
          let lu_in = La.Lu.factor_in_place a_in in
          let in_place_factors =
            Array.for_all2 (Array.for_all2 same_bits) (La.Mat.to_arrays a_in)
              (La.Mat.to_arrays ref_lu)
          in
          (* the determinant folds the sign (pivot parity) into the diagonal *)
          let ref_det = ref ref_sign in
          for k = 0 to n - 1 do
            ref_det := !ref_det *. La.Mat.get ref_lu k k
          done;
          let dets_match =
            same_bits (La.Lu.det lu) !ref_det && same_bits (La.Lu.det lu_in) !ref_det
          in
          let solves_match =
            List.for_all
              (fun _ ->
                let b = Array.init n (fun _ -> QCheck.Gen.float_range (-5.0) 5.0 rng) in
                let x_ref = Ref_lu.solve r b and xt_ref = Ref_lu.solve_transposed r b in
                same_vec (La.Lu.solve lu b) x_ref
                && same_vec (La.Lu.solve lu_in b) x_ref
                && same_vec (La.Lu.solve_transposed lu b) xt_ref
                && same_vec (La.Lu.solve_transposed lu_in b) xt_ref)
              [ 1; 2; 3 ]
          in
          untouched && in_place_factors && dets_match && solves_match)

(* Host-independent allocation gate: factoring allocates the copy of the
   matrix, the pivot vector and the result record — never a box per flop.
   [Gc.allocated_bytes] counts the copy, which is large enough to be
   allocated directly in the major heap. *)
let test_lu_factor_allocation () =
  let n = 24 in
  let rng = Random.State.make [| 31 |] in
  let a = random_matrix rng n in
  ignore (La.Lu.factor a);
  let before = Gc.allocated_bytes () in
  let lu = La.Lu.factor a in
  let after = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity lu);
  let words = int_of_float ((after -. before) /. float_of_int (Sys.word_size / 8)) in
  let bound = (n * n) + (8 * n) + 64 in
  if words > bound then
    Alcotest.failf "24x24 Lu.factor allocated %d words, bound n^2 + 8n + 64 = %d" words bound

(* --- Complex --- *)

let test_cpx () =
  let z = La.Cpx.make 3.0 4.0 in
  check_approx "abs" (La.Cpx.abs z) 5.0;
  let w = La.Cpx.div z z in
  check_approx "z/z re" w.La.Cpx.re 1.0;
  check_approx "z/z im" w.La.Cpx.im 0.0;
  Alcotest.(check bool) "finite" true (La.Cpx.is_finite z);
  Alcotest.(check bool) "nan not finite" false (La.Cpx.is_finite (La.Cpx.make nan 0.0))

(* --- Zmat --- *)

let test_zmat_solve () =
  (* (G + jwC) for a 1-node RC: (1/R + jwC) v = i *)
  let g = La.Mat.of_arrays [| [| 1e-3 |] |] in
  let c = La.Mat.of_arrays [| [| 1e-9 |] |] in
  let w = 1e6 in
  let z = La.Zmat.of_real_pair g c w in
  let x = La.Zmat.solve z [| La.Cpx.one |] in
  let expect = La.Cpx.inv (La.Cpx.make 1e-3 (w *. 1e-9)) in
  check_approx "re" x.(0).La.Cpx.re expect.La.Cpx.re;
  check_approx "im" x.(0).La.Cpx.im expect.La.Cpx.im

(* --- Poly --- *)

let test_poly_eval () =
  let p = [| 1.0; -3.0; 2.0 |] in
  (* 2x^2 - 3x + 1 = (2x-1)(x-1) *)
  check_approx "at 1" (La.Poly.eval p 1.0) 0.0;
  check_approx "at 0.5" (La.Poly.eval p 0.5) 0.0;
  check_approx "at 2" (La.Poly.eval p 2.0) 3.0;
  let d = La.Poly.derivative p in
  check_approx "d at 0" (La.Poly.eval d 0.0) (-3.0)

let test_poly_mul_from_roots () =
  let p = La.Poly.from_roots [| La.Cpx.of_float 1.0; La.Cpx.of_float (-2.0) |] in
  (* (s-1)(s+2) = s^2 + s - 2 *)
  check_approx "c0" p.(0) (-2.0);
  check_approx "c1" p.(1) 1.0;
  check_approx "c2" p.(2) 1.0;
  let q = La.Poly.mul [| -1.0; 1.0 |] [| 2.0; 1.0 |] in
  Array.iteri (fun k c -> check_approx "mul agrees" c q.(k)) p

let prop_roots_roundtrip =
  QCheck.Test.make ~name:"roots: from_roots . find recovers roots" ~count:80
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n_real = 1 + Random.State.int rng 3 in
      let n_pair = Random.State.int rng 2 in
      let reals =
        List.init n_real (fun _ -> La.Cpx.of_float (QCheck.Gen.float_range (-8.0) (-0.2) rng))
      in
      let pairs =
        List.concat_map
          (fun _ ->
            let re = QCheck.Gen.float_range (-6.0) (-0.5) rng in
            let im = QCheck.Gen.float_range 0.5 5.0 rng in
            [ La.Cpx.make re im; La.Cpx.make re (-.im) ])
          (List.init n_pair Fun.id)
      in
      let roots = Array.of_list (reals @ pairs) in
      let poly = La.Poly.from_roots roots in
      let found = La.Roots.find poly in
      (* every true root is matched by a found root *)
      Array.for_all
        (fun r ->
          Array.exists (fun f -> La.Cpx.dist r f < 1e-5 *. (1.0 +. La.Cpx.abs r)) found)
        roots)

let test_roots_scaling () =
  (* Widely scaled roots, as AWE produces: 1e3 and 1e9 rad/s. *)
  let poly = La.Poly.from_roots [| La.Cpx.of_float (-1e3); La.Cpx.of_float (-1e9) |] in
  let found = La.Roots.find poly in
  let near v = Array.exists (fun f -> Float.abs (f.La.Cpx.re -. v) < 1e-3 *. Float.abs v) found in
  Alcotest.(check bool) "found 1e3" true (near (-1e3));
  Alcotest.(check bool) "found 1e9" true (near (-1e9))

(* --- Sparse --- *)

let test_sparse_basic () =
  let t = La.Sparse.triplets () in
  La.Sparse.add t 0 0 2.0;
  La.Sparse.add t 0 1 1.0;
  La.Sparse.add t 1 1 3.0;
  La.Sparse.add t 0 0 0.5;
  (* duplicate: summed *)
  let s = La.Sparse.compress ~rows:2 ~cols:2 t in
  Alcotest.(check int) "nnz" 3 (La.Sparse.nnz s);
  let y = La.Sparse.mul_vec s [| 1.0; 2.0 |] in
  Alcotest.(check (float 1e-12)) "y0" 4.5 y.(0);
  Alcotest.(check (float 1e-12)) "y1" 6.0 y.(1)

let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse: mul_vec agrees with dense" ~count:100
    QCheck.(pair (int_range 1 15) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let dm =
        La.Mat.init n n (fun _ _ ->
            if Random.State.int rng 3 = 0 then QCheck.Gen.float_range (-5.0) 5.0 rng else 0.0)
      in
      let sp = La.Sparse.of_dense dm in
      let x = Array.init n (fun _ -> QCheck.Gen.float_range (-2.0) 2.0 rng) in
      let yd = La.Mat.mul_vec dm x in
      let ys = La.Sparse.mul_vec sp x in
      let ok = ref true in
      for k = 0 to n - 1 do
        if Float.abs (yd.(k) -. ys.(k)) > 1e-12 then ok := false
      done;
      (* round trip *)
      let back = La.Sparse.to_dense sp in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if La.Mat.get back i j <> La.Mat.get dm i j then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "la"
    [
      ( "vec",
        [
          Alcotest.test_case "ops" `Quick test_vec_ops;
          Alcotest.test_case "errors" `Quick test_vec_errors;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "transpose/identity" `Quick test_mat_transpose_identity;
        ] );
      ( "lu",
        [
          QCheck_alcotest.to_alcotest prop_lu_solve;
          QCheck_alcotest.to_alcotest prop_lu_transposed;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "det" `Quick test_lu_det;
          QCheck_alcotest.to_alcotest prop_lu_bit_identical;
          Alcotest.test_case "factor allocation bound" `Quick test_lu_factor_allocation;
        ] );
      ("cpx", [ Alcotest.test_case "basics" `Quick test_cpx ]);
      ("zmat", [ Alcotest.test_case "solve" `Quick test_zmat_solve ]);
      ( "poly",
        [
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "mul/from_roots" `Quick test_poly_mul_from_roots;
        ] );
      ( "roots",
        [
          QCheck_alcotest.to_alcotest prop_roots_roundtrip;
          Alcotest.test_case "wide scaling" `Quick test_roots_scaling;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "assembly and matvec" `Quick test_sparse_basic;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
        ] );
    ]
