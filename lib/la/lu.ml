type t = { lu : Mat.t; piv : int array; sign : float }

exception Singular of int

(* Doolittle factorization with partial pivoting, overwriting [a] with the
   factors. The pivot threshold is relative to the largest entry of the
   column to tolerate badly scaled MNA matrices (conductances span
   ~1e-12 .. 1e3 siemens).

   The loops index the row-major backing array directly: going through
   [Mat.get]/[Mat.add_to] boxes a float per flop when the accessors are
   not inlined across modules. The operations and their order are the
   accessor formulation's exactly, so the factors are bit-identical. *)
let factor_in_place a =
  let n = Mat.rows a in
  if n <> Mat.cols a then invalid_arg "Lu.factor: not square";
  let d = Mat.data a in
  let piv = Array.init n (fun k -> k) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    let rk = k * n in
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs d.((i * n) + k) > Float.abs d.((!p * n) + k) then p := i
    done;
    if !p <> k then begin
      let rp = !p * n in
      for j = 0 to n - 1 do
        let tmp = d.(rk + j) in
        d.(rk + j) <- d.(rp + j);
        d.(rp + j) <- tmp
      done;
      let tp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tp;
      sign := -. !sign
    end;
    let pivot = d.(rk + k) in
    if Float.abs pivot < 1e-300 || not (Float.is_finite pivot) then raise (Singular k);
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let f = d.(ri + k) /. pivot in
      d.(ri + k) <- f;
      if f <> 0.0 then
        for j = k + 1 to n - 1 do
          d.(ri + j) <- d.(ri + j) +. (-.f *. d.(rk + j))
        done
    done
  done;
  { lu = a; piv; sign = !sign }

let factor a = factor_in_place (Mat.copy a)

let dim t = Mat.rows t.lu

let solve_in_place t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lu.solve: dim mismatch";
  let d = Mat.data t.lu in
  (* Apply the permutation, then forward- and back-substitute. *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    y.(i) <- b.(t.piv.(i))
  done;
  for i = 0 to n - 1 do
    let ri = i * n in
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (d.(ri + j) *. y.(j))
    done
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    for j = i + 1 to n - 1 do
      y.(i) <- y.(i) -. (d.(ri + j) *. y.(j))
    done;
    y.(i) <- y.(i) /. d.(ri + i)
  done;
  Array.blit y 0 b 0 n

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

let solve_transposed_in_place t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lu.solve_transposed: dim mismatch";
  let d = Mat.data t.lu in
  (* A^T = U^T L^T P, so solve U^T z = b, L^T w = z, then x = P^T w. *)
  let z = Array.copy b in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      z.(i) <- z.(i) -. (d.((j * n) + i) *. z.(j))
    done;
    z.(i) <- z.(i) /. d.((i * n) + i)
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      z.(i) <- z.(i) -. (d.((j * n) + i) *. z.(j))
    done
  done;
  for i = 0 to n - 1 do
    b.(t.piv.(i)) <- z.(i)
  done

let solve_transposed t b =
  let x = Array.copy b in
  solve_transposed_in_place t x;
  x

let det t =
  let n = dim t in
  let d = ref t.sign in
  for k = 0 to n - 1 do
    d := !d *. Mat.get t.lu k k
  done;
  !d
