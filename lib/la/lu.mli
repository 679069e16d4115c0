(** LU factorization with partial pivoting, for the real MNA systems at the
    heart of DC analysis and AWE moment generation.

    AWE factors the conductance matrix G once and then back-substitutes once
    per moment, so factorization and solving are exposed separately. *)

type t

exception Singular of int
(** Raised with the pivot column when a zero (or numerically negligible)
    pivot is met. *)

(** [factor a] computes PA = LU. [a] is not modified.
    @raise Singular if the matrix is numerically singular. *)
val factor : Mat.t -> t

(** [factor_in_place a] is [factor a] without the copy: the factors are
    written over [a], which the result keeps as its storage, so [a] must
    not be read or written afterwards. Bit-identical to [factor]. For a
    freshly assembled matrix that is never read again (a Newton
    Jacobian). [a] is left partially overwritten when [Singular] is
    raised.
    @raise Singular if the matrix is numerically singular. *)
val factor_in_place : Mat.t -> t

(** [solve lu b] solves A x = b for the factored A. *)
val solve : t -> Vec.t -> Vec.t

(** [solve_in_place lu b] overwrites [b] with the solution, avoiding the
    allocation in the AWE moment loop. *)
val solve_in_place : t -> Vec.t -> unit

(** [solve_transposed lu b] solves A^T x = b (used for adjoint sensitivity). *)
val solve_transposed : t -> Vec.t -> Vec.t

(** [det lu] is the determinant of the factored matrix. *)
val det : t -> float
