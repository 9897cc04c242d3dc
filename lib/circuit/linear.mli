(** Linear algebra for MNA systems, organized around factorizations.

    Circuits in this library are macro cells of a few dozen nodes, so the
    kernels are dense LU with partial pivoting (optionally band-limited
    under an RCM permutation). The primary surface is {!Factor}: factor a
    matrix once, then reuse the factorization across many right-hand
    sides and cheap Sherman–Morrison rank-1 corrections.

    Singularity is judged relative to the matrix's largest entry (a pivot
    below [1e-30 · max|a_ij|] raises {!Singular}), so badly-scaled but
    well-conditioned systems — fA capacitor stamps next to mho-scale
    short conductances — no longer trip the historical absolute
    [1e-300] threshold. *)

exception Singular

(** Persistent LU factorizations with Sherman–Morrison update chains. *)
module Factor : sig
  (** A factorization of some n×n matrix [A], immutable once built.
      Internally: LU factors + pivot permutation (dense, or band-limited
      under a symmetric row/column permutation) plus a list of rank-1
      corrections applied on top. *)
  type t

  (** [factor ?permute a] factors a copy of [a]; [a] is left untouched.

      With [~permute:p] (a symmetric ordering such as one from {!rcm}),
      the matrix is permuted to [a.(p.(i)).(p.(j))], its bandwidth is
      measured, and a band-limited LU is used — same pivoting rule, loops
      bounded by the band (partial pivoting widens the upper band to at
      most [bl + bu]). Solutions come back in the original ordering.

      @raise Singular when pivoting finds no usable pivot.
      @raise Invalid_argument on shape or permutation-size mismatch. *)
  val factor : ?permute:int array -> float array array -> t

  (** [solve_factored t b] solves [A·x = b] through the stored
      factorization and update chain, returning a fresh array; [b] is
      left untouched.
      @raise Invalid_argument on shape mismatch. *)
  val solve_factored : t -> float array -> float array

  (** [rank1_update t ~c ~u ~v] is a factorization of [A + c·u·vᵀ]
      obtained by the Sherman–Morrison identity — two O(n²) solves, no
      re-factorization. Returns [None] when the update denominator
      [1 + c·vᵀA⁻¹u] is too close to zero (the updated matrix is near
      singular), in which case the caller must re-factor from scratch.
      The guard is a pure function of the numbers, never of timing.
      @raise Invalid_argument on shape mismatch. *)
  val rank1_update : t -> c:float -> u:float array -> v:float array -> t option

  (** Number of rank-1 corrections stacked on the base factorization.
      Each correction adds one dot product + axpy per solve, so callers
      should re-factor once this grows past a handful. *)
  val updates : t -> int

  (** Dimension of the factored matrix. *)
  val size : t -> int

  (** Whether the base factorization uses the band-limited kernel. *)
  val is_banded : t -> bool
end

(** [rcm ~n edges] is a reverse Cuthill–McKee ordering of the undirected
    graph on vertices [0..n-1] with the given edges (self-loops and
    out-of-range endpoints ignored). The result [p] maps new position to
    original index and is deterministic: neighbours are visited in
    (degree, index) order and each component starts from its
    minimum-degree vertex. *)
val rcm : n:int -> (int * int) list -> int array

(** [bandwidth_under ~perm edges] is the half-bandwidth of the adjacency
    graph after applying the symmetric ordering [perm] — the selection
    heuristic for choosing the banded kernel. *)
val bandwidth_under : perm:int array -> (int * int) list -> int

(** [matrix n] is a fresh n×n zero matrix. *)
val matrix : int -> float array array

(** [residual a x b] is the max-norm of [a·x - b]; for tests. *)
val residual : float array array -> float array -> float array -> float
