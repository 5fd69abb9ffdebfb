#pragma once
// Cholesky factorization and solves for symmetric positive-definite systems.
//
// The GP stack relies on these for the marginal likelihood (Eq. 3 in the
// paper) and the predictive posterior (Eq. 4).  `cholesky_jittered` walks a
// jitter ladder so that nearly-singular kernel matrices (duplicated designs,
// tiny lengthscales) still factor.

#include <optional>

#include "linalg/matrix.hpp"

namespace kato::la {

/// Lower-triangular Cholesky factor of an SPD matrix, or nullopt if the
/// matrix is not numerically positive definite.
std::optional<Matrix> cholesky(const Matrix& a);

struct JitteredCholesky {
  Matrix l;        ///< lower factor of (a + jitter * I)
  double jitter;   ///< jitter actually applied (0 when none was needed)
};

/// Cholesky with an escalating diagonal jitter ladder (0, 1e-10, ... 1e-4,
/// scaled by the mean diagonal).  Throws std::runtime_error if the matrix
/// cannot be factored even at the largest jitter.  `start_attempt` skips
/// that many leading rungs as if they had failed (fault-injection hook;
/// 0 is the historical behaviour).
JitteredCholesky cholesky_jittered(const Matrix& a, int start_attempt = 0);

/// Solve L x = b (forward substitution) with L lower triangular.
Vector solve_lower(const Matrix& l, const Vector& b);
/// Solve L X = B for an n x m right-hand-side block in one forward sweep —
/// the batched-prediction path shares this single triangular solve across
/// all query columns instead of re-solving per candidate.  B is solved in
/// place and returned (move a temporary in to skip the copy).  Every entry
/// is (b_ij - l_i0 x_0j - ... - l_i,i-1 x_i-1,j) * (1 / l_ii), terms in
/// ascending k.  Eight columns and two rows advance per SSE2 pass; columns
/// past the last multiple of eight run one at a time, same operations.
/// Exact-zero l_ik are subtracted like any other term (no zero test, no
/// second path).  The scalar solve this replaced skipped them, and for
/// finite B the two differ only in the sign of a zero entry of X: a zero
/// term changes the running sum only when that sum is itself a zero.
/// predict_std_rows reads X through squares alone, so its output keeps the
/// old bits.
Matrix solve_lower_multi(const Matrix& l, Matrix b);
/// Solve L^T x = b (back substitution) with L lower triangular.
Vector solve_lower_transposed(const Matrix& l, const Vector& b);
/// Solve (L L^T) x = b.
Vector cholesky_solve(const Matrix& l, const Vector& b);
/// Inverse of (L L^T) formed explicitly (used for dL/dK in GP training).
Matrix cholesky_inverse(const Matrix& l);
/// log det(L L^T) = 2 * sum(log diag L).
double cholesky_logdet(const Matrix& l);

// --- Workspace-aware variants for the GP training loop ---
// The LML loop factors, solves and inverts once per Adam step; these
// overloads write into caller-owned buffers (resized on first use, reused
// afterwards) so the loop is allocation-free, and the inverse runs through a
// triangular inversion instead of 2n dense triangular solves (~3x fewer
// flops, contiguous row access).

/// Factor a (+ jitter on the diagonal) into the caller's buffer `l`.
/// Returns false when not numerically positive definite; `a` is unchanged.
bool cholesky_into(const Matrix& a, Matrix& l, double jitter = 0.0);

/// Jitter-ladder factorization into `l` (same ladder as cholesky_jittered).
/// Returns the jitter applied; throws std::runtime_error when the matrix
/// cannot be factored at the largest jitter.
double cholesky_jittered_into(const Matrix& a, Matrix& l,
                              int start_attempt = 0);

/// Solve (L L^T) x = b using `tmp` as the forward-solve scratch.
void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& x,
                         Vector& tmp);

/// x = L^{-1}, lower triangular, row-major.  X(i, j) for i > j is
/// (0 - l_ij X(j, j) - ... - l_i,i-1 X(i-1, j)) / l_ii with the terms in
/// ascending k onto a +0 accumulator, X(j, j) = 1 / l_jj, and the upper
/// triangle is +0: the same bits as one column at a time.  Eight columns
/// and two rows advance per SSE2 pass, in place, so a reused `x` makes the
/// call allocation-free.
void lower_inverse_into(const Matrix& l, Matrix& x);

/// dk = 0.5 (K^-1 - alpha alpha^T), the NLL gradient w.r.t. K, from
/// x = L^{-1} (K^-1(i, j) = sum_{k >= i} X(k, i) X(k, j) for j <= i, each
/// entry summed onto +0 in ascending k): the inverse is contracted straight
/// into dk, never materialized on its own.  Exactly symmetric.  `dk` is
/// resized on first use.
void half_kinv_minus_outer_into(const Matrix& x, const Vector& alpha,
                                Matrix& dk);

/// inv = (L L^T)^{-1} via x = L^{-1} and the same contraction as
/// half_kinv_minus_outer_into, so both read identical K^-1 bits.  Exactly
/// symmetric by construction.  `x_scratch` is a caller-owned buffer.
void cholesky_inverse_into(const Matrix& l, Matrix& inv, Matrix& x_scratch);

}  // namespace kato::la
