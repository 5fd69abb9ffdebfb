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
/// all query columns instead of re-solving per candidate.
Matrix solve_lower_multi(const Matrix& l, const Matrix& b);
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

/// t = (L^{-1})^T, upper triangular, row-major (row r holds column r of
/// L^{-1}): both this inversion and the syrk in cholesky_inverse_into walk
/// contiguous rows.
void lower_inverse_transposed_into(const Matrix& l, Matrix& t);

/// dk = 0.5 (K^-1 - alpha alpha^T), the NLL gradient w.r.t. K, from
/// t = (L^{-1})^T (K^-1(i, j) = <t_i, t_j> over the triangular support): the
/// inverse is contracted straight into dk, never materialized on its own.
/// Exactly symmetric.  `dk` is resized on first use.
void half_kinv_minus_outer_into(const Matrix& t, const Vector& alpha,
                                Matrix& dk);

/// inv = (L L^T)^{-1} via T = (L^{-1})^T and inv = T T^T restricted to the
/// triangular support.  Exactly symmetric by construction.  `t_scratch` is a
/// caller-owned buffer.
void cholesky_inverse_into(const Matrix& l, Matrix& inv, Matrix& t_scratch);

}  // namespace kato::la
