#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace kato::la {

namespace {

/// Factor the nb x nb block of `l` anchored at (j0, j0) in place, reading the
/// partially updated values already stored there.  Returns false when the
/// block is not positive definite.
bool factor_diag_block(Matrix& l, std::size_t j0, std::size_t nb) {
  for (std::size_t j = j0; j < j0 + nb; ++j) {
    double diag = l(j, j);
    for (std::size_t k = j0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < j0 + nb; ++i) {
      double s = l(i, j);
      for (std::size_t k = j0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / ljj;
    }
  }
  return true;
}

/// Right-looking blocked Cholesky: factor a panel, triangular-solve the rows
/// below it, then subtract the panel's outer product from the trailing
/// submatrix.  All row segments touched are contiguous, so the O(n^3) update
/// streams through cache instead of striding over the full matrix.
constexpr std::size_t k_chol_block = 48;

}  // namespace

std::optional<Matrix> cholesky(const Matrix& a) {
  Matrix l;
  if (!cholesky_into(a, l)) return std::nullopt;
  return l;
}

JitteredCholesky cholesky_jittered(const Matrix& a, int start_attempt) {
  JitteredCholesky result;
  result.jitter = cholesky_jittered_into(a, result.l, start_attempt);
  return result;
}

Vector solve_lower(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("solve_lower: size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

Matrix solve_lower_multi(const Matrix& l, const Matrix& b) {
  const std::size_t n = l.rows();
  if (b.rows() != n)
    throw std::invalid_argument("solve_lower_multi: size mismatch");
  const std::size_t m = b.cols();
  Matrix x = b;
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x.data().data() + i * m;
    const double* li = l.data().data() + i * n;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      const double* xk = x.data().data() + k * m;
      for (std::size_t j = 0; j < m; ++j) xi[j] -= lik * xk[j];
    }
    const double inv = 1.0 / li[i];
    for (std::size_t j = 0; j < m; ++j) xi[j] *= inv;
  }
  return x;
}

Vector solve_lower_transposed(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  if (b.size() != n)
    throw std::invalid_argument("solve_lower_transposed: size mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

Vector cholesky_solve(const Matrix& l, const Vector& b) {
  return solve_lower_transposed(l, solve_lower(l, b));
}

Matrix cholesky_inverse(const Matrix& l) {
  const std::size_t n = l.rows();
  Matrix inv(n, n);
  Vector e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    Vector col = cholesky_solve(l, e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
    e[j] = 0.0;
  }
  // Symmetrize to remove round-off asymmetry.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (inv(i, j) + inv(j, i));
      inv(i, j) = avg;
      inv(j, i) = avg;
    }
  return inv;
}

double cholesky_logdet(const Matrix& l) {
  double s = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) s += std::log(l(i, i));
  return 2.0 * s;
}

bool cholesky_into(const Matrix& a, Matrix& l, double jitter) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("cholesky_into: matrix must be square");
  const std::size_t n = a.rows();
  if (l.rows() != n || l.cols() != n) l = Matrix(n, n);
  // Copy the lower triangle (plus jitter); factored in place panel by panel
  // with the same blocked algorithm as cholesky() — bit-identical factors.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
    l(i, i) += jitter;
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  double* d = l.data().data();
  for (std::size_t j0 = 0; j0 < n; j0 += k_chol_block) {
    const std::size_t nb = std::min(k_chol_block, n - j0);
    const std::size_t j1 = j0 + nb;
    if (!factor_diag_block(l, j0, nb)) return false;
    // Panel solve, four rows per pass: each row keeps its own summation
    // chain (same order as one row at a time), the lc loads are shared.
    std::size_t i = j1;
    for (; i + 4 <= n; i += 4) {
      double* l0 = d + i * n;
      double* l1 = l0 + n;
      double* l2 = l1 + n;
      double* l3 = l2 + n;
      for (std::size_t c = j0; c < j1; ++c) {
        const double* lc = d + c * n;
        double s0 = l0[c];
        double s1 = l1[c];
        double s2 = l2[c];
        double s3 = l3[c];
        for (std::size_t k = j0; k < c; ++k) {
          s0 -= l0[k] * lc[k];
          s1 -= l1[k] * lc[k];
          s2 -= l2[k] * lc[k];
          s3 -= l3[k] * lc[k];
        }
        l0[c] = s0 / lc[c];
        l1[c] = s1 / lc[c];
        l2[c] = s2 / lc[c];
        l3[c] = s3 / lc[c];
      }
    }
    for (; i < n; ++i) {
      double* li = d + i * n;
      for (std::size_t c = j0; c < j1; ++c) {
        double s = li[c];
        const double* lc = d + c * n;
        for (std::size_t k = j0; k < c; ++k) s -= li[k] * lc[k];
        li[c] = s / lc[c];
      }
    }
    // Trailing update, four columns per pass (each its own chain, sharing
    // the li loads).  Only panel columns [j0, j1) are read, so updating
    // li[j] in place is safe.
    for (i = j1; i < n; ++i) {
      double* li = d + i * n;
      std::size_t j = j1;
      for (; j + 4 <= i + 1; j += 4) {
        const double* lj0 = d + j * n;
        const double* lj1 = lj0 + n;
        const double* lj2 = lj1 + n;
        const double* lj3 = lj2 + n;
        double s0 = 0.0;
        double s1 = 0.0;
        double s2 = 0.0;
        double s3 = 0.0;
        for (std::size_t k = j0; k < j1; ++k) {
          s0 += li[k] * lj0[k];
          s1 += li[k] * lj1[k];
          s2 += li[k] * lj2[k];
          s3 += li[k] * lj3[k];
        }
        li[j] -= s0;
        li[j + 1] -= s1;
        li[j + 2] -= s2;
        li[j + 3] -= s3;
      }
      for (; j <= i; ++j) {
        const double* lj = d + j * n;
        double s = 0.0;
        for (std::size_t k = j0; k < j1; ++k) s += li[k] * lj[k];
        li[j] -= s;
      }
    }
  }
  return true;
}

double cholesky_jittered_into(const Matrix& a, Matrix& l, int start_attempt) {
  const std::size_t n = a.rows();
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_diag += a(i, i);
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 1.0;
  if (mean_diag <= 0.0) mean_diag = 1.0;

  double jitter = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // start_attempt > 0 skips the first rungs as if they had failed — the
    // gp:chol_fail injection path; 0 (the default) is bit-identical to the
    // historical ladder.
    if (attempt >= start_attempt && cholesky_into(a, l, jitter)) return jitter;
    jitter = (jitter == 0.0) ? 1e-10 * mean_diag : jitter * 10.0;
  }
  throw std::runtime_error("cholesky_jittered_into: matrix not PD at max jitter");
}

void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& x,
                         Vector& tmp) {
  const std::size_t n = l.rows();
  if (b.size() != n)
    throw std::invalid_argument("cholesky_solve_into: size mismatch");
  tmp.resize(n);
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * tmp[k];
    tmp[i] = s / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = tmp[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
}

void lower_inverse_transposed_into(const Matrix& l, Matrix& t) {
  const std::size_t n = l.rows();
  if (t.rows() != n || t.cols() != n) t = Matrix(n, n);
  // Column j of X = L^{-1} satisfies L x = e_j; exploiting x_i = 0 for i < j
  // the forward substitution costs n^3/6 MACs total.  Stored transposed
  // (t(j, i) = X(i, j)) so each column is built along a contiguous row.
  // Two columns advance together so each L row is loaded once for both.
  std::size_t j = 0;
  for (; j + 1 < n; j += 2) {
    double* tj0 = t.data().data() + j * n;
    double* tj1 = t.data().data() + (j + 1) * n;
    for (std::size_t i = 0; i < j; ++i) tj0[i] = 0.0;
    for (std::size_t i = 0; i <= j; ++i) tj1[i] = 0.0;
    tj0[j] = 1.0 / l(j, j);
    {
      const std::size_t i = j + 1;
      const double* li = l.data().data() + i * n;
      tj0[i] = -li[j] * tj0[j] / li[i];
      tj1[i] = 1.0 / li[i];
    }
    for (std::size_t i = j + 2; i < n; ++i) {
      const double* li = l.data().data() + i * n;
      double s0 = -li[j] * tj0[j];
      double s1 = 0.0;
      for (std::size_t k = j + 1; k < i; ++k) {
        s0 -= li[k] * tj0[k];
        s1 -= li[k] * tj1[k];
      }
      tj0[i] = s0 / li[i];
      tj1[i] = s1 / li[i];
    }
  }
  for (; j < n; ++j) {
    double* tj = t.data().data() + j * n;
    for (std::size_t i = 0; i < j; ++i) tj[i] = 0.0;
    tj[j] = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* li = l.data().data() + i * n;
      double s = 0.0;
      for (std::size_t k = j; k < i; ++k) s -= li[k] * tj[k];
      tj[i] = s / li[i];
    }
  }
}

void half_kinv_minus_outer_into(const Matrix& t, const Vector& alpha,
                                Matrix& dk) {
  const std::size_t n = t.rows();
  if (dk.rows() != n || dk.cols() != n) dk = Matrix(n, n);
  const auto put = [&](std::size_t i, std::size_t j, double kinv_ij) {
    const double v = 0.5 * (kinv_ij - alpha[i] * alpha[j]);
    dk(i, j) = v;
    dk(j, i) = v;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double* ti = t.data().data() + i * n;
    std::size_t j = 0;
    // Four columns per pass share each ti load; every entry keeps its own
    // summation chain over k = i .. n-1.
    for (; j + 4 <= i + 1; j += 4) {
      const double* tj0 = t.data().data() + j * n;
      const double* tj1 = tj0 + n;
      const double* tj2 = tj1 + n;
      const double* tj3 = tj2 + n;
      double k0 = 0.0;
      double k1 = 0.0;
      double k2 = 0.0;
      double k3 = 0.0;
      for (std::size_t k = i; k < n; ++k) {
        k0 += ti[k] * tj0[k];
        k1 += ti[k] * tj1[k];
        k2 += ti[k] * tj2[k];
        k3 += ti[k] * tj3[k];
      }
      put(i, j, k0);
      put(i, j + 1, k1);
      put(i, j + 2, k2);
      put(i, j + 3, k3);
    }
    for (; j <= i; ++j) {
      const double* tj = t.data().data() + j * n;
      double kinv_ij = 0.0;
      for (std::size_t k = i; k < n; ++k) kinv_ij += ti[k] * tj[k];
      put(i, j, kinv_ij);
    }
  }
}

void cholesky_inverse_into(const Matrix& l, Matrix& inv, Matrix& t_scratch) {
  const std::size_t n = l.rows();
  lower_inverse_transposed_into(l, t_scratch);
  if (inv.rows() != n || inv.cols() != n) inv = Matrix(n, n);
  // inv(i, j) = sum_k X(k, i) X(k, j) with X = L^{-1}: the sum starts at
  // k = max(i, j) because X is lower triangular, and both factors are
  // contiguous rows of the transposed storage.  Mirrored, so exactly
  // symmetric — no post-hoc symmetrization needed.
  for (std::size_t i = 0; i < n; ++i) {
    const double* ti = t_scratch.data().data() + i * n;
    for (std::size_t j = 0; j <= i; ++j) {
      const double* tj = t_scratch.data().data() + j * n;
      double s = 0.0;
      for (std::size_t k = i; k < n; ++k) s += ti[k] * tj[k];
      inv(i, j) = s;
      inv(j, i) = s;
    }
  }
}

}  // namespace kato::la
