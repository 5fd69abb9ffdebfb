#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// The triangular kernels below run two doubles per SSE2 register (GCC vector
// extensions, baseline x86-64, memcpy loads).  Lanes are independent output
// entries: each lane performs exactly the IEEE operations, in exactly the
// order, of the one-entry-at-a-time loop it replaces, so results are
// bit-identical to those loops.  No FMA may be contracted in: that holds for
// the baseline ISA the project builds for.
typedef double v2d __attribute__((vector_size(16)));

v2d splat(double s) { return v2d{s, s}; }

/// Eight lanes as four registers.
struct Lanes8 {
  v2d v0, v1, v2, v3;
};

constexpr std::size_t k_lanes = 8;

Lanes8 load8(const double* p) {
  Lanes8 a{};
  std::memcpy(&a.v0, p, sizeof a.v0);
  std::memcpy(&a.v1, p + 2, sizeof a.v1);
  std::memcpy(&a.v2, p + 4, sizeof a.v2);
  std::memcpy(&a.v3, p + 6, sizeof a.v3);
  return a;
}

void store8(double* p, const Lanes8& a) {
  std::memcpy(p, &a.v0, sizeof a.v0);
  std::memcpy(p + 2, &a.v1, sizeof a.v1);
  std::memcpy(p + 4, &a.v2, sizeof a.v2);
  std::memcpy(p + 6, &a.v3, sizeof a.v3);
}

/// a -= c * x, lane by lane (a product, then a subtraction).
void sub_scaled(Lanes8& a, double c, const Lanes8& x) {
  const v2d cc = splat(c);
  a.v0 -= cc * x.v0;
  a.v1 -= cc * x.v1;
  a.v2 -= cc * x.v2;
  a.v3 -= cc * x.v3;
}

/// a += c * x, lane by lane (a product, then an addition).
void add_scaled(Lanes8& a, double c, const Lanes8& x) {
  const v2d cc = splat(c);
  a.v0 += cc * x.v0;
  a.v1 += cc * x.v1;
  a.v2 += cc * x.v2;
  a.v3 += cc * x.v3;
}

/// How a forward-sweep row is finished: the solve multiplies by 1 / l_ii,
/// the inversion divides by l_ii, as their scalar loops always did.
enum class Finish { reciprocal, divide };

void finish8(Lanes8& a, double lii, Finish f) {
  if (f == Finish::reciprocal) {
    const v2d inv = splat(1.0 / lii);
    a.v0 *= inv;
    a.v1 *= inv;
    a.v2 *= inv;
    a.v3 *= inv;
  } else {
    const v2d d = splat(lii);
    a.v0 /= d;
    a.v1 /= d;
    a.v2 /= d;
    a.v3 /= d;
  }
}

// Forward substitution in place on a block of right-hand-side lanes: lane c
// of row k is p[k * stride + c].  Row i becomes
//   finish(p(i, :) - l_{i,k0} p(k0, :) - ... - l_{i,i-1} p(i-1, :))
// with the terms subtracted in ascending k.

/// Rows i and i + 1 over eight lanes: the sixteen accumulators stay in
/// registers across the k loop and share every load of p.
void sweep_row_pair(const double* l, std::size_t n, double* p,
                    std::size_t stride, std::size_t k0, std::size_t i,
                    Finish f) {
  const double* l0 = l + i * n;
  const double* l1 = l0 + n;
  double* p0 = p + i * stride;
  double* p1 = p0 + stride;
  Lanes8 a = load8(p0);
  Lanes8 b = load8(p1);
  for (std::size_t k = k0; k < i; ++k) {
    const Lanes8 x = load8(p + k * stride);
    sub_scaled(a, l0[k], x);
    sub_scaled(b, l1[k], x);
  }
  finish8(a, l0[i], f);
  store8(p0, a);
  sub_scaled(b, l1[i], a);
  finish8(b, l1[i + 1], f);
  store8(p1, b);
}

/// Row i over `width` lanes, one lane at a time.
void sweep_row_scalar(const double* l, std::size_t n, double* p,
                      std::size_t stride, std::size_t width, std::size_t k0,
                      std::size_t i, Finish f) {
  const double* li = l + i * n;
  double* pi = p + i * stride;
  for (std::size_t k = k0; k < i; ++k) {
    const double* pk = p + k * stride;
    for (std::size_t c = 0; c < width; ++c) pi[c] -= li[k] * pk[c];
  }
  if (f == Finish::reciprocal) {
    const double inv = 1.0 / li[i];
    for (std::size_t c = 0; c < width; ++c) pi[c] *= inv;
  } else {
    for (std::size_t c = 0; c < width; ++c) pi[c] /= li[i];
  }
}

/// Sweep rows [k0, n) of columns [j0, j0 + 8) of the row-major x in place.
/// Row pairs take the vector path; a lone last row and a block cut short by
/// the right edge go one lane at a time.
void sweep_columns(const double* l, Matrix& x, std::size_t j0, std::size_t k0,
                   Finish f) {
  const std::size_t n = x.rows();
  const std::size_t stride = x.cols();
  const std::size_t width = std::min(k_lanes, stride - j0);
  double* p = x.data().data() + j0;
  for (std::size_t i = k0; i < n;) {
    if (width == k_lanes && i + 1 < n) {
      sweep_row_pair(l, n, p, stride, k0, i, f);
      i += 2;
    } else {
      sweep_row_scalar(l, n, p, stride, width, k0, i, f);
      ++i;
    }
  }
}

/// K^-1(i, j) = sum_{k >= i} X(k, i) X(k, j) for every j <= i, from the
/// row-major X = L^-1: each entry starts at +0 and adds its terms in
/// ascending k.  put(i, j, v) receives each lower-triangle entry once.
/// Rows i and i + 1 advance together over eight lanes j, sharing the
/// X(k, j..j+7) loads; lanes past the triangle are computed and dropped.
template <typename Put>
void contract_kinv(const Matrix& x, Put&& put) {
  const std::size_t n = x.rows();
  const double* d = x.data().data();
  const auto scalar = [&](std::size_t i, std::size_t j) {
    double s = 0.0;
    for (std::size_t k = i; k < n; ++k) s += d[k * n + i] * d[k * n + j];
    put(i, j, s);
  };
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    for (std::size_t j0 = 0; j0 <= i + 1; j0 += k_lanes) {
      const std::size_t j1 = std::min(j0 + k_lanes, i + 2);
      if (j0 + k_lanes > n) {
        // The lane block would read past the end of a row.
        for (std::size_t j = j0; j < j1; ++j) {
          if (j <= i) scalar(i, j);
          scalar(i + 1, j);
        }
        continue;
      }
      Lanes8 a{};
      Lanes8 b{};
      const double* xi = d + i * n;
      add_scaled(a, xi[i], load8(xi + j0));
      for (std::size_t k = i + 1; k < n; ++k) {
        const double* xk = d + k * n;
        const Lanes8 xj = load8(xk + j0);
        add_scaled(a, xk[i], xj);
        add_scaled(b, xk[i + 1], xj);
      }
      double out_a[k_lanes];
      double out_b[k_lanes];
      store8(out_a, a);
      store8(out_b, b);
      for (std::size_t j = j0; j < j1; ++j) {
        if (j <= i) put(i, j, out_a[j - j0]);
        put(i + 1, j, out_b[j - j0]);
      }
    }
  }
  for (; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) scalar(i, j);
}

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

Matrix solve_lower_multi(const Matrix& l, Matrix b) {
  const std::size_t n = l.rows();
  if (b.rows() != n)
    throw std::invalid_argument("solve_lower_multi: size mismatch");
  for (std::size_t j0 = 0; j0 < b.cols(); j0 += k_lanes)
    sweep_columns(l.data().data(), b, j0, 0, Finish::reciprocal);
  return b;
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

void lower_inverse_into(const Matrix& l, Matrix& x) {
  const std::size_t n = l.rows();
  if (x.rows() != n || x.cols() != n) x = Matrix(n, n);
  // X solves L X = I.  Columns j0 .. j0 + 7 are zero above row j0, so their
  // sweep starts there; for lane j the terms k < j are l_ik * (+0) and leave
  // its +0 accumulator unchanged, so X(i, j) = (0 - sum_{k=j}^{i-1} l_ik
  // X(k, j)) / l_ii.
  std::fill(x.data().begin(), x.data().end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) x(i, i) = 1.0;
  for (std::size_t j0 = 0; j0 < n; j0 += k_lanes)
    sweep_columns(l.data().data(), x, j0, j0, Finish::divide);
}

void half_kinv_minus_outer_into(const Matrix& x, const Vector& alpha,
                                Matrix& dk) {
  const std::size_t n = x.rows();
  if (dk.rows() != n || dk.cols() != n) dk = Matrix(n, n);
  contract_kinv(x, [&](std::size_t i, std::size_t j, double kinv_ij) {
    const double v = 0.5 * (kinv_ij - alpha[i] * alpha[j]);
    dk(i, j) = v;
    dk(j, i) = v;
  });
}

void cholesky_inverse_into(const Matrix& l, Matrix& inv, Matrix& x_scratch) {
  const std::size_t n = l.rows();
  lower_inverse_into(l, x_scratch);
  if (inv.rows() != n || inv.cols() != n) inv = Matrix(n, n);
  // Mirrored, so exactly symmetric: no post-hoc symmetrization needed.
  contract_kinv(x_scratch, [&](std::size_t i, std::size_t j, double s) {
    inv(i, j) = s;
    inv(j, i) = s;
  });
}

}  // namespace kato::la
