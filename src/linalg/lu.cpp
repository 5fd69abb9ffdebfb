#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace kato::la {

namespace {
constexpr double k_singular_tol = 1e-300;

/// Bounds of the squared magnitudes within which the complex pivot search
/// trusts its re^2 + im^2 prefilter: inside them the squares neither
/// overflow nor lose relative accuracy to underflow.
constexpr double k_norm_sq_max = 1e300;
constexpr double k_norm_sq_min = 1e-280;
/// A row whose squared magnitude is below (1 - k_norm_sq_slack) times the
/// column's largest has a magnitude below the largest one's by far more
/// than the rounding of the squares and of std::abs, so it cannot win.
constexpr double k_norm_sq_slack = 1e-12;

double norm_sq(std::complex<double> z) {
  return z.real() * z.real() + z.imag() * z.imag();
}
}  // namespace

bool lu_solve_into(Matrix& a, Vector& b, Vector& x) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("lu_solve_into: shape mismatch");

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < k_singular_tol || !std::isfinite(best)) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(col, j), a(pivot, j));
      std::swap(b[col], b[pivot]);
    }
    const double inv_piv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) * inv_piv;
      if (factor == 0.0) continue;
      a(r, col) = 0.0;
      for (std::size_t j = col + 1; j < n; ++j) a(r, j) -= factor * a(col, j);
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  x.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= a(ii, j) * x[j];
    x[ii] = s / a(ii, ii);
  }
  for (double v : x)
    if (!std::isfinite(v)) return false;
  return true;
}

std::optional<Vector> lu_solve(Matrix a, Vector b) {
  Vector x;
  if (!lu_solve_into(a, b, x)) return std::nullopt;
  return x;
}

bool lu_solve_complex_into(CMatrix& a, CVector& b, CVector& x) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("lu_solve_complex_into: shape mismatch");

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: the first row of largest std::abs (hypot).  hypot is
    // costly, so a squared-magnitude pass first finds the rows that can
    // hold that maximum and only they pay for std::abs.  A column with a
    // non-finite or huge entry, or with only tiny ones, measures every row.
    double s_max = 0.0;
    bool cut = true;
    for (std::size_t r = col; r < n; ++r) {
      const double s = norm_sq(a(r, col));
      if (!(s <= k_norm_sq_max)) cut = false;  // also NaN
      s_max = std::max(s_max, s);
    }
    if (s_max < k_norm_sq_min) cut = false;
    const double s_cut = s_max * (1.0 - k_norm_sq_slack);
    std::size_t pivot = col;
    double best = -1.0;  // below any magnitude, should row col be cut
    for (std::size_t r = col; r < n; ++r) {
      if (cut && norm_sq(a(r, col)) < s_cut) continue;
      const double mag = std::abs(a(r, col));
      if (r == col || mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < k_singular_tol || !std::isfinite(best)) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(col, j), a(pivot, j));
      std::swap(b[col], b[pivot]);
    }
    const std::complex<double> inv_piv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const std::complex<double> factor = a(r, col) * inv_piv;
      if (factor == std::complex<double>(0.0, 0.0)) continue;
      a(r, col) = 0.0;
      for (std::size_t j = col + 1; j < n; ++j) a(r, j) -= factor * a(col, j);
      b[r] -= factor * b[col];
    }
  }
  x.assign(n, std::complex<double>(0.0, 0.0));
  for (std::size_t ii = n; ii-- > 0;) {
    std::complex<double> s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= a(ii, j) * x[j];
    x[ii] = s / a(ii, ii);
  }
  for (const auto& v : x)
    if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) return false;
  return true;
}

std::optional<CVector> lu_solve_complex(CMatrix a, CVector b) {
  CVector x;
  if (!lu_solve_complex_into(a, b, x)) return std::nullopt;
  return x;
}

}  // namespace kato::la
