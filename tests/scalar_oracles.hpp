#pragma once
// The scalar loops that the SIMD triangular kernels of linalg/cholesky.cpp
// replaced, kept verbatim in one place: linalg_test checks the kernels
// against them bit for bit, and bench/micro_perf times them as the
// reference arm of its tri_solve / lower_inverse / kinv_contract rows.
// The complex LU with the plain std::abs pivot scan, which the prefiltered
// pivot search of linalg/lu.cpp replaced, is kept here for the same check.

#include <cmath>
#include <complex>
#include <cstddef>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace kato::scalar_oracles {

/// X = L^-1 B, one row at a time, skipping exact-zero factor entries, then
/// times 1 / l_ii.
inline la::Matrix solve_lower_multi(const la::Matrix& l, const la::Matrix& b) {
  const std::size_t n = l.rows();
  const std::size_t m = b.cols();
  la::Matrix x = b;
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

/// t = (L^-1)^T (row r holds column r of L^-1), two columns per pass.  The
/// paired loop starts column j at -(l_ij X(j, j)) where the single-column
/// loop starts at 0 - l_ij X(j, j); the two differ only in the sign of a
/// zero, when l_ij is an exact zero.  `paired = false` runs every column
/// through the single-column loop.
inline void lower_inverse_transposed(const la::Matrix& l, la::Matrix& t,
                                     bool paired = true) {
  const std::size_t n = l.rows();
  if (t.rows() != n || t.cols() != n) t = la::Matrix(n, n);
  std::size_t j = 0;
  for (; paired && j + 1 < n; j += 2) {
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

/// dk = 0.5 (T T^T - alpha alpha^T) over the triangular support of
/// T = (L^-1)^T, four entries per pass, each its own chain over k = i..n-1.
inline void half_kinv_minus_outer(const la::Matrix& t, const la::Vector& alpha,
                                  la::Matrix& dk) {
  const std::size_t n = t.rows();
  if (dk.rows() != n || dk.cols() != n) dk = la::Matrix(n, n);
  const auto put = [&](std::size_t i, std::size_t j, double kinv_ij) {
    const double v = 0.5 * (kinv_ij - alpha[i] * alpha[j]);
    dk(i, j) = v;
    dk(j, i) = v;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double* ti = t.data().data() + i * n;
    std::size_t j = 0;
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

/// K^-1 = T T^T over the triangular support of T = (L^-1)^T, one entry at a
/// time, mirrored.
inline la::Matrix kinv(const la::Matrix& t) {
  const std::size_t n = t.rows();
  la::Matrix inv(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* ti = t.data().data() + i * n;
    for (std::size_t j = 0; j <= i; ++j) {
      const double* tj = t.data().data() + j * n;
      double s = 0.0;
      for (std::size_t k = i; k < n; ++k) s += ti[k] * tj[k];
      inv(i, j) = s;
      inv(j, i) = s;
    }
  }
  return inv;
}

/// la::lu_solve_complex_into with the pivot chosen by std::abs (hypot) on
/// every candidate row, first maximum wins.
inline bool lu_solve_complex_into(la::CMatrix& a, la::CVector& b,
                                  la::CVector& x) {
  constexpr double k_singular_tol = 1e-300;
  const std::size_t n = a.rows();
  for (std::size_t col = 0; col < n; ++col) {
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

}  // namespace kato::scalar_oracles
