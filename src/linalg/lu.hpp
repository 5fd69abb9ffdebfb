#pragma once
// LU factorization with partial pivoting, real and complex variants.
//
// The complex solver backs the AC small-signal analysis in the circuit
// simulator (MNA matrices are complex at each frequency point); the real
// solver backs the DC Newton iterations.

#include <complex>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"

namespace kato::la {

/// Solve a x = b for a general square real matrix.  Returns nullopt when the
/// matrix is numerically singular.
std::optional<Vector> lu_solve(Matrix a, Vector b);

/// In-place variant for hot loops: factors `a` and reduces `b` in place
/// (both are clobbered) and writes the solution into `x` (resized).  No
/// allocation happens when x already has capacity n.  Returns false when
/// the matrix is numerically singular.
bool lu_solve_into(Matrix& a, Vector& b, Vector& x);

/// Dense complex matrix in row-major order (small: circuit-node count).
class CMatrix {
 public:
  using value_type = std::complex<double>;

  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  value_type& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  value_type operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<value_type> data_;
};

using CVector = std::vector<std::complex<double>>;

/// Solve a x = b for a general square complex matrix (partial pivoting).
std::optional<CVector> lu_solve_complex(CMatrix a, CVector b);

/// In-place complex variant (see lu_solve_into): `a` and `b` are clobbered,
/// the solution lands in `x`.  Returns false when singular.
///
/// Pivot rule: in each column the first row of largest std::abs wins, as a
/// plain scan would pick.  Only rows whose re^2 + im^2 is at least
/// (1 - 1e-12) times the column's largest are measured with std::abs
/// (hypot); every other row's magnitude is provably below the maximum.  A
/// column with a non-finite entry, an entry with re^2 + im^2 above 1e300, or
/// a largest re^2 + im^2 below 1e-280 measures every row.  So the pivot and
/// the singularity test match the plain scan bit for bit
/// (tests/scalar_oracles.hpp keeps it, and linalg_test compares the two).
bool lu_solve_complex_into(CMatrix& a, CVector& b, CVector& x);

}  // namespace kato::la
