#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "scalar_oracles.hpp"
#include "util/rng.hpp"

namespace la = kato::la;
namespace oracle = kato::scalar_oracles;

TEST(Matrix, ConstructionAndIndexing) {
  la::Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(la::Matrix::from_rows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  auto m = la::Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  auto t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(Matrix, MatmulAgainstKnown) {
  auto a = la::Matrix::from_rows({{1, 2}, {3, 4}});
  auto b = la::Matrix::from_rows({{5, 6}, {7, 8}});
  auto c = la::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulVariantsConsistent) {
  kato::util::Rng rng(1);
  la::Matrix a(4, 3);
  la::Matrix b(4, 5);
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  auto tn = la::matmul_tn(a, b);                    // a^T b : 3x5
  auto ref = la::matmul(a.transpose(), b);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_NEAR(tn(i, j), ref(i, j), 1e-12);

  auto nt = la::matmul_nt(a.transpose(), b.transpose());  // (3x4)*(4x5)
  auto ref2 = la::matmul(a.transpose(), b);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_NEAR(nt(i, j), ref2(i, j), 1e-12);
}

TEST(Matrix, MatvecAndOuter) {
  auto a = la::Matrix::from_rows({{1, 2}, {3, 4}});
  la::Vector x{1.0, -1.0};
  auto y = la::matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  auto yt = la::matvec_t(a, x);
  EXPECT_DOUBLE_EQ(yt[0], -2.0);
  EXPECT_DOUBLE_EQ(yt[1], -2.0);
  auto o = la::outer(x, x);
  EXPECT_DOUBLE_EQ(o(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(o(1, 1), 1.0);
}

TEST(Cholesky, FactorsSpdMatrix) {
  auto a = la::Matrix::from_rows({{4, 2}, {2, 3}});
  auto l = la::cholesky(a);
  ASSERT_TRUE(l.has_value());
  // Reconstruct.
  auto rec = la::matmul_nt(*l, *l);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  auto a = la::Matrix::from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(la::cholesky(a).has_value());
}

TEST(Cholesky, JitterLadderRecoversSingular) {
  // Rank-deficient PSD matrix: ones(3,3).
  la::Matrix a(3, 3, 1.0);
  auto jc = la::cholesky_jittered(a);
  EXPECT_GT(jc.jitter, 0.0);
  EXPECT_EQ(jc.l.rows(), 3u);
}

TEST(Cholesky, SolveMatchesDirect) {
  kato::util::Rng rng(2);
  const std::size_t n = 12;
  la::Matrix b(n, n);
  for (auto& v : b.data()) v = rng.normal();
  la::Matrix a = la::matmul_nt(b, b);  // SPD
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  la::Vector rhs = rng.normal_vec(n);
  auto l = la::cholesky(a);
  ASSERT_TRUE(l.has_value());
  auto x = la::cholesky_solve(*l, rhs);
  auto ax = la::matvec(a, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

TEST(Cholesky, InverseAndLogdet) {
  auto a = la::Matrix::from_rows({{2, 0.5}, {0.5, 1}});
  auto l = la::cholesky(a);
  ASSERT_TRUE(l.has_value());
  auto inv = la::cholesky_inverse(*l);
  auto prod = la::matmul(a, inv);
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(la::cholesky_logdet(*l), std::log(2.0 * 1.0 - 0.25), 1e-12);
}

TEST(Lu, SolvesGeneralSystem) {
  auto a = la::Matrix::from_rows({{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}});
  la::Vector b{-8, 0, 3};
  auto x = la::lu_solve(a, b);
  ASSERT_TRUE(x.has_value());
  auto ax = la::matvec(a, *x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(Lu, DetectsSingular) {
  auto a = la::Matrix::from_rows({{1, 2}, {2, 4}});
  la::Vector b{1, 2};
  EXPECT_FALSE(la::lu_solve(a, b).has_value());
}

TEST(Lu, ComplexSolve) {
  using cd = std::complex<double>;
  la::CMatrix a(2, 2);
  a(0, 0) = cd(1, 1);
  a(0, 1) = cd(0, -1);
  a(1, 0) = cd(2, 0);
  a(1, 1) = cd(1, -1);
  la::CVector b{cd(1, 0), cd(0, 1)};
  auto x = la::lu_solve_complex(a, b);
  ASSERT_TRUE(x.has_value());
  // Verify residual.
  for (std::size_t i = 0; i < 2; ++i) {
    cd r = -b[i];
    for (std::size_t j = 0; j < 2; ++j) r += a(i, j) * (*x)[j];
    EXPECT_NEAR(std::abs(r), 0.0, 1e-12);
  }
}

TEST(Lu, ComplexSingularDetected) {
  using cd = std::complex<double>;
  la::CMatrix a(2, 2);
  a(0, 0) = cd(1, 0);
  a(0, 1) = cd(2, 0);
  a(1, 0) = cd(2, 0);
  a(1, 1) = cd(4, 0);
  la::CVector b{cd(1, 0), cd(1, 0)};
  EXPECT_FALSE(la::lu_solve_complex(a, b).has_value());
}

TEST(VectorOps, DotNormAxpySqdist) {
  la::Vector a{1, 2, 3};
  la::Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(la::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(la::norm2(a), std::sqrt(14.0));
  la::axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  EXPECT_DOUBLE_EQ(la::sq_dist(a, la::Vector{1, 2, 4}), 1.0);
}

// ---------------------------------------------------------------------------
// Large-matrix paths: the tiled matmul crosses its 64-wide k tile and the
// blocked Cholesky crosses its 48-wide panel only above those sizes, so the
// small-matrix tests above never execute the multi-block code.

namespace {

la::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  kato::util::Rng rng(seed);
  la::Matrix m(r, c);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Reference triple loop, deliberately independent of the tiled kernel.
la::Matrix naive_matmul(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

}  // namespace

TEST(Matmul, TiledPathMatchesNaiveAcrossTileBoundary) {
  // Inner dimension 150 spans three k tiles (64 + 64 + 22).
  const auto a = random_matrix(37, 150, 101);
  const auto b = random_matrix(150, 41, 102);
  const auto c = la::matmul(a, b);
  const auto ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j)
      EXPECT_NEAR(c(i, j), ref(i, j), 1e-10) << i << "," << j;
}

TEST(Cholesky, BlockedPathReconstructsLargeSpd) {
  // n = 96 exercises two panels: diagonal factor, panel solve and trailing
  // update all run at least once.
  const std::size_t n = 96;
  const auto b = random_matrix(n, n, 103);
  la::Matrix spd = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);

  const auto l = la::cholesky(spd);
  ASSERT_TRUE(l.has_value());
  // Strictly lower triangular factor: upper part must stay zero.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      EXPECT_DOUBLE_EQ((*l)(i, j), 0.0);
  // L L^T reproduces the input.
  const la::Matrix rec = la::matmul_nt(*l, *l);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(rec(i, j), spd(i, j), 1e-9) << i << "," << j;
}

TEST(Cholesky, BlockedSolveMatchesDirectResidual) {
  const std::size_t n = 80;
  const auto b = random_matrix(n, n, 104);
  la::Matrix spd = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  const auto l = la::cholesky(spd);
  ASSERT_TRUE(l.has_value());

  kato::util::Rng rng(105);
  const la::Vector rhs = rng.normal_vec(n);
  const la::Vector x = la::cholesky_solve(*l, rhs);
  const la::Vector ax = la::matvec(spd, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

// ---------------------------------------------------------------------------
// The blocked Cholesky's panel solve and trailing update, and the dK
// contraction of the GP training loop, advance several independent output
// chains per pass.  Each output keeps its own summation order, so they must
// match the one-output-at-a-time loops below bit for bit.

namespace {

/// One-row-at-a-time blocked Cholesky (same 48-wide panels).
bool oracle_cholesky(const la::Matrix& a, la::Matrix& l) {
  constexpr std::size_t block = 48;
  const std::size_t n = a.rows();
  l = la::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
  for (std::size_t j0 = 0; j0 < n; j0 += block) {
    const std::size_t j1 = std::min(j0 + block, n);
    for (std::size_t j = j0; j < j1; ++j) {
      double diag = l(j, j);
      for (std::size_t k = j0; k < j; ++k) diag -= l(j, k) * l(j, k);
      if (!(diag > 0.0) || !std::isfinite(diag)) return false;
      const double ljj = std::sqrt(diag);
      l(j, j) = ljj;
      for (std::size_t i = j + 1; i < j1; ++i) {
        double s = l(i, j);
        for (std::size_t k = j0; k < j; ++k) s -= l(i, k) * l(j, k);
        l(i, j) = s / ljj;
      }
    }
    for (std::size_t i = j1; i < n; ++i)
      for (std::size_t c = j0; c < j1; ++c) {
        double s = l(i, c);
        for (std::size_t k = j0; k < c; ++k) s -= l(i, k) * l(c, k);
        l(i, c) = s / l(c, c);
      }
    for (std::size_t i = j1; i < n; ++i)
      for (std::size_t j = j1; j <= i; ++j) {
        double s = 0.0;
        for (std::size_t k = j0; k < j1; ++k) s += l(i, k) * l(j, k);
        l(i, j) -= s;
      }
  }
  return true;
}

la::Matrix random_spd(std::size_t n, std::uint64_t seed) {
  const auto b = random_matrix(n, n, seed);
  la::Matrix spd = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

}  // namespace

TEST(Cholesky, MultiChainFactorMatchesScalarOracleBitwise) {
  for (const std::size_t n : {1, 2, 3, 5, 47, 48, 49, 52, 97, 192, 256}) {
    SCOPED_TRACE(n);
    const auto spd = random_spd(n, 200 + n);
    la::Matrix ref;
    ASSERT_TRUE(oracle_cholesky(spd, ref));
    la::Matrix l;
    ASSERT_TRUE(la::cholesky_into(spd, l));
    EXPECT_EQ(l.data(), ref.data());
    const auto jl = la::cholesky(spd);
    ASSERT_TRUE(jl.has_value());
    EXPECT_EQ(jl->data(), ref.data());
  }
}

TEST(Cholesky, MultiChainFactorRejectsNonPd) {
  for (const std::size_t n : {3, 52, 97}) {
    SCOPED_TRACE(n);
    // Positive definite except a late pivot, which lands in the trailing
    // update's territory for n > 48.
    auto a = random_spd(n, 300 + n);
    a(n - 1, n - 1) = -1.0;
    la::Matrix ref;
    EXPECT_FALSE(oracle_cholesky(a, ref));
    la::Matrix l;
    EXPECT_FALSE(la::cholesky_into(a, l));
    EXPECT_FALSE(la::cholesky(a).has_value());
  }
}

// ---------------------------------------------------------------------------
// The triangular kernels of the GP (the acquisition's multi-RHS forward solve,
// L^-1 and the K^-1 contraction) run eight lanes of independent outputs per
// SSE2 pass.  The scalar loops they replaced are the oracles of
// scalar_oracles.hpp, and every result must match its oracle bit for bit
// (the solve up to the sign of a zero where the factor has exact zeros).

namespace {

bool same_bits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// SPD with 5 x 5 diagonal blocks: its factor has exact zeros below the
/// diagonal.
la::Matrix block_diagonal_spd(std::size_t n, std::uint64_t seed) {
  const auto dense = random_spd(n, seed);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i / 5 == j / 5) a(i, j) = dense(i, j);
  return a;
}

const std::size_t k_oracle_sizes[] = {1,  2,  3,  5,  8,   9,   17,
                                      47, 48, 49, 52, 97, 192, 256};

/// Factors of a dense and a block-diagonal SPD matrix of size n.
std::vector<la::Matrix> oracle_factors(std::size_t n) {
  std::vector<la::Matrix> out;
  for (const auto& a : {random_spd(n, 400 + n), block_diagonal_spd(n, 600 + n)}) {
    auto l = la::cholesky(a);
    EXPECT_TRUE(l.has_value());
    if (l) out.push_back(std::move(*l));
  }
  return out;
}

}  // namespace

TEST(TriangularKernels, BlockDiagonalFactorHasExactZeros) {
  const auto l = la::cholesky(block_diagonal_spd(17, 1));
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ((*l)(5, 0), 0.0);
  EXPECT_EQ((*l)(16, 14), 0.0);
  EXPECT_NE((*l)(16, 15), 0.0);
}

TEST(TriangularKernels, SolveLowerMultiMatchesScalarOracleBitwise) {
  for (const std::size_t n : k_oracle_sizes) {
    const auto factors = oracle_factors(n);
    for (std::size_t f = 0; f < factors.size(); ++f) {
      for (const std::size_t m : {1, 2, 7, 8, 9, 16, 24, 31}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " factor=" << f
                                        << " m=" << m);
        const auto b = random_matrix(n, m, 700 + n * 37 + m);
        const la::Matrix x = la::solve_lower_multi(factors[f], b);
        const la::Matrix ref = oracle::solve_lower_multi(factors[f], b);
        if (f == 0) {
          EXPECT_TRUE(same_bits(x, ref));
        } else {
          // The oracle skips exact-zero factor entries, the kernel subtracts
          // them: only the signs of zeros may differ (== treats -0 as +0).
          EXPECT_EQ(x.data(), ref.data());
        }
      }
    }
  }
}

TEST(TriangularKernels, LowerInverseMatchesScalarOracleBitwise) {
  for (const std::size_t n : k_oracle_sizes) {
    const auto factors = oracle_factors(n);
    for (std::size_t f = 0; f < factors.size(); ++f) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " factor=" << f);
      la::Matrix x;
      la::lower_inverse_into(factors[f], x);
      la::Matrix t;
      oracle::lower_inverse_transposed(factors[f], t, false);
      EXPECT_TRUE(same_bits(x, t.transpose()));
      oracle::lower_inverse_transposed(factors[f], t);
      const la::Matrix paired = t.transpose();
      if (f == 0) {
        // No exact zeros in a dense factor: the two oracle loops agree.
        EXPECT_TRUE(same_bits(x, paired));
      } else {
        // Only the signs of zeros may differ, which no K^-1 entry sees (the
        // contraction sums onto +0; see KinvContractions below).
        EXPECT_EQ(x.data(), paired.data());
      }
    }
  }
}

TEST(TriangularKernels, KinvContractionsMatchScalarOraclesBitwise) {
  for (const std::size_t n : k_oracle_sizes) {
    const auto factors = oracle_factors(n);
    for (std::size_t f = 0; f < factors.size(); ++f) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " factor=" << f);
      la::Matrix t;
      oracle::lower_inverse_transposed(factors[f], t);
      la::Matrix x;
      la::lower_inverse_into(factors[f], x);
      kato::util::Rng rng(500 + n);
      const la::Vector alpha = rng.normal_vec(n);
      la::Matrix dk;
      la::half_kinv_minus_outer_into(x, alpha, dk);
      la::Matrix dk_ref;
      oracle::half_kinv_minus_outer(t, alpha, dk_ref);
      EXPECT_TRUE(same_bits(dk, dk_ref));
      la::Matrix inv;
      la::Matrix scratch;
      la::cholesky_inverse_into(factors[f], inv, scratch);
      EXPECT_TRUE(same_bits(inv, oracle::kinv(t)));
      EXPECT_TRUE(same_bits(scratch, x));
    }
  }
}

// ---------------------------------------------------------------------------
// The complex LU measures only the rows whose squared magnitude can hold a
// column's largest std::abs.  The plain scan it replaced is the oracle of
// scalar_oracles.hpp: on every matrix below, including ties, 1-ulp gaps,
// non-finite entries and extreme scales, both must return the same flag and
// leave the same bits in x, a and b.

namespace {

using cd = std::complex<double>;

bool same_bits(cd u, cd v) { return std::memcmp(&u, &v, sizeof(cd)) == 0; }

void expect_lu_matches_oracle(const la::CMatrix& a0, const la::CVector& b0) {
  la::CMatrix a = a0;
  la::CVector b = b0;
  la::CVector x;
  la::CMatrix a_ref = a0;
  la::CVector b_ref = b0;
  la::CVector x_ref;
  EXPECT_EQ(la::lu_solve_complex_into(a, b, x),
            oracle::lu_solve_complex_into(a_ref, b_ref, x_ref));
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_TRUE(same_bits(x[i], x_ref[i])) << "x[" << i << "]";
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_TRUE(same_bits(b[i], b_ref[i])) << "b[" << i << "]";
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_TRUE(same_bits(a(i, j), a_ref(i, j)))
          << "a(" << i << ", " << j << ")";
  }
}

/// G + j w C of a random 10-node circuit (conductances, capacitors and
/// transconductances between random nodes) with two voltage-source branch
/// rows, whose +-1 stamps tie in magnitude.
la::CMatrix ac_like_matrix(kato::util::Rng& rng, double freq) {
  constexpr int nodes = 10;
  la::CMatrix a(nodes + 2, nodes + 2);
  const double w = 2.0 * 3.141592653589793 * freq;
  const auto node = [&] {
    return static_cast<std::size_t>(rng.randint(0, nodes - 1));
  };
  for (int k = 0; k < 24; ++k) {
    const std::size_t p = node();
    const std::size_t q = node();
    const cd y(std::pow(10.0, rng.uniform(-6.0, -2.0)),
               w * std::pow(10.0, rng.uniform(-15.0, -11.0)));
    a(p, p) += y;
    if (p == q) continue;
    a(q, q) += y;
    a(p, q) -= y;
    a(q, p) -= y;
  }
  for (int k = 0; k < 4; ++k)
    a(node(), node()) += std::pow(10.0, rng.uniform(-4.0, -2.0));
  for (std::size_t br = 0; br < 2; ++br) {
    const std::size_t p = node();
    a(p, nodes + br) = 1.0;
    a(nodes + br, p) = 1.0;
  }
  return a;
}

la::CVector random_cvector(kato::util::Rng& rng, std::size_t n) {
  la::CVector b(n);
  for (auto& v : b) v = cd(rng.normal(), rng.normal());
  return b;
}

/// Random complex matrix with standard-normal parts.
la::CMatrix random_cmatrix(kato::util::Rng& rng, std::size_t n) {
  la::CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = cd(rng.normal(), rng.normal());
  return a;
}

}  // namespace

TEST(ComplexLuPivot, AcLikeMatricesMatchOracleBitwise) {
  kato::util::Rng rng(31);
  for (int m = 0; m < 40; ++m) {
    for (const double freq : {1.0, 1e3, 1e6, 1e8, 1e10}) {
      SCOPED_TRACE(testing::Message() << "matrix " << m << " f=" << freq);
      const la::CMatrix a = ac_like_matrix(rng, freq);
      expect_lu_matches_oracle(a, random_cvector(rng, a.rows()));
    }
  }
}

TEST(ComplexLuPivot, OneUlpMagnitudeGapsMatchOracleBitwise) {
  // Column 0 holds magnitudes 5 and its neighbours one ulp away, as pure
  // real, pure imaginary and 3-4-5 entries, in every row order.
  const double lo = std::nextafter(5.0, 0.0);
  const double hi = std::nextafter(5.0, 10.0);
  std::vector<cd> col = {cd(3, 4), cd(lo, 0), cd(0, hi), cd(-5, 0), cd(0, lo),
                         cd(hi, 0), cd(-3, -4), cd(4, 3)};
  const auto less = [](cd u, cd v) {
    return std::make_pair(u.real(), u.imag()) <
           std::make_pair(v.real(), v.imag());
  };
  std::sort(col.begin(), col.end(), less);
  kato::util::Rng rng(32);
  int perm = 0;
  do {
    if (perm++ % 97 != 0) continue;  // a spread of the 8! orders
    la::CMatrix a = random_cmatrix(rng, col.size());
    for (std::size_t r = 0; r < col.size(); ++r) a(r, 0) = col[r];
    expect_lu_matches_oracle(a, random_cvector(rng, col.size()));
  } while (std::next_permutation(col.begin(), col.end(), less));
}

TEST(ComplexLuPivot, ExactMagnitudeTiesMatchOracleBitwise) {
  // z, conj(z), i z and -z have the same std::abs: the first row must win.
  kato::util::Rng rng(33);
  for (int m = 0; m < 50; ++m) {
    const cd z(rng.normal(), rng.normal());
    const cd ties[] = {z, std::conj(z), cd(0, 1) * z, -z};
    la::CMatrix a = random_cmatrix(rng, 6);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t col = 0; col < 3; ++col)
        a(r, col) = r < 4 ? ties[(r + col + m) % 4] : 0.1 * a(r, col);
    expect_lu_matches_oracle(a, random_cvector(rng, 6));
  }
}

TEST(ComplexLuPivot, NonFiniteEntriesMatchOracleBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  kato::util::Rng rng(34);
  for (const cd bad : {cd(nan, 0), cd(0, nan), cd(inf, 0), cd(0, -inf),
                       cd(-inf, inf), cd(nan, inf)}) {
    for (std::size_t r = 0; r < 5; ++r) {
      for (std::size_t col = 0; col < 5; ++col) {
        la::CMatrix a = random_cmatrix(rng, 5);
        a(r, col) = bad;
        expect_lu_matches_oracle(a, random_cvector(rng, 5));
      }
    }
  }
}

TEST(ComplexLuPivot, ExtremeColumnScalesMatchOracleBitwise) {
  kato::util::Rng rng(35);
  for (const double scale :
       {1e-160, 1e-150, 1e-140, 1e-130, 1e130, 1e140, 1e150, 1e160}) {
    for (std::size_t col = 0; col < 8; ++col) {
      SCOPED_TRACE(testing::Message() << "scale " << scale << " col " << col);
      la::CMatrix a = random_cmatrix(rng, 8);
      for (std::size_t r = 0; r < 8; ++r) a(r, col) *= scale;
      expect_lu_matches_oracle(a, random_cvector(rng, 8));
    }
  }
}

TEST(ComplexLuPivot, UnderflowedSquaresMatchOracleBitwise) {
  // Entries near 2^-537: their squares are subnormal and order the two rows
  // opposite to std::abs, so a cut on them would drop the true pivot row.
  const cd pairs[][2] = {
      {cd(0x1.5d00b15b1342p-538, 0x1.d7111bfd317e2p-538),
       cd(0x1.9556e2ea50aa8p-538, 0x1.8ebe926498f96p-538)},
      {cd(0x1.9871537ddb822p-536, 0x1.96b8e87325588p-536),
       cd(0x1.0fff42fb9ecdap-536, 0x1.fb8585c0e823ep-536)},
  };
  for (const auto& pair : pairs) {
    EXPECT_GT(std::abs(pair[0]), std::abs(pair[1]));
    EXPECT_LT(std::norm(pair[0]), std::norm(pair[1]));
    la::CMatrix a(3, 3);
    a(0, 0) = pair[0];
    a(1, 0) = pair[1];
    a(0, 1) = a(1, 2) = a(2, 1) = cd(1, 1);
    a(2, 2) = cd(2, -1);
    expect_lu_matches_oracle(a, la::CVector(3, cd(1, 0)));
  }
}

TEST(ComplexLuPivot, ZeroColumnMatchesOracleBitwise) {
  kato::util::Rng rng(36);
  for (std::size_t col = 0; col < 6; ++col) {
    la::CMatrix a = random_cmatrix(rng, 6);
    for (std::size_t r = 0; r < 6; ++r) a(r, col) = 0.0;
    expect_lu_matches_oracle(a, random_cvector(rng, 6));
  }
}

TEST(ComplexLuPivot, SingularThresholdMatchesOracleBitwise) {
  // Pivots just below, at and just above the 1e-300 singular tolerance.
  const double t = 1e-300;
  for (const cd p :
       {cd(t, 0), cd(std::nextafter(t, 0.0), 0), cd(std::nextafter(t, 1.0), 0),
        cd(0, t), cd(0.6 * t, 0.8 * t), cd(0.8 * t, -0.6 * t),
        cd(0.7 * t, 0.7 * t)}) {
    for (std::size_t col = 0; col < 4; ++col) {
      la::CMatrix a(4, 4);
      for (std::size_t i = 0; i < 4; ++i) a(i, i) = cd(1.0 + i, 0.5);
      a(col, col) = p;
      expect_lu_matches_oracle(a, la::CVector(4, cd(1, -1)));
      // The same pivot among a column of tiny entries.
      for (std::size_t r = 0; r < 4; ++r)
        if (r != col) a(r, col) = 0.5 * p;
      expect_lu_matches_oracle(a, la::CVector(4, cd(1, -1)));
    }
  }
}
