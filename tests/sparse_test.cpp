// Sparse MNA solver suite: the SparseLu kernel against the dense LU, the
// symbolic-reuse refactorization contract, the sparse-vs-dense golden
// comparison across every analysis (DC/AC/TRAN) and shipped deck, and the
// thread-parallel batch-evaluation equality guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuits/factory.hpp"
#include "circuits/pdk.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "netlist/netlist_circuit.hpp"
#include "netlist/parser.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"
#include "sim/transient.hpp"
#include "util/rng.hpp"

#ifndef KATO_SOURCE_DIR
#define KATO_SOURCE_DIR "."
#endif

namespace {

using namespace kato;

std::string deck_path(const std::string& name) {
  return std::string(KATO_SOURCE_DIR) + "/circuits/netlists/" + name;
}

/// Scoped environment override (restores the previous value on destruction).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

/// Random sparse test system: banded plus a few long-range entries plus a
/// vsource-style zero-diagonal branch row — the structure partial pivoting
/// must handle.
struct TestSystem {
  la::SparsePattern pattern;
  std::vector<double> values;
  la::Matrix dense;
  la::Vector rhs;
};

TestSystem make_system(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<la::Coord> coords;
  for (std::size_t i = 0; i < n; ++i) {
    coords.push_back({i, i});
    if (i + 1 < n) {
      coords.push_back({i, i + 1});
      coords.push_back({i + 1, i});
    }
    const std::size_t far = (i * 7 + 3) % n;
    coords.push_back({i, far});
  }
  // Branch-row pair: zero diagonal at the last row/column.
  coords.push_back({n - 1, 0});
  coords.push_back({0, n - 1});

  TestSystem sys;
  sys.pattern = la::SparsePattern(n, coords);
  sys.values.assign(sys.pattern.nnz(), 0.0);
  sys.dense = la::Matrix(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t s = sys.pattern.col_ptr()[c]; s < sys.pattern.col_ptr()[c + 1];
         ++s) {
      const std::size_t r = sys.pattern.row_idx()[s];
      double v = rng.uniform() * 2.0 - 1.0;
      if (r == c) v += (r == n - 1) ? 0.0 : 4.0;  // last diagonal ~ random
      sys.values[s] = v;
      sys.dense(r, c) = v;
    }
  sys.rhs.resize(n);
  for (auto& v : sys.rhs) v = rng.uniform() * 2.0 - 1.0;
  return sys;
}

TEST(SparsePattern, SlotsAndDuplicates) {
  const std::vector<la::Coord> coords{{0, 0}, {1, 0}, {0, 0}, {2, 2}, {1, 2}};
  const la::SparsePattern p(3, coords);
  EXPECT_EQ(p.n(), 3u);
  EXPECT_EQ(p.nnz(), 4u);  // duplicate (0,0) collapsed
  EXPECT_NE(p.slot(0, 0), la::k_sparse_npos);
  EXPECT_NE(p.slot(1, 0), la::k_sparse_npos);
  EXPECT_NE(p.slot(1, 2), la::k_sparse_npos);
  EXPECT_EQ(p.slot(2, 0), la::k_sparse_npos);
  EXPECT_EQ(p.slot(0, 1), la::k_sparse_npos);
}

TEST(SparseLu, MinDegreeOrderIsPermutation) {
  const auto sys = make_system(40, 7);
  const auto order = la::min_degree_order(sys.pattern);
  ASSERT_EQ(order.size(), 40u);
  std::vector<char> seen(40, 0);
  for (std::size_t v : order) {
    ASSERT_LT(v, 40u);
    EXPECT_FALSE(seen[v]) << "node visited twice";
    seen[v] = 1;
  }
}

TEST(SparseLu, MatchesDenseRandom) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto sys = make_system(60, seed);
    la::SparseLu lu;
    lu.analyze(sys.pattern);
    ASSERT_TRUE(lu.factor(sys.values)) << "seed " << seed;
    la::Vector x;
    lu.solve(sys.rhs, x);
    const auto ref = la::lu_solve(sys.dense, sys.rhs);
    ASSERT_TRUE(ref.has_value());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_NEAR(x[i], (*ref)[i], 1e-10) << "seed " << seed << " i " << i;
  }
}

TEST(SparseLu, ComplexMatchesDense) {
  const std::size_t n = 40;
  const auto sys = make_system(n, 11);
  util::Rng rng(12);
  la::CMatrix dense(n, n);
  std::vector<std::complex<double>> values(sys.pattern.nnz());
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t s = sys.pattern.col_ptr()[c]; s < sys.pattern.col_ptr()[c + 1];
         ++s) {
      const std::size_t r = sys.pattern.row_idx()[s];
      const std::complex<double> v(sys.values[s], rng.uniform() - 0.5);
      values[s] = v;
      dense(r, c) = v;
    }
  la::CVector rhs(n);
  for (auto& v : rhs) v = {rng.uniform() - 0.5, rng.uniform() - 0.5};

  la::CSparseLu lu;
  lu.analyze(sys.pattern);
  ASSERT_TRUE(lu.factor(values));
  la::CVector x;
  lu.solve(rhs, x);
  const auto ref = la::lu_solve_complex(dense, rhs);
  ASSERT_TRUE(ref.has_value());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), (*ref)[i].real(), 1e-10) << i;
    EXPECT_NEAR(x[i].imag(), (*ref)[i].imag(), 1e-10) << i;
  }
}

TEST(SparseLu, RefactorReusesSymbolicAndMatchesFreshFactor) {
  auto sys = make_system(60, 21);
  la::SparseLu lu;
  lu.analyze(sys.pattern);
  ASSERT_TRUE(lu.factor(sys.values));
  EXPECT_EQ(lu.pivot_passes(), 1u);

  // Perturb values mildly (same pattern): the second factor must take the
  // recorded-pivot refactor path, not a fresh pivoting pass.
  auto perturbed = sys.values;
  util::Rng rng(22);
  for (auto& v : perturbed) v *= 1.0 + 0.05 * (rng.uniform() - 0.5);
  ASSERT_TRUE(lu.factor(perturbed));
  EXPECT_EQ(lu.pivot_passes(), 1u) << "mild value change must not re-pivot";

  la::Vector x_re;
  lu.solve(sys.rhs, x_re);
  la::SparseLu fresh;
  fresh.analyze(sys.pattern);
  ASSERT_TRUE(fresh.factor(perturbed));
  la::Vector x_fresh;
  fresh.solve(sys.rhs, x_fresh);
  for (std::size_t i = 0; i < x_re.size(); ++i)
    EXPECT_NEAR(x_re[i], x_fresh[i], 1e-10) << i;
}

TEST(SparseLu, RepivotsWhenRecordedPivotCollapses) {
  auto sys = make_system(60, 31);
  la::SparseLu lu;
  lu.analyze(sys.pattern);
  ASSERT_TRUE(lu.factor(sys.values));
  ASSERT_EQ(lu.pivot_passes(), 1u);

  // Collapse the strong diagonal the first pass pivoted on: every diagonal
  // entry goes to ~0 while off-diagonals survive, so the recorded sequence
  // hits the relative-pivot guard and the factorization re-pivots — and
  // still solves correctly.
  auto collapsed = sys.values;
  la::Matrix dense(60, 60);
  for (std::size_t c = 0; c < 60; ++c)
    for (std::size_t s = sys.pattern.col_ptr()[c];
         s < sys.pattern.col_ptr()[c + 1]; ++s) {
      const std::size_t r = sys.pattern.row_idx()[s];
      if (r == c) collapsed[s] = 1e-14 * collapsed[s];
      dense(r, c) = collapsed[s];
    }
  ASSERT_TRUE(lu.factor(collapsed));
  EXPECT_GT(lu.pivot_passes(), 1u) << "collapsed pivots must trigger re-pivot";
  la::Vector x;
  lu.solve(sys.rhs, x);
  const auto ref = la::lu_solve(dense, sys.rhs);
  ASSERT_TRUE(ref.has_value());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], (*ref)[i], 1e-8 * std::max(1.0, std::abs((*ref)[i]))) << i;
}

TEST(SparseLu, SingularReturnsFalse) {
  const std::vector<la::Coord> coords{{0, 0}, {1, 1}, {0, 1}};
  const la::SparsePattern p(3, coords);  // row/col 2 empty: structurally singular
  la::SparseLu lu;
  lu.analyze(p);
  EXPECT_FALSE(lu.factor({1.0, 1.0, 0.5}));
  EXPECT_FALSE(lu.factored());

  // Numerically singular: two identical rows.
  const std::vector<la::Coord> c2{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const la::SparsePattern p2(2, c2);
  la::SparseLu lu2;
  lu2.analyze(p2);
  EXPECT_FALSE(lu2.factor({1.0, 1.0, 2.0, 2.0}));
}

TEST(SparseLu, DenseLuSolveIntoMatchesByValueVariant) {
  const auto sys = make_system(30, 41);
  auto a = sys.dense;
  auto b = sys.rhs;
  la::Vector x;
  ASSERT_TRUE(la::lu_solve_into(a, b, x));
  const auto ref = la::lu_solve(sys.dense, sys.rhs);
  ASSERT_TRUE(ref.has_value());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], (*ref)[i]);
}

// ---------------------------------------------------------------------------
// Satellites: pinned log_freq_grid counts and fmt_double renderings.

TEST(LogFreqGrid, PinnedCounts) {
  // Integer-indexed grids: the count is decades * per_decade + 1, immune to
  // the accumulated `e += step` drift of the historical implementation.
  EXPECT_EQ(sim::log_freq_grid(1.0, 1e8, 10).size(), 81u);
  EXPECT_EQ(sim::log_freq_grid(10.0, 1e9, 10).size(), 81u);
  EXPECT_EQ(sim::log_freq_grid(10.0, 1e9, 7).size(), 57u);
  EXPECT_EQ(sim::log_freq_grid(1.0, 1e10, 9).size(), 91u);
  EXPECT_EQ(sim::log_freq_grid(2.0, 2e9, 10).size(), 91u);
  EXPECT_EQ(sim::log_freq_grid(1.0, 10.0, 1).size(), 2u);

  const auto g = sim::log_freq_grid(1.0, 1e6, 10);
  ASSERT_EQ(g.size(), 61u);
  EXPECT_DOUBLE_EQ(g.front(), 1.0);
  EXPECT_NEAR(g.back(), 1e6, 1e6 * 1e-12);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_GT(g[i], g[i - 1]);
}

TEST(FmtDouble, PinnedRenderings) {
  EXPECT_EQ(sim::fmt_double(1e-12), "1e-12");
  EXPECT_EQ(sim::fmt_double(0.5), "0.5");
  EXPECT_EQ(sim::fmt_double(0.0), "0");
  EXPECT_EQ(sim::fmt_double(-42.0), "-42");
  EXPECT_EQ(sim::fmt_double(3.141592653589793), "3.14159");
  EXPECT_EQ(sim::fmt_double(2500000.0), "2.5e+06");
}

// ---------------------------------------------------------------------------
// Sparse-vs-dense golden suite: every analysis agrees to <= 1e-9 between the
// two solve paths on the shipped decks, on both PDK nodes.

class SparseVsDense : public ::testing::TestWithParam<const char*> {};

void compare_metrics(const ckt::SizingCircuit& circuit,
                     const std::vector<double>& x) {
  std::optional<std::vector<double>> sparse;
  std::optional<std::vector<double>> dense;
  {
    ScopedEnv env("KATO_SPARSE", "1");
    sparse = circuit.evaluate(x);
  }
  {
    ScopedEnv env("KATO_SPARSE", "0");
    dense = circuit.evaluate(x);
  }
  ASSERT_EQ(sparse.has_value(), dense.has_value());
  if (!sparse) return;
  ASSERT_EQ(sparse->size(), dense->size());
  for (std::size_t j = 0; j < sparse->size(); ++j)
    EXPECT_NEAR((*sparse)[j], (*dense)[j], 1e-9) << "metric " << j;
}

TEST_P(SparseVsDense, Opamp2DcAcMetrics) {
  const auto circuit = ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"),
                                                      ckt::pdk_by_name(GetParam()));
  compare_metrics(*circuit, circuit->expert_design());
  util::Rng rng(77);
  for (int i = 0; i < 8; ++i)
    compare_metrics(*circuit, rng.uniform_vec(circuit->dim()));
}

TEST_P(SparseVsDense, BufferTranMetrics) {
  const auto circuit = ckt::NetlistCircuit::from_file(
      deck_path("buffer_tran.cir"), ckt::pdk_by_name(GetParam()));
  compare_metrics(*circuit, circuit->expert_design());
  util::Rng rng(78);
  for (int i = 0; i < 4; ++i)
    compare_metrics(*circuit, rng.uniform_vec(circuit->dim()));
}

TEST_P(SparseVsDense, LadderTranMetrics) {
  const auto circuit = ckt::NetlistCircuit::from_file(
      deck_path("ladder.cir"), ckt::pdk_by_name(GetParam()));
  // The scaling workload really is past the crossover (~150 nodes), so the
  // automatic path picks sparse on it.
  const auto elab = circuit->elaborate(circuit->expert_design());
  EXPECT_GE(elab.circuit.n_nodes(), 100u);
  EXPECT_GE(elab.circuit.mna_size(), sim::k_mna_sparse_crossover);
  compare_metrics(*circuit, circuit->expert_design());
  util::Rng rng(79);
  for (int i = 0; i < 2; ++i)
    compare_metrics(*circuit, rng.uniform_vec(circuit->dim()));
}

TEST_P(SparseVsDense, RawAnalysesAgreeOnBuffer) {
  // Below the metric layer: node-level DC voltages, AC sweep values and a
  // fixed-grid transient (identical timesteps on both paths by
  // construction) compared point by point.
  const auto circuit = ckt::NetlistCircuit::from_file(
      deck_path("buffer_tran.cir"), ckt::pdk_by_name(GetParam()));
  const auto elab = circuit->elaborate(circuit->expert_design());

  sim::DcOptions dc_s;
  dc_s.solver = sim::MnaSolver::sparse;
  sim::DcOptions dc_d;
  dc_d.solver = sim::MnaSolver::dense;
  const auto op_s = sim::solve_dc(elab.circuit, dc_s);
  const auto op_d = sim::solve_dc(elab.circuit, dc_d);
  ASSERT_TRUE(op_s.converged);
  ASSERT_TRUE(op_d.converged);
  for (std::size_t i = 0; i < op_s.node_voltage.size(); ++i)
    EXPECT_NEAR(op_s.node_voltage[i], op_d.node_voltage[i], 1e-9) << "node " << i;

  const auto freqs = sim::log_freq_grid(10.0, 1e9, 10);
  const auto ac_s = sim::solve_ac(elab.circuit, op_d, freqs, sim::MnaSolver::sparse);
  const auto ac_d = sim::solve_ac(elab.circuit, op_d, freqs, sim::MnaSolver::dense);
  ASSERT_TRUE(ac_s.ok);
  ASSERT_TRUE(ac_d.ok);
  for (std::size_t f = 0; f < freqs.size(); ++f)
    for (std::size_t node = 0; node < elab.circuit.n_nodes(); ++node) {
      const auto vs = ac_s.v(f, static_cast<int>(node));
      const auto vd = ac_d.v(f, static_cast<int>(node));
      EXPECT_NEAR(vs.real(), vd.real(), 1e-9) << "f " << f << " node " << node;
      EXPECT_NEAR(vs.imag(), vd.imag(), 1e-9) << "f " << f << " node " << node;
    }

  sim::TranOptions tr;
  tr.tstop = 3e-6;
  tr.tstep = tr.tstop / 128.0;
  tr.fixed_step = true;
  tr.solver = sim::MnaSolver::sparse;
  const auto tran_s = sim::solve_tran(elab.circuit, tr, &op_d);
  tr.solver = sim::MnaSolver::dense;
  const auto tran_d = sim::solve_tran(elab.circuit, tr, &op_d);
  ASSERT_TRUE(tran_s.ok) << tran_s.reason;
  ASSERT_TRUE(tran_d.ok) << tran_d.reason;
  ASSERT_EQ(tran_s.n_points(), tran_d.n_points());
  for (std::size_t t = 0; t < tran_s.n_points(); ++t) {
    EXPECT_EQ(tran_s.time[t], tran_d.time[t]);
    for (std::size_t node = 0; node < elab.circuit.n_nodes(); ++node)
      EXPECT_NEAR(tran_s.v(t, static_cast<int>(node)),
                  tran_d.v(t, static_cast<int>(node)), 1e-9)
          << "t " << t << " node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(BothNodes, SparseVsDense,
                         ::testing::Values("180nm", "40nm"));

// ---------------------------------------------------------------------------
// Batch evaluation: bit-identical to the serial loop at any KATO_THREADS.

TEST(EvalBatch, MatchesSerialLoopAtAnyThreadCount) {
  const auto circuit = ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"),
                                                      ckt::pdk_180nm());
  util::Rng rng(91);
  std::vector<std::vector<double>> cands;
  for (int i = 0; i < 6; ++i) cands.push_back(rng.uniform_vec(circuit->dim()));
  cands.push_back(circuit->expert_design());

  std::vector<std::optional<std::vector<double>>> serial;
  for (const auto& x : cands) serial.push_back(circuit->evaluate(x));

  for (const char* threads : {"1", "4"}) {
    ScopedEnv env("KATO_THREADS", threads);
    const auto batch = circuit->evaluate_batch(cands);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(batch[i].has_value(), serial[i].has_value())
          << "threads " << threads << " cand " << i;
      if (!serial[i]) continue;
      ASSERT_EQ(batch[i]->size(), serial[i]->size());
      for (std::size_t j = 0; j < serial[i]->size(); ++j)
        EXPECT_EQ((*batch[i])[j], (*serial[i])[j])
            << "threads " << threads << " cand " << i << " metric " << j
            << " (must be bit-identical)";
    }
  }
}

TEST(EvalBatch, LadderBatchBitIdenticalAcrossThreads) {
  const auto circuit = ckt::NetlistCircuit::from_file(deck_path("ladder.cir"),
                                                      ckt::pdk_180nm());
  util::Rng rng(92);
  std::vector<std::vector<double>> cands;
  for (int i = 0; i < 4; ++i) cands.push_back(rng.uniform_vec(circuit->dim()));

  std::vector<std::vector<std::optional<std::vector<double>>>> results;
  for (const char* threads : {"1", "4"}) {
    ScopedEnv env("KATO_THREADS", threads);
    results.push_back(circuit->evaluate_batch(cands));
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    ASSERT_EQ(results[0][i].has_value(), results[1][i].has_value());
    if (!results[0][i]) continue;
    for (std::size_t j = 0; j < results[0][i]->size(); ++j)
      EXPECT_EQ((*results[0][i])[j], (*results[1][i])[j]) << i << "," << j;
  }
}

TEST(EvalBatch, DefaultImplementationIsSerialLoop) {
  // Hand-written circuits get the base-class batch: exactly the serial loop.
  const auto circuit = ckt::make_circuit("stage2", "180nm");
  util::Rng rng(93);
  std::vector<std::vector<double>> cands;
  for (int i = 0; i < 3; ++i) cands.push_back(rng.uniform_vec(circuit->dim()));
  const auto batch = circuit->evaluate_batch(cands);
  ASSERT_EQ(batch.size(), cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const auto one = circuit->evaluate(cands[i]);
    ASSERT_EQ(batch[i].has_value(), one.has_value());
    if (one) {
      for (std::size_t j = 0; j < one->size(); ++j)
        EXPECT_EQ((*batch[i])[j], (*one)[j]);
    }
  }
}

}  // namespace
