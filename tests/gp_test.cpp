#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "gp/gp.hpp"
#include "gp/kat_gp.hpp"
#include "kernel/neuk.hpp"
#include "kernel/stationary.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"
#include "util/sampling.hpp"

namespace gp = kato::gp;
namespace kern = kato::kern;
namespace la = kato::la;

namespace {

std::unique_ptr<kern::Kernel> rbf(std::size_t d) {
  return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, d);
}

std::unique_ptr<kern::Kernel> neuk(std::size_t d, std::uint64_t seed) {
  kato::util::Rng rng(seed);
  kern::NeukConfig cfg;
  cfg.latent_dim = 3;
  return std::make_unique<kern::NeukKernel>(d, cfg, rng);
}

/// Smooth 2-D test function on the unit square.
double smooth_fn(std::span<const double> x) {
  return std::sin(3.0 * x[0]) + 0.5 * std::cos(5.0 * x[1]) + x[0] * x[1];
}

struct Dataset {
  la::Matrix x;
  la::Vector y;
};

Dataset sample_dataset(std::size_t n, std::uint64_t seed) {
  kato::util::Rng rng(seed);
  auto design = kato::util::latin_hypercube(n, 2, rng);
  Dataset d{la::Matrix(n, 2), la::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    d.x.set_row(i, std::span<const double>(design.row(i), 2));
    d.y[i] = smooth_fn(d.x.row(i));
  }
  return d;
}

}  // namespace

TEST(GaussianProcess, InterpolatesTrainingData) {
  auto data = sample_dataset(30, 100);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  kato::util::Rng rng(1);
  gp::GpFitOptions opts;
  opts.iterations = 120;
  model.fit(opts, rng);
  for (std::size_t i = 0; i < 30; i += 5) {
    const auto p = model.predict(data.x.row(i));
    EXPECT_NEAR(p.mean, data.y[i], 0.15) << "train point " << i;
  }
}

TEST(GaussianProcess, GeneralizesToHeldOut) {
  auto train = sample_dataset(60, 101);
  auto test = sample_dataset(20, 202);
  gp::GaussianProcess model(rbf(2));
  model.set_data(train.x, train.y);
  kato::util::Rng rng(2);
  gp::GpFitOptions opts;
  opts.iterations = 150;
  model.fit(opts, rng);
  double rmse = 0.0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto p = model.predict(test.x.row(i));
    rmse += (p.mean - test.y[i]) * (p.mean - test.y[i]);
  }
  rmse = std::sqrt(rmse / 20.0);
  EXPECT_LT(rmse, 0.15);
}

TEST(GaussianProcess, VarianceSmallAtDataLargeAway) {
  auto data = sample_dataset(40, 103);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  kato::util::Rng rng(3);
  gp::GpFitOptions opts;
  opts.iterations = 100;
  model.fit(opts, rng);
  const auto at_data = model.predict_std(data.x.row(0));
  // Far outside the unit box, far from all samples.
  std::vector<double> far{4.0, -3.0};
  const auto away = model.predict_std(far);
  EXPECT_LT(at_data.var, away.var);
  EXPECT_GT(away.var, 0.3);  // should approach the prior amplitude
}

TEST(GaussianProcess, FitReducesNll) {
  auto data = sample_dataset(50, 104);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  const double before = model.nll();
  kato::util::Rng rng(4);
  gp::GpFitOptions opts;
  opts.iterations = 100;
  model.fit(opts, rng);
  EXPECT_LT(model.nll(), before);
}

TEST(GaussianProcess, NeukSurrogateFitsToo) {
  auto train = sample_dataset(60, 105);
  auto test = sample_dataset(15, 206);
  gp::GaussianProcess model(neuk(2, 55));
  model.set_data(train.x, train.y);
  kato::util::Rng rng(5);
  gp::GpFitOptions opts;
  opts.iterations = 200;
  opts.lr = 0.03;
  model.fit(opts, rng);
  double rmse = 0.0;
  for (std::size_t i = 0; i < 15; ++i) {
    const auto p = model.predict(test.x.row(i));
    rmse += (p.mean - test.y[i]) * (p.mean - test.y[i]);
  }
  rmse = std::sqrt(rmse / 15.0);
  EXPECT_LT(rmse, 0.25);
}

TEST(GaussianProcess, PredictStdGradMatchesFiniteDifference) {
  auto data = sample_dataset(25, 106);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  kato::util::Rng rng(6);
  gp::GpFitOptions opts;
  opts.iterations = 60;
  model.fit(opts, rng);

  std::vector<double> x{0.37, 0.61};
  gp::GpPrediction pred;
  la::Vector dmean, dvar;
  model.predict_std_grad(x, pred, dmean, dvar);

  const double h = 1e-6;
  for (std::size_t j = 0; j < 2; ++j) {
    auto xp = x;
    auto xm = x;
    xp[j] += h;
    xm[j] -= h;
    const auto pp = model.predict_std(xp);
    const auto pm = model.predict_std(xm);
    EXPECT_NEAR(dmean[j], (pp.mean - pm.mean) / (2 * h), 1e-5);
    EXPECT_NEAR(dvar[j], (pp.var - pm.var) / (2 * h), 1e-5);
  }
}

TEST(GaussianProcess, HandlesConstantTargets) {
  la::Matrix x(5, 1);
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = 0.2 * static_cast<double>(i);
  la::Vector y(5, 3.0);
  gp::GaussianProcess model(rbf(1));
  model.set_data(x, y);
  const auto p = model.predict(std::vector<double>{0.5});
  EXPECT_NEAR(p.mean, 3.0, 1e-6);
}

TEST(GaussianProcess, RejectsBadData) {
  gp::GaussianProcess model(rbf(2));
  la::Matrix x(3, 1);  // wrong dim
  la::Vector y(3, 0.0);
  EXPECT_THROW(model.set_data(x, y), std::invalid_argument);
  la::Matrix x2(3, 2);
  la::Vector y2(2, 0.0);  // wrong n
  EXPECT_THROW(model.set_data(x2, y2), std::invalid_argument);
}

TEST(MultiGp, IndependentMetrics) {
  kato::util::Rng rng(7);
  const std::size_t n = 40;
  auto design = kato::util::latin_hypercube(n, 2, rng);
  la::Matrix x(n, 2);
  la::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x.set_row(i, std::span<const double>(design.row(i), 2));
    y(i, 0) = x(i, 0) + x(i, 1);          // metric 0: linear
    y(i, 1) = std::sin(4.0 * x(i, 0));    // metric 1: nonlinear in x0 only
  }
  gp::MultiGp model(2, [] { return rbf(2); });
  model.set_data(x, y);
  gp::GpFitOptions opts;
  opts.iterations = 100;
  model.fit(opts, rng);
  std::vector<double> q{0.3, 0.7};
  auto preds = model.predict(q);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_NEAR(preds[0].mean, 1.0, 0.1);
  EXPECT_NEAR(preds[1].mean, std::sin(1.2), 0.15);
}

// ---------------------------------------------------------------------------
// Kernel-matrix reuse across posterior refreshes: a GP that reached its data
// through any history of set_data()/fit() calls must match, bit for bit, a
// GP built from scratch on the same data at the same hyperparameters.

namespace {

using KernelFactory = std::unique_ptr<kern::Kernel> (*)();

std::unique_ptr<kern::Kernel> reuse_neuk() {
  auto k = neuk(3, 41);
  kato::util::Rng rng(42);
  for (auto& p : k->params()) p += rng.uniform(-0.2, 0.2);
  return k;
}

std::unique_ptr<kern::Kernel> reuse_rbf() {
  auto k = rbf(3);
  kato::util::Rng rng(43);
  for (auto& p : k->params()) p = rng.uniform(-0.5, 0.5);
  return k;
}

class KernelReuse : public ::testing::TestWithParam<KernelFactory> {
 protected:
  static constexpr std::size_t k_pool = 60;

  void SetUp() override {
    kato::util::Rng rng(44);
    pool_x_ = la::Matrix(k_pool, 3);
    for (auto& v : pool_x_.data()) v = rng.uniform();
    pool_y_.resize(k_pool);
    for (std::size_t i = 0; i < k_pool; ++i)
      pool_y_[i] = smooth_fn(pool_x_.row(i)) + pool_x_(i, 2);
  }

  /// Pool rows idx, in that order (repeats allowed).
  la::Matrix x_of(const std::vector<std::size_t>& idx) const {
    la::Matrix x(idx.size(), 3);
    for (std::size_t i = 0; i < idx.size(); ++i) x.set_row(i, pool_x_.row(idx[i]));
    return x;
  }
  la::Vector y_of(const std::vector<std::size_t>& idx) const {
    la::Vector y(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) y[i] = pool_y_[idx[i]];
    return y;
  }

  /// A GP with no refresh history at `like`'s kernel parameters and the
  /// default noise.
  gp::GaussianProcess fresh(const gp::GaussianProcess& like,
                            const std::vector<std::size_t>& idx) const {
    gp::GaussianProcess g(like.kernel().clone());
    g.set_data(x_of(idx), y_of(idx));
    return g;
  }

  /// predict_batch, predict_std_grad_batch and nll() agree bitwise.
  void expect_same(const gp::GaussianProcess& a,
                   const gp::GaussianProcess& b) const {
    const la::Matrix xq = x_of({0, 3, 17, 59, 58, 31, 44});
    const auto pa = a.predict_batch(xq);
    const auto pb = b.predict_batch(xq);
    for (std::size_t q = 0; q < xq.rows(); ++q) {
      EXPECT_EQ(pa[q].mean, pb[q].mean) << q;
      EXPECT_EQ(pa[q].var, pb[q].var) << q;
    }
    std::vector<gp::GpPrediction> ga;
    std::vector<gp::GpPrediction> gb;
    la::Matrix dma, dva, dmb, dvb;
    a.predict_std_grad_batch(xq, ga, dma, dva);
    b.predict_std_grad_batch(xq, gb, dmb, dvb);
    for (std::size_t q = 0; q < xq.rows(); ++q) {
      EXPECT_EQ(ga[q].mean, gb[q].mean) << q;
      EXPECT_EQ(ga[q].var, gb[q].var) << q;
    }
    EXPECT_EQ(dma.data(), dmb.data());
    EXPECT_EQ(dva.data(), dvb.data());
    EXPECT_EQ(a.nll(), b.nll());
  }

  static std::vector<std::size_t> range(std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> idx;
    for (std::size_t i = lo; i < hi; ++i) idx.push_back(i);
    return idx;
  }

  la::Matrix pool_x_;
  la::Vector pool_y_;
};

}  // namespace

TEST_P(KernelReuse, AppendingRows) {
  gp::GaussianProcess g(GetParam()());
  g.set_data(x_of(range(0, 40)), y_of(range(0, 40)));
  const auto idx = range(0, 44);
  g.set_data(x_of(idx), y_of(idx));
  expect_same(g, fresh(g, idx));
}

TEST_P(KernelReuse, WindowDropsMiddleRowsThenAppends) {
  gp::GaussianProcess g(GetParam()());
  auto idx = range(0, 40);
  g.set_data(x_of(idx), y_of(idx));
  for (std::size_t step = 0; step < 3; ++step) {
    idx.erase(idx.begin() + 10, idx.begin() + 14);
    for (std::size_t j = 0; j < 4; ++j) idx.push_back(40 + 4 * step + j);
    g.set_data(x_of(idx), y_of(idx));
    expect_same(g, fresh(g, idx));
  }
}

TEST_P(KernelReuse, PermutingRows) {
  gp::GaussianProcess g(GetParam()());
  g.set_data(x_of(range(0, 40)), y_of(range(0, 40)));
  kato::util::Rng rng(45);
  const auto idx = rng.permutation(40);
  g.set_data(x_of(idx), y_of(idx));
  expect_same(g, fresh(g, idx));
}

TEST_P(KernelReuse, DuplicateInputRows) {
  gp::GaussianProcess g(GetParam()());
  auto before = range(0, 40);
  before.push_back(5);
  g.set_data(x_of(before), y_of(before));
  // Row 5 now three times (the cache holds two) and row 7 twice: an
  // off-diagonal entry between copies must not take a cached diagonal.
  auto idx = before;
  idx.push_back(5);
  idx.push_back(7);
  idx.push_back(41);
  g.set_data(x_of(idx), y_of(idx));
  expect_same(g, fresh(g, idx));
}

TEST_P(KernelReuse, FitThatChangesHyperparameters) {
  gp::GaussianProcess g(GetParam()());
  g.set_data(x_of(range(0, 40)), y_of(range(0, 40)));
  const auto idx = range(4, 44);
  g.set_data(x_of(idx), y_of(idx));
  gp::GaussianProcess ref(g.kernel().clone());
  ref.set_data(x_of(idx), y_of(idx));

  const std::vector<double> before(g.kernel().params().begin(),
                                   g.kernel().params().end());
  gp::GpFitOptions opts;
  opts.iterations = 5;
  kato::util::Rng rng_g(46);
  kato::util::Rng rng_ref(46);
  g.fit(opts, rng_g);
  ref.fit(opts, rng_ref);
  const std::vector<double> after(g.kernel().params().begin(),
                                  g.kernel().params().end());
  EXPECT_NE(before, after);
  expect_same(g, ref);
}

TEST_P(KernelReuse, DeferredRefreshThenFit) {
  for (const int iterations : {0, 5}) {
    SCOPED_TRACE(iterations);
    gp::GaussianProcess g(GetParam()());
    g.set_data(x_of(range(0, 40)), y_of(range(0, 40)));
    auto idx = range(0, 40);
    idx.erase(idx.begin() + 20, idx.begin() + 23);
    idx.push_back(50);
    g.set_data(x_of(idx), y_of(idx), /*refresh=*/false);
    gp::GaussianProcess ref(g.kernel().clone());
    ref.set_data(x_of(idx), y_of(idx), /*refresh=*/false);

    gp::GpFitOptions opts;
    opts.iterations = iterations;
    kato::util::Rng rng_g(47);
    kato::util::Rng rng_ref(47);
    g.fit(opts, rng_g);
    ref.fit(opts, rng_ref);
    expect_same(g, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(NeukAndRbf, KernelReuse,
                         ::testing::Values(&reuse_neuk, &reuse_rbf));

// ---------------------------------------------------------------------------
// KAT-GP transfer tests: source and target are related nonlinear functions on
// different input spaces (3-D source, 2-D target), mimicking transfer between
// circuit topologies with different design variables.

namespace {

/// Aligned ("technology node") transfer: same design space, the target is an
/// affine warp of a wiggly source response.
double node_source_fn(std::span<const double> x) {
  return std::sin(6.0 * x[0]) + std::cos(4.0 * x[1]) * x[1];
}
double node_target_fn(std::span<const double> x) {
  return 1.4 * node_source_fn(x) + 0.5;
}

/// Cross-dimensional ("topology") transfer: 3-D source, 2-D target; the ideal
/// encoder maps (t0, t1) -> (t0, t1, 0.3) and the decoder scales and shifts.
double topo_source_fn(std::span<const double> x) {
  return std::sin(3.0 * x[0]) + x[1] * x[1] - 0.5 * x[2];
}
double topo_target_fn(std::span<const double> x) {
  std::vector<double> s{x[0], x[1], 0.3};
  return 1.5 * topo_source_fn(s) + 0.7;
}

struct TransferSetup {
  std::unique_ptr<gp::MultiGp> source;
  la::Matrix xt;
  la::Matrix yt;
};

TransferSetup make_transfer(std::size_t src_dim, std::size_t n_src,
                            std::size_t n_tgt, std::uint64_t seed,
                            double (*src_fn)(std::span<const double>),
                            double (*tgt_fn)(std::span<const double>)) {
  kato::util::Rng rng(seed);
  TransferSetup ts;
  auto src_design = kato::util::latin_hypercube(n_src, src_dim, rng);
  la::Matrix xs(n_src, src_dim);
  la::Matrix ys(n_src, 1);
  for (std::size_t i = 0; i < n_src; ++i) {
    xs.set_row(i, std::span<const double>(src_design.row(i), src_dim));
    ys(i, 0) = src_fn(xs.row(i));
  }
  ts.source = std::make_unique<gp::MultiGp>(1, [src_dim] { return rbf(src_dim); });
  ts.source->set_data(xs, ys);
  gp::GpFitOptions opts;
  opts.iterations = 120;
  ts.source->fit(opts, rng);

  auto tgt_design = kato::util::latin_hypercube(n_tgt, 2, rng);
  ts.xt = la::Matrix(n_tgt, 2);
  ts.yt = la::Matrix(n_tgt, 1);
  for (std::size_t i = 0; i < n_tgt; ++i) {
    ts.xt.set_row(i, std::span<const double>(tgt_design.row(i), 2));
    ts.yt(i, 0) = tgt_fn(ts.xt.row(i));
  }
  return ts;
}

double test_rmse(const std::function<double(std::span<const double>)>& model,
                 double (*truth)(std::span<const double>), std::uint64_t seed) {
  kato::util::Rng rng(seed);
  double se = 0.0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    std::vector<double> q = rng.uniform_vec(2);
    se += std::pow(model(q) - truth(q), 2);
  }
  return std::sqrt(se / n);
}

}  // namespace

TEST(KatGp, TrainingReducesExactNll) {
  auto ts = make_transfer(3, 80, 40, 300, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(8);
  gp::KatGpConfig cfg;
  cfg.init_iterations = 120;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  const double before = kat.nll();
  kat.fit(rng);
  const double after = kat.nll();
  EXPECT_LE(after, before);
}

TEST(KatGp, NodeTransferBeatsScratchGp) {
  // Aligned transfer with 12 target points: KAT-GP leaning on a 100-point
  // source model must beat a from-scratch GP trained on the same 12 points.
  auto ts = make_transfer(2, 100, 12, 301, node_source_fn, node_target_fn);
  kato::util::Rng rng(9);

  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);

  gp::GaussianProcess scratch(rbf(2));
  la::Vector yt(ts.yt.rows());
  for (std::size_t i = 0; i < yt.size(); ++i) yt[i] = ts.yt(i, 0);
  scratch.set_data(ts.xt, yt);
  gp::GpFitOptions opts;
  opts.iterations = 120;
  scratch.fit(opts, rng);

  const double kat_rmse = test_rmse(
      [&](std::span<const double> q) { return kat.predict(q)[0].mean; },
      node_target_fn, 555);
  const double gp_rmse = test_rmse(
      [&](std::span<const double> q) { return scratch.predict(q).mean; },
      node_target_fn, 555);
  EXPECT_LT(kat_rmse, gp_rmse);
  EXPECT_LT(kat_rmse, 0.3);  // absolute quality, target std is ~1
}

TEST(KatGp, TopologyTransferLearnsCrossDimensionalMap) {
  // 3-D source -> 2-D target.  The encoder must discover the embedding; the
  // identity-biased init plus training should land near the truth.
  auto ts = make_transfer(3, 150, 12, 302, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(10);
  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);
  const double kat_rmse = test_rmse(
      [&](std::span<const double> q) { return kat.predict(q)[0].mean; },
      topo_target_fn, 556);
  EXPECT_LT(kat_rmse, 0.3);
}

TEST(KatGp, PredictShapesAndFiniteValues) {
  auto ts = make_transfer(3, 40, 20, 303, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(11);
  gp::KatGpConfig cfg;
  cfg.init_iterations = 50;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);
  auto preds = kat.predict(std::vector<double>{0.4, 0.6});
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_TRUE(std::isfinite(preds[0].mean));
  EXPECT_GT(preds[0].var, 0.0);
}

TEST(KatGp, RefitAfterNewDataImproves) {
  auto ts = make_transfer(2, 100, 10, 304, node_source_fn, node_target_fn);
  kato::util::Rng rng(12);
  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);

  // Add 10 more points (BO-style growth) and refit warm-started.
  auto more = make_transfer(2, 4, 20, 305, node_source_fn, node_target_fn);
  la::Matrix x2(20, 2);
  la::Matrix y2(20, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    x2.set_row(i, ts.xt.row(i));
    y2(i, 0) = ts.yt(i, 0);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    x2.set_row(10 + i, more.xt.row(i));
    y2(10 + i, 0) = more.yt(i, 0);
  }
  kat.set_target_data(x2, y2);
  kat.fit(rng);
  const double rmse = test_rmse(
      [&](std::span<const double> q) { return kat.predict(q)[0].mean; },
      node_target_fn, 557);
  EXPECT_LT(rmse, 0.35);
}

TEST(KatGp, RejectsMismatchedData) {
  auto ts = make_transfer(3, 30, 10, 306, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(13);
  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  la::Matrix bad_x(10, 3);  // wrong target dim
  EXPECT_THROW(kat.set_target_data(bad_x, ts.yt), std::invalid_argument);
}
