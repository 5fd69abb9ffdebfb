// Guards for the batched/threaded hot paths: the fast implementations must
// be drop-in replacements for the reference per-point, single-thread code.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bo/mace.hpp"
#include "bo/surrogate.hpp"
#include "gp/gp.hpp"
#include "gp/kat_gp.hpp"
#include "kernel/neuk.hpp"
#include "kernel/stationary.hpp"
#include "linalg/cholesky.hpp"
#include "util/parallel.hpp"

namespace gp = kato::gp;
namespace bo = kato::bo;
namespace la = kato::la;
namespace kern = kato::kern;

namespace {

la::Matrix random_points(std::size_t n, std::size_t d, kato::util::Rng& rng) {
  la::Matrix x(n, d);
  for (auto& v : x.data()) v = rng.uniform();
  return x;
}

gp::GaussianProcess fitted_neuk_gp(std::size_t n, std::size_t d,
                                   std::uint64_t seed) {
  kato::util::Rng rng(seed);
  kern::NeukConfig cfg;
  gp::GaussianProcess model(std::make_unique<kern::NeukKernel>(d, cfg, rng));
  const auto x = random_points(n, d, rng);
  la::Vector y(n);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = std::sin(3.0 * x(i, 0)) + 0.5 * x(i, 1);
  model.set_data(x, y);
  gp::GpFitOptions opts;
  opts.iterations = 15;
  model.fit(opts, rng);
  return model;
}

/// Objective (metric 0) plus, when n_metrics == 2, one constraint metric.
bo::GpSurrogate fitted_surrogate(std::uint64_t seed, std::size_t n_metrics = 2) {
  kato::util::Rng rng(seed);
  gp::GpFitOptions fit{30, 0.05, 192, 1e-6};
  bo::GpSurrogate surr(3, n_metrics, bo::KernelKind::neuk, fit, fit, rng);
  const std::size_t n = 50;
  la::Matrix x = random_points(n, 3, rng);
  la::Matrix y(n, n_metrics);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) s += (x(i, j) - 0.6) * (x(i, j) - 0.6);
    y(i, 0) = s;
    if (n_metrics == 2) y(i, 1) = x(i, 0);
  }
  surr.refit(x, y, rng);
  return surr;
}

}  // namespace

TEST(PredictBatch, AgreesWithPerPointLoop) {
  const auto model = fitted_neuk_gp(80, 6, 41);
  kato::util::Rng rng(42);
  const auto q = random_points(33, 6, rng);

  const auto batch = model.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto ref = model.predict(q.row(i));
    EXPECT_NEAR(batch[i].mean, ref.mean, 1e-10) << "query " << i;
    EXPECT_NEAR(batch[i].var, ref.var, 1e-10) << "query " << i;
  }
}

TEST(PredictBatch, StdVariantAgreesToo) {
  const auto model = fitted_neuk_gp(60, 4, 43);
  kato::util::Rng rng(44);
  const auto q = random_points(17, 4, rng);
  const auto batch = model.predict_std_batch(q);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto ref = model.predict_std(q.row(i));
    EXPECT_NEAR(batch[i].mean, ref.mean, 1e-10);
    EXPECT_NEAR(batch[i].var, ref.var, 1e-10);
  }
}

TEST(PredictBatch, ThreadCountDoesNotChangeResults) {
  const auto model = fitted_neuk_gp(70, 5, 45);
  kato::util::Rng rng(46);
  const auto q = random_points(29, 5, rng);

  kato::util::set_thread_count(1);
  const auto single = model.predict_batch(q);
  kato::util::set_thread_count(4);
  const auto threaded = model.predict_batch(q);
  kato::util::set_thread_count(1);
  ASSERT_EQ(single.size(), threaded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    // Bit-identical, not just close: chunking must not reorder arithmetic.
    EXPECT_EQ(single[i].mean, threaded[i].mean) << "query " << i;
    EXPECT_EQ(single[i].var, threaded[i].var) << "query " << i;
  }
}

TEST(PredictBatch, MultiGpMatchesPerMetric) {
  kato::util::Rng rng(47);
  gp::MultiGp multi(2, [&] {
    kern::NeukConfig cfg;
    return std::make_unique<kern::NeukKernel>(3, cfg, rng);
  });
  const std::size_t n = 40;
  la::Matrix x = random_points(n, 3, rng);
  la::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::cos(2.0 * x(i, 0));
    y(i, 1) = x(i, 1) * x(i, 2);
  }
  multi.set_data(x, y);

  const auto q = random_points(11, 3, rng);
  const auto batch = multi.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    ASSERT_EQ(batch[i].size(), 2u);
    const auto ref = multi.predict(q.row(i));
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_NEAR(batch[i][m].mean, ref[m].mean, 1e-10);
      EXPECT_NEAR(batch[i][m].var, ref[m].var, 1e-10);
    }
  }
}

TEST(PredictBatch, KatGpAgreesWithPerPointLoop) {
  kato::util::Rng rng(53);
  // Fitted single-metric RBF source model on a 2-d toy function.
  auto source = std::make_unique<gp::MultiGp>(1, [] {
    return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, 2);
  });
  const std::size_t n_src = 60;
  la::Matrix xs = random_points(n_src, 2, rng);
  la::Matrix ys(n_src, 1);
  for (std::size_t i = 0; i < n_src; ++i)
    ys(i, 0) = std::sin(4.0 * xs(i, 0)) + xs(i, 1);
  source->set_data(xs, ys);
  gp::GpFitOptions fit;
  fit.iterations = 30;
  source->fit(fit, rng);

  gp::KatGpConfig cfg;
  cfg.init_iterations = 40;
  gp::KatGp kat(source.get(), 2, 1, cfg, rng);
  const std::size_t n_tgt = 20;
  la::Matrix xt = random_points(n_tgt, 2, rng);
  la::Matrix yt(n_tgt, 1);
  for (std::size_t i = 0; i < n_tgt; ++i)
    yt(i, 0) = std::sin(4.0 * xt(i, 0)) + 1.2 * xt(i, 1);
  kat.set_target_data(xt, yt);
  kat.fit(rng);

  const auto q = random_points(13, 2, rng);
  const auto batch = kat.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto ref = kat.predict(q.row(i));
    ASSERT_EQ(batch[i].size(), ref.size());
    for (std::size_t m = 0; m < ref.size(); ++m) {
      EXPECT_NEAR(batch[i][m].mean, ref[m].mean, 1e-10) << i;
      EXPECT_NEAR(batch[i][m].var, ref[m].var, 1e-10) << i;
    }
  }
}

namespace {

/// NeuK MultiGp on a d-dimensional toy set, one target column per metric.
gp::MultiGp neuk_multi_gp(std::size_t metrics, std::size_t d,
                          kato::util::Rng& rng, std::size_t n = 36) {
  gp::MultiGp multi(metrics, [&] {
    kern::NeukConfig cfg;
    return std::make_unique<kern::NeukKernel>(d, cfg, rng);
  });
  const la::Matrix x = random_points(n, d, rng);
  la::Matrix y(n, metrics);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t m = 0; m < metrics; ++m)
      y(i, m) = std::sin(3.0 * x(i, 0) + static_cast<double>(m)) + x(i, 1);
  multi.set_data(x, y);
  return multi;
}

}  // namespace

// Metric counts 1, 2, 4 and 5 against 1-4 workers cover fewer metrics than
// workers (split query ranges), equal, more, and an uneven metric split.  The
// 53-row, 37-query shape leaves a lone last row and ragged lane blocks in
// the forward solve of every query range.
TEST(PredictBatch, MultiGpBitIdenticalAcrossThreadCounts) {
  struct Shape {
    std::size_t metrics, n, queries;
  };
  for (const Shape shape : {Shape{1, 36, 13}, Shape{2, 36, 13},
                            Shape{4, 36, 13}, Shape{5, 36, 13},
                            Shape{3, 53, 37}}) {
    const std::size_t metrics = shape.metrics;
    kato::util::Rng rng(60 + metrics);
    const auto multi = neuk_multi_gp(metrics, 4, rng, shape.n);
    const auto q = random_points(shape.queries, 4, rng);

    std::vector<std::vector<gp::GpPrediction>> per_metric;
    kato::util::set_thread_count(1);
    for (std::size_t m = 0; m < metrics; ++m)
      per_metric.push_back(multi.metric(m).predict_batch(q));
    for (std::size_t threads : {1, 2, 3, 4}) {
      kato::util::set_thread_count(threads);
      const auto batch = multi.predict_batch(q);
      ASSERT_EQ(batch.size(), q.rows());
      for (std::size_t i = 0; i < q.rows(); ++i) {
        ASSERT_EQ(batch[i].size(), metrics);
        for (std::size_t m = 0; m < metrics; ++m) {
          EXPECT_EQ(batch[i][m].mean, per_metric[m][i].mean)
              << metrics << " metrics, threads " << threads << ", query " << i;
          EXPECT_EQ(batch[i][m].var, per_metric[m][i].var)
              << metrics << " metrics, threads " << threads << ", query " << i;
        }
      }
    }
    kato::util::set_thread_count(1);
  }
}

// Two clusters of training points too far apart for the RBF kernel: K is
// block-diagonal with exact zeros, and so is its factor.  The forward solve
// subtracts those zero terms; the variance must still have the bits of a GP
// that holds only the query's own cluster (whose factor is the matching
// diagonal block, with no zeros to subtract), at any thread count.  The
// first cluster fills one 48-row Cholesky panel, so both blocks of the
// union's factor take the same operations as the single-cluster factors.
TEST(PredictBatch, StdBatchVarianceBitsWithExactZerosInFactor) {
  const std::size_t d = 2;
  const std::size_t n_a = 48;
  const std::size_t n_b = 29;
  kato::util::Rng rng(67);
  const auto cluster = [&](std::size_t n, double lo) {
    la::Matrix x(n, d);
    for (auto& v : x.data()) v = lo + 0.05 * rng.uniform();
    return x;
  };
  const la::Matrix xa = cluster(n_a, 0.0);
  const la::Matrix xb = cluster(n_b, 0.95);
  la::Matrix x(n_a + n_b, d);
  for (std::size_t i = 0; i < n_a; ++i) x.set_row(i, xa.row(i));
  for (std::size_t i = 0; i < n_b; ++i) x.set_row(n_a + i, xb.row(i));
  const auto model = [&](const la::Matrix& xs) {
    auto kernel =
        std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, d);
    for (std::size_t j = 0; j < d; ++j) kernel->params()[1 + j] = std::log(1e3);
    gp::GaussianProcess g(std::move(kernel));
    la::Vector y(xs.rows());
    for (std::size_t i = 0; i < xs.rows(); ++i) y[i] = std::sin(7.0 * xs(i, 0));
    g.set_data(xs, y);
    return g;
  };
  const auto both = model(x);
  ASSERT_EQ(both.kernel().matrix(x)(n_a, 0), 0.0);
  ASSERT_NE(both.kernel().matrix(x)(1, 0), 0.0);

  const la::Matrix qa = cluster(19, 0.0);
  const la::Matrix qb = cluster(18, 0.95);
  const auto ref_a = model(xa).predict_std_batch(qa);
  const auto ref_b = model(xb).predict_std_batch(qb);
  la::Matrix q(qa.rows() + qb.rows(), d);
  for (std::size_t i = 0; i < qa.rows(); ++i) q.set_row(i, qa.row(i));
  for (std::size_t i = 0; i < qb.rows(); ++i) q.set_row(qa.rows() + i, qb.row(i));
  for (std::size_t threads : {1, 4}) {
    kato::util::set_thread_count(threads);
    const auto got = both.predict_std_batch(q);
    for (std::size_t i = 0; i < q.rows(); ++i) {
      const double want =
          i < qa.rows() ? ref_a[i].var : ref_b[i - qa.rows()].var;
      EXPECT_EQ(std::memcmp(&got[i].var, &want, sizeof want), 0)
          << "threads " << threads << ", query " << i << ": " << got[i].var
          << " vs " << want;
    }
  }
  kato::util::set_thread_count(1);
}

TEST(PredictBatch, KatGpBitIdenticalAcrossThreadCounts) {
  for (const std::size_t metrics : {1u, 2u, 4u, 5u}) {
    kato::util::Rng rng(70 + metrics);
    const auto source = neuk_multi_gp(metrics, 4, rng);
    gp::KatGp kat(&source, 3, 2, gp::KatGpConfig{}, rng);
    const std::size_t n_tgt = 12;
    const la::Matrix xt = random_points(n_tgt, 3, rng);
    la::Matrix yt(n_tgt, 2);
    for (std::size_t i = 0; i < n_tgt; ++i) {
      yt(i, 0) = std::sin(4.0 * xt(i, 0)) + xt(i, 1);
      yt(i, 1) = xt(i, 2);
    }
    kat.set_target_data(xt, yt);
    const auto q = random_points(13, 3, rng);

    kato::util::set_thread_count(1);
    const auto single = kat.predict_batch(q);
    for (std::size_t threads : {2, 3, 4}) {
      kato::util::set_thread_count(threads);
      const auto batch = kat.predict_batch(q);
      ASSERT_EQ(batch.size(), single.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch[i].size(), single[i].size());
        for (std::size_t m = 0; m < batch[i].size(); ++m) {
          EXPECT_EQ(batch[i][m].mean, single[i][m].mean)
              << metrics << " source metrics, threads " << threads;
          EXPECT_EQ(batch[i][m].var, single[i][m].var)
              << metrics << " source metrics, threads " << threads;
        }
      }
    }
    kato::util::set_thread_count(1);
  }
}

TEST(ThreadedMace, ProposalsBitIdenticalToSingleThread) {
  const auto surr = fitted_surrogate(48);
  const std::vector<kato::ckt::MetricSpec> specs{{"c0", "", 0.5, true}};
  bo::MaceOptions opts;
  opts.nsga.population = 16;
  opts.nsga.generations = 6;

  auto run = [&] {
    kato::util::Rng rng(49);
    return bo::mace_proposals(surr, specs, 0.1, opts, rng, {});
  };

  kato::util::set_thread_count(1);
  const auto single = run();
  kato::util::set_thread_count(4);
  const auto threaded = run();
  kato::util::set_thread_count(1);
  // The proposal set must be bit-identical: same designs, same acquisition
  // values, same order.
  ASSERT_EQ(single.x.size(), threaded.x.size());
  for (std::size_t i = 0; i < single.x.size(); ++i) {
    EXPECT_EQ(single.x[i], threaded.x[i]) << "design " << i;
    EXPECT_EQ(single.f[i], threaded.f[i]) << "objective " << i;
  }
}

TEST(ThreadedMace, UnconstrainedVariantBitIdenticalToo) {
  // FOM mode's call: a single-metric surrogate and no specs.
  const auto surr = fitted_surrogate(50, 1);
  bo::MaceOptions opts;
  opts.nsga.population = 12;
  opts.nsga.generations = 4;
  auto run = [&] {
    kato::util::Rng rng(51);
    return bo::mace_proposals(surr, {}, 0.2, opts, rng, {});
  };
  kato::util::set_thread_count(1);
  const auto single = run();
  kato::util::set_thread_count(3);
  const auto threaded = run();
  kato::util::set_thread_count(1);
  ASSERT_EQ(single.x.size(), threaded.x.size());
  for (std::size_t i = 0; i < single.x.size(); ++i) {
    EXPECT_EQ(single.x[i], threaded.x[i]);
    EXPECT_EQ(single.f[i], threaded.f[i]);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  // Both forms, with n below, near and far above the 5 workers.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 1001u}) {
    kato::util::set_thread_count(5);
    std::vector<int> hits(n, 0);
    kato::util::parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i] += 1;
    });
    kato::util::parallel_for_each(n, [&](std::size_t i) { hits[i] += 1; });
    kato::util::set_thread_count(1);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 2) << n << " " << i;
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  kato::util::set_thread_count(4);
  EXPECT_THROW(
      kato::util::parallel_for(100,
                               [&](std::size_t b, std::size_t) {
                                 if (b == 0) throw std::runtime_error("boom");
                               }),
      std::runtime_error);
  // Per slot, every slot runs and the lowest failing index's exception
  // reaches the caller, which is also the first one the inline loop meets.
  for (const std::size_t threads : {1u, 4u}) {
    kato::util::set_thread_count(threads);
    try {
      kato::util::parallel_for_each(100, [](std::size_t i) {
        if (i == 7 || i == 50 || i == 99)
          throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7");
    }
  }
  kato::util::set_thread_count(1);
}

TEST(ThreadCount, SetThreadCountClampsToCap) {
  // KATO_THREADS parsing is util::env_count's (pinned in util_test); the
  // override clamps the same way, to [1, thread_cap()].
  const std::size_t cap = kato::util::thread_cap();
  EXPECT_GE(cap, 4u);  // floor keeps oversubscription tests meaningful
  kato::util::set_thread_count(2);
  EXPECT_EQ(kato::util::thread_count(), 2u);
  kato::util::set_thread_count(6);
  EXPECT_EQ(kato::util::thread_count(), std::min<std::size_t>(6, cap));
  kato::util::set_thread_count(1000);
  EXPECT_EQ(kato::util::thread_count(), cap);
  kato::util::set_thread_count(0);
  EXPECT_EQ(kato::util::thread_count(), 1u);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  kato::util::set_thread_count(4);
  const std::size_t outer = 24;
  const std::size_t inner = 16;
  std::vector<int> hits(outer * inner, 0);
  const auto inner_calls = [&](std::size_t i) {
    kato::util::parallel_for(inner, [&](std::size_t jb, std::size_t je) {
      for (std::size_t j = jb; j < je; ++j) hits[i * inner + j] += 1;
    });
    kato::util::parallel_for_each(
        inner, [&](std::size_t j) { hits[i * inner + j] += 1; });
  };
  kato::util::parallel_for(outer, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) inner_calls(i);
  });
  kato::util::parallel_for_each(outer, inner_calls);
  kato::util::set_thread_count(1);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 4) << i;
}

TEST(ParallelFor, PerSlotJobStaysWithinLoweredThreadCount) {
  // A 4-thread job parks three workers in the pool.  After lowering the
  // count to 2, a per-slot job with many more slots than threads must still
  // run on at most 2 threads: the parked extra workers sit it out.
  const auto threads_seen = [](std::size_t slots) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    kato::util::parallel_for_each(slots, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids.size();
  };
  kato::util::set_thread_count(4);
  EXPECT_LE(threads_seen(64), 4u);
  kato::util::set_thread_count(2);
  for (int rep = 0; rep < 5; ++rep) EXPECT_LE(threads_seen(64), 2u);
  kato::util::set_thread_count(1);
  EXPECT_EQ(threads_seen(64), 1u);
}

// ---------------------------------------------------------------------------
// Fused kernel workspace path: matrix_ws/backward_ws must be drop-in
// replacements for the per-entry matrix()/backward() pair.

namespace {

/// Relative comparison: |a - b| <= tol * max(1, |a|).
void expect_rel_near(double a, double b, double tol, const char* what,
                     std::size_t idx) {
  EXPECT_NEAR(a, b, tol * std::max(1.0, std::abs(a))) << what << " [" << idx
                                                      << "]";
}

void check_fused_matches_reference(kern::Kernel& k, std::size_t n,
                                   std::uint64_t seed) {
  kato::util::Rng rng(seed);
  const la::Matrix x = random_points(n, k.input_dim(), rng);
  // Randomize hyperparameters so the ARD/shape code paths are exercised away
  // from their exact init values.
  for (auto& p : k.params()) p = 0.3 * rng.normal();

  const la::Matrix k_ref = k.matrix(x);
  auto ws = k.fit_workspace(x);
  la::Matrix k_ws;
  k.matrix_ws(*ws, k_ws);
  ASSERT_EQ(k_ws.rows(), n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      expect_rel_near(k_ref(i, j), k_ws(i, j), 1e-12, "K", i * n + j);

  // Arbitrary (asymmetric) upstream gradient.
  la::Matrix dk(n, n);
  for (auto& v : dk.data()) v = rng.normal();
  std::vector<double> grad_ref(k.n_params(), 0.0);
  k.backward(x, dk, grad_ref);
  std::vector<double> grad_ws(k.n_params(), 0.0);
  k.backward_ws(*ws, dk, grad_ws);
  for (std::size_t p = 0; p < grad_ref.size(); ++p)
    expect_rel_near(grad_ref[p], grad_ws[p], 1e-12, "grad", p);
}

}  // namespace

TEST(FusedKernel, StationaryRbfMatchesReference) {
  kern::StationaryArd k(kern::StationaryType::rbf, 5);
  check_fused_matches_reference(k, 40, 60);
}

TEST(FusedKernel, StationaryRqMatchesReference) {
  kern::StationaryArd k(kern::StationaryType::rq, 4);
  check_fused_matches_reference(k, 35, 61);
}

TEST(FusedKernel, StationaryMatern32MatchesReference) {
  kern::StationaryArd k(kern::StationaryType::matern32, 3);
  check_fused_matches_reference(k, 30, 62);
}

TEST(FusedKernel, StationaryMatern52MatchesReference) {
  kern::StationaryArd k(kern::StationaryType::matern52, 6);
  check_fused_matches_reference(k, 30, 63);
}

TEST(FusedKernel, NeukMatchesReference) {
  kato::util::Rng rng(64);
  kern::NeukConfig cfg;
  kern::NeukKernel k(6, cfg, rng);
  check_fused_matches_reference(k, 40, 65);
}

TEST(FusedKernel, PeriodicFallsBackToGenericPath) {
  kern::PeriodicArd k(3);
  check_fused_matches_reference(k, 25, 66);
}

TEST(FusedKernel, GpFitAgreesWithReferencePath) {
  // One full fit through each path from the same warm start must land on the
  // same hyperparameters (the paths agree to ~1e-12 per step).
  const auto make = [] { return fitted_neuk_gp(48, 4, 67); };
  gp::GpFitOptions ref;
  ref.iterations = 5;
  ref.use_workspace = false;
  gp::GpFitOptions fused = ref;
  fused.use_workspace = true;

  auto m_ref = make();
  auto m_ws = make();
  kato::util::Rng r1(68);
  kato::util::Rng r2(68);
  m_ref.fit(ref, r1);
  m_ws.fit(fused, r2);
  EXPECT_FALSE(m_ref.last_fit_info().workspace);
  EXPECT_TRUE(m_ws.last_fit_info().workspace);
  EXPECT_EQ(m_ref.last_fit_info().iterations, 5);
  EXPECT_EQ(m_ws.last_fit_info().iterations, 5);

  // The Neuk primitive biases are flat directions of the likelihood (the
  // primitives are stationary in u, so K is invariant to them): their exact
  // gradient is 0 and Adam steps them on cancellation noise in *both* paths.
  // Compare what is actually determined by the data — the fitted model's
  // NLL and predictions — rather than raw parameters.
  expect_rel_near(m_ref.nll(), m_ws.nll(), 1e-9, "nll", 0);
  expect_rel_near(m_ref.noise_var(), m_ws.noise_var(), 1e-9, "noise", 0);
  kato::util::Rng qrng(69);
  const auto q = random_points(7, 4, qrng);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto a = m_ref.predict(q.row(i));
    const auto b = m_ws.predict(q.row(i));
    expect_rel_near(a.mean, b.mean, 1e-9, "mean", i);
    expect_rel_near(a.var, b.var, 1e-9, "var", i);
  }
}

// ---------------------------------------------------------------------------
// Parallel MultiGp training: bit-identical at any thread count.

namespace {

gp::MultiGp fitted_multi(std::size_t threads, std::uint64_t seed,
                         const gp::GpFitOptions& opts) {
  kato::util::Rng rng(seed);
  gp::MultiGp multi(3, [&] {
    kern::NeukConfig cfg;
    return std::make_unique<kern::NeukKernel>(4, cfg, rng);
  });
  const std::size_t n = 230;  // above max_train_points: subsampling draws RNG
  la::Matrix x = random_points(n, 4, rng);
  la::Matrix y(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::sin(4.0 * x(i, 0));
    y(i, 1) = x(i, 1) * x(i, 2);
    y(i, 2) = std::cos(2.0 * x(i, 3));
  }
  kato::util::set_thread_count(threads);
  multi.set_data(x, y);
  kato::util::Rng fit_rng(seed + 1);
  multi.fit(opts, fit_rng);
  kato::util::set_thread_count(1);
  return multi;
}

}  // namespace

TEST(ParallelMultiGpFit, BitIdenticalAcrossThreadCounts) {
  gp::GpFitOptions opts;
  opts.iterations = 4;
  opts.max_train_points = 96;  // force the RNG-driven subsample
  const auto serial = fitted_multi(1, 70, opts);
  for (std::size_t threads : {2, 4}) {
    const auto par = fitted_multi(threads, 70, opts);
    for (std::size_t m = 0; m < serial.n_metrics(); ++m) {
      const auto ps = serial.metric(m).kernel().params();
      const auto pp = par.metric(m).kernel().params();
      ASSERT_EQ(ps.size(), pp.size());
      for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(ps[i], pp[i]) << "metric " << m << " param " << i << " at "
                                << threads << " threads";
      EXPECT_EQ(serial.metric(m).noise_var(), par.metric(m).noise_var())
          << "metric " << m << " at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-started refits.

TEST(WarmStartRefit, SurrogateHonorsRefitBudgetAndKeepsParams) {
  kato::util::Rng rng(80);
  const gp::GpFitOptions initial{20, 0.05, 192, 1e-6};
  const gp::GpFitOptions refit{4, 0.03, 128, 1e-6};
  bo::GpSurrogate surr(3, 2, bo::KernelKind::rbf, initial, refit, rng);

  const std::size_t n = 40;
  la::Matrix x = random_points(n, 3, rng);
  la::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::sin(3.0 * x(i, 0));
    y(i, 1) = x(i, 1);
  }
  // First refit: the full initial budget.
  surr.refit(x, y, rng);
  EXPECT_EQ(surr.model().metric(0).last_fit_info().iterations, 20);

  // Posterior-only update must not touch hyperparameters.
  const std::vector<double> before(
      surr.model().metric(0).kernel().params().begin(),
      surr.model().metric(0).kernel().params().end());
  surr.refit(x, y, rng, /*train_hyper=*/false);
  const auto after = surr.model().metric(0).kernel().params();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << i;

  // Hyper refit: warm-started, smaller budget.
  surr.refit(x, y, rng, /*train_hyper=*/true);
  EXPECT_EQ(surr.model().metric(0).last_fit_info().iterations, 4);
}

TEST(WarmStartRefit, ZeroIterationFitPreservesHyperparameters) {
  auto model = fitted_neuk_gp(30, 3, 81);
  const std::vector<double> before(model.kernel().params().begin(),
                                   model.kernel().params().end());
  const double noise_before = model.noise_var();
  gp::GpFitOptions opts;
  opts.iterations = 0;  // refresh-only fit: the warm start must survive
  kato::util::Rng rng(82);
  model.fit(opts, rng);
  const auto after = model.kernel().params();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << i;
  EXPECT_EQ(noise_before, model.noise_var());
}

TEST(WarmStartRefit, RefitTraceSeedReproducible) {
  // A BO-style refit sequence (grow data, alternate posterior-only and
  // hyper refits) must be bit-identical when replayed with the same seed,
  // at any thread count.
  auto run = [](std::size_t threads) {
    kato::util::set_thread_count(threads);
    kato::util::Rng rng(83);
    const gp::GpFitOptions initial{12, 0.05, 192, 1e-6};
    const gp::GpFitOptions refit{3, 0.03, 128, 1e-6};
    bo::GpSurrogate surr(2, 2, bo::KernelKind::neuk, initial, refit, rng);
    kato::util::Rng data_rng(84);
    std::vector<double> trace;
    for (int step = 0; step < 4; ++step) {
      const std::size_t n = 20 + 8 * static_cast<std::size_t>(step);
      la::Matrix x = random_points(n, 2, data_rng);
      la::Matrix y(n, 2);
      for (std::size_t i = 0; i < n; ++i) {
        y(i, 0) = std::sin(5.0 * x(i, 0)) + x(i, 1);
        y(i, 1) = x(i, 0) * x(i, 1);
      }
      surr.refit(x, y, rng, step % 2 == 0);
      const auto p = surr.predict(std::vector<double>{0.3, 0.7});
      trace.push_back(p[0].mean);
      trace.push_back(p[0].var);
      trace.push_back(p[1].mean);
    }
    kato::util::set_thread_count(1);
    return trace;
  };
  const auto t1 = run(1);
  const auto t2 = run(1);
  const auto t3 = run(4);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t2[i]) << i;
    EXPECT_EQ(t1[i], t3[i]) << i << " (threaded)";
  }
}

// ---------------------------------------------------------------------------
// Batched source-GP gradients (the KAT-GP training hot path).

TEST(PredictStdGradBatch, BitIdenticalToPerPointCalls) {
  const auto model = fitted_neuk_gp(50, 4, 90);
  kato::util::Rng rng(91);
  const auto q = random_points(21, 4, rng);

  std::vector<gp::GpPrediction> preds;
  la::Matrix dmean;
  la::Matrix dvar;
  model.predict_std_grad_batch(q, preds, dmean, dvar);
  ASSERT_EQ(preds.size(), q.rows());

  std::vector<gp::GpPrediction> preds_exact;
  model.predict_std_batch_exact(q, preds_exact);

  for (std::size_t i = 0; i < q.rows(); ++i) {
    gp::GpPrediction ref;
    la::Vector dm;
    la::Vector dv;
    model.predict_std_grad(q.row(i), ref, dm, dv);
    // Bit-identical: the batched path shares the kinv algebra and summation
    // order with the per-point path, so KAT-GP training results are
    // unchanged by the batching.
    EXPECT_EQ(preds[i].mean, ref.mean) << i;
    EXPECT_EQ(preds[i].var, ref.var) << i;
    EXPECT_EQ(preds_exact[i].mean, ref.mean) << i;
    EXPECT_EQ(preds_exact[i].var, ref.var) << i;
    for (std::size_t j = 0; j < dm.size(); ++j) {
      EXPECT_EQ(dmean(i, j), dm[j]) << i << "," << j;
      EXPECT_EQ(dvar(i, j), dv[j]) << i << "," << j;
    }
    const auto std_ref = model.predict_std(q.row(i));
    EXPECT_EQ(preds_exact[i].mean, std_ref.mean) << i;
    EXPECT_EQ(preds_exact[i].var, std_ref.var) << i;
  }
}

// K^-1 is built lazily, on the first read.  In KAT-GP training that first
// read comes from the pool workers of predict_std_grad_batch, which race for
// it; the result must not depend on the thread count and must equal an
// eagerly built cholesky_inverse.  The source GP reaches its data through a
// window shift, so its K also comes through the kernel-matrix reuse path.
TEST(PredictStdGradBatch, LazyInverseFromPoolWorkersMatchesEagerInverse) {
  const std::size_t d = 4;
  const std::size_t n = 40;
  kato::util::Rng data_rng(92);
  const la::Matrix pool = random_points(n + 3, d, data_rng);
  la::Vector pool_y(n + 3);
  for (std::size_t i = 0; i < n + 3; ++i)
    pool_y[i] = std::sin(3.0 * pool(i, 0)) + pool(i, 1);
  la::Matrix x(n, d);
  la::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x.set_row(i, pool.row(i + 3));
    y[i] = pool_y[i + 3];
  }
  const auto q = random_points(24, d, data_rng);

  // Two independently refreshed sources (copies would share one posterior).
  auto make_source = [&] {
    kato::util::Rng rng(93);
    kern::NeukConfig cfg;
    gp::GaussianProcess g(std::make_unique<kern::NeukKernel>(d, cfg, rng));
    la::Matrix x0(n, d);
    la::Vector y0(n);
    for (std::size_t i = 0; i < n; ++i) {
      x0.set_row(i, pool.row(i));
      y0[i] = pool_y[i];
    }
    g.set_data(x0, y0);
    g.set_data(x, y);
    return g;
  };
  struct Grads {
    std::vector<gp::GpPrediction> preds;
    la::Matrix dmean;
    la::Matrix dvar;
  };
  auto grads_at = [&](std::size_t threads) {
    const auto g = make_source();
    kato::util::set_thread_count(threads);
    Grads out;
    g.predict_std_grad_batch(q, out.preds, out.dmean, out.dvar);
    kato::util::set_thread_count(1);
    return out;
  };
  const Grads serial = grads_at(1);
  const Grads pooled = grads_at(4);

  // Eager reference: K from matrix(), factor, explicit inverse.
  const auto g = make_source();
  const auto& kernel = g.kernel();
  la::Matrix k = kernel.matrix(x);
  const double noise = std::max(g.noise_var(), 1e-12);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += noise;
  const auto chol = la::cholesky_jittered(k);
  la::Vector y_std(n);
  for (std::size_t i = 0; i < n; ++i) y_std[i] = (y[i] - g.y_mean()) / g.y_std();
  const la::Vector alpha = la::cholesky_solve(chol.l, y_std);
  la::Matrix kinv;
  la::Matrix t_scratch;
  la::cholesky_inverse_into(chol.l, kinv, t_scratch);
  const la::Matrix kx = kernel.cross(q, x);

  for (std::size_t r = 0; r < q.rows(); ++r) {
    const auto kv = kx.row(r);
    la::Vector kinv_k(n);
    for (std::size_t i = 0; i < n; ++i) kinv_k[i] = la::dot(kinv.row(i), kv);
    const double mean = la::dot(kv, alpha);
    const double var =
        std::max(kernel.diag(q.row(r)) - la::dot(kv, kinv_k), 1e-12);
    const la::Matrix dk_dx = kernel.input_grad(q.row(r), x);
    la::Vector dm(d, 0.0);
    la::Vector dv(d, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < d; ++j) {
        dm[j] += dk_dx(i, j) * alpha[i];
        dv[j] += -2.0 * dk_dx(i, j) * kinv_k[i];
      }
    for (const Grads* got : {&serial, &pooled}) {
      EXPECT_EQ(got->preds[r].mean, mean) << r;
      EXPECT_EQ(got->preds[r].var, var) << r;
      for (std::size_t j = 0; j < d; ++j) {
        EXPECT_EQ(got->dmean(r, j), dm[j]) << r << "," << j;
        EXPECT_EQ(got->dvar(r, j), dv[j]) << r << "," << j;
      }
    }
  }
}

TEST(SolveLowerMulti, MatchesColumnwiseSolves) {
  kato::util::Rng rng(52);
  const std::size_t n = 30;
  la::Matrix b = random_points(n, n, rng);
  la::Matrix spd = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  const auto l = la::cholesky(spd);
  ASSERT_TRUE(l.has_value());

  const std::size_t m = 7;
  la::Matrix rhs = random_points(n, m, rng);
  const la::Matrix x = la::solve_lower_multi(*l, rhs);
  for (std::size_t j = 0; j < m; ++j) {
    la::Vector col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = rhs(i, j);
    const auto ref = la::solve_lower(*l, col);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x(i, j), ref[i], 1e-12);
  }
}
