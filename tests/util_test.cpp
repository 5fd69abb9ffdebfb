#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/sampling.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ku = kato::util;

// --- Configuration surface (util/env.hpp) ----------------------------------

// First in the file: nothing in this binary may call thread_count() before
// it, so the first read is the one that consults KATO_THREADS.
TEST(ThreadCount, ReadsEnvironmentOnceAtFirstUse) {
  setenv("KATO_THREADS", "3", 1);
  EXPECT_EQ(ku::thread_count(), std::min<std::size_t>(3, ku::thread_cap()));
  setenv("KATO_THREADS", "2", 1);  // too late: already resolved
  EXPECT_EQ(ku::thread_count(), std::min<std::size_t>(3, ku::thread_cap()));
  unsetenv("KATO_THREADS");
  ku::set_thread_count(1);
  EXPECT_EQ(ku::thread_count(), 1u);
}

TEST(Env, ParseDecimalIsDigitsOnly) {
  constexpr auto k_max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(ku::parse_decimal("0"), 0u);
  EXPECT_EQ(ku::parse_decimal("42"), 42u);
  EXPECT_EQ(ku::parse_decimal("007"), 7u);
  EXPECT_EQ(ku::parse_decimal("18446744073709551615"), k_max);
  for (const char* bad : {"", "18446744073709551616", "+1", "-1", " 1", "1 ",
                          "1.0", "1e3", "0x10", "abc"})
    EXPECT_FALSE(ku::parse_decimal(bad).has_value()) << "'" << bad << "'";
}

/// Value of `name` set to `value` (nullptr = unset) read through `read`.
template <class Read>
auto read_with(const char* name, const char* value, Read read) {
  if (value == nullptr)
    unsetenv(name);
  else
    setenv(name, value, 1);
  auto got = read();
  unsetenv(name);
  return got;
}

TEST(Env, CountTable) {
  // Every input KATO_SEEDS (max 1024), KATO_THREADS (max thread_cap(),
  // here 4) and KATO_EVAL_DEADLINE_MS (max uint64) were pinned with.
  constexpr auto k_max = std::numeric_limits<std::uint64_t>::max();
  struct Case {
    const char* value;
    std::uint64_t max;
    std::optional<std::uint64_t> want;
  };
  const Case cases[] = {
      {nullptr, 1024, std::nullopt},  // unset: caller's default
      {"5", 1024, 5},
      {"1", 1024, 1},
      {"1024", 1024, 1024},
      {"999999999", 1024, 1024},  // clamped, not rejected
      {"2", 4, 2},
      {"6", 4, 4},
      {"1000", 4, 4},
      {"500", k_max, 500},
      {"250", k_max, 250},
      {"18446744073710", k_max, 18446744073710ull},
      {"", 1024, std::nullopt},
      {"bogus", 1024, std::nullopt},
      {"garbage", 4, std::nullopt},
      {"4abc", 1024, std::nullopt},  // no silent truncation
      {"6abc", 4, std::nullopt},
      {"12ms", k_max, std::nullopt},
      {"1e3", 1024, std::nullopt},
      {"1.5", k_max, std::nullopt},
      {" 7", 1024, std::nullopt},  // whitespace anywhere is rejected
      {"7 ", 1024, std::nullopt},
      {"2 ", 4, std::nullopt},
      {" 12", k_max, std::nullopt},
      {"12 ", k_max, std::nullopt},
      {"0", 1024, std::nullopt},  // zero is a mistake, not "off"
      {"0", k_max, std::nullopt},
      {"-5", 1024, std::nullopt},
      {"-3", 4, std::nullopt},
      {"+5", k_max, std::nullopt},
      {"18446744073709551616", k_max, std::nullopt},  // out of range
  };
  for (const Case& c : cases)
    EXPECT_EQ(read_with("KATO_TEST_COUNT", c.value,
                        [&] { return ku::env_count("KATO_TEST_COUNT", c.max); }),
              c.want)
        << "'" << (c.value ? c.value : "<unset>") << "' max " << c.max;
}

TEST(Env, PathTable) {
  // Every input the KATO_STATS / KATO_TRACE / KATO_RUN_LOG sinks were
  // pinned with: edges policed, interior spaces legal, "-" verbatim.
  struct Case {
    const char* value;
    std::optional<std::string> want;
  };
  const Case cases[] = {
      {nullptr, std::nullopt},
      {"", std::nullopt},
      {" ", std::nullopt},
      {" /tmp/t.json", std::nullopt},
      {"/tmp/t.json ", std::nullopt},
      {"\t/tmp/t.json", std::nullopt},
      {"/tmp/t.json\n", std::nullopt},
      {" stats.json", std::nullopt},
      {"stats.json ", std::nullopt},
      {" run.jsonl", std::nullopt},
      {"run.jsonl\t", std::nullopt},
      {"-", "-"},
      {"/tmp/t.json", "/tmp/t.json"},
      {"stats.json", "stats.json"},
      {"run.jsonl", "run.jsonl"},
      {"out dir/t.json", "out dir/t.json"},
  };
  for (const Case& c : cases)
    EXPECT_EQ(read_with("KATO_TEST_PATH", c.value,
                        [] { return ku::env_path("KATO_TEST_PATH"); }),
              c.want)
        << "'" << (c.value ? c.value : "<unset>") << "'";
}

TEST(Env, RawIsNullWhenUnset) {
  unsetenv("KATO_TEST_RAW");
  EXPECT_EQ(ku::env_raw("KATO_TEST_RAW"), nullptr);
  setenv("KATO_TEST_RAW", " as is ", 1);
  EXPECT_STREQ(ku::env_raw("KATO_TEST_RAW"), " as is ");
  unsetenv("KATO_TEST_RAW");
}

/// stderr printed by one read of `name` set to `value`.
template <class Read>
std::string stderr_of(const char* name, const char* value, Read read) {
  setenv(name, value, 1);
  testing::internal::CaptureStderr();
  read();
  unsetenv(name);
  return testing::internal::GetCapturedStderr();
}

TEST(Env, UnusableValueWarnsOncePerName) {
  const auto count = [] { return ku::env_count("KATO_TEST_WARN_COUNT", 8); };
  EXPECT_EQ(stderr_of("KATO_TEST_WARN_COUNT", "4", count), "");
  EXPECT_EQ(stderr_of("KATO_TEST_WARN_COUNT", " 4", count),
            "KATO_TEST_WARN_COUNT: ignoring unusable value ' 4' (want a "
            "positive decimal integer); using the default\n");
  EXPECT_EQ(stderr_of("KATO_TEST_WARN_COUNT", "x", count), "");

  const auto path = [] { return ku::env_path("KATO_TEST_WARN_PATH"); };
  EXPECT_EQ(stderr_of("KATO_TEST_WARN_PATH", "", path),
            "KATO_TEST_WARN_PATH: ignoring unusable value '' (want a path "
            "without surrounding whitespace); feature disabled\n");
  EXPECT_EQ(stderr_of("KATO_TEST_WARN_PATH", "a ", path), "");

  // The entry point the KATO_FAULT reader uses, same format and latch.
  testing::internal::CaptureStderr();
  ku::env_warn("KATO_TEST_WARN_RAW", "v", "w", "f");
  ku::env_warn("KATO_TEST_WARN_RAW", "v2", "w", "f");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "KATO_TEST_WARN_RAW: ignoring unusable value 'v' (want w); f\n");
}

TEST(Rng, DeterministicForSameSeed) {
  ku::Rng a(42);
  ku::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  ku::Rng a(1);
  ku::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  ku::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  ku::Rng rng(11);
  auto v = rng.normal_vec(20000);
  EXPECT_NEAR(ku::mean(v), 0.0, 0.05);
  EXPECT_NEAR(ku::stddev(v), 1.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  ku::Rng rng(3);
  auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ChoiceDistinct) {
  ku::Rng rng(5);
  auto c = rng.choice(100, 30);
  std::set<std::size_t> seen(c.begin(), c.end());
  EXPECT_EQ(seen.size(), 30u);
  for (auto i : seen) EXPECT_LT(i, 100u);
}

TEST(Rng, ChoiceThrowsWhenKTooLarge) {
  ku::Rng rng(5);
  EXPECT_THROW(rng.choice(3, 4), std::invalid_argument);
}

TEST(Rng, SplitStreamsIndependent) {
  ku::Rng parent(9);
  ku::Rng child = parent.split();
  // Child draws must not equal the parent's subsequent draws.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (parent.uniform() == child.uniform()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Sampling, LatinHypercubeStratified) {
  ku::Rng rng(13);
  const std::size_t n = 16;
  auto m = ku::latin_hypercube(n, 3, rng);
  // Exactly one point per 1/n bin in every dimension.
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<int> bin_count(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = m.data[i * 3 + j];
      ASSERT_GE(v, 0.0);
      ASSERT_LT(v, 1.0);
      ++bin_count[static_cast<std::size_t>(v * static_cast<double>(n))];
    }
    for (int c : bin_count) EXPECT_EQ(c, 1);
  }
}

TEST(Sampling, ScaleRoundTrip) {
  std::vector<double> lo{-1.0, 0.0, 10.0};
  std::vector<double> hi{1.0, 5.0, 20.0};
  std::vector<double> unit{0.25, 0.5, 0.75};
  auto x = ku::scale_to_box(unit, lo, hi);
  EXPECT_DOUBLE_EQ(x[0], -0.5);
  EXPECT_DOUBLE_EQ(x[1], 2.5);
  EXPECT_DOUBLE_EQ(x[2], 17.5);
  auto u = ku::scale_to_unit(x, lo, hi);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(u[i], unit[i], 1e-12);
}

TEST(Stats, BasicMoments) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ku::mean(v), 2.5);
  EXPECT_DOUBLE_EQ(ku::variance(v), 1.25);
  EXPECT_DOUBLE_EQ(ku::median(v), 2.5);
}

TEST(Stats, QuantileInterpolation) {
  std::vector<double> v{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.1), 0.4);
}

TEST(Stats, EmptyThrows) {
  std::vector<double> v;
  EXPECT_THROW(ku::mean(v), std::invalid_argument);
  EXPECT_THROW(ku::quantile(v, 0.5), std::invalid_argument);
}

TEST(Stats, RunningBest) {
  std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0};
  auto mx = ku::running_max(v);
  auto mn = ku::running_min(v);
  EXPECT_EQ(mx, (std::vector<double>{3, 3, 4, 4, 5}));
  EXPECT_EQ(mn, (std::vector<double>{3, 1, 1, 1, 1}));
}

TEST(Stats, AggregateTraces) {
  std::vector<std::vector<double>> traces{{1, 2}, {3, 4}, {5, 6}};
  auto band = ku::aggregate_traces(traces);
  EXPECT_DOUBLE_EQ(band.median[0], 3.0);
  EXPECT_DOUBLE_EQ(band.median[1], 4.0);
  EXPECT_DOUBLE_EQ(band.q25[0], 2.0);
  EXPECT_DOUBLE_EQ(band.q75[0], 4.0);
}

TEST(Stats, AggregateTracesRejectsRagged) {
  std::vector<std::vector<double>> traces{{1, 2}, {3}};
  EXPECT_THROW(ku::aggregate_traces(traces), std::invalid_argument);
}

TEST(Table, AlignedOutput) {
  ku::Table t({"method", "value"});
  t.add_row({"kato", "1.0"});
  t.add_row("mace", {2.5}, 1);
  const auto s = t.to_string();
  EXPECT_NE(s.find("method"), std::string::npos);
  EXPECT_NE(s.find("kato"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Table, CsvOutput) {
  ku::Table t({"a", "b"});
  t.add_row({"x", "y"});
  EXPECT_EQ(t.to_csv(), "a,b\nx,y\n");
}

TEST(Table, RejectsWrongArity) {
  ku::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}
