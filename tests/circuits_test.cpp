#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "circuits/factory.hpp"
#include "circuits/sizing_problem.hpp"
#include "util/rng.hpp"

namespace ckt = kato::ckt;

TEST(Pdk, NodesDiffer) {
  const auto& p180 = ckt::pdk_180nm();
  const auto& p40 = ckt::pdk_40nm();
  EXPECT_GT(p180.vdd, p40.vdd);
  EXPECT_GT(p180.lmin, p40.lmin);
  EXPECT_LT(p180.nmos.kp, p40.nmos.kp);
  EXPECT_THROW(ckt::pdk_by_name("7nm"), std::invalid_argument);
}

TEST(DesignSpace, LogAndLinearMapping) {
  ckt::DesignSpace s;
  s.add("log", 1.0, 100.0, true);
  s.add("lin", 0.0, 10.0, false);
  auto x = s.to_physical({0.5, 0.5});
  EXPECT_NEAR(x[0], 10.0, 1e-9);  // geometric midpoint
  EXPECT_NEAR(x[1], 5.0, 1e-9);   // arithmetic midpoint
  // Clamping out-of-box inputs.
  auto lo = s.to_physical({-1.0, -1.0});
  EXPECT_NEAR(lo[0], 1.0, 1e-12);
  EXPECT_NEAR(lo[1], 0.0, 1e-12);
}

TEST(DesignSpace, RejectsBadRanges) {
  ckt::DesignSpace s;
  EXPECT_THROW(s.add("bad", 5.0, 1.0), std::invalid_argument);
  EXPECT_THROW(s.add("bad-log", -1.0, 1.0, true), std::invalid_argument);
  EXPECT_THROW(s.add("equal", 2.0, 2.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(s.add("nan-lo", nan, 1.0), std::invalid_argument);
  EXPECT_THROW(s.add("inf-hi", 1.0, inf), std::invalid_argument);
  // Errors must name the offending variable — they surface from inside
  // sizing runs and netlist decks.
  try {
    s.add("w1", 5.0, 1.0);
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'w1'"), std::string::npos);
  }
  s.add("ok", 1.0, 2.0);
  EXPECT_THROW(s.add("ok", 1.0, 2.0), std::invalid_argument);  // duplicate
}

TEST(MetricSpec, DirectionsAndViolation) {
  ckt::MetricSpec lower{"Gain", "dB", 60.0, true};
  EXPECT_TRUE(lower.satisfied(65.0));
  EXPECT_FALSE(lower.satisfied(55.0));
  EXPECT_DOUBLE_EQ(lower.violation(55.0), 5.0);
  EXPECT_DOUBLE_EQ(lower.violation(65.0), 0.0);
  ckt::MetricSpec upper{"I", "uA", 6.0, false};
  EXPECT_TRUE(upper.satisfied(5.0));
  EXPECT_FALSE(upper.satisfied(7.5));
  EXPECT_DOUBLE_EQ(upper.violation(7.5), 1.5);
}

class CircuitFixture
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(CircuitFixture, ExpertDesignIsFeasible) {
  auto c = ckt::make_circuit(GetParam().first, GetParam().second);
  const auto m = c->evaluate(c->expert_design());
  ASSERT_TRUE(m.has_value()) << c->name();
  EXPECT_EQ(m->size(), c->n_metrics());
  EXPECT_TRUE(c->feasible(*m)) << c->name();
}

TEST_P(CircuitFixture, EvaluationIsDeterministic) {
  auto c = ckt::make_circuit(GetParam().first, GetParam().second);
  kato::util::Rng rng(3);
  const auto x = rng.uniform_vec(c->dim());
  const auto a = c->evaluate(x);
  const auto b = c->evaluate(x);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) {
    for (std::size_t i = 0; i < a->size(); ++i)
      EXPECT_DOUBLE_EQ((*a)[i], (*b)[i]);
  }
}

TEST_P(CircuitFixture, RandomSamplingMostlySimulates) {
  auto c = ckt::make_circuit(GetParam().first, GetParam().second);
  kato::util::Rng rng(9);
  int ok = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i)
    if (c->evaluate(rng.uniform_vec(c->dim()))) ++ok;
  // The drivers rely on a healthy success rate for surrogate fitting.
  EXPECT_GT(ok, n / 2) << c->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllCircuits, CircuitFixture,
    ::testing::Values(std::make_pair("opamp2", "180nm"),
                      std::make_pair("opamp2", "40nm"),
                      std::make_pair("opamp3", "180nm"),
                      std::make_pair("opamp3", "40nm"),
                      std::make_pair("bandgap", "180nm"),
                      std::make_pair("stage2", "180nm")));

TEST(TwoStage, MoreCurrentBuysBandwidth) {
  // Sizing trend: raising both stage currents from the expert point should
  // raise GBW (gm grows with I).
  auto c = ckt::make_circuit("opamp2", "180nm");
  auto x = c->expert_design();
  const auto base = c->evaluate(x);
  ASSERT_TRUE(base);
  auto x_hot = x;
  x_hot[6] = std::min(1.0, x[6] + 0.2);  // I1
  x_hot[7] = std::min(1.0, x[7] + 0.2);  // I2
  const auto hot = c->evaluate(x_hot);
  ASSERT_TRUE(hot);
  EXPECT_GT((*hot)[0], (*base)[0]);  // more current drawn
  EXPECT_GT((*hot)[3], (*base)[3]);  // more GBW
}

TEST(TwoStage, BiggerCompensationCapSlowsAmplifier) {
  auto c = ckt::make_circuit("opamp2", "180nm");
  auto x = c->expert_design();
  const auto base = c->evaluate(x);
  ASSERT_TRUE(base);
  auto x_cc = x;
  x_cc[4] = std::min(1.0, x[4] + 0.3);  // Cc up
  const auto slow = c->evaluate(x_cc);
  ASSERT_TRUE(slow);
  EXPECT_LT((*slow)[3], (*base)[3]);  // GBW drops
}

// ---------------------------------------------------------------------------
// Frozen metrics of every registered kind, as hex-float literals: per
// (kind, node) the expert design, then the points a seeded Rng draws; an
// empty row is a point whose evaluation fails.  The values were recorded
// from the hand-built C++ topologies that these kinds used to construct; the
// shipped decks reproduce them bit for bit, so any change to the decks, the
// elaborator, the solvers or the measures that moves a single metric bit
// fails here.

struct PinnedMetrics {
  const char* kind;
  const char* node;
  std::uint64_t seed;
  /// Expert design, then rng draws; empty = the evaluation fails.
  std::vector<std::vector<double>> rows;
};

const std::vector<PinnedMetrics>& pinned_metrics() {
  static const std::vector<PinnedMetrics> pins = {
    {"opamp2", "180nm", 1234, {
       {0x1.160dd327be766p+8, 0x1.101a94ec2fc3p+6,
        0x1.5a88e73fa90acp+6, 0x1.bd8dac56d0dafp+2},
       {0x1.caa374ea25fe5p+9, 0x1.2efc018bd45c1p+0,
        0x0p+0, 0x1.2ce6e50bd671p-3},
       {0x1.197cc5ac7efeap+7, -0x1.b04e5af4ffa01p+4, 0x0p+0, 0x0p+0},
       {0x1.58f53a35fda63p+8, 0x1.364c03da78512p+4,
        0x1.eae08229c479cp+6, 0x1.23974430fc2fdp+2},
       {0x1.9a212f74d13d9p+6, 0x1.5c5e421881152p+4,
        0x0p+0, 0x1.40adbfa8539e6p+4},
       {0x1.e1204f13f337p+7, 0x1.4877531ebe9c3p+4,
        0x1.6b877537ab471p+6, 0x1.dd2ef784b94bfp+1},
       {0x1.cb91e7a74a658p+3, 0x1.5e807003c1efep+4,
        0x1.28170677ff03cp+6, 0x1.0d7b072fd88bfp+0},
       {0x1.982ba7259931ep+3, 0x1.24ac1a629e231p+4,
        0x1.70ab388933bcep+6, 0x1.b6df508eb143bp-3},
       {0x1.8fe45eef9411bp+6, -0x1.395888b226e7cp+3, 0x0p+0, 0x0p+0},
       {0x1.10181f7fa18adp+5, 0x1.81862b7a2172dp+4,
        0x1.49a8faa1c3dap+6, 0x1.e2870aaa6d623p-3},
       {0x1.41b8acedc8c08p+4, 0x1.2928abb12d097p+1,
        0x1.113f90239cd4cp+7, 0x1.cd6b41ebe545fp-4},
       {0x1.87c9eb76f3687p+7, 0x1.5ea817ef6e3bbp+3,
        0x1.7dc0bc6cdf223p+6, 0x1.2a84ebb199f35p+2},
       {0x1.ea051b585dd48p+7, 0x1.a27a474d3a99fp+1,
        0x1.7da0f65bccd45p+6, 0x1.5698c50eb00ep+3},
       {0x1.e710f694c4a06p+7, 0x1.21d776df80c4cp+4,
        0x1.c26ff2b7086a4p+5, 0x1.faf1a321303fap+2},
       {0x1.990b9a3e2bc6cp+4, 0x1.366a25ef2e416p+6,
        0x0p+0, 0x1.5a5fbb8080674p+2},
       {0x1.6d53e44241d5ap+6, -0x1.3177c79a253a5p+4, 0x0p+0, 0x0p+0},
       {0x1.863c5d1e94106p+5, 0x1.2e101695b4294p+5,
        0x0p+0, 0x1.739b974be5f8ap+3},
       {0x1.20e8bbd1d68b4p+6, -0x1.4cb46eca49e1cp+1, 0x0p+0, 0x0p+0},
       {0x1.11848e0ee31c7p+8, 0x1.377ca2f7617a8p+3,
        0x1.b4b799aa4e92p+6, 0x1.ac8103afd17ep-1},
       {0x1.6d1425129e634p+4, -0x1.33d152563098bp+1, 0x0p+0, 0x0p+0},
       {0x1.1a57dbf6469aap+8, -0x1.dd46d94d6e2b6p+1, 0x0p+0, 0x0p+0},
       {0x1.59154b43138eep+5, 0x1.2d5d997779545p+1,
        0x1.15b0d5f0acb53p+7, 0x1.1fff15eba75e4p-3},
       {0x1.142f80add0571p+9, 0x1.8f8982fbb4f93p+4,
        0x1.3d44c806ae3e3p+6, 0x1.0cb002a559dfcp+3},
       {0x1.661336362f962p+4, 0x1.972e2c7bb916dp+3,
        0x1.8458865e3699ep+6, 0x1.50893f091bdacp-3},
       {0x1.3bfedce77beb4p+9, 0x1.f6243802c3ef9p+4,
        0x1.dac0e48e73196p+6, 0x1.9c3aaa4a99edfp+2},
       {0x1.ab2d4e3182179p+5, 0x1.d643b78f22824p+3,
        0x1.8a03891503db7p+6, 0x1.d3cb6c0097911p-1},
       {0x1.113e23995dd1ap+3, 0x1.338c6bc953806p+5,
        0x1.1fa0affb8e42ap+6, 0x1.2fba62aaf9801p-1},
       {0x1.339a362354df3p+7, 0x1.55479197a5f9p+4,
        0x1.85eb1f179b5bap+6, 0x1.fd7cd9e937656p-2},
       {0x1.2edaf0dded73cp+7, 0x1.7e69d4e70fea1p+2,
        0x1.dd424918950f5p+6, 0x1.ebd573daf256ep-8},
       {0x1.f81135f57340bp+6, -0x1.74a927b04bcccp+3, 0x0p+0, 0x0p+0},
       {0x1.2f5b01054ebfep+5, 0x1.eeb9fe5a8b096p+4,
        0x1.5e7b7a3b258cdp+6, 0x1.b5173c3b743dcp-3},
    }},
    {"opamp2", "40nm", 4321, {
       {0x1.9846be3569abfp+7, 0x1.d935f1f432dbfp+5,
        0x1.5d92a5d1654e2p+6, 0x1.bfb487146b6a6p+3},
       {0x1.f4b7e2019ee99p+6, 0x1.a27e0f9f2cdfbp+4,
        0x1.5ca591416e6e1p+6, 0x1.548c3e68baeb6p+3},
       {0x1.ad72c64b69c5bp+6, 0x1.20eadb7b0b79fp+4,
        0x1.0245a276fd392p+7, 0x1.6d70a1fe7b172p+1},
       {0x1.0b90c82d31d2bp+5, -0x1.2c203bf271eefp+3, 0x0p+0, 0x0p+0},
       {0x1.1dabb4b7360a9p+8, 0x1.fc35df6c30818p+4,
        0x1.9101a44ca1ec4p+5, 0x1.a1be9e86a5497p+6},
       {0x1.359f1e9520954p+8, -0x1.5b4260ea4488cp+2, 0x0p+0, 0x0p+0},
       {0x1.f100b87a123f7p+9, 0x1.8e5212ce978c9p+4,
        0x1.6bad9be2bcf68p+6, 0x1.21d7537e162ap+8},
       {0x1.693c93b266599p+8, 0x1.2c640f51d6136p+4,
        0x1.c21bacc390a4ap+6, 0x1.0a5efd7e358cap+1},
       {0x1.7d7c3e860aaaap+5, 0x1.9a5443e977684p+4,
        0x1.55c6d8a424178p+5, 0x1.63907a5c9dd03p+0},
       {0x1.79bc52a81255bp+8, 0x1.739cc73f63f4ep+4,
        0x1.6072d74958676p+6, 0x1.034fe4a0e4748p+4},
       {0x1.a0805ffd5c858p+8, -0x1.4a4e8bd728712p+0, 0x0p+0, 0x0p+0},
       {0x1.7219e4807476p+5, 0x1.9760f953c287bp+3,
        0x1.70af2a4b2b33p+6, 0x1.e5ae1cef8b6f4p+1},
       {0x1.c969c00aaa13bp+8, 0x1.0769b3f0c4804p+4,
        0x1.76a7da8fcadc9p+6, 0x1.8f85d35ed1f68p+2},
       {0x1.59f97a1d709a1p+6, 0x1.b6e419341fbdcp+4,
        0x1.450cf16d02479p+6, 0x1.7bdb2dc4af006p+5},
       {0x1.3149eefc6c4f6p+6, 0x1.99dfd4f179334p+4,
        0x1.49ab5a864756ap+6, 0x1.0458b15a51a51p+3},
       {0x1.0209b76c780bcp+8, 0x1.dbd3ed2c4eb7p+3,
        0x1.aed06f5f1f2d6p+6, 0x1.c2bb9d6dc3e36p+1},
       {0x1.48d5403913429p+5, 0x1.bf0c0284d3d74p+4,
        0x1.64defcb07aa4p+6, 0x1.60ef173ecade2p-1},
       {0x1.70e5f17d8a591p+7, 0x1.597e299638b61p+4,
        0x1.848a104aa7f49p+6, 0x1.a33c99f5af417p+1},
       {0x1.2e43434f706e8p+6, 0x1.2e396a99a23dp+1,
        0x1.18eb816e15b3dp+7, 0x1.632790831afbfp-6},
       {0x1.ffa01c47c15f1p+7, 0x1.13e86baccb95dp+3,
        0x0p+0, 0x1.d0736dc3799e2p+5},
       {0x1.6a0e743ff5e57p+4, 0x1.51bfa69de8a6ap+4,
        0x1.659f0223c2817p+6, 0x1.3e6ff7cd0a0b4p+0},
       {0x1.ebd4ad8b478p+8, 0x1.6785b2daa4ccdp+3,
        0x1.992bfa901206ap+6, 0x1.81002ee0b1c44p+4},
       {0x1.fe3bc2efe3a35p+8, 0x1.0e62c2ac578fdp+4,
        0x1.9efdce5196126p+6, 0x1.05bc9543bfbeep+3},
       {0x1.4d1547b467676p+9, 0x1.afdc1314e2837p+4,
        0x1.a1c7f90feb074p+5, 0x1.73c1691beccf4p+9},
       {0x1.1131b56660b4ep+6, 0x1.66a6b498608aap+1,
        0x1.22a2ba9d836d9p+7, 0x1.67fe951d70de8p-3},
       {0x1.ce14842b82822p+6, 0x1.495d6893b0235p+4,
        0x0p+0, 0x1.0ae92f163712bp+7},
       {0x1.e8088ea260ccep+5, 0x1.4d2719c0ff8c6p+2,
        0x1.c2efa34f8a45cp+6, 0x1.face8f020080bp+1},
       {0x1.6a97c4b7fdee4p+8, 0x1.e4184cf8c4ac1p-2,
        0x0p+0, 0x1.6f8a9cb560f8ap+0},
       {0x1.128184a44245bp+8, -0x1.8680d7f94870cp+4, 0x0p+0, 0x0p+0},
       {0x1.b6eb3c9db11e2p+7, 0x1.faf2c8ffcd096p+4,
        0x1.b2a146a1fb74ep+5, 0x1.e4932dc37d6b2p+7},
       {0x1.51056020fc188p+8, 0x1.7d4a0a40deca2p+1,
        0x1.0deaaa714c4fcp+7, 0x1.383f18f143df4p-5},
    }},
    {"buffer", "180nm", 2024, {
       {0x1.ccad45954ec76p+8, 0x1.f3897d816d495p+1,
        0x1.306c869bad716p-2, 0x1.3489a86259335p-18},
       {0x1.19baf2d8f989p+9, 0x1.51a96dfa41273p+3,
        0x1.7fea1ad3522e7p+1, 0x1.d6c2b42373d04p+7},
       {0x1.59bab6b716495p+4, 0x1.248ae9516d924p-2,
        0x1.71d76f2151922p+0, 0x0p+0},
       {0x1.c006605568defp+9, 0x1.5f12a8f38563ep-1,
        0x1.5b593678eee6bp-1, 0x1.2628b0cf57014p-34},
       {0x1.3dc9ccb11a69fp+8, 0x1.ee1f7ad8c345p-1,
        0x1.20a0483f6a064p-1, 0x1.8659745e89284p-32},
       {0x1.1b4666c6d3cffp+6, 0x1.66ad01130d681p+0,
        0x1.b203d575df07ap+0, 0x1.11b4b8cd507ffp+5},
       {0x1.3c6c43c9c37afp+10, 0x1.42e58cbc5fe77p+4,
        0x1.e87fae646019dp-3, 0x1.e40dccdef76f9p+3},
       {0x1.5fba05db1c925p+8, 0x1.31af695843abfp+2,
        0x1.91c0261a0c1c7p-2, 0x1.7b01a766691p+5},
       {0x1.8b9758b24494fp+6, 0x1.d92df8ee820f6p-1,
        0x1.7febc9304486cp+1, 0x1.292410a82302ep+7},
       {0x1.a724c6639cd9bp+9, 0x1.088ab20c81805p+4,
        0x1.f6e58625bd9e4p-3, 0x1.12e32f2adcfd1p+5},
       {0x1.26a2722bc88abp+5, 0x1.fcfc647de7093p+0,
        0x1.fadff15e75bd6p+0, 0x1.ce1f9fedde425p+5},
       {0x1.a7da9cfbdcc9p+8, 0x1.326b65175659ap+1,
        0x1.e23a973318fc8p-2, 0x1.501639fc932e2p+3},
       {0x1.366e38e4d8f44p+7, 0x1.5a64a10403cc4p+2,
        0x1.ad0a7e9bc1bf3p-2, 0x1.22713c4a4a331p+4},
    }},
    {"buffer", "40nm", 4202, {
       {0x1.c7800f08099d7p+7, 0x1.20cd6dcc4a1acp+2,
        0x1.017e7f02fe599p-2, 0x1.1b4c741a6c404p-17},
       {0x1.7caf46e7ae945p+4, 0x1.09ccd68259ce9p+0,
        0x1.bca35ade23e92p-1, 0x1.e8cdeba7fcf62p+6},
       {0x1.7c23c5a2abdc5p+4, 0x1.8e194b4821fb1p+1,
        0x1.4c6addab345cfp-2, 0x1.2f6af4b5c1454p+5},
       {0x1.eb3b046402ca6p+7, 0x1.03001c81b2f71p+4,
        0x1.af5068e00f5a9p-3, 0x1.9a87188c80d0ap-1},
       {0x1.2a7f137e26ea2p+9, 0x1.0a0e0dcd0eeb2p+0,
        0x1.e0f6018e9bcddp-3, 0x1.2709de5300af4p-14},
       {0x1.a22770c080ec4p+8, 0x1.d7f3b0356d3f7p-3,
        0x1.319679db311bep+0, 0x0p+0},
       {0x1.d7ca51823e263p+4, 0x1.43678e1e039ep+1,
        0x1.b84c723f38eaep-2, 0x1.5a29911a541a4p+5},
       {0x1.6dfdb522f9a6bp+8, 0x1.fcb665c534212p+3,
        0x1.b15c48c274c12p-3, 0x1.a75c39ac9f64cp-2},
       {0x1.896e0906bc63ap+6, 0x1.a8add34aa0585p+0,
        0x1.8f327268639b2p-2, 0x1.8eaa0c7413a3cp+5},
       {0x1.d8bd3ee56ce1dp+5, 0x1.7595355474cbap+0,
        0x1.6f50fed92124fp-2, 0x0p+0},
       {0x1.ee5f52d0df20ep+5, 0x1.77713e1b12743p+3,
        0x1.c8fdbedd7d359p-3, 0x1.d1893d715ee61p+3},
       {0x1.64edef4e7e7f3p+6, 0x1.45c8825fe8b6ap+1,
        0x1.7fe1442bb4688p+1, 0x1.3a6be887dc298p+7},
       {0x1.ff2306aacd2fbp+5, 0x1.59466d267b23dp+1,
        0x1.282a8e30b9231p-2, 0x1.3d932ed1124a2p-17},
    }},
    {"opamp3", "180nm", 3180, {
       {0x1.0706102dc2e2ap+10, 0x1.586b6e1fd91f2p+6,
        0x1.5333d02dcb30dp+6, 0x1.21bc6ec747908p+3},
       {0x1.c6c2f5d0ecd2ep+8, 0x1.720fb91a9dc68p+5,
        0x1.60237966266p+1, 0x1.bcc29729e6dd7p+0},
       {0x1.0d1f167c87003p+7, 0x1.3493b71d33265p+6,
        0x0p+0, 0x1.0822824238a32p+3},
       {0x1.301a2abe0b6f7p+6, 0x1.3de3af3420d24p+6,
        0x0p+0, 0x1.c4a71f0619373p+0},
       {0x1.5b588062f538ap+5, 0x1.d75f634f6f7dbp+6,
        0x0p+0, 0x1.0a6c849b1d3fcp+2},
       {0x1.1a0389b877c74p+8, 0x1.7022d71bac906p+6,
        0x0p+0, 0x1.1c01b56318ba8p+4},
       {0x1.7246b85acbc8fp+11, 0x1.909b5cc50c064p+6,
        0x0p+0, 0x1.9e81b86f862ap+4},
       {0x1.a1ac0c29cbb6bp+3, 0x1.d6568c17ee4fep+5,
        0x0p+0, 0x1.88ec8d2514d93p-2},
       {0x1.c9f303ff23b71p+8, 0x1.a9f9318f437d2p+6,
        0x1.41d63c20d0e3fp+6, 0x1.d20a50dc21299p+1},
       {0x1.d661cce690455p+9, 0x1.2640bea3ac7b6p+6,
        0x0p+0, 0x1.8bbbb4173c5dbp+4},
       {0x1.307197dd9a06dp+8, 0x1.b17ea93dcc205p+6,
        0x0p+0, 0x1.117b33cf5d334p+4},
       {0x1.9a18063dc53dfp+9, 0x1.78e5139aa952bp+5,
        0x1.2c9de2234f9d8p+5, 0x1.52b6e5cae847dp-2},
       {0x1.7850b6d198a83p+9, 0x1.6188b3e35423p+6,
        0x0p+0, 0x1.10bd524a3327fp+5},
       {0x1.204e5c41b2b3p+7, 0x1.85a30be753ef5p+6,
        0x0p+0, 0x1.d778737c9945p-1},
       {0x1.2f4394561f2b2p+7, 0x1.95157a0c1ede7p+6,
        0x0p+0, 0x1.2357c12bcaaeep+3},
       {0x1.308b0e979060bp+11, 0x1.e7316b372f56cp+5,
        0x1.4269b6b5cdfp+0, 0x1.7f204abac05a5p+1},
       {0x1.3871813492715p+7, 0x1.882a181a18a74p+6,
        0x1.13773ee42ff02p+6, 0x1.5835ea1565763p+0},
       {0x1.22ee82a6963b6p+8, 0x1.51dc0c15202cp+6,
        0x0p+0, 0x1.2cbafdee0cadep+2},
       {0x1.bb42082eeda99p+8, 0x1.7a69dd13cee1ep+6,
        0x1.6155cdcd31ae6p+6, 0x1.134261aa19c47p+1},
       {0x1.83d5347656176p+9, 0x1.66b3800c36391p+6,
        0x0p+0, 0x1.35cde94c7763dp+4},
       {0x1.c3c940005df54p+9, 0x1.af05f5ab10f93p+5,
        0x0p+0, 0x1.1f73fc6529e02p+4},
       {0x1.1486ba6e66349p+12, 0x1.7a10b4e82914cp+6,
        0x1.633a04a3fa3d3p+6, 0x1.56e4c1a8237d7p+1},
       {0x1.030db19cc6aeep+6, 0x1.ed6e29b90023fp+6,
        0x0p+0, 0x1.78285e2598604p+2},
       {0x1.bb3518979e33dp+6, 0x1.aa5ca848132e6p+6,
        0x0p+0, 0x1.7e97831f58becp+3},
       {0x1.4a8711dcfa44p+9, 0x1.6847693687be9p+6,
        0x0p+0, 0x1.f538cf6c4006bp+5},
    }},
    {"opamp3", "40nm", 3040, {
       {0x1.6b68c969e268bp+9, 0x1.51b3f5ba872a2p+6,
        0x1.3ed264df36087p+6, 0x1.61cdc6c96a86bp+5},
       {0x1.e2f191b3ca1f5p+8, 0x1.39d4405bdc274p+6,
        0x0p+0, 0x1.48293d50a1d33p+6},
       {0x1.1d05b8c5f5093p+7, 0x1.2f8e69ed54ceap+6,
        0x0p+0, 0x1.706c33997cb5dp+4},
       {0x1.4da43b2b54bb7p+3, 0x1.26a0e59f0c752p+6,
        0x0p+0, 0x1.a01fb93493094p-2},
       {0x1.388cde28666a2p+6, 0x1.d5c427562b01fp+6,
        0x1.1970b2dc82f9p+3, 0x1.0348fa1c14871p+2},
       {0x1.0dca91b76e38cp+10, 0x1.6324128ff8c24p+6,
        0x0p+0, 0x1.06f07366b5f9ep+8},
       {0x1.6b80eacd348dbp+7, 0x1.1aed01d227626p+6,
        0x1.3e49e3d532378p+4, 0x1.d12bdf1655744p+0},
       {0x1.d1c189a209d8ap+11, 0x1.58aa39fa7085fp+6,
        0x1.1fd551d2f93c5p+6, 0x1.3820618b982a9p+6},
       {0x1.1068c5e5eb62fp+9, 0x1.47f392d3399ddp+6,
        0x0p+0, 0x1.de8e4a20153bap+6},
       {0x1.c46485cfc00abp+9, 0x1.22b7c61cf0c69p+6,
        0x0p+0, 0x1.dc2eaf787da62p+6},
       {0x1.18c34064abc78p+8, 0x1.384a1d9a5d20ap+6,
        0x1.16de85eb39252p+6, 0x1.da36e5159c2c8p+3},
       {0x1.55b453ac49937p+9, 0x1.5485ef8595fa6p+6,
        0x0p+0, 0x1.91e86ff0e696dp+6},
       {0x1.9cc5e83e23b26p+8, 0x1.2c4ef524d6bb7p+6,
        0x1.22084bb9848bfp+6, 0x1.39d864bc42fa6p+4},
       {0x1.b335b7e826be2p+6, 0x1.47959052e9ae1p+5,
        0x1.95aec387cb46p+3, 0x1.8894d5d2ce817p-1},
       {0x1.63114bef0a3bp+8, 0x1.f62232bfbcb1p+5,
        0x1.f8d9e299a86p+0, 0x1.d266887375bb4p+3},
       {0x1.301621fc30235p+10, 0x1.94bafe2a01d4bp+6,
        0x0p+0, 0x1.4f2bd1a75f54bp+7},
       {0x1.425089a3e4e2fp+6, 0x1.9987487a420ap+6,
        0x1.569d563727b5cp+6, 0x1.7e042c3980977p+0},
       {0x1.4df850cc3058fp+9, 0x1.edc17857175eep+5,
        0x1.21b2181f028a1p+6, 0x1.c79414de7fc73p-1},
       {0x1.ae2a64c7128cbp+7, 0x1.c8332a50aaefcp+5,
        0x1.b8ae1f511d22p+3, 0x1.188d00ad790a2p+1},
       {0x1.cf56851d36e6cp+10, 0x1.887b24b4dd8f4p+6,
        0x1.656878981e967p+6, 0x1.159cb6cd0db44p+3},
       {0x1.a5e66f48bb78cp+8, 0x1.bd3974f80c526p+6,
        0x0p+0, 0x1.7ce288ef729f2p+6},
       {0x1.81fc6082ae384p+6, 0x1.b70778b97584p+6,
        0x0p+0, 0x1.0d381f22ffaf2p+5},
       {0x1.68473b5defec8p+7, 0x1.83c74efc6135p+6,
        0x0p+0, 0x1.3411592ab206fp+6},
       {0x1.944a89967ca9ep+11, 0x1.2a59360d7708dp+6,
        0x1.555b21418a169p+6, 0x1.6392fe259d55ep+5},
       {0x1.1b43ec74976cfp+8, 0x1.00554b215a16ep+6,
        0x1.888cc2a35ecc4p+5, 0x1.8a9cf01a13092p+2},
    }},
    {"bandgap", "180nm", 1717, {
       {0x1.944e29582b878p+11, 0x1.41d35b96fca19p+1,
        0x1.937b5955cd3b5p+5},
       {0x1.230ea1a85ba39p+10, 0x1.9eb295d4b7f19p+1,
        0x1.013ba7cd6bb2ap+5},
       {0x1.2655981eb07fap+11, 0x1.561fe3de16718p+2,
        0x1.48beb6bbce4d6p+5},
       {0x1.78fe71558e3fbp+11, 0x1.58197d8f2ed0bp+1,
        0x1.8c230d9ada822p+5},
       {0x1.4cab569cb9037p+11, 0x1.a41260a34fb8bp+1,
        0x1.70ea71c433adcp+5},
       {0x1.65b8d0b355622p+11, 0x1.9b57c0a8b79d8p+0,
        0x1.0fc67b09aa5c1p+5},
       {0x1.331f000a126ccp+10, 0x1.d12d782f5e8d7p+0,
        0x1.52c21cec68474p+4},
       {0x1.c79b9335eecf9p+8, 0x1.f43e1cbb87963p+2,
        0x1.8015e4b720be2p+4},
       {},
       {},
       {0x1.90e15e6c033f8p+11, 0x1.5b64448e0d88bp+0,
        0x1.3a40d40a4f741p+5},
       {0x1.54da43850a4a3p+11, 0x1.2bf26f10c5d1dp+0,
        0x1.213e87fedc5c6p+5},
       {0x1.6a3736d8b7297p+6, 0x1.1625d8d7ee1a6p+2,
        0x1.46b3b09540df9p+4},
       {},
       {},
       {},
       {0x1.002c6fa00cdefp+10, 0x1.406f0282975c1p+2,
        0x1.6883c7d08fb21p+3},
       {0x1.dca9c75eaa056p+10, 0x1.751873df39009p+2,
        0x1.88d67638101dap+4},
       {0x1.77b76f4c3281p+11, 0x1.51d11f91d4c25p+0,
        0x1.2e51976012fd5p+5},
       {0x1.197deb6285d29p+10, 0x1.2b03e81b94892p+3,
        0x1.0f6ae5c284e4ep+5},
       {0x1.f53f11b6a7627p+10, 0x1.145dcee5cb8e1p+3,
        0x1.6aa4b6ddf8d01p+5},
       {0x1.5417507f78e5fp+11, 0x1.15a1d9c0f3c7ap+0,
        0x1.bb7c486077156p+4},
       {0x1.647b2acf7215fp+11, 0x1.5baf38893a30ap+1,
        0x1.510e99007693cp+5},
       {0x1.f90a74a519b5bp+10, 0x1.eb5a57253f3dap-1,
        0x1.9a5f8d08d5ba4p+4},
       {0x1.53b3443af5b8ap+11, 0x1.a41107b4717bbp+1,
        0x1.3eace586506fbp+5},
    }},
    {"stage2", "180nm", 2222, {
       {0x1.84a7c919830b2p+4},
       {-0x1.6f52e84182642p+3},
       {0x1.b60493df2899p+4},
       {0x1.32bd63a7b6312p+5},
       {0x1.574ff4f51137ap+4},
       {0x1.f2fea90f29bc2p+4},
       {0x1.67ac409a09cd4p+3},
       {0x1.8b93df86ad73cp+3},
       {0x1.8ffe9f4a4e979p+4},
       {0x1.01ba984d3b634p+5},
       {0x1.92df24cef0813p+2},
       {0x1.290f4ad3bcfcbp+5},
       {-0x1.1193fe231363ap+2},
       {0x1.17a3012da931dp+5},
       {0x1.fdef13dc8afe5p+4},
       {0x1.7f39a5c90e862p+4},
       {0x1.1491cd2e5e74ep+5},
       {0x1.e2975ccb7b686p+3},
       {0x1.e46292cfc4a5dp+3},
       {0x1.f2d3310ed1006p+4},
       {0x1.0403b1f209c8ap+5},
       {0x1.ef3b7c042cdd8p+1},
       {0x1.47cb86cc28924p+2},
       {-0x1.0fd0e1c71e5fap+3},
       {0x1.0023106d536cep+3},
       {0x1.87480c9198886p+1},
       {0x1.0b2e7f84f64a7p+5},
       {-0x1.2a90a148e119bp+2},
       {-0x1.7a41abbe4e4cap+3},
       {0x1.e32493b903dc8p+4},
       {0x1.7e7c331df2c14p+4},
       {0x1.984ee10a5f186p+4},
       {0x1.9cdbc0298c5p+3},
       {0x1.a31db896e1b26p+4},
       {0x1.00c0544e723dbp+5},
       {-0x1.8c9cd2b4f9f1ap+2},
       {0x1.dae3e240d575dp+3},
       {0x1.6fb30ff22a05p+3},
       {0x1.a614ad8d560cfp+3},
       {0x1.cf73f70832ca8p+4},
       {0x1.5637f0a694fbap+4},
    }},
  };
  return pins;
}

TEST(FrozenMetrics, RegisteredKindsMatchHexPins) {
  for (const auto& pin : pinned_metrics()) {
    SCOPED_TRACE(std::string(pin.kind) + "@" + pin.node);
    const auto c = ckt::make_circuit(pin.kind, pin.node);
    kato::util::Rng rng(pin.seed);
    for (std::size_t i = 0; i < pin.rows.size(); ++i) {
      const auto x = i == 0 ? c->expert_design() : rng.uniform_vec(c->dim());
      const auto m = c->evaluate(x);
      ASSERT_EQ(m.has_value(), !pin.rows[i].empty()) << "row " << i;
      if (!m) continue;
      ASSERT_EQ(m->size(), pin.rows[i].size()) << "row " << i;
      for (std::size_t j = 0; j < m->size(); ++j)
        EXPECT_EQ((*m)[j], pin.rows[i][j]) << "row " << i << " metric " << j;
    }
  }
}

TEST(Bandgap, TcNullsNearRatioTen) {
  // The classic bandgap property: TC has a sharp minimum where the PTAT
  // gain R2/R1 cancels the CTAT slope (ratio ~10 for ln(8) area ratio).
  auto c = ckt::make_circuit("bandgap", "180nm");
  const auto& sp = c->space();
  auto unit_of = [&](std::size_t i, double v) {
    return std::log(v / sp.lo[i]) / std::log(sp.hi[i] / sp.lo[i]);
  };
  std::vector<double> base{0.5, 0.5, 0.6, 0.6, 0.0, 0.0, 0.5};
  base[4] = unit_of(4, 60e3);
  auto tc_at = [&](double ratio) {
    auto x = base;
    x[5] = unit_of(5, ratio * 60e3);
    const auto m = c->evaluate(x);
    return m ? (*m)[0] : 1e9;
  };
  const double at6 = tc_at(6.0);
  const double at10 = tc_at(10.0);
  const double at14 = tc_at(14.0);
  EXPECT_LT(at10, at6);
  EXPECT_LT(at10, at14);
  EXPECT_LT(at10, 200.0);  // near-nulled
}

TEST(Fom, CalibrationAndValue) {
  auto c = ckt::make_circuit("opamp2", "180nm");
  kato::util::Rng rng(17);
  const auto norm = ckt::calibrate_fom(*c, 120, rng);
  ASSERT_EQ(norm.weight.size(), c->n_metrics());
  EXPECT_DOUBLE_EQ(norm.weight[0], -1.0);  // objective minimized
  for (std::size_t i = 0; i < norm.weight.size(); ++i)
    EXPECT_LT(norm.f_min[i], norm.f_max[i]);

  // The expert design (feasible, moderate current) must score higher than a
  // random infeasible design on average.
  const auto expert = c->evaluate(c->expert_design());
  ASSERT_TRUE(expert);
  const double expert_fom = ckt::fom_value(norm, *expert);
  double worse = 0.0;
  int n_rand = 0;
  for (int i = 0; i < 20; ++i) {
    const auto m = c->evaluate(rng.uniform_vec(c->dim()));
    if (!m || c->feasible(*m)) continue;
    worse += ckt::fom_value(norm, *m);
    ++n_rand;
  }
  ASSERT_GT(n_rand, 0);
  EXPECT_GT(expert_fom, worse / n_rand);
}

TEST(Fom, ClipsAtBound) {
  ckt::FomNormalization norm;
  norm.f_min = {0.0, 0.0};
  norm.f_max = {10.0, 100.0};
  norm.bound = {10.0, 60.0};
  norm.weight = {-1.0, 1.0};
  // Above the bound, extra constraint margin must not increase the FOM.
  const double at_bound = ckt::fom_value(norm, {5.0, 60.0});
  const double over = ckt::fom_value(norm, {5.0, 90.0});
  EXPECT_DOUBLE_EQ(at_bound, over);
}
