#include "bo/drivers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "rf/random_forest.hpp"
#include "util/sampling.hpp"

namespace kato::bo {

namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

using Points = std::vector<std::vector<double>>;

// --- Run-journal helpers ---------------------------------------------------
// Journal emission is value-free: these helpers only read optimizer state
// and format strings, and every call site is gated on the state's captured
// journal flag, so a journaled run's RNG stream and arithmetic stay
// bit-identical to an unjournaled one (pinned by obs_test's ObsBo cases).

std::string config_json(const BoConfig& c, bool transfer) {
  obs::JsonObj o;
  o.uint("batch", c.batch)
      .uint("iterations", c.iterations)
      .uint("n_init", c.n_init)
      .num("ucb_beta", c.ucb_beta)
      .boolean("use_stl", c.use_stl)
      .uint("max_gp_points", c.max_gp_points)
      .uint("hyper_every", c.hyper_every)
      .boolean("transfer", transfer);
  return o.take();
}

/// New design points as an array of arrays, from index `from` on.
std::string points_json(const Points& xs, std::size_t from) {
  std::string out = "[";
  for (std::size_t i = from; i < xs.size(); ++i) {
    if (i != from) out += ',';
    out += obs::json_array(xs[i]);
  }
  out += ']';
  return out;
}

/// The acquisition vectors of the selected batches, in simulation order,
/// each design matched back into the Pareto set it was drawn from by exact
/// design-vector equality (select_batch copies rows verbatim; random
/// fill-ins that never sat on the front log as null).  Rows of `f` are the
/// negated acquisition objectives MACE minimizes.
std::string acq_json(const std::vector<moo::ParetoSet>& fronts,
                     const std::vector<Points>& batches) {
  std::string out = "[";
  for (std::size_t k = 0; k < fronts.size(); ++k) {
    const moo::ParetoSet& p = fronts[k];
    for (const auto& x : batches[k]) {
      if (out.size() > 1) out += ',';
      const auto hit = std::find(p.x.begin(), p.x.end(), x);
      out += hit != p.x.end() ? obs::json_array(p.f[hit - p.x.begin()]) : "null";
    }
  }
  out += ']';
  return out;
}

/// GP refit diagnostics from the objective GP (metric 0): NLL/iterations of
/// the last hyper-fit, current noise, and the kernel hyperparameters — in
/// full for small kernels, as dimension+norm for NeuK's weight vector so a
/// journal line stays bounded.
std::string gp_json(GpSurrogate& s, bool hyper, bool warm) {
  gp::GaussianProcess& g0 = s.model().metric(0);
  const gp::GpFitInfo& info = g0.last_fit_info();
  obs::JsonObj o;
  o.boolean("hyper", hyper)
      .boolean("warm", warm)
      .num("nll", info.best_nll)
      .num("fit_iters", info.iterations)
      .num("noise", g0.noise_var());
  const auto theta = g0.kernel().params();
  if (theta.size() <= 16) {
    o.raw("theta", obs::json_array({theta.begin(), theta.end()}));
  } else {
    double sq = 0.0;
    for (const double t : theta) sq += t * t;
    o.uint("n_theta", theta.size()).num("theta_norm", std::sqrt(sq));
  }
  return o.take();
}

const std::vector<ckt::MetricSpec> k_no_specs;

/// The per-mode scoring policy: everything the run loop does differently in
/// constrained mode (Secs. 4.2-4.3) and FOM mode (Sec. 4.1).  Each valid
/// simulation is ranked by one scalar loss the loop minimizes: metrics[0]
/// of a feasible design, or -FOM, where every valid design is feasible.
/// The incumbent loss is then also the acquisition's y_best in both modes.
class Scoring {
 public:
  /// Constrained mode when `fom` is null, FOM mode otherwise.
  explicit Scoring(const ckt::SizingCircuit& circuit,
                   const ckt::FomNormalization* fom = nullptr)
      : circuit_(circuit), fom_(fom) {}

  const ckt::SizingCircuit& circuit() const { return circuit_; }
  const char* mode() const { return fom_ ? "fom" : "constrained"; }

  double loss(const std::vector<double>& metrics) const {
    return fom_ ? -ckt::fom_value(*fom_, metrics) : metrics[0];
  }
  bool feasible(const std::vector<double>& metrics) const {
    return fom_ != nullptr || circuit_.feasible(metrics);
  }
  /// The running best as RunResult::trace and the journal report it: the
  /// best feasible objective (minimized) or the best FOM (maximized).
  double reported(double loss) const { return fom_ ? -loss : loss; }

  /// Surrogate outputs: every metric, or the single -FOM target.
  std::size_t n_targets() const { return fom_ ? 1 : circuit_.n_metrics(); }
  void set_target_row(la::Matrix& y, std::size_t r,
                      const std::vector<double>& metrics, double loss) const {
    if (fom_)
      y(r, 0) = loss;
    else
      y.set_row(r, metrics);
  }
  /// The specs MACE's feasibility terms read (none in FOM mode, where the
  /// probability of feasibility is exactly 1).
  const std::vector<ckt::MetricSpec>& specs() const {
    return fom_ ? k_no_specs : circuit_.constraints();
  }
  /// Only constrained runs journal the incumbent's constraint violations.
  bool journals_violation() const { return fom_ == nullptr; }

  /// Rows kept when the history exceeds the training-set cap (n > cap), in
  /// ascending order.  The two policies differ on purpose: constrained mode
  /// keeps every feasible design (they anchor the incumbent region), FOM
  /// mode the best half by FOM; both fill up with the most recent rest.
  std::vector<std::size_t> capped_rows(const std::vector<double>& loss,
                                       const std::vector<char>& feasible,
                                       std::size_t cap) const {
    std::vector<std::size_t> keep;
    if (fom_) {
      keep = seed_order(loss, feasible);
      keep.resize(cap / 2);
    } else {
      for (std::size_t i = 0; i < loss.size() && keep.size() < cap; ++i)
        if (feasible[i]) keep.push_back(i);
    }
    std::vector<char> taken(loss.size(), 0);
    for (const std::size_t i : keep) taken[i] = 1;
    for (std::size_t i = loss.size(); i-- > 0 && keep.size() < cap;)
      if (!taken[i]) keep.push_back(i);
    std::sort(keep.begin(), keep.end());
    return keep;
  }

  /// Feasible rows, best loss first (the NSGA-II incumbent seeds).
  /// Constrained mode breaks ties by simulation index; FOM mode, where the
  /// Eq. 2 clipping makes ties common, leaves them to std::sort.
  std::vector<std::size_t> seed_order(const std::vector<double>& loss,
                                      const std::vector<char>& feasible) const {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < loss.size(); ++i)
      if (feasible[i]) order.push_back(i);
    const bool by_index = fom_ == nullptr;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return loss[a] < loss[b] || (by_index && !(loss[b] < loss[a]) && a < b);
    });
    return order;
  }

 private:
  const ckt::SizingCircuit& circuit_;
  const ckt::FomNormalization* fom_;
};

/// One run's bookkeeping: simulate, record history, keep the running best
/// under the mode's scoring, build the surrogate's training set and journal.
class RunState {
 public:
  explicit RunState(const Scoring& scoring) : scoring_(scoring) {}

  /// Simulate a proposal batch through SizingCircuit::evaluate_batch
  /// (thread-parallel for circuits that override it), then record in
  /// submission order; returns which designs improved the incumbent.
  std::vector<char> simulate_batch(const Points& xs) {
    KATO_OBS_SPAN("simulate_batch");
    obs::bo_count(obs::BoCounter::proposal_batches);
    obs::bo_count(obs::BoCounter::proposals, xs.size());
    const std::uint64_t t0 = jon_ ? obs::trace_now_ns() : 0;
    const auto metrics = scoring_.circuit().evaluate_batch(xs);
    if (jon_) eval_ns_ += obs::trace_now_ns() - t0;
    std::vector<char> improved(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
      improved[i] = record(xs[i], metrics[i]) ? 1 : 0;
    return improved;
  }

  double best_loss() const { return best_; }
  std::size_t n_valid() const { return xs_.size(); }
  const Points& xs() const { return xs_; }
  const std::vector<double>& losses() const { return loss_; }

  /// Training matrices (targets per the scoring policy), capped at
  /// `max_points` rows by the policy's capped_rows().
  void training_data(std::size_t max_points, la::Matrix& x, la::Matrix& y) const {
    std::vector<std::size_t> keep(xs_.size());
    if (xs_.size() > max_points)
      keep = scoring_.capped_rows(loss_, feasible_, max_points);
    else
      std::iota(keep.begin(), keep.end(), std::size_t{0});
    x = la::Matrix(keep.size(), scoring_.circuit().dim());
    y = la::Matrix(keep.size(), scoring_.n_targets());
    for (std::size_t r = 0; r < keep.size(); ++r) {
      x.set_row(r, xs_[keep[r]]);
      scoring_.set_target_row(y, r, ys_[keep[r]], loss_[keep[r]]);
    }
  }

  /// Up to `count` best feasible designs (NSGA-II seeds).
  Points incumbent_seeds(std::size_t count) const {
    const auto order = scoring_.seed_order(loss_, feasible_);
    Points seeds;
    for (std::size_t k = 0; k < order.size() && k < count; ++k)
      seeds.push_back(xs_[order[k]]);
    return seeds;
  }

  // --- Run-journal emission (value-free; see helpers above) ---------------

  bool journal_on() const { return jon_; }

  void journal_begin(const char* method, const BoConfig& config,
                     std::uint64_t seed, bool transfer) {
    if (!jon_) return;
    const ckt::SizingCircuit& circuit = scoring_.circuit();
    obs::JsonObj o;
    o.str("event", "run_begin")
        .uint("run", jid_)
        .str("mode", scoring_.mode())
        .str("method", method)
        .str("circuit", circuit.name())
        .uint("dim", circuit.dim())
        .uint("n_metrics", circuit.n_metrics())
        .uint("seed", seed)
        .raw("config", config_json(config, transfer));
    obs::journal_write(o.take());
  }

  /// One progress record covering everything simulated since the previous
  /// one: the DOE batch ("doe"), a too-little-data random batch ("explore"),
  /// or a model-driven iteration ("propose", with GP/acquisition payloads).
  void journal_step(const char* phase, std::int64_t iter,
                    const std::string& gp, const std::string& acq) {
    if (!jon_) return;
    obs::JsonObj o;
    o.str("event", "iteration")
        .uint("run", jid_)
        .str("phase", phase)
        .num("iter", static_cast<double>(iter))
        .uint("sims", result_.trace.size());
    std::size_t ok = 0;
    std::size_t feas = 0;
    for (std::size_t i = jmark_; i < result_.metrics_history.size(); ++i)
      if (result_.metrics_history[i]) {
        ++ok;
        if (scoring_.feasible(*result_.metrics_history[i])) ++feas;
      }
    o.uint("n_prop", result_.trace.size() - jmark_)
        .uint("n_valid", ok)
        .uint("n_feasible", feas)
        .num("eval_ms", static_cast<double>(eval_ns_) / 1e6)
        .raw("proposals", points_json(result_.x_history, jmark_))
        .raw("trace", obs::json_array({result_.trace.begin() +
                                           static_cast<std::ptrdiff_t>(jmark_),
                                       result_.trace.end()}))
        .num("best", scoring_.reported(best_));
    if (has_violation()) o.raw("best_violation", violation_json());
    if (!gp.empty()) o.raw("gp", gp);
    if (!acq.empty()) o.raw("acq_f", acq);
    obs::journal_write(o.take());
    jmark_ = result_.trace.size();
    eval_ns_ = 0;
  }

  /// Close the run: journal run_end and hand over the result carrying the
  /// final STL weights.
  RunResult finish(double w_kat, double w_self) {
    if (jon_) {
      obs::JsonObj o;
      o.str("event", "run_end")
          .uint("run", jid_)
          .uint("sims", result_.trace.size())
          .num("best", scoring_.reported(best_))
          .raw("best_x", obs::json_array(result_.best_x));
      if (!result_.best_metrics.empty())
        o.raw("best_metrics", obs::json_array(result_.best_metrics));
      if (has_violation()) o.raw("best_violation", violation_json());
      o.num("stl_w_kat", w_kat)
          .num("stl_w_self", w_self)
          .raw("regret_curve", obs::json_array(result_.trace));
      obs::journal_write(o.take());
    }
    result_.stl_w_kat = w_kat;
    result_.stl_w_self = w_self;
    return std::move(result_);
  }

 private:
  bool record(const std::vector<double>& x,
              const std::optional<std::vector<double>>& metrics) {
    result_.x_history.push_back(x);
    result_.metrics_history.push_back(metrics);
    bool improved = false;
    if (metrics) {
      const double loss = scoring_.loss(*metrics);
      const bool feasible = scoring_.feasible(*metrics);
      xs_.push_back(x);
      ys_.push_back(*metrics);
      loss_.push_back(loss);
      feasible_.push_back(feasible ? 1 : 0);
      if (feasible && loss < best_) {
        best_ = loss;
        result_.best_x = x;
        result_.best_metrics = *metrics;
        improved = true;
      }
    }
    result_.trace.push_back(scoring_.reported(best_));
    return improved;
  }

  bool has_violation() const {
    return scoring_.journals_violation() && !result_.best_metrics.empty();
  }

  /// Constraint violations of the incumbent's metrics (0 when satisfied).
  std::string violation_json() const {
    const auto& specs = scoring_.specs();
    std::vector<double> v(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      v[i] = specs[i].violation(result_.best_metrics[i + 1]);
    return obs::json_array(v);
  }

  const Scoring& scoring_;
  RunResult result_;
  Points xs_;  ///< valid sims only, with their metrics, loss and feasibility
  Points ys_;
  std::vector<double> loss_;
  std::vector<char> feasible_;
  double best_ = k_inf;  ///< incumbent loss
  // Journal bookkeeping, captured once so one run is consistently journaled
  // or not.  jmark_ is the history index at the last emitted step; eval_ns_
  // accumulates simulate_batch wall time between steps.
  const bool jon_ = obs::journal_enabled();
  const std::uint64_t jid_ = jon_ ? obs::journal_next_run_id() : 0;
  std::size_t jmark_ = 0;
  std::uint64_t eval_ns_ = 0;
};

/// Scored-pool proposals (MESMOC-lite, USEMOC-lite, SMAC-RF): a candidate
/// pool of random exploration plus Gaussian perturbations of the incumbent
/// seeds, scored by `score_pool` (one score per candidate, higher is
/// better), then the greedy top `k` distinct candidates.
template <typename ScorePool>
Points pool_proposals(const Points& seeds, std::size_t k, std::size_t dim,
                      util::Rng& rng, ScorePool score_pool) {
  Points pool;
  for (int i = 0; i < 1200; ++i) pool.push_back(rng.uniform_vec(dim));
  for (const auto& s : seeds)
    for (int i = 0; i < 80; ++i) {
      auto x = s;
      for (auto& v : x) v = std::clamp(v + 0.05 * rng.normal(), 0.0, 1.0);
      pool.push_back(std::move(x));
    }
  const std::vector<double> scores = score_pool(pool);
  std::vector<std::pair<double, std::vector<double>>> scored;
  scored.reserve(pool.size());
  for (std::size_t c = 0; c < pool.size(); ++c)
    scored.push_back({scores[c], std::move(pool[c])});
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  Points batch;
  for (const auto& [score, x] : scored) {
    if (batch.size() >= k) break;
    bool dup = false;
    for (const auto& chosen : batch) {
      double d2 = 0.0;
      for (std::size_t j = 0; j < dim; ++j)
        d2 += (x[j] - chosen[j]) * (x[j] - chosen[j]);
      if (d2 < 1e-6) {
        dup = true;
        break;
      }
    }
    if (!dup) batch.push_back(x);
  }
  while (batch.size() < k) batch.push_back(rng.uniform_vec(dim));
  return batch;
}

/// GP surrogate whose mean is offset by a frozen source model — the
/// TLMBO-lite technology-transfer baseline (see PAPER.md, "Reproduction
/// substitutions").
class ResidualSurrogate final : public Surrogate {
 public:
  ResidualSurrogate(const gp::MultiGp* source, std::size_t dim,
                    const gp::GpFitOptions& initial_fit,
                    const gp::GpFitOptions& refit, util::Rng& rng)
      : source_(source),
        residual_(dim, 1, KernelKind::rbf, initial_fit, refit, rng) {}

  std::string name() const override { return "tlmbo"; }
  std::size_t n_metrics() const override { return 1; }
  std::size_t input_dim() const override { return residual_.input_dim(); }

  void refit(const la::Matrix& x, const la::Matrix& y, util::Rng& rng,
             bool train_hyper = true) override {
    la::Matrix res(x.rows(), 1);
    const auto src_preds = source_->metric(0).predict_batch(x);
    for (std::size_t i = 0; i < x.rows(); ++i)
      res(i, 0) = y(i, 0) - src_preds[i].mean;
    residual_.refit(x, res, rng, train_hyper);
  }

  std::vector<gp::GpPrediction> predict(std::span<const double> x) const override {
    const auto src = source_->metric(0).predict(x);
    auto pred = residual_.predict(x);
    pred[0].mean += src.mean;
    pred[0].var += 0.25 * src.var;  // deflated: the source is a prior, not data
    return pred;
  }

  std::vector<std::vector<gp::GpPrediction>> predict_batch(
      const la::Matrix& xq) const override {
    const auto src = source_->metric(0).predict_batch(xq);
    auto preds = residual_.predict_batch(xq);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      preds[i][0].mean += src[i].mean;
      preds[i][0].var += 0.25 * src[i].var;
    }
    return preds;
  }

 private:
  const gp::MultiGp* source_;
  GpSurrogate residual_;
};

/// How a method proposes each batch.
enum class Proposer { mace, mesmoc, usemoc, smac_rf, random_search };

/// One method as the run loop sees it.
struct Method {
  const char* name = "?";
  Proposer proposer = Proposer::mace;
  MaceVariant variant = MaceVariant::modified;
  KernelKind kernel = KernelKind::rbf;      ///< self-model GP kernel
  const gp::MultiGp* kat_source = nullptr;  ///< KAT-GP transfer (Sec. 3.2)
  double kat_samples = 0.0;                 ///< its initial STL weight (Alg. 1)
  const gp::MultiGp* prior = nullptr;       ///< TLMBO: residual GP over this
};

/// The BO loop of every method in both modes: DOE, then per iteration a
/// surrogate refit (self-model, then KAT-GP) and one proposal batch, with
/// Alg. 1's STL split of MACE batches when a transfer source is present.
/// RNG draws keep one order: refit self then KAT, propose KAT then self,
/// select KAT then self.
RunResult run_bo(const Scoring& scoring, const Method& method,
                 const BoConfig& config, std::uint64_t seed) {
  util::Rng rng(seed);
  RunState state(scoring);
  const std::size_t dim = scoring.circuit().dim();

  // Draws consume the RNG stream in the same order as the historical
  // one-point-at-a-time loop; evaluation happens as one (possibly
  // thread-parallel) batch.
  auto random_batch = [&](std::size_t count) {
    Points pts;
    pts.reserve(count);
    for (std::size_t i = 0; i < count; ++i) pts.push_back(rng.uniform_vec(dim));
    return pts;
  };

  const bool transfer = method.kat_source != nullptr;
  state.journal_begin(method.name, config, seed, transfer);

  // Initial random design set (DOE).
  (void)state.simulate_batch(random_batch(config.n_init));
  state.journal_step("doe", -1, "", "");

  if (method.proposer == Proposer::random_search) {
    (void)state.simulate_batch(random_batch(config.batch * config.iterations));
    state.journal_step("propose", 0, "", "");
    return state.finish(0.0, 0.0);
  }

  // Surrogates: the self-model (a GP per target, or TLMBO's residual GP;
  // none for SMAC-RF, whose forest is refit from scratch) and KAT-GP.
  util::Rng model_rng = rng.split();
  std::unique_ptr<Surrogate> self_model;
  if (method.prior != nullptr)
    self_model = std::make_unique<ResidualSurrogate>(
        method.prior, dim, config.gp_initial, config.gp_refit, model_rng);
  else if (method.proposer != Proposer::smac_rf)
    self_model = std::make_unique<GpSurrogate>(
        dim, scoring.n_targets(), method.kernel, config.gp_initial,
        config.gp_refit, model_rng);
  std::unique_ptr<KatSurrogate> kat_model;
  if (transfer)
    kat_model = std::make_unique<KatSurrogate>(
        method.kat_source, dim, scoring.n_targets(), config.kat, model_rng);
  // GP view of the self-model for the journal's gp payload (null for TLMBO).
  auto* gp_view = dynamic_cast<GpSurrogate*>(self_model.get());
  rf::RandomForest forest;

  // STL weights (Alg. 1), indexed like the proposal sets below (KAT-GP,
  // self-model): initialized with the sample counts when STL splits the
  // batch, reported as 0:0 when it does not.
  const bool stl = transfer && config.use_stl;
  std::array<double, 2> w = {0.0, 0.0};
  if (stl) w = {method.kat_samples, static_cast<double>(config.n_init)};

  MaceOptions mace_opts;
  mace_opts.variant = method.variant;
  mace_opts.ucb_beta = config.ucb_beta;
  mace_opts.nsga = config.nsga;

  bool gp_fitted = false;  // first refit is a cold initial fit
  for (std::size_t it = 0; it < config.iterations; ++it) {
    const auto iter = static_cast<std::int64_t>(it);
    if (state.n_valid() < 4) {  // not enough data to model: explore
      (void)state.simulate_batch(random_batch(config.batch));
      state.journal_step("explore", iter, "", "");
      continue;
    }
    const double y_best = state.best_loss();
    const auto seeds = state.incumbent_seeds(4);
    std::string gp_info;
    std::string acq;

    if (self_model) {
      la::Matrix x;
      la::Matrix y;
      state.training_data(config.max_gp_points, x, y);
      // Warm-started refits: both surrogates keep their previous optimum's
      // hyperparameters and, after the first fit, train on the smaller
      // gp_refit / KatGpConfig::refit_iterations budget.  Posterior-only
      // iterations skip hyper-training entirely.
      const bool hyper = it % config.hyper_every == 0;
      // What the surrogate actually does (it forces an initial fit when none
      // has run yet) — recorded in the journal's gp payload.
      const bool eff_hyper = hyper || !gp_fitted;
      const bool gp_warm = eff_hyper && gp_fitted;
      self_model->refit(x, y, model_rng, hyper);
      if (kat_model) kat_model->refit(x, y, model_rng, hyper);
      gp_fitted = true;
      if (state.journal_on() && gp_view != nullptr)
        gp_info = gp_json(*gp_view, eff_hyper, gp_warm);
    }

    switch (method.proposer) {
      case Proposer::mace: {
        // With STL the batch is split between KAT-GP's and the self-model's
        // proposal sets by weight; without it one model proposes the whole
        // batch (KAT-GP alone when transferring: the ablation mode).
        std::vector<const Surrogate*> models;
        std::vector<std::size_t> counts;
        if (stl) {
          const auto n_kat = static_cast<std::size_t>(std::lround(
              w[0] / (w[0] + w[1]) * static_cast<double>(config.batch)));
          models = {kat_model.get(), self_model.get()};
          counts = {n_kat, config.batch - n_kat};
        } else {
          models = {kat_model ? kat_model.get() : self_model.get()};
          counts = {config.batch};
        }
        std::vector<moo::ParetoSet> fronts;
        for (const Surrogate* m : models)
          fronts.push_back(mace_proposals(*m, scoring.specs(), y_best,
                                          mace_opts, rng, seeds));
        std::vector<Points> batches;
        for (std::size_t k = 0; k < fronts.size(); ++k)
          batches.push_back(select_batch(fronts[k], counts[k], dim, rng));
        if (state.journal_on()) acq = acq_json(fronts, batches);
        for (std::size_t k = 0; k < batches.size(); ++k)
          for (const char improved : state.simulate_batch(batches[k]))
            if (improved && stl) w[k] += 1.0;  // Eq. 14
        break;
      }
      case Proposer::mesmoc:
      case Proposer::usemoc: {
        const bool mesmoc = method.proposer == Proposer::mesmoc;
        const auto& specs = scoring.specs();
        (void)state.simulate_batch(pool_proposals(
            seeds, config.batch, dim, rng, [&](const Points& pool) {
              const auto all_preds =
                  self_model->predict_batch(la::Matrix::from_points(pool));
              std::vector<double> scores;
              scores.reserve(pool.size());
              for (const auto& preds : all_preds) {
                const std::vector<gp::GpPrediction> cons(preds.begin() + 1,
                                                         preds.end());
                const double pf = probability_of_feasibility(cons, specs);
                if (mesmoc) {
                  // Exploitation-heavy feasible lower-confidence-bound (see
                  // PAPER.md, "Reproduction substitutions").
                  const double lcb = std::isfinite(y_best)
                                         ? ucb_improvement(preds[0], y_best, 0.5)
                                         : 1.0;
                  scores.push_back(pf * lcb);
                } else {
                  // Uncertainty-aware search: total predictive spread gated
                  // by PF.
                  double spread = 0.0;
                  for (const auto& p : preds)
                    spread += std::sqrt(std::max(p.var, 0.0));
                  scores.push_back(spread * std::sqrt(pf));
                }
              }
              return scores;
            }));
        break;
      }
      case Proposer::smac_rf: {
        forest.fit(state.xs(), state.losses(), model_rng);
        (void)state.simulate_batch(pool_proposals(
            seeds, config.batch, dim, rng, [&](const Points& pool) {
              std::vector<double> scores;
              scores.reserve(pool.size());
              for (const auto& cand : pool) {
                const auto p = forest.predict(cand);
                scores.push_back(expected_improvement({p.mean, p.var}, y_best));
              }
              return scores;
            }));
        break;
      }
      case Proposer::random_search:
        break;  // the whole budget was drawn above
    }
    state.journal_step("propose", iter, gp_info, acq);
  }

  return state.finish(w[0], w[1]);
}

}  // namespace

const char* to_string(FomMethod m) {
  switch (m) {
    case FomMethod::kato: return "KATO";
    case FomMethod::mace: return "MACE";
    case FomMethod::smac_rf: return "SMAC-RF";
    case FomMethod::random_search: return "RS";
    case FomMethod::tlmbo: return "TLMBO";
  }
  return "?";
}

const char* to_string(ConstrainedMethod m) {
  switch (m) {
    case ConstrainedMethod::kato: return "KATO";
    case ConstrainedMethod::mace_full: return "MACE";
    case ConstrainedMethod::mesmoc: return "MESMOC";
    case ConstrainedMethod::usemoc: return "USEMOC";
  }
  return "?";
}

TransferSource build_transfer_source(const ckt::SizingCircuit& circuit,
                                     std::size_t n_samples, KernelKind kind,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  TransferSource src;
  src.dim = circuit.dim();
  src.fom_norm = ckt::calibrate_fom(circuit, 200, rng);

  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> ys;
  std::vector<double> foms;
  while (xs.size() < n_samples) {
    const auto x = rng.uniform_vec(circuit.dim());
    const auto m = circuit.evaluate(x);
    if (!m) continue;
    xs.push_back(x);
    ys.push_back(*m);
    foms.push_back(ckt::fom_value(src.fom_norm, *m));
  }
  src.x = la::Matrix::from_points(xs);
  src.y = la::Matrix(ys.size(), circuit.n_metrics());
  for (std::size_t i = 0; i < ys.size(); ++i) src.y.set_row(i, ys[i]);

  gp::GpFitOptions fit;
  fit.iterations = 120;
  util::Rng fit_rng = rng.split();
  src.metric_model = std::make_shared<gp::MultiGp>(
      circuit.n_metrics(), [&] { return make_kernel(kind, circuit.dim(), fit_rng); });
  src.metric_model->set_data(src.x, src.y);
  src.metric_model->fit(fit, fit_rng);

  // Single-output view for FOM-mode transfer: model -FOM (minimization).
  la::Matrix neg_fom(foms.size(), 1);
  for (std::size_t i = 0; i < foms.size(); ++i) neg_fom(i, 0) = -foms[i];
  src.fom_model = std::make_shared<gp::MultiGp>(
      1, [&] { return make_kernel(kind, circuit.dim(), fit_rng); });
  src.fom_model->set_data(src.x, neg_fom);
  src.fom_model->fit(fit, fit_rng);
  return src;
}

// ---------------------------------------------------------------------------
// Public entry points: map each method onto the run loop.

RunResult run_constrained(const ckt::SizingCircuit& circuit,
                          ConstrainedMethod method, const BoConfig& config,
                          std::uint64_t seed, const TransferSource* source) {
  Method m;
  m.name = to_string(method);
  switch (method) {
    case ConstrainedMethod::kato:
      m.variant = config.kato_variant;
      m.kernel = KernelKind::neuk;
      if (source != nullptr) {
        m.kat_source = source->metric_model.get();
        m.kat_samples = static_cast<double>(source->x.rows());
      }
      break;
    case ConstrainedMethod::mace_full:
      m.variant = MaceVariant::full;
      break;
    case ConstrainedMethod::mesmoc:
      m.proposer = Proposer::mesmoc;
      break;
    case ConstrainedMethod::usemoc:
      m.proposer = Proposer::usemoc;
      break;
  }
  return run_bo(Scoring(circuit), m, config, seed);
}

RunResult run_fom(const ckt::SizingCircuit& circuit,
                  const ckt::FomNormalization& norm, FomMethod method,
                  const BoConfig& config, std::uint64_t seed,
                  const TransferSource* source) {
  if (method == FomMethod::tlmbo && source == nullptr)
    throw std::invalid_argument("run_fom: tlmbo requires a transfer source");
  if (config.kato_variant != MaceVariant::modified)
    throw std::invalid_argument(
        "run_fom: kato_variant is constrained mode only (FOM mode proposes "
        "from the modified 3-objective front)");
  Method m;
  m.name = to_string(method);
  switch (method) {
    case FomMethod::kato:
      m.kernel = KernelKind::neuk;
      if (source != nullptr) {
        m.kat_source = source->fom_model.get();
        m.kat_samples = static_cast<double>(source->x.rows());
      }
      break;
    case FomMethod::mace:
      break;
    case FomMethod::smac_rf:
      m.proposer = Proposer::smac_rf;
      break;
    case FomMethod::random_search:
      m.proposer = Proposer::random_search;
      break;
    case FomMethod::tlmbo:
      m.prior = source->fom_model.get();
      break;
  }
  return run_bo(Scoring(circuit, &norm), m, config, seed);
}

}  // namespace kato::bo
