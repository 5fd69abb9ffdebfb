#include "gp/gp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "nn/mlp.hpp"
#include "obs/obs.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace kato::gp {

namespace {
constexpr double k_two_pi = 6.283185307179586;
}

GaussianProcess::GaussianProcess(std::unique_ptr<kern::Kernel> kernel)
    : kernel_(std::move(kernel)), log_noise_(std::log(1e-2)) {
  if (!kernel_) throw std::invalid_argument("GaussianProcess: null kernel");
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : kernel_(other.kernel_->clone()),
      log_noise_(other.log_noise_),
      x_(other.x_),
      y_std_(other.y_std_),
      y_mean_(other.y_mean_),
      y_sd_(other.y_sd_),
      post_(other.post_),
      kcache_(other.kcache_),
      fit_info_(other.fit_info_) {}

GaussianProcess& GaussianProcess::operator=(const GaussianProcess& other) {
  if (this == &other) return *this;
  kernel_ = other.kernel_->clone();
  log_noise_ = other.log_noise_;
  x_ = other.x_;
  y_std_ = other.y_std_;
  y_mean_ = other.y_mean_;
  y_sd_ = other.y_sd_;
  post_ = other.post_;
  kcache_ = other.kcache_;
  fit_info_ = other.fit_info_;
  return *this;
}

double GaussianProcess::noise_var() const { return std::exp(log_noise_); }

void GaussianProcess::set_data(la::Matrix x, la::Vector y, bool refresh) {
  if (x.rows() != y.size())
    throw std::invalid_argument("GaussianProcess::set_data: n mismatch");
  if (x.rows() == 0)
    throw std::invalid_argument("GaussianProcess::set_data: empty data");
  if (x.cols() != kernel_->input_dim())
    throw std::invalid_argument("GaussianProcess::set_data: dim mismatch");
  y_mean_ = util::mean(y);
  y_sd_ = util::stddev(y);
  if (y_sd_ < 1e-12) y_sd_ = 1.0;  // constant targets: keep scale identity
  x_ = std::move(x);
  y_std_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y_std_[i] = (y[i] - y_mean_) / y_sd_;
  if (refresh)
    refresh_posterior();
  else
    post_.reset();  // stale posterior must not outlive the data swap
}

double GaussianProcess::nll_and_grad(const la::Matrix& x, const la::Vector& y,
                                     std::vector<double>& grad) const {
  const std::size_t n = x.rows();
  la::Matrix k = kernel_->matrix(x);
  const double noise = std::max(std::exp(log_noise_), 1e-12);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += noise;

  // gp:chol_fail skips the zero-jitter rung as if the factorization had
  // failed, driving the escalating-jitter retry it exists to test.
  const int start =
      util::fault_fires(util::FaultSite::gp_chol_fail) ? 1 : 0;
  const auto chol = la::cholesky_jittered(k, start);
  if (chol.jitter > 0.0) obs::bo_count(obs::BoCounter::gp_jitter_retries);
  const la::Vector alpha = la::cholesky_solve(chol.l, y);
  const double logdet = la::cholesky_logdet(chol.l);
  const double nll = 0.5 * la::dot(y, alpha) + 0.5 * logdet +
                     0.5 * static_cast<double>(n) * std::log(k_two_pi);

  // dNLL/dK = 0.5 (K^-1 - alpha alpha^T).
  la::Matrix dk = la::cholesky_inverse(chol.l);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      dk(i, j) = 0.5 * (dk(i, j) - alpha[i] * alpha[j]);

  grad.assign(kernel_->n_params() + 1, 0.0);
  kernel_->backward(x, dk, std::span<double>(grad.data(), kernel_->n_params()));
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += dk(i, i);
  grad[kernel_->n_params()] = trace * noise;  // dK/d log sigma^2 = sigma^2 I
  return nll;
}

double GaussianProcess::nll_and_grad_ws(FitScratch& s, const la::Vector& y,
                                        std::vector<double>& grad) const {
  const std::size_t n = y.size();
  kernel_->matrix_ws(*s.ws, s.k);
  const double noise = std::max(std::exp(log_noise_), 1e-12);
  for (std::size_t i = 0; i < n; ++i) s.k(i, i) += noise;

  const int start =
      util::fault_fires(util::FaultSite::gp_chol_fail) ? 1 : 0;
  if (la::cholesky_jittered_into(s.k, s.l, start) > 0.0)
    obs::bo_count(obs::BoCounter::gp_jitter_retries);
  la::cholesky_solve_into(s.l, y, s.alpha, s.tmp);
  const double logdet = la::cholesky_logdet(s.l);
  const double nll = 0.5 * la::dot(y, s.alpha) + 0.5 * logdet +
                     0.5 * static_cast<double>(n) * std::log(k_two_pi);

  // dNLL/dK = 0.5 (K^-1 - alpha alpha^T), contracted from X = L^-1.
  la::lower_inverse_into(s.l, s.t);
  la::half_kinv_minus_outer_into(s.t, s.alpha, s.dk);

  grad.assign(kernel_->n_params() + 1, 0.0);
  kernel_->backward_ws(*s.ws, s.dk,
                       std::span<double>(grad.data(), kernel_->n_params()));
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += s.dk(i, i);
  grad[kernel_->n_params()] = trace * noise;  // dK/d log sigma^2 = sigma^2 I
  return nll;
}

void GaussianProcess::fit(const GpFitOptions& opts, util::Rng& rng) {
  KATO_OBS_SPAN("gp_fit");
  KATO_OBS_STAGE(gp_fit);
  if (x_.empty()) throw std::logic_error("GaussianProcess::fit: no data");

  // Hyper-training subset (full posterior still uses all points).
  la::Matrix xs = x_;
  la::Vector ys = y_std_;
  if (x_.rows() > opts.max_train_points) {
    const auto idx = rng.choice(x_.rows(), opts.max_train_points);
    xs = la::Matrix(opts.max_train_points, x_.cols());
    ys.resize(opts.max_train_points);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      xs.set_row(i, x_.row(idx[i]));
      ys[i] = y_std_[idx[i]];
    }
  }

  const std::size_t np = kernel_->n_params() + 1;
  nn::Adam adam(np, opts.lr);
  std::vector<double> grad;
  std::vector<double> best_params(np);
  double best_nll = std::numeric_limits<double>::infinity();

  // The workspace is bound to the subset once per fit: pairwise deltas are
  // computed here and every LML iteration below reuses the same buffers.
  FitScratch scratch;
  if (opts.use_workspace) scratch.ws = kernel_->fit_workspace(xs);

  auto pack = [&](std::vector<double>& out) {
    auto kp = kernel_->params();
    std::copy(kp.begin(), kp.end(), out.begin());
    out[np - 1] = log_noise_;
  };
  auto unpack = [&](const std::vector<double>& in) {
    auto kp = kernel_->params();
    std::copy(in.begin(), in.begin() + kp.size(), kp.begin());
    log_noise_ = in[np - 1];
  };

  std::vector<double> theta(np);
  pack(theta);
  int iters_run = 0;
  for (int it = 0; it < opts.iterations; ++it) {
    unpack(theta);
    double nll;
    try {
      nll = scratch.ws ? nll_and_grad_ws(scratch, ys, grad)
                       : nll_and_grad(xs, ys, grad);
    } catch (const std::runtime_error&) {
      break;  // kernel degenerated beyond the jitter ladder; keep best so far
    }
    ++iters_run;
    if (nll < best_nll) {
      best_nll = nll;
      best_params = theta;
    }
    adam.step(theta, grad);
    // Noise floor keeps the posterior numerically sane.
    theta[np - 1] = std::max(theta[np - 1], std::log(opts.min_noise));
  }
  if (std::isfinite(best_nll)) unpack(best_params);
  fit_info_ = {iters_run, best_nll, scratch.ws != nullptr};
  obs::bo_count(obs::BoCounter::gp_fits);
  obs::bo_count(obs::BoCounter::gp_fit_iters,
                static_cast<std::uint64_t>(iters_run));
  refresh_posterior();
}

void GaussianProcess::update_kernel_matrix() {
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  const auto params = kernel_->params();
  const bool same_hypers =
      kcache_.params.size() == params.size() &&
      std::memcmp(kcache_.params.data(), params.data(),
                  params.size() * sizeof(double)) == 0 &&
      std::memcmp(&kcache_.log_noise, &log_noise_, sizeof(double)) == 0;

  // Pair each row with a distinct cached row of the same bytes (duplicates
  // pair one to one, so an off-diagonal entry never picks up the noise of a
  // cached diagonal); unpaired rows are `fresh`.
  constexpr std::size_t k_fresh = static_cast<std::size_t>(-1);
  std::vector<std::size_t> old_row(n, k_fresh);
  std::vector<std::size_t> fresh;
  if (same_hypers) {
    const auto bytes = [d](const la::Matrix& m, std::size_t r) {
      return std::string_view(
          reinterpret_cast<const char*>(m.data().data() + r * d),
          d * sizeof(double));
    };
    std::unordered_map<std::string_view, std::vector<std::size_t>> cached;
    for (std::size_t r = kcache_.x.rows(); r-- > 0;)
      cached[bytes(kcache_.x, r)].push_back(r);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = cached.find(bytes(x_, i));
      if (it == cached.end() || it->second.empty()) {
        fresh.push_back(i);
        continue;
      }
      old_row[i] = it->second.back();
      it->second.pop_back();
    }
  }

  const double noise = std::max(std::exp(log_noise_), 1e-12);
  la::Matrix k;
  // cross() of the fresh rows costs |fresh| x n pairs, matrix() n^2 / 2.
  if (!same_hypers || 2 * fresh.size() >= n) {
    k = kernel_->matrix(x_);
    for (std::size_t i = 0; i < n; ++i) k(i, i) += noise;
  } else {
    k = la::Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (old_row[i] == k_fresh) continue;
      const auto src = kcache_.k.row(old_row[i]);
      auto dst = k.row(i);
      for (std::size_t j = 0; j < n; ++j)
        if (old_row[j] != k_fresh) dst[j] = src[old_row[j]];
    }
    la::Matrix xf(fresh.size(), d);
    for (std::size_t r = 0; r < fresh.size(); ++r) xf.set_row(r, x_.row(fresh[r]));
    const la::Matrix kf = kernel_->cross(xf, x_);
    for (std::size_t r = 0; r < fresh.size(); ++r) {
      const std::size_t i = fresh[r];
      for (std::size_t j = 0; j < n; ++j) {
        k(i, j) = kf(r, j);
        k(j, i) = kf(r, j);
      }
      k(i, i) += noise;
    }
  }
  kcache_.x = x_;
  kcache_.k = std::move(k);
  kcache_.params.assign(params.begin(), params.end());
  kcache_.log_noise = log_noise_;
}

void GaussianProcess::refresh_posterior() {
  update_kernel_matrix();
  const int start =
      util::fault_fires(util::FaultSite::gp_chol_fail) ? 1 : 0;
  auto chol = la::cholesky_jittered(kcache_.k, start);
  if (chol.jitter > 0.0) obs::bo_count(obs::BoCounter::gp_jitter_retries);
  auto p = std::make_shared<Posterior>();
  p->alpha = la::cholesky_solve(chol.l, y_std_);
  p->chol_l = std::move(chol.l);
  post_ = std::move(p);
}

const la::Matrix& GaussianProcess::Posterior::kinv() const {
  std::call_once(kinv_once_, [this] {
    la::Matrix x_scratch;
    la::cholesky_inverse_into(chol_l, kinv_, x_scratch);
  });
  return kinv_;
}

const GaussianProcess::Posterior& GaussianProcess::posterior() const {
  if (!post_) throw std::logic_error("GaussianProcess: posterior not ready");
  return *post_;
}

GpPrediction GaussianProcess::predict_std(std::span<const double> x) const {
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  la::Matrix xq(1, x.size());
  xq.set_row(0, x);
  const la::Matrix kx = kernel_->cross(xq, x_);  // 1 x n
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += kx(0, i) * p.alpha[i];
  // v = k(x,x) - k^T K^-1 k.
  la::Vector kv(n);
  for (std::size_t i = 0; i < n; ++i) kv[i] = kx(0, i);
  const la::Vector kinv_k = la::matvec(p.kinv(), kv);
  double var = kernel_->diag(x) - la::dot(kv, kinv_k);
  var = std::max(var, 1e-12);
  return {mean, var};
}

GpPrediction GaussianProcess::to_raw(GpPrediction p) const {
  p.mean = p.mean * y_sd_ + y_mean_;
  p.var *= y_sd_ * y_sd_;
  return p;
}

GpPrediction GaussianProcess::predict(std::span<const double> x) const {
  return to_raw(predict_std(x));
}

void GaussianProcess::predict_std_rows(const la::Matrix& xq, std::size_t q0,
                                       std::size_t q1,
                                       std::span<GpPrediction> out) const {
  const auto& p = posterior();
  if (xq.cols() != kernel_->input_dim())
    throw std::invalid_argument("predict_std_rows: dim mismatch");
  const std::size_t n = x_.rows();
  const std::size_t w = q1 - q0;
  la::Matrix xb(w, xq.cols());
  for (std::size_t j = 0; j < w; ++j) xb.set_row(j, xq.row(q0 + j));
  // Kernels with an input transform (Neuk) embed the training set once per
  // range instead of once per candidate.
  const la::Matrix kx = kernel_->cross(xb, x_);  // w x n

  // rhs = kx^T, then one forward sweep solves L V = rhs for all w candidates
  // together; var = k(x,x) - ||v||^2 column-wise.
  la::Matrix rhs(n, w);
  for (std::size_t j = 0; j < w; ++j)
    for (std::size_t k = 0; k < n; ++k) rhs(k, j) = kx(j, k);
  const la::Matrix v = la::solve_lower_multi(p.chol_l, std::move(rhs));
  la::Vector sumsq(w, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto row = v.row(k);
    for (std::size_t j = 0; j < w; ++j) sumsq[j] += row[j] * row[j];
  }
  for (std::size_t j = 0; j < w; ++j) {
    const double mean = la::dot(kx.row(j), p.alpha);
    const double var = std::max(kernel_->diag(xb.row(j)) - sumsq[j], 1e-12);
    out[j] = {mean, var};
  }
}

std::vector<GpPrediction> GaussianProcess::predict_std_batch(
    const la::Matrix& xq) const {
  std::vector<GpPrediction> out(xq.rows());
  util::parallel_for(xq.rows(), [&](std::size_t q0, std::size_t q1) {
    predict_std_rows(xq, q0, q1, std::span(out).subspan(q0, q1 - q0));
  });
  return out;
}

std::vector<GpPrediction> GaussianProcess::predict_batch(
    const la::Matrix& xq) const {
  auto out = predict_std_batch(xq);
  for (auto& p : out) p = to_raw(p);
  return out;
}

void GaussianProcess::predict_std_grad(std::span<const double> x,
                                       GpPrediction& pred, la::Vector& dmean_dx,
                                       la::Vector& dvar_dx) const {
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  const std::size_t d = x.size();
  la::Matrix xq(1, d);
  xq.set_row(0, x);
  const la::Matrix kx = kernel_->cross(xq, x_);
  la::Vector kv(n);
  for (std::size_t i = 0; i < n; ++i) kv[i] = kx(0, i);

  double mean = la::dot(kv, p.alpha);
  const la::Vector kinv_k = la::matvec(p.kinv(), kv);
  double var = std::max(kernel_->diag(x) - la::dot(kv, kinv_k), 1e-12);
  pred = {mean, var};

  // d mean/dx = (dk/dx)^T alpha ; d var/dx = -2 (dk/dx)^T K^-1 k.
  // (k(x,x) is constant in x for the stationary and Neuk kernels used here.)
  const la::Matrix dk_dx = kernel_->input_grad(x, x_);  // n x d
  dmean_dx.assign(d, 0.0);
  dvar_dx.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      dmean_dx[j] += dk_dx(i, j) * p.alpha[i];
      dvar_dx[j] += -2.0 * dk_dx(i, j) * kinv_k[i];
    }
  }
}

GpPrediction GaussianProcess::kinv_predict_one(const la::Matrix& kx,
                                               const la::Matrix& xq,
                                               std::size_t q,
                                               la::Vector& kinv_k) const {
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  const auto kv = kx.row(q);
  // kinv_k = K^-1 k; row-wise dot against the (exactly symmetric) inverse
  // reproduces la::matvec's summation order bit for bit.
  const la::Matrix& kinv = p.kinv();
  kinv_k.resize(n);
  for (std::size_t i = 0; i < n; ++i) kinv_k[i] = la::dot(kinv.row(i), kv);
  const double mean = la::dot(kv, p.alpha);
  const double var =
      std::max(kernel_->diag(xq.row(q)) - la::dot(kv, kinv_k), 1e-12);
  return {mean, var};
}

void GaussianProcess::predict_std_grad_batch(const la::Matrix& xq,
                                             std::vector<GpPrediction>& preds,
                                             la::Matrix& dmean_dx,
                                             la::Matrix& dvar_dx) const {
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  const std::size_t m = xq.rows();
  const std::size_t d = xq.cols();
  preds.resize(m);
  if (dmean_dx.rows() != m || dmean_dx.cols() != d) dmean_dx = la::Matrix(m, d);
  if (dvar_dx.rows() != m || dvar_dx.cols() != d) dvar_dx = la::Matrix(m, d);
  if (m == 0) return;

  // One cross-covariance for the whole block: input-transform kernels embed
  // the training set once per block instead of once per query.
  const la::Matrix kx = kernel_->cross(xq, x_);  // m x n

  util::parallel_for(m, [&](std::size_t q0, std::size_t q1) {
    la::Vector kinv_k(n);
    for (std::size_t q = q0; q < q1; ++q) {
      preds[q] = kinv_predict_one(kx, xq, q, kinv_k);

      const la::Matrix dk_dx = kernel_->input_grad(xq.row(q), x_);  // n x d
      auto dm = dmean_dx.row(q);
      auto dv = dvar_dx.row(q);
      for (std::size_t j = 0; j < d; ++j) {
        dm[j] = 0.0;
        dv[j] = 0.0;
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          dm[j] += dk_dx(i, j) * p.alpha[i];
          dv[j] += -2.0 * dk_dx(i, j) * kinv_k[i];
        }
      }
    }
  });
}

void GaussianProcess::predict_std_batch_exact(
    const la::Matrix& xq, std::vector<GpPrediction>& preds) const {
  const std::size_t n = x_.rows();
  const std::size_t m = xq.rows();
  preds.resize(m);
  if (m == 0) return;
  const la::Matrix kx = kernel_->cross(xq, x_);
  util::parallel_for(m, [&](std::size_t q0, std::size_t q1) {
    la::Vector kinv_k(n);
    for (std::size_t q = q0; q < q1; ++q)
      preds[q] = kinv_predict_one(kx, xq, q, kinv_k);
  });
}

double GaussianProcess::nll() const {
  std::vector<double> grad;
  // Reuse the training path on the full data (gradient discarded).
  return nll_and_grad(x_, y_std_, grad);
}

MultiGp::MultiGp(std::size_t n_metrics,
                 const std::function<std::unique_ptr<kern::Kernel>()>& make_kernel) {
  if (n_metrics == 0) throw std::invalid_argument("MultiGp: need >= 1 metric");
  gps_.reserve(n_metrics);
  for (std::size_t i = 0; i < n_metrics; ++i)
    gps_.emplace_back(make_kernel());
}

void MultiGp::set_data(const la::Matrix& x, const la::Matrix& y, bool refresh) {
  if (y.cols() != gps_.size())
    throw std::invalid_argument("MultiGp::set_data: metric count mismatch");
  // The per-metric posterior rebuilds are independent: refresh them on the
  // pool when more than one metric is present.
  util::parallel_for(gps_.size(), [&](std::size_t m0, std::size_t m1) {
    for (std::size_t m = m0; m < m1; ++m) {
      la::Vector col(y.rows());
      for (std::size_t i = 0; i < y.rows(); ++i) col[i] = y(i, m);
      gps_[m].set_data(x, std::move(col), refresh);
    }
  });
}

void MultiGp::fit(const GpFitOptions& opts, util::Rng& rng) {
  // Deterministic parallel training: every metric gets its own RNG stream,
  // split from the caller's in metric order *before* any work starts, so the
  // draw sequences — and therefore the fitted hyperparameters — are
  // bit-identical whether the metrics run on 1 thread or many.
  std::vector<util::Rng> rngs;
  rngs.reserve(gps_.size());
  for (std::size_t m = 0; m < gps_.size(); ++m) rngs.push_back(rng.split());
  util::parallel_for(gps_.size(), [&](std::size_t m0, std::size_t m1) {
    for (std::size_t m = m0; m < m1; ++m) gps_[m].fit(opts, rngs[m]);
  });
}

std::vector<GpPrediction> MultiGp::predict(std::span<const double> x) const {
  std::vector<GpPrediction> out;
  out.reserve(gps_.size());
  for (const auto& g : gps_) out.push_back(g.predict(x));
  return out;
}

std::vector<std::vector<GpPrediction>> MultiGp::predict_std_batch(
    const la::Matrix& xq) const {
  const std::size_t n_q = xq.rows();
  const std::size_t n_m = gps_.size();
  std::vector<std::vector<GpPrediction>> out(n_q,
                                             std::vector<GpPrediction>(n_m));
  if (n_q == 0) return out;
  // One pool pass over (metric x query range) cells.  With at least as many
  // metrics as workers each cell is a whole metric; otherwise every metric's
  // queries are split so that each worker still gets a cell.
  const std::size_t workers = util::thread_count();
  const std::size_t splits =
      n_m < workers ? std::min(n_q, (workers + n_m - 1) / n_m) : 1;
  const std::size_t rows_per_cell = (n_q + splits - 1) / splits;
  util::parallel_for(n_m * splits, [&](std::size_t c0, std::size_t c1) {
    std::vector<GpPrediction> block(rows_per_cell);
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t m = c / splits;
      const std::size_t q0 = (c % splits) * rows_per_cell;
      const std::size_t q1 = std::min(q0 + rows_per_cell, n_q);
      if (q0 >= q1) continue;
      gps_[m].predict_std_rows(xq, q0, q1, std::span(block).first(q1 - q0));
      for (std::size_t q = q0; q < q1; ++q) out[q][m] = block[q - q0];
    }
  });
  return out;
}

std::vector<std::vector<GpPrediction>> MultiGp::predict_batch(
    const la::Matrix& xq) const {
  auto out = predict_std_batch(xq);
  for (auto& row : out)
    for (std::size_t m = 0; m < row.size(); ++m)
      row[m] = gps_[m].to_raw(row[m]);
  return out;
}

}  // namespace kato::gp
