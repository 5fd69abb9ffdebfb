#include "bo/acquisition.hpp"

#include <cmath>
#include <stdexcept>

namespace kato::bo {

namespace {
constexpr double k_inv_sqrt_2pi = 0.3989422804014327;
constexpr double k_inv_sqrt_2 = 0.7071067811865476;
}  // namespace

double norm_pdf(double z) { return k_inv_sqrt_2pi * std::exp(-0.5 * z * z); }

double norm_cdf(double z) { return 0.5 * std::erfc(-z * k_inv_sqrt_2); }

double expected_improvement(const gp::GpPrediction& p, double y_best) {
  const double sigma = std::sqrt(std::max(p.var, 1e-18));
  const double z = (y_best - p.mean) / sigma;
  return (y_best - p.mean) * norm_cdf(z) + sigma * norm_pdf(z);
}

double probability_of_improvement(const gp::GpPrediction& p, double y_best) {
  const double sigma = std::sqrt(std::max(p.var, 1e-18));
  return norm_cdf((y_best - p.mean) / sigma);
}

double ucb_improvement(const gp::GpPrediction& p, double y_best, double beta) {
  const double sigma = std::sqrt(std::max(p.var, 1e-18));
  return std::max(y_best - p.mean + beta * sigma, 0.0);
}

double probability_of_feasibility(
    const std::vector<gp::GpPrediction>& constraint_preds,
    const std::vector<ckt::MetricSpec>& specs) {
  if (constraint_preds.size() != specs.size())
    throw std::invalid_argument("probability_of_feasibility: count mismatch");
  double pf = 1.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double sigma = std::sqrt(std::max(constraint_preds[i].var, 1e-18));
    const double margin = specs[i].is_lower_bound
                              ? constraint_preds[i].mean - specs[i].bound
                              : specs[i].bound - constraint_preds[i].mean;
    pf *= norm_cdf(margin / sigma);
  }
  return pf;
}

double total_violation(const std::vector<gp::GpPrediction>& constraint_preds,
                       const std::vector<ckt::MetricSpec>& specs) {
  if (constraint_preds.size() != specs.size())
    throw std::invalid_argument("total_violation: count mismatch");
  double v = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i)
    v += specs[i].violation(constraint_preds[i].mean);
  return v;
}

double total_violation_scaled(
    const std::vector<gp::GpPrediction>& constraint_preds,
    const std::vector<ckt::MetricSpec>& specs) {
  if (constraint_preds.size() != specs.size())
    throw std::invalid_argument("total_violation_scaled: count mismatch");
  double v = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double sigma = std::sqrt(std::max(constraint_preds[i].var, 1e-18));
    v += specs[i].violation(constraint_preds[i].mean) / sigma;
  }
  return v;
}

}  // namespace kato::bo
