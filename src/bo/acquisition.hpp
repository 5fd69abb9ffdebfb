#pragma once
// Acquisition functions (paper Eqs. 5-7 and 13).
//
// Everything here uses the MINIMIZATION convention for the objective metric:
// the incumbent y_best is the smallest observed (feasible) value and
// improvement means going below it.  UCB is therefore the optimistic
// improvement max(y_best - mu + beta*sigma, 0) — clamped at zero so that the
// Eq. 13 product with the probability of feasibility stays monotone.

#include <vector>

#include "circuits/sizing_problem.hpp"
#include "gp/gp.hpp"

namespace kato::bo {

/// Standard normal PDF / CDF.
double norm_pdf(double z);
double norm_cdf(double z);

/// Expected improvement below y_best (Eq. 6, minimization form).
double expected_improvement(const gp::GpPrediction& p, double y_best);
/// Probability of improvement below y_best (Eq. 5).
double probability_of_improvement(const gp::GpPrediction& p, double y_best);
/// Optimistic improvement (UCB for minimization), clamped at zero (Eq. 7).
double ucb_improvement(const gp::GpPrediction& p, double y_best, double beta);

/// Probability of feasibility (Sec. 3.3): product over constraints of
/// Phi(+-(mu - bound)/sigma) following each spec's direction.
double probability_of_feasibility(const std::vector<gp::GpPrediction>& constraint_preds,
                                  const std::vector<ckt::MetricSpec>& specs);

/// Summed constraint violation of the predicted means, and its variant with
/// each violation divided by the prediction's sigma — the two violation
/// objectives of the full six-objective constrained MACE.
double total_violation(const std::vector<gp::GpPrediction>& constraint_preds,
                       const std::vector<ckt::MetricSpec>& specs);
double total_violation_scaled(const std::vector<gp::GpPrediction>& constraint_preds,
                              const std::vector<ckt::MetricSpec>& specs);

}  // namespace kato::bo
