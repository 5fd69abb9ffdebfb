#pragma once
// Experiment drivers: complete optimization loops for every method the paper
// evaluates, in both experiment modes.
//
// FOM mode (Sec. 4.1, Fig. 4): the scalar FOM of Eq. 2 is maximized.
//   Methods: KATO (NeukGP + Eq. 13 ensemble), MACE (RBF GP + acquisition
//   ensemble, Lyu et al. 2018), SMAC-RF (random forest + EI), random search,
//   and TLMBO-lite (GP with a source-model mean prior — the Gaussian-copula
//   technology-transfer baseline, see PAPER.md "Reproduction
//   substitutions").
//
// Constrained mode (Secs. 4.2-4.3, Figs. 5-6, Tables 1-2): minimize
//   metrics[0] subject to the circuit's specs.  Methods: KATO (modified
//   MACE, optional KAT-GP transfer with Selective Transfer Learning,
//   Alg. 1), full 6-objective MACE, MESMOC-lite (exploitation-heavy
//   feasible-LCB) and USEMOC-lite (uncertainty-driven), per PAPER.md
//   "Reproduction substitutions".
//
// Both modes run one BO loop (drivers.cpp): a random DOE, then per iteration
// a surrogate refit and one proposal batch, split between KAT-GP and the
// self-model by STL when a transfer source is present.  What differs by
// mode sits in one small scoring policy: the scalar a simulation is ranked
// by (feasible metrics[0] minimized, or the FOM maximized), feasibility,
// the surrogate's training targets (every metric, or -FOM), the order of
// the NSGA-II incumbent seeds, and whether the journal reports constraint
// violations.  The training-set cap also differs on purpose: constrained
// runs keep every feasible design plus the most recent ones, FOM runs the
// best half by FOM plus the most recent ones.
//
// Every driver consumes an explicit seed and returns the per-simulation
// running-best trace that the figure benches aggregate across seeds.

#include <memory>
#include <optional>

#include "bo/mace.hpp"
#include "circuits/sizing_problem.hpp"

namespace kato::bo {

inline gp::KatGpConfig default_kat_config() {
  gp::KatGpConfig c;
  c.init_iterations = 250;
  c.refit_iterations = 30;
  return c;
}

struct BoConfig {
  std::size_t batch = 4;        ///< simulations per BO iteration (N_B)
  std::size_t iterations = 25;  ///< BO iterations (N_I)
  std::size_t n_init = 10;      ///< initial random simulations
  double ucb_beta = 2.0;
  MaceVariant kato_variant = MaceVariant::modified;
  bool use_stl = true;          ///< Alg. 1 when a transfer source is present
  std::size_t max_gp_points = 320;  ///< surrogate training-set cap
  /// Hyperparameters are re-trained every `hyper_every` iterations; in
  /// between only the posterior is refreshed with the new data.
  std::size_t hyper_every = 2;
  /// First hyper-training budget vs the warm-started refit budget.  Every
  /// surrogate in the loop — the NeukGP/RBF self-models, the TLMBO residual
  /// GP, and (via KatGpConfig::refit_iterations) the KAT-GP — carries the
  /// previous optimum's hyperparameters into each refit and switches to the
  /// smaller `gp_refit` budget after its first fit.
  gp::GpFitOptions gp_initial{80, 0.05, 192, 1e-6};
  gp::GpFitOptions gp_refit{12, 0.03, 128, 1e-6};
  gp::KatGpConfig kat = default_kat_config();
  moo::Nsga2Options nsga{32, 20, 0.9, 15.0, 20.0, -1.0};
};

struct RunResult {
  /// Running best after each simulation: FOM mode = best FOM so far
  /// (maximize); constrained mode = best feasible objective so far
  /// (minimize; +inf until the first feasible design).
  std::vector<double> trace;
  std::vector<std::vector<double>> x_history;
  std::vector<std::optional<std::vector<double>>> metrics_history;
  std::vector<double> best_x;
  std::vector<double> best_metrics;  ///< empty if nothing feasible was found
  /// STL diagnostics: final weights (w_kat, w_self) of Alg. 1; 0:0 when
  /// STL is unused (no transfer source, use_stl=false, or a baseline).
  double stl_w_kat = 0.0;
  double stl_w_self = 0.0;
};

/// Frozen source-circuit knowledge for the transfer experiments: 200 random
/// simulations (paper Sec. 4.3) with per-metric GPs and a FOM-level GP.
struct TransferSource {
  std::size_t dim = 0;
  la::Matrix x;                                ///< valid sims only
  la::Matrix y;                                ///< metric matrix
  std::shared_ptr<gp::MultiGp> metric_model;   ///< for constrained KAT-GP
  std::shared_ptr<gp::MultiGp> fom_model;      ///< single-GP view for FOM mode
  ckt::FomNormalization fom_norm;
};

TransferSource build_transfer_source(const ckt::SizingCircuit& circuit,
                                     std::size_t n_samples, KernelKind kind,
                                     std::uint64_t seed);

enum class FomMethod { kato, mace, smac_rf, random_search, tlmbo };
enum class ConstrainedMethod { kato, mace_full, mesmoc, usemoc };

const char* to_string(FomMethod m);
const char* to_string(ConstrainedMethod m);

/// FOM-mode run.  `source` enables transfer for kato (KAT-GP + STL) and is
/// required for tlmbo.
RunResult run_fom(const ckt::SizingCircuit& circuit,
                  const ckt::FomNormalization& norm, FomMethod method,
                  const BoConfig& config, std::uint64_t seed,
                  const TransferSource* source = nullptr);

/// Constrained-mode run.  `source` enables KAT-GP + STL for kato.
RunResult run_constrained(const ckt::SizingCircuit& circuit,
                          ConstrainedMethod method, const BoConfig& config,
                          std::uint64_t seed,
                          const TransferSource* source = nullptr);

}  // namespace kato::bo
