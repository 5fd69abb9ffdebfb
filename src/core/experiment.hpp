#pragma once
// Multi-seed experiment runner shared by the benchmark harness: runs a
// method across seeds, aggregates running-best traces into median/IQR bands
// and prints figure series / table rows in a uniform format.

#include <iostream>
#include <string>

#include "bo/drivers.hpp"
#include "circuits/factory.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace kato::core {

struct MethodSeries {
  std::string name;
  util::SeriesBand band;                ///< aggregated running-best traces
  std::vector<bo::RunResult> runs;
};

/// Seed list: 1..n with n from the KATO_SEEDS environment variable
/// (default `fallback`).
std::vector<std::uint64_t> seed_list(std::size_t fallback);

/// BoConfig trimmed for the benchmark suite so every figure/table finishes
/// in minutes on one core: smaller NSGA-II budget, tighter GP training-set
/// cap and sparser hyper-retraining.  The library defaults in bo::BoConfig
/// remain the recommended settings for real sizing runs.
inline bo::BoConfig bench_config() {
  bo::BoConfig cfg;
  cfg.nsga.population = 24;
  cfg.nsga.generations = 16;
  cfg.max_gp_points = 256;
  cfg.hyper_every = 3;
  cfg.gp_refit.iterations = 10;
  cfg.kat.init_iterations = 200;
  cfg.kat.refit_iterations = 25;
  return cfg;
}

/// One cross-design / cross-technology transfer experiment: frozen source
/// knowledge plus matched constrained-KATO series with and without it.
struct TransferComparison {
  bo::TransferSource source;
  MethodSeries with_transfer;     ///< "KATO-TL" (KAT-GP + STL, Alg. 1)
  MethodSeries without_transfer;  ///< "KATO"
};

/// Build `source_samples` random simulations of `source_circuit` into a
/// TransferSource and run the with/without-transfer comparison on `target`.
/// Works for any SizingCircuit pair — registered kinds, custom
/// SizingCircuit subclasses or netlist decks (see
/// `make_circuit("netlist:<path>", node)`) in any combination;
/// this is the harness behind the Fig. 6 panels and the netlist transfer
/// workflow.
TransferComparison run_transfer_comparison(
    const ckt::SizingCircuit& source_circuit, const ckt::SizingCircuit& target,
    std::size_t source_samples, const bo::BoConfig& config,
    const std::vector<std::uint64_t>& seeds,
    bo::KernelKind source_kernel = bo::KernelKind::rbf,
    std::uint64_t source_seed = 777);

MethodSeries run_constrained_series(const ckt::SizingCircuit& circuit,
                                    bo::ConstrainedMethod method,
                                    const bo::BoConfig& config,
                                    const std::vector<std::uint64_t>& seeds,
                                    const bo::TransferSource* source = nullptr,
                                    const std::string& label = "");

MethodSeries run_fom_series(const ckt::SizingCircuit& circuit,
                            const ckt::FomNormalization& norm,
                            bo::FomMethod method, const bo::BoConfig& config,
                            const std::vector<std::uint64_t>& seeds,
                            const bo::TransferSource* source = nullptr,
                            const std::string& label = "");

/// Print "simulations vs median [q25,q75]" rows for each method, sampled
/// every `stride` simulations — the text rendering of a Fig. 4/5/6 panel.
void print_series(std::ostream& os, const std::string& title,
                  const std::vector<MethodSeries>& methods, std::size_t stride);

/// Median number of simulations needed to first reach `target` (running-best
/// <= target for minimization, >= for maximization); simulations beyond the
/// trace count as trace-length + 1.  Used for the speedup numbers.
double median_sims_to_reach(const MethodSeries& series, double target,
                            bool minimize);

/// Best run (by final trace value) across seeds.
const bo::RunResult& best_run(const MethodSeries& series, bool minimize);

}  // namespace kato::core
