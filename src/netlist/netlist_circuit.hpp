#pragma once
// NetlistCircuit: a SizingCircuit backed by a parsed SPICE-subset deck.
//
// The deck's `.var` lines become the DesignSpace, `.spec` lines the
// objective and MetricSpec constraints.  Each evaluate() binds the unit-box
// point to the sizing variables, re-elaborates the deck into a fresh
// sim::Circuit, runs DC (then AC and/or TRAN when any measure needs them)
// and computes the metric vector from the measure expressions:
//
//   isupply(vname)   current delivered by voltage source vname (positive =
//                    sourcing); a non-positive value marks the design as a
//                    simulation failure (the supply must deliver current)
//   ivsrc(vname)     raw branch current (p -> n) of source vname
//   vdc(node)        DC node voltage [V]
//   gain_db(node)    |H| in dB at the lowest AC frequency
//   ugf(node)        unity-gain frequency [Hz] (0 when never crossing)
//   pm(node)         phase margin [deg] with the closed-loop stability
//                    screen (sim::stable_phase_margin_deg)
//   gain_db_at(node, f)  |H| in dB at the grid point nearest f
//
// Transient measures (require a `.tran` line; see sim/transient.hpp for the
// exact definitions):
//
//   slew_rate(node)            10%-90% slew of the initial->final swing [V/s]
//   settling_time(node, frac)  time to stay within frac * |swing| of the
//                              final value [s]
//   overshoot(node)            peak excursion past the final value / |swing|
//   prop_delay(in, out)        50%-crossing delay between two nodes [s]
//   avg_power(vname)           time-average power delivered by the source
//                              [W]; non-positive marks a simulation failure
//   value_at(node, t)          node voltage at time t [V] (linear interp)
//   vmax(node) / vmin(node)    extreme node voltage over the run [V]
//
// Construction validates the whole pipeline eagerly — a trial elaboration
// at the mid-box point plus a walk of every measure expression — so decks
// with undefined params, dangling nodes, cyclic subckts, unknown measure
// names, AC measures without an `.ac` line or transient measures without a
// `.tran` line fail at load time with file/line diagnostics, not
// mid-optimization.
//
// Robust evaluation (.corner / .mc): each candidate expands into
// n_corners() x n_mc_samples() independent simulations.  A `.corner` card
// re-derives the constant table (vdd scaled by vdd_scale, every .param
// re-evaluated against the overridden builtins, explicit overrides taking
// precedence) and may override the temperature; `.mc K` perturbs every
// MOSFET's vth0/kp with per-sample deterministic draws (see
// apply_mos_mismatch).  Metrics aggregate per measure: first the adverse
// order-statistic quantile over the K mismatch samples within each corner
// (quantile=1 -> worst sample), then the worst over corners — "worst" is
// max for the objective and <=-bound constraints, min for >=-bound
// constraints.  Any failing condition fails the candidate, and
// evaluate_detailed() names the corner/sample that failed.

#include <map>
#include <memory>

#include "circuits/pdk.hpp"
#include "circuits/sizing_problem.hpp"
#include "netlist/elaborate.hpp"
#include "obs/obs.hpp"
#include "sim/device_table.hpp"

namespace kato::ckt {

class NetlistCircuit final : public SizingCircuit {
 public:
  NetlistCircuit(net::Deck deck, const Pdk& pdk);

  /// Parse `path` and bind it to `pdk`.  Throws std::invalid_argument when
  /// the file is unreadable, NetlistError on deck problems.
  static std::unique_ptr<NetlistCircuit> from_file(const std::string& path,
                                                   const Pdk& pdk);

  std::string name() const override {
    return "netlist-" + deck_.title + "-" + pdk_.name;
  }
  const DesignSpace& space() const override { return space_; }
  std::string objective_name() const override {
    return objective_.unit.empty() ? objective_.name
                                   : objective_.name + "(" + objective_.unit + ")";
  }
  const std::vector<MetricSpec>& constraints() const override { return specs_; }
  std::optional<std::vector<double>> evaluate(
      const std::vector<double>& unit_x) const override;
  /// Thread-parallel batch evaluation on the util/parallel pool: each
  /// candidate slot elaborates and simulates independently (the deck, PDK
  /// and parameter tables are read-only), so results are bit-identical to
  /// the serial loop at any KATO_THREADS.
  std::vector<std::optional<std::vector<double>>> evaluate_batch(
      const std::vector<std::vector<double>>& xs) const override;
  std::vector<double> expert_design() const override { return expert_; }

  /// evaluate() plus a human-readable failure reason: when `metrics` is
  /// empty, `failure` says which stage rejected the candidate (DC
  /// non-convergence carries the sim::DcResult reason, transient failures
  /// the sim::TranResult reason, measure guards the offending measure).
  struct EvalOutcome {
    std::optional<std::vector<double>> metrics;
    std::string failure;
    /// Solver-work counters summed over every analysis this evaluation ran
    /// (DC + AC + TRAN, and across every corner/MC condition when the deck
    /// fans out).  Also folded into the process-wide obs registry — one
    /// record per simulated condition — for the KATO_STATS exit dump.
    obs::SimStats stats;
  };
  EvalOutcome evaluate_detailed(const std::vector<double>& unit_x) const;

  /// Robust-evaluation fan-out shape.  Decks without .corner/.mc report a
  /// single nominal corner and one sample.
  std::size_t n_corners() const { return corners_.size(); }
  std::size_t n_mc_samples() const { return mc_samples_; }
  /// Corner display name (original spelling; "nominal" when the deck has
  /// no .corner cards).
  const std::string& corner_name(std::size_t corner) const {
    return corners_[corner].raw;
  }
  double mc_quantile() const { return mc_quantile_; }

  /// One (corner, mismatch sample) condition of the fan-out, un-aggregated
  /// — the building block golden tests hand-aggregate from.  `corner` <
  /// n_corners(), `sample` < n_mc_samples().
  EvalOutcome evaluate_single(const std::vector<double>& unit_x,
                              std::size_t corner, std::size_t sample) const;

  const net::Deck& deck() const { return deck_; }

  /// Device-model path for every DC/transient solve this circuit issues
  /// (table vs analytic MOSFET evaluation; sim::DeviceEval::automatic
  /// resolves to the table path).  Lets tests and benches A/B the two
  /// paths.
  void set_device_eval(sim::DeviceEval eval) { device_eval_ = eval; }
  sim::DeviceEval device_eval() const { return device_eval_; }

  /// Elaborate at a unit-box point without simulating (benchmarks, tests).
  net::Elaboration elaborate(const std::vector<double>& unit_x) const;

 private:
  /// Resolved .corner card: the re-derived constant table plus the optional
  /// temperature override.
  struct CornerSetup {
    std::string name;  ///< lowercased
    std::string raw;   ///< display name (failure reports)
    std::optional<double> temp;
    std::map<std::string, double> consts;  ///< corner .param values + builtins
  };

  std::map<std::string, double> bind_vars(const std::vector<double>& unit_x) const;
  /// True when metric index m (0 = objective) is better when smaller, i.e.
  /// its worst case over conditions is the maximum.
  bool smaller_better(std::size_t m) const {
    return m == 0 || !specs_[m - 1].is_lower_bound;
  }
  /// Worst-over-corners of the per-corner adverse MC quantile.  `conds` is
  /// the row-major [corner][sample] metric matrix; any missing entry
  /// (failed condition) yields nullopt.
  std::optional<std::vector<double>> aggregate(
      const std::vector<std::optional<std::vector<double>>>& conds) const;

  net::Deck deck_;
  Pdk pdk_;
  std::map<std::string, double> consts_;  ///< .param values + PDK builtins
  DesignSpace space_;
  net::SpecDef objective_;
  std::vector<MetricSpec> specs_;            ///< metrics[1..]
  std::vector<net::ExprPtr> spec_measures_;  ///< parallel to specs_
  std::vector<double> expert_;
  bool needs_ac_ = false;
  bool needs_tran_ = false;

  sim::DeviceEval device_eval_ = sim::DeviceEval::automatic;
  std::vector<CornerSetup> corners_;  ///< always >= 1 (nominal fallback)
  bool has_corner_cards_ = false;
  std::size_t mc_samples_ = 1;
  double vth_sigma_ = 0.0;
  double beta_sigma_ = 0.0;
  double mc_quantile_ = 1.0;  ///< adverse order-statistic rank fraction
};

}  // namespace kato::ckt
