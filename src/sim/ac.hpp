#pragma once
// AC small-signal analysis: the circuit is linearized at a DC operating point
// (MOSFETs become gm/gds + gate caps, diodes become gd) and the complex MNA
// system (G + jwC) x = b is solved per frequency point.  Voltage sources with
// a nonzero `ac` field form the stimulus; everything else is quiet.
//
// The linearization consumes DcResult::mosfet_op, which solve_dc always
// fills from the analytic reference model at the converged voltages —
// regardless of whether the Newton loop ran the table or the analytic
// device path (sim::DeviceEval) — so the AC stamps themselves never carry
// interpolation error; only the operating point the table path converged to
// can differ, within the table's accuracy bound.

#include <complex>
#include <vector>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "sim/circuit.hpp"
#include "sim/dc.hpp"

namespace kato::sim {

struct AcSweep {
  std::vector<double> freq;                ///< Hz
  std::vector<la::CVector> node_voltage;   ///< per frequency, indexed by node
  bool ok = false;
  /// Solver-work counters for the sweep: points solved, complex-LU
  /// first-factor vs per-point refactor split (ac_refactors counts the
  /// sparse path's numeric refactorizations reusing the symbolic analysis).
  obs::SimStats stats;

  std::complex<double> v(std::size_t fi, int node) const {
    return node == 0 ? std::complex<double>(0.0, 0.0)
                     : node_voltage[fi][static_cast<std::size_t>(node)];
  }
};

/// Logarithmic frequency grid [f_lo, f_hi] with `per_decade` points/decade.
std::vector<double> log_freq_grid(double f_lo, double f_hi, int per_decade);

/// One linear capacitor between two nodes (either may be ground).
struct CapElement {
  int a;
  int b;
  double c;
};

/// Every linear capacitance in the circuit: explicit capacitors plus the
/// MOSFET parasitics (cgs/cgd/cdb) — the dynamic element set shared by the
/// AC and transient analyses, so both see identical circuit dynamics.
std::vector<CapElement> linear_caps(const Circuit& ckt);

/// Run the sweep.  `op` must come from a converged solve_dc on `ckt`.
/// One factorization workspace is kept across the whole sweep: the dense
/// path reuses its matrix/rhs buffers per frequency point, the sparse path
/// (chosen by `solver`/system size, see sim::MnaSolver) additionally reuses
/// the symbolic factorization — only the jwC entries change per point.
AcSweep solve_ac(const Circuit& ckt, const DcResult& op,
                 const std::vector<double>& freqs,
                 MnaSolver solver = MnaSolver::automatic);

// --- Transfer-function metric extraction (used for gain/GBW/PM/PSRR) ------

/// |H| in dB at the lowest frequency point.
double dc_gain_db(const AcSweep& sweep, int out_node);

/// Unity-gain frequency of |H(f)| = 1 (log-interpolated), or 0 when the
/// magnitude never crosses unity.
double unity_gain_freq(const AcSweep& sweep, int out_node);

/// Phase margin in degrees: 180 minus the unwrapped phase lag accumulated
/// between DC and the unity-gain crossing.  The sweep must start below the
/// dominant pole so the first grid point carries the DC phase; that
/// reference is snapped to the nearest multiple of 180 degrees, making the
/// result independent of output polarity.  Returns 0 when |H| never crosses
/// unity.
double phase_margin_deg(const AcSweep& sweep, int out_node);

/// |H| in dB at frequency f (nearest grid point).
double gain_db_at(const AcSweep& sweep, int out_node, double f);

/// Phase margin with the closed-loop stability screen behind the netlist
/// `pm()` measure (the OpAmp decks' PM spec): the raw margin is clamped to
/// [0, 180] degrees, and a margin >= 150 degrees means the unity crossing
/// happens through the compensation-cap feedforward path rather than the
/// amplifying path — the open-loop PM measurement is meaningless there, and
/// such designs ring in closed loop, so they report 0 (unstable).
double stable_phase_margin_deg(const AcSweep& sweep, int out_node);

}  // namespace kato::sim
