#pragma once
// DC operating-point analysis: Newton-Raphson on the MNA equations with
// voltage-step damping and gmin continuation for robustness across the whole
// sizing box (badly-sized candidates must still converge or fail cleanly —
// the BO drivers treat non-convergence as an infeasible design).

#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "sim/circuit.hpp"
#include "sim/mna.hpp"

namespace kato::sim {

struct DcOptions {
  int max_iterations = 200;
  double v_tol = 1e-9;        ///< convergence on max |dV|
  double max_step = 0.5;      ///< damping: max voltage change per iteration [V]
  double temp = 300.0;        ///< simulation temperature [K]
  /// gmin continuation ladder: solve with each gmin in order, warm-starting.
  /// The dense ladder matters: high-loop-gain circuits (the bandgap's
  /// cascoded regulation loop) fail to track coarser continuation.
  std::vector<double> gmin_ladder{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7,
                                  1e-8, 1e-9, 1e-10, 1e-11, 1e-12};
  /// When non-empty (index-parallel to ckt.vsources()), replaces each
  /// source's DC value in the branch equations — the transient engine uses
  /// this to bias the circuit at the waveform's t = 0 values.
  std::vector<double> vsource_override;
  /// Linear-solve path (dense vs sparse with symbolic reuse); `automatic`
  /// switches on system size, KATO_SPARSE overrides for A/B runs.
  MnaSolver solver = MnaSolver::automatic;
  /// Device-model path for the Newton loop (precomputed-table vs analytic
  /// MOSFET evaluation); `automatic` resolves to the table path.  The
  /// reported DcResult::mosfet_op is always the analytic reference model
  /// evaluated once at the converged operating point (it feeds the AC
  /// linearization and carries the exact saturation flag).
  DeviceEval device_eval = DeviceEval::automatic;
};

/// Per-rung accounting of the gmin continuation walk (diagnostics; the
/// failure reason names the rung and iteration budget from these).
struct DcRungStats {
  double gmin;
  std::uint32_t newton_iters;
  std::uint32_t damping_clamps;
  bool converged;
};

struct DcResult {
  bool converged = false;
  /// Failure description when !converged, with the continuation context
  /// baked in ("gmin rung 3/11, newton 25/25: Newton did not converge in 25
  /// iterations at gmin=0.0001"); empty on success.  Surfaced through
  /// NetlistCircuit infeasibility reporting.
  std::string reason;
  la::Vector node_voltage;          ///< index by node id (entry 0 = ground = 0)
  std::vector<double> vsource_current;  ///< branch current per voltage source
  std::vector<MosOp> mosfet_op;     ///< operating point per MOSFET
  std::vector<double> diode_gd;     ///< small-signal conductance per diode
  /// Solver-work counters for this solve (Newton iterations, LU
  /// first/refactor split, device-table cache hits, ...).
  obs::SimStats stats;
  /// One entry per gmin rung walked, in ladder order.
  std::vector<DcRungStats> rung_stats;

  double v(int node) const { return node_voltage[static_cast<std::size_t>(node)]; }
};

/// Solve the DC operating point.  `initial` (optional) warm-starts the node
/// voltages (used by temperature sweeps).
DcResult solve_dc(const Circuit& ckt, const DcOptions& opts = {},
                  const la::Vector* initial = nullptr);

}  // namespace kato::sim
