#pragma once
// Level-1-style MOSFET model with EKV-like smoothing.
//
// The square law is augmented with (a) a softplus-smoothed overdrive so the
// device transitions continuously from subthreshold (exponential) to strong
// inversion — this keeps DC Newton iterations differentiable everywhere —
// and (b) channel-length modulation lambda = lambda_coef / L, which captures
// the first-order sizing trade-off the paper's circuits optimize over
// (longer L -> smaller gds -> more gain; wider W -> more gm and more
// capacitance).  Temperature enters through Vt = kT/q, mobility scaling
// (T/300)^-1.5 and a -2 mV/K threshold drift, which is what the bandgap
// deck's .tsweep temperature sweep (circuits/netlists/bandgap.cir)
// exercises.
//
// Two evaluation entry points share the model:
//
//   * eval_mosfet — the historical per-call form (model + W/L + temp every
//     call).  This is the pinned reference: its arithmetic is frozen, and
//     the hoisted/table paths below are tested bit-identical against it.
//   * mos_precompute + eval_mosfet_pre — the hot-path form: the
//     temperature-dependent quantities (vth(T), kp(T), 2 n vt, lambda) are
//     hoisted once per (device, temp) into a MosPre, mirroring the
//     assembler's DiodePre, so the per-Newton evaluation does no pow/branch
//     work that the iterate can't change.  Bit-identical to eval_mosfet.
//
// mos_eval_normalized is the shared skeleton: it folds PMOS mirroring and
// reverse-vds drain/source swap into a normalized forward evaluation whose
// only transcendental content — veff(vov) and its derivative — is supplied
// by the caller (analytic softplus/logistic, or the precomputed
// DeviceTable; see sim/device_table.hpp).

#include <algorithm>
#include <cmath>

namespace kato::sim {

struct MosModel {
  bool nmos = true;
  double vth0 = 0.5;          ///< zero-bias threshold [V]
  double kp = 200e-6;         ///< mu Cox [A/V^2]
  double lambda_coef = 0.05e-6;  ///< channel-length modulation [V^-1 * m]
  double cox = 8e-3;          ///< gate capacitance per area [F/m^2]
  double cgdo = 0.3e-9;       ///< gate-drain overlap cap per width [F/m]
  double cj_w = 0.8e-9;       ///< drain junction cap per width [F/m]
  double subthreshold_n = 1.4;  ///< subthreshold slope factor
};

/// Small-signal operating point of one device.
struct MosOp {
  double ids = 0.0;  ///< drain current, positive into the drain (NMOS sense)
  double gm = 0.0;   ///< d ids / d vgs
  double gds = 0.0;  ///< d ids / d vds
  bool saturated = false;
};

/// Evaluate drain current and conductances.  Voltages are the *device*
/// terminal voltages (vgs, vds as seen at the nodes); PMOS and reversed-vds
/// operation are handled internally.  temp in Kelvin.
MosOp eval_mosfet(const MosModel& m, double w, double l, double vgs,
                  double vds, double temp = 300.0);

/// Numerically safe softplus / logistic.  Shared by the analytic model,
/// the hoisted hot path and the device-table builder/tails; the bodies
/// match the file-local versions the pinned eval_mosfet reference uses.
inline double mos_softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}
inline double mos_logistic(double x) {
  if (x > 30.0) return 1.0;
  if (x < -30.0) return std::exp(x);
  return 1.0 / (1.0 + std::exp(-x));
}

/// Per-device quantities that depend only on (model, W, L, temp) — never on
/// the Newton iterate.  Hoisted once per assembler (mirroring DiodePre) so
/// the per-iteration device loop touches five doubles per device.
struct MosPre {
  double sign;    ///< +1 NMOS, -1 PMOS (mirrors terminal voltages/current)
  double vth;     ///< vth0 - 2 mV/K * (T - 300)
  double nvt2;    ///< 2 * subthreshold_n * kT/q: overdrive smoothing scale
  double beta;    ///< kp * (T/300)^-1.5 * W / L
  double lambda;  ///< lambda_coef / L
};

/// Hoist the temperature/geometry terms of one device.
MosPre mos_precompute(const MosModel& m, double w, double l, double temp);

/// Analytic evaluation from a MosPre.  Bit-identical to eval_mosfet at the
/// same (model, W, L, temp) — pinned by device_table_test.
MosOp eval_mosfet_pre(const MosPre& p, double vgs, double vds);

/// Shared evaluation skeleton: normalize PMOS/reverse-vds onto a forward
/// NMOS-sense evaluation, obtain veff/dveff from `veff_fn(vov, veff,
/// dveff)`, apply the polynomial triode/saturation/CLM expressions of the
/// pinned reference (identical operations in identical order), then map the
/// result back.  Negations are exact in IEEE arithmetic, so the folded
/// normalization reproduces the reference's nested-call results bitwise.
template <typename VeffFn>
inline MosOp mos_eval_normalized(const MosPre& p, double vgs, double vds,
                                 VeffFn&& veff_fn) {
  const bool pmos = p.sign < 0.0;
  const double u_gs = pmos ? -vgs : vgs;
  const double u_ds = pmos ? -vds : vds;
  // Reference: forward when vds >= 0, else drain/source swap.
  const bool rev = !(u_ds >= 0.0);
  const double a_gs = rev ? u_gs - u_ds : u_gs;
  const double a_ds = rev ? -u_ds : u_ds;

  double veff;
  double dveff;
  veff_fn(a_gs - p.vth, veff, dveff);

  MosOp op;
  const double clm = 1.0 + p.lambda * a_ds;
  if (a_ds >= veff) {
    // Saturation.
    op.ids = 0.5 * p.beta * veff * veff * clm;
    op.gm = p.beta * veff * dveff * clm;
    op.gds = 0.5 * p.beta * veff * veff * p.lambda;
    op.saturated = true;
  } else {
    // Triode.
    op.ids = p.beta * (veff - 0.5 * a_ds) * a_ds * clm;
    op.gm = p.beta * a_ds * dveff * clm;
    op.gds =
        p.beta * ((veff - a_ds) * clm + (veff - 0.5 * a_ds) * a_ds * p.lambda);
    op.saturated = false;
  }
  // Floor conductances to keep the Newton Jacobian nonsingular when off.
  op.gds = std::max(op.gds, 1e-12);
  op.gm = std::max(op.gm, 0.0);

  if (rev) {
    // ids(vgs, vds) = -ids'(vgs - vds, -vds):
    //   d ids / d vgs = -gm', d ids / d vds = gm' + gds'.
    const double gm_f = op.gm;
    const double gds_f = op.gds;
    op.ids = -op.ids;
    op.gm = -gm_f;
    op.gds = gm_f + gds_f;
  }
  if (pmos) op.ids = -op.ids;
  return op;
}

/// Gate-source / gate-drain / drain-bulk small-signal capacitances used by
/// the AC analysis (saturation-region approximations).
struct MosCaps {
  double cgs = 0.0;
  double cgd = 0.0;
  double cdb = 0.0;
};
MosCaps mosfet_caps(const MosModel& m, double w, double l);

/// Thermal voltage kT/q.
double thermal_voltage(double temp);

}  // namespace kato::sim
