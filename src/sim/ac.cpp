#include "sim/ac.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace kato::sim {

namespace {
constexpr double k_two_pi = 6.283185307179586;

using cd = std::complex<double>;

/// Emit every frequency-independent (conductance) entry of the linearized
/// MNA system as emit(row, col, value); ground-involving entries are
/// skipped.  Shared by the dense matrix fill and the sparse pattern/base
/// construction so both solve paths stamp identical values.
template <typename Emit>
void for_each_conductance(const Circuit& ckt, const DcResult& op, Emit&& emit) {
  const std::size_t n = ckt.n_nodes() - 1;
  auto idx = [](int node) { return static_cast<std::size_t>(node) - 1; };
  auto stamp = [&](int a, int b, double val) {
    if (a != 0 && b != 0) emit(idx(a), idx(b), val);
  };
  auto stamp_pair = [&](int a, int b, double val) {
    stamp(a, a, val);
    stamp(b, b, val);
    stamp(a, b, -val);
    stamp(b, a, -val);
  };

  for (const auto& r : ckt.resistors()) stamp_pair(r.a, r.b, 1.0 / r.r);
  for (const auto& c : ckt.vccs()) {
    stamp(c.p, c.cp, c.gm);
    stamp(c.p, c.cn, -c.gm);
    stamp(c.n, c.cp, -c.gm);
    stamp(c.n, c.cn, c.gm);
  }
  for (std::size_t i = 0; i < ckt.diodes().size(); ++i) {
    const auto& d = ckt.diodes()[i];
    stamp_pair(d.a, d.c, op.diode_gd[i]);
  }
  for (std::size_t i = 0; i < ckt.mosfets().size(); ++i) {
    const auto& mos = ckt.mosfets()[i];
    const auto& mop = op.mosfet_op[i];
    // gm: current into drain controlled by vgs.
    stamp(mos.d, mos.g, mop.gm);
    stamp(mos.d, mos.s, -mop.gm);
    stamp(mos.s, mos.g, -mop.gm);
    stamp(mos.s, mos.s, mop.gm);
    // gds between drain and source.
    stamp_pair(mos.d, mos.s, mop.gds);
  }
  // Voltage-source branch equations.
  const auto& vs = ckt.vsources();
  for (std::size_t k = 0; k < vs.size(); ++k) {
    const std::size_t bi = n + k;
    if (vs[k].p != 0) {
      emit(idx(vs[k].p), bi, 1.0);
      emit(bi, idx(vs[k].p), 1.0);
    }
    if (vs[k].n != 0) {
      emit(idx(vs[k].n), bi, -1.0);
      emit(bi, idx(vs[k].n), -1.0);
    }
  }
}

/// Four value-array slots of one capacitor's stamp (k_sparse_npos = ground).
struct CapSlots {
  std::size_t aa, bb, ab, ba;
  double c;
};

}  // namespace

std::vector<CapElement> linear_caps(const Circuit& ckt) {
  std::vector<CapElement> caps;
  for (const auto& c : ckt.capacitors()) caps.push_back({c.a, c.b, c.c});
  for (const auto& mos : ckt.mosfets()) {
    const MosCaps mc = mosfet_caps(mos.model, mos.w, mos.l);
    caps.push_back({mos.g, mos.s, mc.cgs});
    caps.push_back({mos.g, mos.d, mc.cgd});
    caps.push_back({mos.d, 0, mc.cdb});
  }
  return caps;
}

std::vector<double> log_freq_grid(double f_lo, double f_hi, int per_decade) {
  if (!(f_lo > 0.0) || !(f_hi > f_lo) || per_decade < 1)
    throw std::invalid_argument("log_freq_grid: bad range");
  const double e_lo = std::log10(f_lo);
  const double e_hi = std::log10(f_hi);
  const double step = 1.0 / per_decade;
  // Integer-indexed exponents: i * step accumulates no floating-point error,
  // so the point count is a pure function of the range (pinned in tests) —
  // the historical `e += step` loop could gain or drop the endpoint.
  const auto count =
      static_cast<std::size_t>(std::floor((e_hi - e_lo) / step + 1e-9)) + 1;
  std::vector<double> freqs(count);
  for (std::size_t i = 0; i < count; ++i)
    freqs[i] = std::pow(10.0, e_lo + static_cast<double>(i) * step);
  return freqs;
}

AcSweep solve_ac(const Circuit& ckt, const DcResult& op,
                 const std::vector<double>& freqs, MnaSolver solver) {
  KATO_OBS_SPAN("ac_sweep");
  KATO_OBS_STAGE(ac);
  AcSweep sweep;
  sweep.freq = freqs;
  if (!op.converged) return sweep;

  const std::size_t n = ckt.n_nodes() - 1;
  const std::size_t size = ckt.mna_size();
  const auto caps = linear_caps(ckt);

  la::CVector rhs_template(size, cd(0.0, 0.0));
  const auto& vs = ckt.vsources();
  for (std::size_t k = 0; k < vs.size(); ++k)
    rhs_template[n + k] = cd(vs[k].ac, 0.0);

  auto idx = [](int node) { return static_cast<std::size_t>(node) - 1; };
  auto emit_nodes = [&](const la::CVector& x) {
    la::CVector nodes(ckt.n_nodes(), cd(0.0, 0.0));
    for (std::size_t i = 0; i < n; ++i) nodes[i + 1] = x[i];
    sweep.node_voltage.push_back(std::move(nodes));
  };
  sweep.node_voltage.reserve(freqs.size());

  if (resolve_mna_solver(solver, size) == MnaSolver::sparse) {
    // Pattern + symbolic analysis once for the whole sweep: conductances
    // are baked into a base value array, each frequency point only rewrites
    // the jwC entries and runs a numeric refactorization.
    std::vector<la::Coord> coords;
    for_each_conductance(ckt, op, [&](std::size_t r, std::size_t c, double) {
      coords.push_back({r, c});
    });
    for (const auto& c : caps) {
      if (c.a != 0) coords.push_back({idx(c.a), idx(c.a)});
      if (c.b != 0) coords.push_back({idx(c.b), idx(c.b)});
      if (c.a != 0 && c.b != 0) {
        coords.push_back({idx(c.a), idx(c.b)});
        coords.push_back({idx(c.b), idx(c.a)});
      }
    }
    const la::SparsePattern pattern(size, coords);
    std::vector<cd> base(pattern.nnz(), cd(0.0, 0.0));
    for_each_conductance(ckt, op, [&](std::size_t r, std::size_t c, double v) {
      base[pattern.slot(r, c)] += cd(v, 0.0);
    });
    std::vector<CapSlots> cap_slots;
    cap_slots.reserve(caps.size());
    for (const auto& c : caps) {
      CapSlots cs{la::k_sparse_npos, la::k_sparse_npos, la::k_sparse_npos,
                  la::k_sparse_npos, c.c};
      if (c.a != 0) cs.aa = pattern.slot(idx(c.a), idx(c.a));
      if (c.b != 0) cs.bb = pattern.slot(idx(c.b), idx(c.b));
      if (c.a != 0 && c.b != 0) {
        cs.ab = pattern.slot(idx(c.a), idx(c.b));
        cs.ba = pattern.slot(idx(c.b), idx(c.a));
      }
      cap_slots.push_back(cs);
    }

    la::CSparseLu lu;
    lu.analyze(pattern);
    ++sweep.stats.lu_symbolic;
    std::vector<cd> vals;
    la::CVector x;
    for (double f : freqs) {
      vals = base;
      const double w = k_two_pi * f;
      for (const auto& cs : cap_slots) {
        const cd jwc(0.0, w * cs.c);
        if (cs.aa != la::k_sparse_npos) vals[cs.aa] += jwc;
        if (cs.bb != la::k_sparse_npos) vals[cs.bb] += jwc;
        if (cs.ab != la::k_sparse_npos) vals[cs.ab] -= jwc;
        if (cs.ba != la::k_sparse_npos) vals[cs.ba] -= jwc;
      }
      ++sweep.stats.ac_points;
      const bool first_factor = !lu.factored();
      if (!lu.factor(vals)) return sweep;  // ok stays false
      if (first_factor) {
        ++sweep.stats.lu_first_factors;
      } else {
        ++sweep.stats.lu_refactors;
        ++sweep.stats.ac_refactors;
      }
      lu.solve(rhs_template, x);
      for (const auto& v : x)
        if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) return sweep;
      emit_nodes(x);
    }
    sweep.ok = true;
    return sweep;
  }

  la::CMatrix g(size, size);
  for_each_conductance(ckt, op, [&](std::size_t r, std::size_t c, double v) {
    g(r, c) += cd(v, 0.0);
  });

  // One factorization workspace across the sweep: y/b/x keep their
  // allocations, each point refills them in place.
  la::CMatrix y;
  la::CVector b;
  la::CVector x;
  for (double f : freqs) {
    y = g;
    const double w = k_two_pi * f;
    for (const auto& c : caps) {
      const cd jwc(0.0, w * c.c);
      if (c.a != 0) y(idx(c.a), idx(c.a)) += jwc;
      if (c.b != 0) y(idx(c.b), idx(c.b)) += jwc;
      if (c.a != 0 && c.b != 0) {
        y(idx(c.a), idx(c.b)) -= jwc;
        y(idx(c.b), idx(c.a)) -= jwc;
      }
    }
    b = rhs_template;
    ++sweep.stats.ac_points;
    if (!la::lu_solve_complex_into(y, b, x)) return sweep;  // ok stays false
    // Dense path factors from scratch each point; count every post-first
    // factorization as a refactor so the first/rest split matches sparse.
    ++(sweep.stats.lu_first_factors == 0 ? sweep.stats.lu_first_factors
                                         : sweep.stats.lu_refactors);
    emit_nodes(x);
  }
  sweep.ok = true;
  return sweep;
}

double dc_gain_db(const AcSweep& sweep, int out_node) {
  if (!sweep.ok || sweep.freq.empty()) return -300.0;
  const double mag = std::abs(sweep.v(0, out_node));
  return 20.0 * std::log10(std::max(mag, 1e-15));
}

double unity_gain_freq(const AcSweep& sweep, int out_node) {
  if (!sweep.ok) return 0.0;
  for (std::size_t i = 1; i < sweep.freq.size(); ++i) {
    const double m0 = std::abs(sweep.v(i - 1, out_node));
    const double m1 = std::abs(sweep.v(i, out_node));
    if (m0 >= 1.0 && m1 < 1.0) {
      // Log-log interpolation of the crossing.
      const double l0 = std::log10(std::max(m0, 1e-15));
      const double l1 = std::log10(std::max(m1, 1e-15));
      const double t = l0 / (l0 - l1);
      return std::pow(10.0, std::log10(sweep.freq[i - 1]) +
                                t * (std::log10(sweep.freq[i]) -
                                     std::log10(sweep.freq[i - 1])));
    }
  }
  return 0.0;
}

double phase_margin_deg(const AcSweep& sweep, int out_node) {
  if (!sweep.ok) return 0.0;
  // Unwrap the phase starting from the DC point; the DC phase of a
  // positive-gain amplifier is ~0 (or 180 for inverting — unwrapping from
  // the actual start handles both).
  std::vector<double> phase(sweep.freq.size());
  double prev = std::arg(sweep.v(0, out_node));
  phase[0] = prev;
  for (std::size_t i = 1; i < phase.size(); ++i) {
    double p = std::arg(sweep.v(i, out_node));
    while (p - prev > M_PI) p -= 2.0 * M_PI;
    while (p - prev < -M_PI) p += 2.0 * M_PI;
    phase[i] = p;
    prev = p;
  }
  // Snap the reference to the nearest multiple of pi so an inverting output
  // (DC phase ~180) and small residual phase at the first grid point do not
  // corrupt the margin.
  const double ref = std::round(phase[0] / M_PI) * M_PI;
  for (std::size_t i = 1; i < sweep.freq.size(); ++i) {
    const double m0 = std::abs(sweep.v(i - 1, out_node));
    const double m1 = std::abs(sweep.v(i, out_node));
    if (m0 >= 1.0 && m1 < 1.0) {
      const double l0 = std::log10(std::max(m0, 1e-15));
      const double l1 = std::log10(std::max(m1, 1e-15));
      const double t = l0 / (l0 - l1);
      const double ph = phase[i - 1] + t * (phase[i] - phase[i - 1]);
      const double lag = (ph - ref) * 180.0 / M_PI;  // negative for stable amps
      return 180.0 + lag;
    }
  }
  return 0.0;
}

double stable_phase_margin_deg(const AcSweep& sweep, int out_node) {
  double pm = std::clamp(phase_margin_deg(sweep, out_node), 0.0, 180.0);
  if (pm >= 150.0) pm = 0.0;  // feedforward crossing: unstable in closed loop
  return pm;
}

double gain_db_at(const AcSweep& sweep, int out_node, double f) {
  if (!sweep.ok || sweep.freq.empty()) return -300.0;
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < sweep.freq.size(); ++i) {
    const double d = std::abs(std::log10(sweep.freq[i]) - std::log10(f));
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  const double mag = std::abs(sweep.v(best, out_node));
  return 20.0 * std::log10(std::max(mag, 1e-15));
}

}  // namespace kato::sim
