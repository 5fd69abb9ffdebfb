#include "circuits/opamp.hpp"

#include <algorithm>
#include <cmath>

#include "sim/ac.hpp"
#include "sim/dc.hpp"

namespace kato::ckt {

namespace {

/// OpAmp AC measurement: differential stimulus already wired into the
/// circuit; extracts [Itotal(uA), Gain(dB), PM(deg), GBW(MHz)].
std::optional<std::vector<double>> measure_opamp(const sim::Circuit& ckt,
                                                 int out_node,
                                                 int vdd_source_index) {
  const auto op = sim::solve_dc(ckt);
  if (!op.converged) return std::nullopt;
  // Branch current convention: positive flows p -> n through the source, so
  // a supply delivering current has a negative branch current.
  const double i_total = -op.vsource_current[static_cast<std::size_t>(vdd_source_index)];
  if (!(i_total > 0.0)) return std::nullopt;  // supply must deliver current

  const auto sweep = sim::solve_ac(ckt, op, sim::log_freq_grid(1.0, 20e9, 12));
  if (!sweep.ok) return std::nullopt;

  const double gain_db = sim::dc_gain_db(sweep, out_node);
  const double gbw = sim::unity_gain_freq(sweep, out_node);
  const double pm = sim::stable_phase_margin_deg(sweep, out_node);
  return std::vector<double>{i_total * 1e6, gain_db, pm, gbw / 1e6};
}

}  // namespace

// ---------------------------------------------------------------------------
// Three-stage OpAmp.

ThreeStageOpAmp::ThreeStageOpAmp(const Pdk& pdk) : pdk_(pdk) {
  space_.add("L1", pdk.lmin, pdk.lmax);
  space_.add("W1", 20.0 * pdk.lmin, 2000.0 * pdk.lmin);
  space_.add("L2", pdk.lmin, pdk.lmax);
  space_.add("W2", 20.0 * pdk.lmin, 2000.0 * pdk.lmin);
  space_.add("L3", pdk.lmin, pdk.lmax);
  space_.add("W3", 20.0 * pdk.lmin, 2000.0 * pdk.lmin);
  const double cap_scale = pdk.vdd / 1.8;
  space_.add("C0", 0.3e-12 * cap_scale, 8e-12 * cap_scale);
  space_.add("C1", 0.1e-12 * cap_scale, 4e-12 * cap_scale);
  space_.add("I1", 1e-6, 150e-6);
  space_.add("I2", 1e-6, 200e-6);  // stage-2 bleed current

  const bool node180 = pdk.name == "180nm";
  specs_ = {
      {"Gain", "dB", node180 ? 80.0 : 70.0, true},
      {"PM", "deg", 60.0, true},
      {"GBW", "MHz", 2.0, true},
  };
}

std::optional<std::vector<double>> ThreeStageOpAmp::evaluate(
    const std::vector<double>& unit_x) const {
  const auto p = space_.to_physical(unit_x);
  const double l1 = p[0], w1 = p[1], l2 = p[2], w2 = p[3], l3 = p[4], w3 = p[5];
  const double c0 = p[6], c1 = p[7], i1 = p[8], i2 = p[9];

  // Two-pass biasing (see the class comment in the header): pass 1 solves a
  // replica with diode-connected stage loads to extract the load gate
  // voltages; pass 2 runs the real amplifier with those biases fixed, so the
  // high-impedance nodes sit mid-range instead of railing, exactly as a
  // mirror-distributed bias network would arrange in silicon.
  double vb2 = 0.0;  // stage-2 PMOS load gate
  double vb3 = 0.0;  // stage-3 PMOS load gate
  int vdd_src = -1;
  int out_node = -1;

  auto build = [&](bool bias_pass) {
    sim::Circuit ckt;
    const int vdd = ckt.new_node("vdd");
    const int inp = ckt.new_node("inp");
    const int inn = ckt.new_node("inn");
    const int ns = ckt.new_node("ns");
    const int m1 = ckt.new_node("m1");
    const int o1 = ckt.new_node("o1");
    const int x2 = ckt.new_node("x2");
    const int o2 = ckt.new_node("o2");
    const int out = ckt.new_node("out");
    out_node = out;

    vdd_src = ckt.add_vsource(vdd, sim::Circuit::ground, pdk_.vdd);
    const double vcm = 0.6 * pdk_.vdd;
    ckt.add_vsource(inp, sim::Circuit::ground, vcm, +0.5);
    ckt.add_vsource(inn, sim::Circuit::ground, vcm, -0.5);

    // Stage 1: NMOS pair, ideal tail, PMOS mirror load.
    ckt.add_isource(ns, sim::Circuit::ground, i1);
    ckt.add_mosfet(m1, inn, ns, w1, l1, pdk_.nmos);
    ckt.add_mosfet(o1, inp, ns, w1, l1, pdk_.nmos);
    ckt.add_mosfet(m1, m1, vdd, w1, l1, pdk_.pmos);
    ckt.add_mosfet(o1, m1, vdd, w1, l1, pdk_.pmos);

    // Stage 2 (non-inverting, required for negative feedback through the
    // outer nested-Miller cap): PMOS CS into an NMOS diode, mirrored to o2.
    ckt.add_mosfet(x2, o1, vdd, w2, l2, pdk_.pmos);
    ckt.add_isource(vdd, x2, i2);  // bleed raises the stage-2 bias current
    ckt.add_mosfet(x2, x2, sim::Circuit::ground, w2, l2, pdk_.nmos);
    ckt.add_mosfet(o2, x2, sim::Circuit::ground, w2, l2, pdk_.nmos);
    if (bias_pass) {
      ckt.add_mosfet(o2, o2, vdd, w2, l2, pdk_.pmos);  // diode-connected load
    } else {
      const int b2 = ckt.new_node("b2");
      ckt.add_vsource(b2, sim::Circuit::ground, vb2);
      ckt.add_mosfet(o2, b2, vdd, w2, l2, pdk_.pmos);
    }

    // Stage 3: PMOS common source (inverting, like an NMOS CS, so the nested
    // Miller polarities are unchanged).  Its gate sits one PMOS Vgs below
    // VDD (set by stage 2's load family), so its current scales with the
    // stage-2 current and the W3/L3 ratio instead of running away.
    ckt.add_mosfet(out, o2, vdd, w3, l3, pdk_.pmos);
    if (bias_pass) {
      ckt.add_mosfet(out, out, sim::Circuit::ground, w3, l3, pdk_.nmos);
    } else {
      const int b3 = ckt.new_node("b3");
      ckt.add_vsource(b3, sim::Circuit::ground, vb3);
      ckt.add_mosfet(out, b3, sim::Circuit::ground, w3, l3, pdk_.nmos);
    }

    // Nested Miller: C0 outer (out -> o1), C1 inner (out -> o2); fixed load.
    ckt.add_capacitor(out, o1, c0);
    ckt.add_capacitor(out, o2, c1);
    ckt.add_capacitor(out, sim::Circuit::ground,
                      pdk_.name == "180nm" ? 40e-12 : 15e-12);
    struct Nodes {
      sim::Circuit ckt;
      int o2;
      int out;
    };
    return Nodes{std::move(ckt), o2, out};
  };

  auto bias = build(true);
  const auto bias_op = sim::solve_dc(bias.ckt);
  if (!bias_op.converged) return std::nullopt;
  vb2 = bias_op.v(bias.o2);   // diode-connected: gate == drain
  vb3 = bias_op.v(bias.out);

  auto main = build(false);
  return measure_opamp(main.ckt, out_node, vdd_src);
}

std::vector<double> ThreeStageOpAmp::expert_design() const {
  // Feasible but deliberately conservative sizings (comfortable margins on
  // every spec, generous currents) — the role the "Human Expert" rows play
  // in the paper's Tables 1-2.  Unit-box coordinates.
  if (pdk_.name == "180nm")
    return {0.5182, 0.0623, 0.0123, 0.4530, 0.2462,
            0.6221, 0.5673, 0.4080, 0.5463, 0.8238};
  return {0.2807, 0.2408, 0.2033, 0.5307, 0.5620,
          0.7956, 0.7065, 0.5660, 0.7865, 0.7728};
}

// ---------------------------------------------------------------------------
// Second-stage amplifier (Fig. 1 kernel-assessment target).

SecondStageAmp::SecondStageAmp(const Pdk& pdk) : pdk_(pdk) {
  space_.add("L", pdk.lmin, pdk.lmax);
  space_.add("W", 20.0 * pdk.lmin, 2000.0 * pdk.lmin);
  space_.add("Ib", 2e-6, 300e-6);
  space_.add("Rl", 5e3, 500e3);
}

std::optional<std::vector<double>> SecondStageAmp::evaluate(
    const std::vector<double>& unit_x) const {
  const auto p = space_.to_physical(unit_x);
  const double l = p[0], w = p[1], ib = p[2], rl = p[3];

  sim::Circuit ckt;
  const int vdd = ckt.new_node("vdd");
  const int in = ckt.new_node("in");
  const int bp = ckt.new_node("bp");
  const int out = ckt.new_node("out");
  ckt.add_vsource(vdd, sim::Circuit::ground, pdk_.vdd);

  // Bias the gate through a diode-connected replica so the stage sits near
  // its operating point for any sizing (self-biased common-source stage).
  const int bg = ckt.new_node("bg");
  ckt.add_isource(vdd, bg, ib);
  ckt.add_mosfet(bg, bg, sim::Circuit::ground, w, l, pdk_.nmos);
  ckt.add_vsource(in, bg, 0.0, 1.0);  // AC stimulus rides on the bias

  ckt.add_mosfet(out, in, sim::Circuit::ground, w, l, pdk_.nmos);
  ckt.add_isource(bp, sim::Circuit::ground, ib);
  ckt.add_mosfet(bp, bp, vdd, 2.0 * w, l, pdk_.pmos);
  ckt.add_mosfet(out, bp, vdd, 2.0 * w, l, pdk_.pmos);
  ckt.add_resistor(out, sim::Circuit::ground, rl);
  ckt.add_capacitor(out, sim::Circuit::ground, 1e-12);

  const auto op = sim::solve_dc(ckt);
  if (!op.converged) return std::nullopt;
  const auto sweep = sim::solve_ac(ckt, op, sim::log_freq_grid(10.0, 1e3, 4));
  if (!sweep.ok) return std::nullopt;
  return std::vector<double>{sim::dc_gain_db(sweep, out)};
}

std::vector<double> SecondStageAmp::expert_design() const {
  return {0.6, 0.5, 0.5, 0.5};
}

}  // namespace kato::ckt
