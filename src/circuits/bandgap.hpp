#pragma once
// Bandgap reference (paper Fig. 3c, Eq. 17).
//
// Implementation: a PTAT/CTAT bandgap core with a real 5-transistor OTA as
// the error amplifier (the paper's schematic is a larger industrial cell;
// this core preserves the same design trade-offs — see PAPER.md,
// "Reproduction substitutions"):
//   * three matched PMOS mirror branches from VDD (two core, one output),
//   * branch 1: diode D1 (area 1); branch 2: R1 in series with D2 (area 8),
//   * the OTA drives the mirror gate so V(x1) = V(x2), making the branch
//     current PTAT: I = dVbe / R1,
//   * output branch: Vref = Vbe3 + (R2/R1) dVbe — the classic first-order
//     temperature cancellation that the TC objective asks the optimizer to
//     null by picking R2/R1,
//   * a large startup resistor on the mirror gate removes the degenerate
//     all-off operating point.
//
// Metrics: [TC(ppm/C), Itotal(uA), PSRR(dB @100Hz)], objective = TC,
// constraints Itotal < 6 uA and PSRR > 50 dB (Eq. 17).  TC is measured with
// a DC temperature sweep (-20C .. 100C); PSRR from an AC sweep with the
// supply as stimulus.

#include "circuits/pdk.hpp"
#include "circuits/sizing_problem.hpp"

namespace kato::ckt {

class BandgapReference final : public SizingCircuit {
 public:
  explicit BandgapReference(const Pdk& pdk);

  std::string name() const override { return "bandgap-" + pdk_.name; }
  const DesignSpace& space() const override { return space_; }
  std::string objective_name() const override { return "TC(ppm/C)"; }
  const std::vector<MetricSpec>& constraints() const override { return specs_; }
  std::optional<std::vector<double>> evaluate(
      const std::vector<double>& unit_x) const override;
  std::vector<double> expert_design() const override;

 private:
  Pdk pdk_;
  DesignSpace space_;
  std::vector<MetricSpec> specs_;
};

}  // namespace kato::ckt
