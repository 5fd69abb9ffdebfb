#pragma once
// The paper's three-stage operational-amplifier benchmark (Fig. 3b) and the
// small second-stage amplifier used for the Fig. 1 kernel assessment.  The
// two-stage OpAmp (Fig. 3a) is the shipped deck circuits/netlists/opamp2.cir
// (make_circuit("opamp2", node)).
//
// Three-stage OpAmp: NMOS input pair, PMOS common-source middle stage, NMOS
// common-source output stage, nested-Miller compensation (C0 outer, C1
// inner).  Ten design variables (Eq. 16's families plus per-stage geometry),
// deliberately a different dimensionality from the two-stage amp's eight so
// the topology-transfer experiments exercise the KAT encoder across spaces.
//
// Metrics vector (three-stage amp, as for the opamp2 deck): [Itotal(uA),
// Gain(dB), PM(deg), GBW(MHz)], objective = Itotal.

#include <memory>

#include "circuits/pdk.hpp"
#include "circuits/sizing_problem.hpp"

namespace kato::ckt {

class ThreeStageOpAmp final : public SizingCircuit {
 public:
  explicit ThreeStageOpAmp(const Pdk& pdk);

  std::string name() const override { return "three-stage-opamp-" + pdk_.name; }
  const DesignSpace& space() const override { return space_; }
  std::string objective_name() const override { return "Itotal(uA)"; }
  const std::vector<MetricSpec>& constraints() const override { return specs_; }
  std::optional<std::vector<double>> evaluate(
      const std::vector<double>& unit_x) const override;
  std::vector<double> expert_design() const override;

 private:
  Pdk pdk_;
  DesignSpace space_;
  std::vector<MetricSpec> specs_;
};

/// Single common-source gain stage (the "second-stage amplification circuit"
/// of Fig. 1's kernel assessment): 4 design variables, single gain metric —
/// a clean regression target for comparing kernels.
class SecondStageAmp final : public SizingCircuit {
 public:
  explicit SecondStageAmp(const Pdk& pdk);

  std::string name() const override { return "second-stage-amp-" + pdk_.name; }
  const DesignSpace& space() const override { return space_; }
  std::string objective_name() const override { return "Gain(dB)"; }
  const std::vector<MetricSpec>& constraints() const override { return specs_; }
  std::optional<std::vector<double>> evaluate(
      const std::vector<double>& unit_x) const override;
  std::vector<double> expert_design() const override;

 private:
  Pdk pdk_;
  DesignSpace space_;
  std::vector<MetricSpec> specs_;  // empty: pure regression target
};

}  // namespace kato::ckt
