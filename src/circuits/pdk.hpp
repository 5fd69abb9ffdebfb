#pragma once
// Process design kits for the two technology nodes used in the paper's
// evaluation (180nm and 40nm).
//
// These are representative "level-1" device cards, not foundry data: supply,
// threshold, transconductance, channel-length modulation and capacitance
// values are set to textbook-typical numbers for each node so that the
// sizing trade-offs (gain vs. current, bandwidth vs. stability, node-to-node
// shifts in optimal sizing) have the right shape and direction.  See
// PAPER.md ("Reproduction substitutions").

#include <string>

#include "sim/mosfet.hpp"

namespace kato::ckt {

struct Pdk {
  std::string name;
  double vdd;        ///< nominal supply [V]
  double lmin;       ///< minimum channel length [m]
  double lmax;       ///< maximum usable channel length [m]
  sim::MosModel nmos;
  sim::MosModel pmos;
};

/// 1.8 V, Vth ~0.5/-0.5, kp 170/60 uA/V^2.
const Pdk& pdk_180nm();
/// 1.1 V, Vth ~0.35/-0.35, kp 380/150 uA/V^2, much smaller parasitics.
const Pdk& pdk_40nm();

/// Lookup by name ("180nm" / "40nm").
const Pdk& pdk_by_name(const std::string& name);

}  // namespace kato::ckt
