#pragma once
// Convenience factory for the evaluation circuits.

#include <memory>
#include <string>

#include "circuits/bandgap.hpp"
#include "circuits/opamp.hpp"

namespace kato::ckt {

/// Build a sizing circuit.
///
/// kind:
///   "opamp3" | "bandgap" | "stage2"   — the hand-written benchmark
///       topologies;
///   "opamp2"                          — the two-stage Miller OTA, loaded
///       from the shipped deck circuits/netlists/opamp2.cir;
///   "buffer"                          — the unity-gain step-response
///       buffer (time-domain slew/settling specs), loaded from the shipped
///       deck circuits/netlists/buffer_tran.cir;
///   "netlist:<path.cir>"              — any SPICE-subset deck,
///       elaborated through the netlist front-end.  A relative path is
///       tried as-is, then against the KATO_NETLIST_DIR environment
///       variable.
/// node: "180nm" | "40nm".
///
/// The shipped decks are found in the source tree the library was compiled
/// from: factory.cpp's __FILE__ (an absolute path in the CMake builds) with
/// src/circuits/factory.cpp replaced by circuits/netlists/.
///
/// Unknown kinds/nodes throw std::invalid_argument listing what is
/// registered; an unreadable deck throws std::invalid_argument naming its
/// path; bad decks throw net::NetlistError with file/line.
std::unique_ptr<SizingCircuit> make_circuit(const std::string& kind,
                                            const std::string& node);

}  // namespace kato::ckt
