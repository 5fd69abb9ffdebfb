#pragma once
// Convenience factory for the evaluation circuits.

#include <memory>
#include <string>

#include "circuits/pdk.hpp"
#include "circuits/sizing_problem.hpp"

namespace kato::ckt {

/// Build a sizing circuit.  Every registered kind is a shipped deck under
/// circuits/netlists/, loaded as a NetlistCircuit.
///
/// kind:
///   "opamp2"   — the two-stage Miller OTA (paper Fig. 3a), opamp2.cir;
///   "opamp3"   — the three-stage nested-Miller OpAmp (Fig. 3b), with a
///                .bias pre-solve for its load gates, opamp3.cir;
///   "bandgap"  — the bandgap reference (Fig. 3c, Eq. 17), TC from a
///                .tsweep temperature sweep, bandgap.cir;
///   "stage2"   — the single common-source stage of Fig. 1's kernel
///                assessment, stage2.cir;
///   "buffer"   — the unity-gain step-response buffer (time-domain
///                slew/settling specs), buffer_tran.cir;
///   "netlist:<path.cir>" — any SPICE-subset deck, elaborated through the
///       netlist front-end.  A relative path is tried as-is, then against
///       the KATO_NETLIST_DIR environment variable.
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
