#include "circuits/factory.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "netlist/netlist_circuit.hpp"

namespace kato::ckt {

namespace {

/// This file's path relative to the repository root; the shipped decks sit
/// under <root>/circuits/netlists.
constexpr std::string_view k_this_file = "src/circuits/factory.cpp";
static_assert(std::string_view(__FILE__).ends_with(k_this_file),
              "shipped_deck() derives the deck directory from __FILE__");

/// Path of a deck under circuits/netlists/ of the source tree this library
/// was compiled from.
std::string shipped_deck(std::string_view name) {
  const std::string_view file = __FILE__;
  return std::string(file.substr(0, file.size() - k_this_file.size())) +
         "circuits/netlists/" + std::string(name);
}

/// Resolve a "netlist:" deck path: as given, then under KATO_NETLIST_DIR.
std::string resolve_deck_path(const std::string& path) {
  if (std::ifstream(path).good()) return path;
  if (const char* dir = std::getenv("KATO_NETLIST_DIR")) {
    const std::string joined = std::string(dir) + "/" + path;
    if (std::ifstream(joined).good()) return joined;
    throw std::invalid_argument("make_circuit: netlist deck '" + path +
                                "' not found (also tried '" + joined + "')");
  }
  throw std::invalid_argument(
      "make_circuit: netlist deck '" + path +
      "' not found (set KATO_NETLIST_DIR to add a search root)");
}

}  // namespace

std::unique_ptr<SizingCircuit> make_circuit(const std::string& kind,
                                            const std::string& node) {
  const Pdk& pdk = pdk_by_name(node);
  if (kind == "opamp2")
    return NetlistCircuit::from_file(shipped_deck("opamp2.cir"), pdk);
  if (kind == "opamp3") return std::make_unique<ThreeStageOpAmp>(pdk);
  if (kind == "bandgap") return std::make_unique<BandgapReference>(pdk);
  if (kind == "stage2") return std::make_unique<SecondStageAmp>(pdk);
  if (kind == "buffer")
    return NetlistCircuit::from_file(shipped_deck("buffer_tran.cir"), pdk);
  if (kind.rfind("netlist:", 0) == 0)
    return NetlistCircuit::from_file(resolve_deck_path(kind.substr(8)), pdk);
  throw std::invalid_argument(
      "make_circuit: unknown kind '" + kind +
      "'; registered kinds: opamp2, opamp3, bandgap, stage2, buffer, "
      "netlist:<deck.cir>");
}

}  // namespace kato::ckt
