#pragma once
// Parser for the SPICE-subset netlist grammar, producing an AST (`Deck`)
// that the elaborator re-walks once per sizing candidate.
//
// Supported cards (names are case-insensitive; see README "Netlist
// front-end" for the full grammar):
//
//   R<name> a b <value>                       resistor [ohm]
//   C<name> a b <value>                       capacitor [F]
//   V<name> p n [dc] <value> [ac <value>] [<waveform>]  voltage source
//   I<name> p n <value>                       current source (p -> n)
//   M<name> d g s [b] <model> w=<v> l=<v>     MOSFET (bulk accepted, ignored)
//   D<name> a c [<model>] [area=<v>]          junction diode
//   G<name> p n cp cn <value>                 VCCS: i = gm (v_cp - v_cn)
//   X<name> n1 .. nk <subckt> [p=<v> ...]     subcircuit instance
//
// Directives:
//   .title <word>
//   .nodes <node> ...                         top-level node numbering order
//   .param <name> = <expr>                    constant (params/builtins only)
//   .var <name> <lo> <hi> [log|lin]           sizing variable -> DesignSpace
//   .model <name> nmos|pmos [key=<v> ...]     MOSFET model (base = PDK card)
//   .model <name> d [is|n|area|xti|eg=<v>]    junction-diode model
//   .subckt <name> <ports...> [p=<default> ...]  ...  .ends
//   .bias <subckt> <name>=<node> ...          DC pre-solve of a portless
//                                             subckt; binds its node
//                                             voltages as parameters
//   .ac dec <pts/decade> <f_lo> <f_hi>
//   .tran <tstep> <tstop> [fixed] [be]
//   .tsweep <T1> <T2> ...                     warm-started DC temperature
//                                             sweep [K] (for tc_ppm)
//   .ic v(<node>)=<value> ...
//   .temp <kelvin>
//   .spec objective <Name> <Unit> = <measure expr>
//   .spec <Name> <Unit> >=|<= <bound> = <measure expr>
//   .require <measure expr> >=|<= <bound>     validity guard: a miss fails
//                                             the candidate
//   .corner <name> [temp=<v>] [vdd_scale=<v>] [<param>=<v> ...]
//   .mc <K> [vth_sigma=<v>] [beta_sigma=<v>] [quantile=<v>]
//   .expert <pdk-name|*> <u1> ... <uD>        unit-box reference sizing
//   .end                                      (optional)
//
// <value> is a bare (optionally signed) number, a parameter name, or an
// arithmetic expression in braces/quotes: {2*w1} or '2*w1'.  Expressions
// support + - * / ( ), SI-suffixed numbers, identifiers (.param constants,
// .var sizing variables, .bias voltages, subckt parameters, PDK builtins
// vdd/lmin/lmax/is180) and the functions sqrt, abs, exp, log, pow, min, max,
// cond(c,a,b).  Measure expressions (right of '=' in .spec, left of the
// bound in .require) additionally call isupply/ivsrc/vdc/gain_db/ugf/pm/
// gain_db_at, tc_ppm and the transient measures slew_rate/settling_time/
// overshoot/prop_delay/avg_power/vmax/vmin — see netlist_circuit.hpp.
//
// <waveform> on a V card is `pulse(v1 v2 td tr tf pw per)`,
// `pwl(t1 v1 t2 v2 ...)` or `sin(vo va freq [td theta])`; arguments are
// values separated by spaces or commas.  When the DC value is omitted the
// source's operating-point value is the waveform at t = 0.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netlist/diag.hpp"

namespace kato::net {

// --- Expressions -----------------------------------------------------------

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind { number, ident, call, binary, negate };
  Kind kind = Kind::number;
  double number = 0.0;
  std::string name;  ///< ident/call: lowercased name; binary: "+-*/"
  std::string raw;   ///< ident: original spelling (display)
  std::vector<ExprPtr> args;  ///< call args, binary [lhs, rhs], negate [x]
  SourceLoc loc;
};

/// Identifier-resolution environment: a chain of name->value frames.
struct Scope {
  const std::map<std::string, double>* values = nullptr;
  const Scope* parent = nullptr;

  std::optional<double> lookup(const std::string& name) const {
    for (const Scope* s = this; s != nullptr; s = s->parent)
      if (s->values != nullptr)
        if (auto it = s->values->find(name); it != s->values->end())
          return it->second;
    return std::nullopt;
  }
};

/// Evaluate an expression.  Math functions are built in; any other call is
/// forwarded to `call_hook` (nullptr -> error: measure functions are only
/// valid in .spec lines).  Unknown identifiers throw NetlistError at the
/// identifier's location.
class MeasureHook {
 public:
  virtual ~MeasureHook() = default;
  virtual double call(const Expr& call_site) const = 0;
};
double eval_expr(const Expr& e, const Scope& scope,
                 const MeasureHook* hook = nullptr);

// --- Cards -----------------------------------------------------------------

struct DeviceCard {
  enum class Kind { resistor, capacitor, vsource, isource, mosfet, diode, vccs, subckt };
  Kind kind = Kind::resistor;
  std::string name;                 ///< full card name ("m1"), lowercased
  std::vector<std::string> nodes;   ///< connection nodes, lowercased
  ExprPtr value;                    ///< R/C/I value, V dc; null otherwise
  ExprPtr ac;                       ///< V only; null when quiet
  std::string wave;                 ///< V only: "pulse"/"pwl"/"sin", empty = none
  std::vector<ExprPtr> wave_args;   ///< waveform arguments, in card order
  SourceLoc wave_loc;               ///< anchor for waveform diagnostics
  std::string model;                ///< M/D model, X subckt name
  std::vector<std::pair<std::string, ExprPtr>> params;  ///< w=/l=/overrides
  SourceLoc loc;

  /// Find a name=value parameter (lowercased key); null when absent.
  ExprPtr param(const std::string& key) const {
    for (const auto& [k, v] : params)
      if (k == key) return v;
    return nullptr;
  }
};

struct ParamDef {
  std::string name;
  ExprPtr value;
  SourceLoc loc;
};

struct VarDef {
  std::string name;  ///< lowercased (expression matching)
  std::string raw;   ///< original spelling (DesignSpace display)
  ExprPtr lo;
  ExprPtr hi;
  bool log_scale = true;
  SourceLoc loc;
};

struct ModelDef {
  std::string name;
  bool nmos = true;   ///< MOSFET polarity (meaningless when diode)
  bool diode = false;  ///< ".model <name> d": junction-diode model
  std::vector<std::pair<std::string, ExprPtr>> overrides;
  SourceLoc loc;
};

struct SpecDef {
  bool is_objective = false;
  std::string name;  ///< display name, original spelling
  std::string unit;  ///< display unit, original spelling
  bool is_lower_bound = true;
  ExprPtr bound;    ///< null for the objective
  ExprPtr measure;
  SourceLoc loc;
};

struct AcDef {
  bool present = false;
  ExprPtr per_decade;
  ExprPtr f_lo;
  ExprPtr f_hi;
  SourceLoc loc;
};

/// The `.tsweep` card: DC temperatures [K] solved, in order and each
/// warm-started from the previous, after the nominal analyses; feeds the
/// tc_ppm() measure.
struct TsweepDef {
  bool present = false;
  std::vector<ExprPtr> temps;
  SourceLoc loc;
};

/// One `.require <measure expr> >=|<= <bound>` card: a validity guard that
/// fails the candidate (as a measure failure naming the card) when the
/// measure misses its bound.
struct RequireDef {
  ExprPtr measure;
  bool is_lower_bound = true;
  ExprPtr bound;
  std::string text;  ///< the card after `.require`, for failure reports
  SourceLoc loc;
};

struct TranDef {
  bool present = false;
  ExprPtr tstep;
  ExprPtr tstop;
  bool fixed_step = false;     ///< `fixed`: uniform grid, no LTE control
  bool backward_euler = false; ///< `be`: force backward Euler throughout
  SourceLoc loc;
};

/// One `v(<node>)=<value>` entry of an `.ic` card.
struct IcDef {
  std::string node;  ///< lowercased node name
  ExprPtr value;
  SourceLoc loc;
};

struct ExpertDef {
  std::string filter;  ///< lowercased PDK name, or "*"
  std::vector<double> unit_x;
  SourceLoc loc;
};

/// One `.corner` card: a named process/voltage/temperature set.  `params`
/// carries the raw key=value list; `temp` and `vdd_scale` are special keys,
/// every other key must override an existing `.param` or PDK builtin
/// (validated by NetlistCircuit at load time).
struct CornerDef {
  std::string name;  ///< lowercased
  std::string raw;   ///< original spelling (diagnostics, failure reports)
  std::vector<std::pair<std::string, ExprPtr>> params;
  SourceLoc loc;
};

/// The `.mc` card: K per-device mismatch draws.  Keys vth_sigma (absolute
/// threshold shift, V), beta_sigma (relative kp spread) and quantile
/// (yield fraction for MC aggregation) are validated by NetlistCircuit.
struct McDef {
  bool present = false;
  ExprPtr samples;
  std::vector<std::pair<std::string, ExprPtr>> params;
  SourceLoc loc;
};

struct Subckt {
  std::string name;
  std::vector<std::string> ports;
  std::vector<std::pair<std::string, ExprPtr>> defaults;
  std::vector<DeviceCard> cards;
  SourceLoc loc;
};

/// The `.nodes` card: top-level node names registered, in this order,
/// before any device card, so the deck fixes its node numbering
/// independently of card order.
struct NodeOrderDef {
  std::vector<std::string> names;  ///< lowercased
  SourceLoc loc;
};

/// One `name=node` binding of the `.bias` card.
struct BiasBind {
  std::string name;  ///< parameter name, lowercased
  std::string node;  ///< node of the bias circuit, lowercased
  SourceLoc loc;
};

/// The `.bias` card: a portless subckt solved at DC before the main
/// circuit; each binding exposes one of its node voltages as a parameter
/// of the main elaboration (validated by NetlistCircuit at load time).
struct BiasDef {
  bool present = false;
  std::string subckt;  ///< lowercased
  std::vector<BiasBind> binds;
  SourceLoc loc;
};

struct Deck {
  std::string file;
  std::string title;  ///< .title, else the file stem
  NodeOrderDef node_order;
  std::vector<ParamDef> params;
  std::vector<VarDef> vars;
  std::vector<ModelDef> models;
  std::vector<SpecDef> specs;
  std::vector<RequireDef> requirements;
  std::vector<ExpertDef> experts;
  std::vector<CornerDef> corners;
  McDef mc;
  AcDef ac;
  TranDef tran;
  TsweepDef tsweep;
  std::vector<IcDef> ics;
  BiasDef bias;
  ExprPtr temperature;  ///< .temp [K]; null -> 300
  std::vector<DeviceCard> cards;
  std::map<std::string, Subckt> subckts;
};

/// Parse a deck from text.  `filename` feeds diagnostics and the default
/// title.  Throws NetlistError on any syntax error.
Deck parse_netlist(const std::string& text, const std::string& filename);

/// Read and parse a file.  Throws std::invalid_argument when unreadable.
Deck parse_netlist_file(const std::string& path);

}  // namespace kato::net
