#include "netlist/parser.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "netlist/lexer.hpp"
#include "obs/obs.hpp"

namespace kato::net {

namespace {

ExprPtr make_number(double v, SourceLoc loc) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::number;
  e->number = v;
  e->loc = std::move(loc);
  return e;
}

/// A token used as a *name* (node, model, subckt).  Identifiers are already
/// lowercased; numeric tokens (nodes like "0", "1a", "10k") must use the
/// raw spelling, lowercased — the numeric text would have SI suffixes
/// expanded and trailing letters dropped, silently renaming the node.
std::string name_text(const Token& t) {
  if (t.kind != TokKind::number) return t.text;
  std::string name = t.raw;
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return name;
}

// --- Token stream ----------------------------------------------------------

class Stream {
 public:
  explicit Stream(std::vector<Token> toks) : toks_(std::move(toks)) {}

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  const Token& next() {
    const Token& t = toks_[pos_];
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
  }
  std::size_t pos() const { return pos_; }
  /// Raw spelling of the tokens from `from` up to the current position,
  /// spaced only around the comparison operators.
  std::string raw_since(std::size_t from) const {
    std::string text;
    for (std::size_t i = from; i < pos_; ++i) {
      const bool cmp = toks_[i].is_punct(">=") || toks_[i].is_punct("<=");
      text += cmp ? " " + toks_[i].raw + " " : toks_[i].raw;
    }
    return text;
  }
  bool at_line_end() const {
    return peek().kind == TokKind::eol || peek().kind == TokKind::eof;
  }
  /// Consume the end of the current logical line.
  void expect_eol(const char* after) {
    if (!at_line_end())
      throw NetlistError(peek().loc, std::string("unexpected '") + peek().raw +
                                         "' after " + after);
    if (peek().kind == TokKind::eol) next();
  }
  void skip_to_eol() {
    while (!at_line_end()) next();
    if (peek().kind == TokKind::eol) next();
  }

 private:
  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

// --- Expression parsing ----------------------------------------------------

ExprPtr parse_expr(Stream& s);

ExprPtr parse_primary(Stream& s) {
  const Token& t = s.peek();
  if (t.kind == TokKind::number) {
    s.next();
    auto num = std::make_shared<Expr>();
    num->kind = Expr::Kind::number;
    num->number = t.value;
    // Keep the raw spelling: a numeric token can also be a node name in a
    // measure call (vdc(1a)), resolved via name/raw rather than the value.
    num->name = name_text(t);
    num->raw = t.raw;
    num->loc = t.loc;
    return num;
  }
  if (t.kind == TokKind::ident) {
    s.next();
    if (s.peek().is_punct("(")) {
      s.next();
      auto call = std::make_shared<Expr>();
      call->kind = Expr::Kind::call;
      call->name = t.text;
      call->raw = t.raw;
      call->loc = t.loc;
      if (!s.peek().is_punct(")")) {
        call->args.push_back(parse_expr(s));
        while (s.peek().is_punct(",")) {
          s.next();
          call->args.push_back(parse_expr(s));
        }
      }
      if (!s.peek().is_punct(")"))
        throw NetlistError(s.peek().loc, "expected ')' in call to '" + t.text + "'");
      s.next();
      return call;
    }
    auto id = std::make_shared<Expr>();
    id->kind = Expr::Kind::ident;
    id->name = t.text;
    id->raw = t.raw;
    id->loc = t.loc;
    return id;
  }
  if (t.is_punct("(")) {
    s.next();
    auto inner = parse_expr(s);
    if (!s.peek().is_punct(")"))
      throw NetlistError(s.peek().loc, "expected ')'");
    s.next();
    return inner;
  }
  throw NetlistError(t.loc, "expected a number, name or '(' in expression, got '" +
                                (t.raw.empty() ? "end of line" : t.raw) + "'");
}

ExprPtr parse_unary(Stream& s) {
  if (s.peek().is_punct("-")) {
    const SourceLoc loc = s.peek().loc;
    s.next();
    auto neg = std::make_shared<Expr>();
    neg->kind = Expr::Kind::negate;
    neg->args.push_back(parse_unary(s));
    neg->loc = loc;
    return neg;
  }
  if (s.peek().is_punct("+")) {
    s.next();
    return parse_unary(s);
  }
  return parse_primary(s);
}

ExprPtr parse_term(Stream& s) {
  auto lhs = parse_unary(s);
  while (s.peek().is_punct("*") || s.peek().is_punct("/")) {
    const Token& op = s.next();
    auto bin = std::make_shared<Expr>();
    bin->kind = Expr::Kind::binary;
    bin->name = op.text;
    bin->loc = op.loc;
    bin->args.push_back(lhs);
    bin->args.push_back(parse_unary(s));
    lhs = bin;
  }
  return lhs;
}

ExprPtr parse_expr(Stream& s) {
  auto lhs = parse_term(s);
  while (s.peek().is_punct("+") || s.peek().is_punct("-")) {
    const Token& op = s.next();
    auto bin = std::make_shared<Expr>();
    bin->kind = Expr::Kind::binary;
    bin->name = op.text;
    bin->loc = op.loc;
    bin->args.push_back(lhs);
    bin->args.push_back(parse_term(s));
    lhs = bin;
  }
  return lhs;
}

/// A card value: bare (signed) number, bare identifier, or a braced/quoted
/// expression ({...} or '...').
ExprPtr parse_value(Stream& s) {
  const Token& t = s.peek();
  if (t.is_punct("{") || t.is_punct("'")) {
    const std::string close = t.text == "{" ? "}" : "'";
    s.next();
    auto inner = parse_expr(s);
    if (!s.peek().is_punct(close.c_str()))
      throw NetlistError(s.peek().loc, "expected '" + close + "' closing expression");
    s.next();
    return inner;
  }
  if (t.is_punct("-") || t.is_punct("+")) {
    const bool negate = t.text == "-";
    const SourceLoc loc = t.loc;
    s.next();
    const Token& num = s.peek();
    if (num.kind != TokKind::number)
      throw NetlistError(num.loc, "expected a number after sign");
    s.next();
    return make_number(negate ? -num.value : num.value, loc);
  }
  if (t.kind == TokKind::number) {
    s.next();
    return make_number(t.value, t.loc);
  }
  if (t.kind == TokKind::ident) {
    s.next();
    auto id = std::make_shared<Expr>();
    id->kind = Expr::Kind::ident;
    id->name = t.text;
    id->raw = t.raw;
    id->loc = t.loc;
    return id;
  }
  throw NetlistError(t.loc, "expected a value (number, name or {expr}), got '" +
                                (t.raw.empty() ? "end of line" : t.raw) + "'");
}

// --- Card parsing ----------------------------------------------------------

/// A "plain" (positional) argument: an identifier or number not followed by
/// '=' — node names, model names, subckt names.
bool at_plain_arg(const Stream& s) {
  const Token& t = s.peek();
  if (t.kind != TokKind::ident && t.kind != TokKind::number) return false;
  return !s.peek(1).is_punct("=");
}

std::string take_name_arg(Stream& s, const char* what) {
  const Token& t = s.peek();
  if (t.kind != TokKind::ident && t.kind != TokKind::number)
    throw NetlistError(t.loc, std::string("expected ") + what + ", got '" +
                                  (t.raw.empty() ? "end of line" : t.raw) + "'");
  s.next();
  return name_text(t);
}

std::vector<std::pair<std::string, ExprPtr>> parse_kv_pairs(Stream& s) {
  std::vector<std::pair<std::string, ExprPtr>> pairs;
  while (!s.at_line_end()) {
    const Token& key = s.peek();
    if (key.kind != TokKind::ident || !s.peek(1).is_punct("="))
      throw NetlistError(key.loc, "expected name=value, got '" + key.raw + "'");
    s.next();
    s.next();  // '='
    pairs.emplace_back(key.text, parse_value(s));
  }
  return pairs;
}

class Parser {
 public:
  Parser(std::vector<Token> toks, std::string filename)
      : s_(std::move(toks)), file_(std::move(filename)) {}

  Deck run() {
    deck_.file = file_;
    deck_.title = default_title(file_);
    while (s_.peek().kind != TokKind::eof) {
      if (s_.peek().kind == TokKind::eol) {
        s_.next();
        continue;
      }
      const Token& t = s_.peek();
      if (t.kind != TokKind::ident)
        throw NetlistError(t.loc, "expected a card or directive, got '" + t.raw + "'");
      if (t.text[0] == '.') {
        if (t.text == ".end") break;
        parse_directive();
      } else {
        deck_.cards.push_back(parse_device(top_names_));
      }
    }
    check_bias();
    return deck_;
  }

 private:
  static std::string default_title(const std::string& path) {
    const std::size_t slash = path.find_last_of("/\\");
    std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
    return stem;
  }

  /// Only the `.bias` subckt may be portless, and it must be portless: its
  /// nodes are numbered like top-level nodes, with nothing to connect.
  void check_bias() const {
    for (const auto& [name, sub] : deck_.subckts)
      if (sub.ports.empty() && !(deck_.bias.present && deck_.bias.subckt == name))
        throw NetlistError(sub.loc, "subckt '" + name +
                                        "' has no ports (only a .bias subckt "
                                        "may be portless)");
    if (!deck_.bias.present) return;
    const auto it = deck_.subckts.find(deck_.bias.subckt);
    if (it == deck_.subckts.end())
      throw NetlistError(deck_.bias.loc,
                         "unknown subckt '" + deck_.bias.subckt + "' in .bias");
    if (!it->second.ports.empty())
      throw NetlistError(deck_.bias.loc,
                         ".bias subckt '" + deck_.bias.subckt +
                             "' must have no ports");
  }

  void check_unique(std::unordered_set<std::string>& seen, const std::string& name,
                    const char* what, const SourceLoc& loc) {
    if (!seen.insert(name).second)
      throw NetlistError(loc, std::string("duplicate ") + what + " '" + name + "'");
  }

  DeviceCard parse_device(std::unordered_set<std::string>& scope_names) {
    const Token& head = s_.next();
    DeviceCard card;
    card.name = head.text;
    card.loc = head.loc;
    check_unique(scope_names, card.name, "device", card.loc);

    switch (head.text[0]) {
      case 'r':
      case 'c': {
        card.kind = head.text[0] == 'r' ? DeviceCard::Kind::resistor
                                        : DeviceCard::Kind::capacitor;
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        card.value = parse_value(s_);
        break;
      }
      case 'v': {
        card.kind = DeviceCard::Kind::vsource;
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        if (s_.peek().kind == TokKind::ident && s_.peek().text == "dc") s_.next();
        // The DC value may be omitted when a waveform follows (the
        // operating point then uses the waveform's t = 0 value).
        if (!at_waveform(s_)) card.value = parse_value(s_);
        if (s_.peek().kind == TokKind::ident && s_.peek().text == "ac") {
          s_.next();
          card.ac = parse_value(s_);
        }
        if (at_waveform(s_)) parse_waveform(card);
        break;
      }
      case 'i': {
        card.kind = DeviceCard::Kind::isource;
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        if (s_.peek().kind == TokKind::ident && s_.peek().text == "dc") s_.next();
        card.value = parse_value(s_);
        break;
      }
      case 'm': {
        card.kind = DeviceCard::Kind::mosfet;
        std::vector<std::string> plain;
        while (at_plain_arg(s_)) plain.push_back(name_text(s_.next()));
        if (plain.size() != 4 && plain.size() != 5)
          throw NetlistError(card.loc,
                             "MOSFET card needs 'd g s [b] model', got " +
                                 std::to_string(plain.size()) + " positional args");
        card.model = plain.back();
        plain.pop_back();
        if (plain.size() == 4) plain.pop_back();  // bulk: accepted, ignored
        card.nodes = std::move(plain);
        card.params = parse_kv_pairs(s_);
        if (!card.param("w") || !card.param("l"))
          throw NetlistError(card.loc, "MOSFET card needs w= and l= parameters");
        break;
      }
      case 'd': {
        card.kind = DeviceCard::Kind::diode;
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        card.nodes.push_back(take_name_arg(s_, "a node name"));
        if (at_plain_arg(s_)) card.model = s_.next().text;
        card.params = parse_kv_pairs(s_);
        break;
      }
      case 'g': {
        card.kind = DeviceCard::Kind::vccs;
        for (int i = 0; i < 4; ++i)
          card.nodes.push_back(take_name_arg(s_, "a node name"));
        card.value = parse_value(s_);
        break;
      }
      case 'x': {
        card.kind = DeviceCard::Kind::subckt;
        std::vector<std::string> plain;
        while (at_plain_arg(s_)) plain.push_back(name_text(s_.next()));
        if (plain.size() < 2)
          throw NetlistError(card.loc,
                             "subcircuit instance needs nodes and a subckt name");
        card.model = plain.back();
        plain.pop_back();
        card.nodes = std::move(plain);
        card.params = parse_kv_pairs(s_);
        break;
      }
      default:
        throw NetlistError(card.loc,
                           "unrecognized card '" + head.raw +
                               "' (expected R/C/V/I/M/D/G/X or a directive)");
    }
    s_.expect_eol(("'" + head.text + "' card").c_str());
    return card;
  }

  /// Is the next token a waveform keyword opening its argument list?
  bool at_waveform(const Stream& s) const {
    const Token& t = s.peek();
    if (t.kind != TokKind::ident) return false;
    if (t.text != "pulse" && t.text != "pwl" && t.text != "sin") return false;
    return s.peek(1).is_punct("(");
  }

  /// `pulse(...)` / `pwl(...)` / `sin(...)`: values separated by spaces or
  /// commas (classic SPICE accepts both inside waveform parentheses).
  void parse_waveform(DeviceCard& card) {
    const Token& head = s_.next();
    card.wave = head.text;
    card.wave_loc = head.loc;
    s_.next();  // '('
    while (!s_.peek().is_punct(")")) {
      if (s_.peek().is_punct(",")) {
        s_.next();
        continue;
      }
      if (s_.at_line_end())
        throw NetlistError(s_.peek().loc,
                           "expected ')' closing " + card.wave + "(...)");
      card.wave_args.push_back(parse_value(s_));
    }
    s_.next();  // ')'
  }

  void parse_directive() {
    const Token& head = s_.next();
    const std::string& d = head.text;

    if (d == ".title") {
      deck_.title = s_.next().raw;
      s_.expect_eol(".title");
    } else if (d == ".nodes") {
      if (!deck_.node_order.names.empty())
        throw NetlistError(head.loc, "duplicate .nodes directive");
      deck_.node_order.loc = head.loc;
      std::unordered_set<std::string> seen;
      do {
        const Token& t = s_.peek();
        const std::string name = take_name_arg(s_, "a node name");
        if (name == "0" || name == "gnd")
          throw NetlistError(t.loc, "ground cannot be listed in .nodes");
        check_unique(seen, name, "node", t.loc);
        deck_.node_order.names.push_back(name);
      } while (!s_.at_line_end());
      s_.expect_eol(".nodes");
    } else if (d == ".param") {
      ParamDef def;
      def.loc = head.loc;
      def.name = take_name_arg(s_, "a parameter name");
      check_unique(param_names_, def.name, "parameter", def.loc);
      if (!s_.peek().is_punct("="))
        throw NetlistError(s_.peek().loc, "expected '=' in .param");
      s_.next();
      def.value = s_.peek().is_punct("{") || s_.peek().is_punct("'")
                      ? parse_value(s_)
                      : parse_expr(s_);
      s_.expect_eol(".param");
      deck_.params.push_back(std::move(def));
    } else if (d == ".var") {
      VarDef def;
      def.loc = head.loc;
      const Token& name = s_.peek();
      def.name = take_name_arg(s_, "a variable name");
      def.raw = name.raw;
      check_unique(var_names_, def.name, "sizing variable", def.loc);
      def.lo = parse_value(s_);
      def.hi = parse_value(s_);
      if (!s_.at_line_end()) {
        const Token& scale = s_.next();
        if (scale.text == "log")
          def.log_scale = true;
        else if (scale.text == "lin")
          def.log_scale = false;
        else
          throw NetlistError(scale.loc, "expected 'log' or 'lin', got '" +
                                            scale.raw + "'");
      }
      s_.expect_eol(".var");
      deck_.vars.push_back(std::move(def));
    } else if (d == ".model") {
      ModelDef def;
      def.loc = head.loc;
      def.name = take_name_arg(s_, "a model name");
      check_unique(model_names_, def.name, "model", def.loc);
      const Token& pol = s_.peek();
      const std::string polarity = take_name_arg(s_, "'nmos', 'pmos' or 'd'");
      if (polarity == "nmos")
        def.nmos = true;
      else if (polarity == "pmos")
        def.nmos = false;
      else if (polarity == "d")
        def.diode = true;
      else
        throw NetlistError(pol.loc,
                           "model kind must be 'nmos', 'pmos' or 'd'");
      def.overrides = parse_kv_pairs(s_);
      s_.expect_eol(".model");
      deck_.models.push_back(std::move(def));
    } else if (d == ".subckt") {
      Subckt sub;
      sub.loc = head.loc;
      sub.name = take_name_arg(s_, "a subckt name");
      if (deck_.subckts.count(sub.name) != 0)
        throw NetlistError(sub.loc, "duplicate subckt '" + sub.name + "'");
      while (at_plain_arg(s_)) sub.ports.push_back(name_text(s_.next()));
      sub.defaults = parse_kv_pairs(s_);
      s_.expect_eol(".subckt");
      std::unordered_set<std::string> local_names;
      for (;;) {
        while (s_.peek().kind == TokKind::eol) s_.next();
        const Token& t = s_.peek();
        if (t.kind == TokKind::eof)
          throw NetlistError(sub.loc, "subckt '" + sub.name + "' missing .ends");
        if (t.kind == TokKind::ident && t.text == ".ends") {
          s_.next();
          s_.skip_to_eol();
          break;
        }
        if (t.kind == TokKind::ident && t.text[0] == '.')
          throw NetlistError(t.loc, "directive '" + t.raw +
                                        "' not allowed inside .subckt");
        sub.cards.push_back(parse_device(local_names));
      }
      deck_.subckts.emplace(sub.name, std::move(sub));
    } else if (d == ".bias") {
      if (deck_.bias.present)
        throw NetlistError(head.loc, "duplicate .bias directive");
      deck_.bias.present = true;
      deck_.bias.loc = head.loc;
      deck_.bias.subckt = take_name_arg(s_, "a subckt name");
      std::unordered_set<std::string> names;
      do {
        BiasBind bind;
        const Token& key = s_.peek();
        bind.loc = key.loc;
        if (key.kind != TokKind::ident || !s_.peek(1).is_punct("="))
          throw NetlistError(key.loc, "expected <name>=<node> in .bias, got '" +
                                          (key.raw.empty() ? "end of line"
                                                           : key.raw) +
                                          "'");
        bind.name = s_.next().text;
        s_.next();  // '='
        check_unique(names, bind.name, ".bias name", bind.loc);
        bind.node = take_name_arg(s_, "a node name");
        deck_.bias.binds.push_back(std::move(bind));
      } while (!s_.at_line_end());
      s_.expect_eol(".bias");
    } else if (d == ".ends") {
      throw NetlistError(head.loc, ".ends without matching .subckt");
    } else if (d == ".ac") {
      const Token& mode = s_.peek();
      if (take_name_arg(s_, "'dec'") != "dec")
        throw NetlistError(mode.loc, "only '.ac dec <pts> <f_lo> <f_hi>' is supported");
      deck_.ac.present = true;
      deck_.ac.loc = head.loc;
      deck_.ac.per_decade = parse_value(s_);
      deck_.ac.f_lo = parse_value(s_);
      deck_.ac.f_hi = parse_value(s_);
      s_.expect_eol(".ac");
    } else if (d == ".tran") {
      if (deck_.tran.present)
        throw NetlistError(head.loc, "duplicate .tran directive");
      deck_.tran.present = true;
      deck_.tran.loc = head.loc;
      deck_.tran.tstep = parse_value(s_);
      deck_.tran.tstop = parse_value(s_);
      while (!s_.at_line_end()) {
        const Token& flag = s_.next();
        if (flag.kind == TokKind::ident && flag.text == "fixed")
          deck_.tran.fixed_step = true;
        else if (flag.kind == TokKind::ident && flag.text == "be")
          deck_.tran.backward_euler = true;
        else
          throw NetlistError(flag.loc, "unknown .tran option '" + flag.raw +
                                           "' (supported: fixed, be)");
      }
      s_.expect_eol(".tran");
    } else if (d == ".tsweep") {
      if (deck_.tsweep.present)
        throw NetlistError(head.loc, "duplicate .tsweep directive");
      deck_.tsweep.present = true;
      deck_.tsweep.loc = head.loc;
      while (!s_.at_line_end()) deck_.tsweep.temps.push_back(parse_value(s_));
      if (deck_.tsweep.temps.size() < 2)
        throw NetlistError(head.loc,
                           ".tsweep needs at least two temperatures");
      s_.expect_eol(".tsweep");
    } else if (d == ".require") {
      RequireDef req;
      req.loc = head.loc;
      const std::size_t start = s_.pos();
      req.measure = parse_expr(s_);
      req.is_lower_bound = parse_bound(".require", req.bound);
      req.text = s_.raw_since(start);
      s_.expect_eol(".require");
      deck_.requirements.push_back(std::move(req));
    } else if (d == ".ic") {
      do {
        IcDef ic;
        const Token& v = s_.peek();
        ic.loc = v.loc;
        if (v.kind != TokKind::ident || v.text != "v" ||
            !s_.peek(1).is_punct("("))
          throw NetlistError(v.loc, "expected v(<node>)=<value> in .ic");
        s_.next();
        s_.next();  // '('
        ic.node = take_name_arg(s_, "a node name");
        if (!s_.peek().is_punct(")"))
          throw NetlistError(s_.peek().loc, "expected ')' in .ic");
        s_.next();
        if (!s_.peek().is_punct("="))
          throw NetlistError(s_.peek().loc, "expected '=' in .ic");
        s_.next();
        ic.value = parse_value(s_);
        deck_.ics.push_back(std::move(ic));
      } while (!s_.at_line_end());
      s_.expect_eol(".ic");
    } else if (d == ".temp") {
      deck_.temperature = parse_value(s_);
      s_.expect_eol(".temp");
    } else if (d == ".spec") {
      deck_.specs.push_back(parse_spec(head.loc));
    } else if (d == ".corner") {
      CornerDef def;
      def.loc = head.loc;
      const Token& name = s_.peek();
      def.name = take_name_arg(s_, "a corner name");
      def.raw = name.raw;
      check_unique(corner_names_, def.name, "corner", def.loc);
      def.params = parse_kv_pairs(s_);
      s_.expect_eol(".corner");
      deck_.corners.push_back(std::move(def));
    } else if (d == ".mc") {
      if (deck_.mc.present)
        throw NetlistError(head.loc, "duplicate .mc directive");
      deck_.mc.present = true;
      deck_.mc.loc = head.loc;
      deck_.mc.samples = parse_value(s_);
      deck_.mc.params = parse_kv_pairs(s_);
      s_.expect_eol(".mc");
    } else if (d == ".expert") {
      ExpertDef def;
      def.loc = head.loc;
      const Token& filter = s_.peek();
      if (filter.is_punct("*")) {
        def.filter = "*";
        s_.next();
      } else if (filter.kind == TokKind::ident || filter.kind == TokKind::number) {
        // PDK names like "180nm" lex as a suffixed number; the raw text is
        // the filter.
        std::string f = filter.raw;
        std::transform(f.begin(), f.end(), f.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        def.filter = f;
        s_.next();
      } else {
        throw NetlistError(filter.loc, ".expert needs a PDK-name filter or '*'");
      }
      while (!s_.at_line_end()) {
        const Token& t = s_.peek();
        bool neg = false;
        if (t.is_punct("-")) {
          neg = true;
          s_.next();
        }
        const Token& num = s_.peek();
        if (num.kind != TokKind::number)
          throw NetlistError(num.loc, ".expert values must be numbers");
        s_.next();
        def.unit_x.push_back(neg ? -num.value : num.value);
      }
      s_.expect_eol(".expert");
      deck_.experts.push_back(std::move(def));
    } else {
      throw NetlistError(head.loc,
                         "unknown directive '" + head.raw +
                             "' (supported: .title .nodes .param .var .model "
                             ".subckt/.ends .bias .ac .tran .tsweep .ic "
                             ".temp .spec .require .corner .mc .expert "
                             ".end)");
    }
  }

  /// Spec display unit: raw tokens concatenated up to the '='/'>='/'<='
  /// delimiter, so compound units ("V/us", "%") survive tokenization.
  std::string parse_spec_unit() {
    std::string unit;
    while (!s_.at_line_end() && !s_.peek().is_punct("=") &&
           !s_.peek().is_punct(">=") && !s_.peek().is_punct("<="))
      unit += s_.next().raw;
    return unit;
  }

  /// `>=|<= <bound>` (shared by .spec constraints and .require): stores
  /// the bound and returns true for a lower bound.
  bool parse_bound(const char* card, ExprPtr& bound) {
    const Token& dir = s_.peek();
    if (!dir.is_punct(">=") && !dir.is_punct("<="))
      throw NetlistError(dir.loc, std::string("expected '>=' or '<=' in ") +
                                      card + ", got '" +
                                      (dir.raw.empty() ? "end of line"
                                                       : dir.raw) +
                                      "'");
    const bool lower = s_.next().is_punct(">=");
    bound = parse_value(s_);
    return lower;
  }

  SpecDef parse_spec(const SourceLoc& loc) {
    SpecDef spec;
    spec.loc = loc;
    const Token& first = s_.peek();
    if (first.kind == TokKind::ident && first.text == "objective") {
      s_.next();
      spec.is_objective = true;
      for (const auto& existing : deck_.specs)
        if (existing.is_objective)
          throw NetlistError(loc, "duplicate .spec objective");
      spec.name = s_.next().raw;
      spec.unit = parse_spec_unit();
      if (!s_.peek().is_punct("="))
        throw NetlistError(s_.peek().loc,
                           "expected '= <measure expr>' in .spec objective");
      s_.next();
      spec.measure = parse_expr(s_);
      s_.expect_eol(".spec");
      return spec;
    }
    spec.name = s_.next().raw;
    spec.unit = parse_spec_unit();
    spec.is_lower_bound = parse_bound(".spec constraint", spec.bound);
    if (!s_.peek().is_punct("="))
      throw NetlistError(s_.peek().loc, "expected '= <measure expr>' in .spec");
    s_.next();
    spec.measure = parse_expr(s_);
    s_.expect_eol(".spec");
    return spec;
  }

  Stream s_;
  std::string file_;
  Deck deck_;
  std::unordered_set<std::string> top_names_;
  std::unordered_set<std::string> param_names_;
  std::unordered_set<std::string> var_names_;
  std::unordered_set<std::string> model_names_;
  std::unordered_set<std::string> corner_names_;
};

}  // namespace

// --- Expression evaluation -------------------------------------------------

double eval_expr(const Expr& e, const Scope& scope, const MeasureHook* hook) {
  switch (e.kind) {
    case Expr::Kind::number:
      return e.number;
    case Expr::Kind::ident: {
      if (auto v = scope.lookup(e.name)) return *v;
      throw NetlistError(e.loc, "undefined parameter or variable '" + e.raw + "'");
    }
    case Expr::Kind::negate:
      return -eval_expr(*e.args[0], scope, hook);
    case Expr::Kind::binary: {
      const double a = eval_expr(*e.args[0], scope, hook);
      const double b = eval_expr(*e.args[1], scope, hook);
      switch (e.name[0]) {
        case '+': return a + b;
        case '-': return a - b;
        case '*': return a * b;
        default: return a / b;
      }
    }
    case Expr::Kind::call: {
      auto arity = [&](std::size_t n) {
        if (e.args.size() != n)
          throw NetlistError(e.loc, "'" + e.name + "' expects " +
                                        std::to_string(n) + " argument(s), got " +
                                        std::to_string(e.args.size()));
      };
      auto arg = [&](std::size_t i) { return eval_expr(*e.args[i], scope, hook); };
      if (e.name == "sqrt") { arity(1); return std::sqrt(arg(0)); }
      if (e.name == "abs") { arity(1); return std::abs(arg(0)); }
      if (e.name == "exp") { arity(1); return std::exp(arg(0)); }
      if (e.name == "log") { arity(1); return std::log(arg(0)); }
      if (e.name == "pow") { arity(2); return std::pow(arg(0), arg(1)); }
      if (e.name == "min") { arity(2); return std::min(arg(0), arg(1)); }
      if (e.name == "max") { arity(2); return std::max(arg(0), arg(1)); }
      if (e.name == "cond") { arity(3); return arg(0) != 0.0 ? arg(1) : arg(2); }
      if (hook != nullptr) return hook->call(e);
      throw NetlistError(e.loc,
                         "unknown function '" + e.name +
                             "' (measure functions are only valid in .spec lines)");
    }
  }
  throw NetlistError(e.loc, "internal: bad expression node");
}

// --- Entry points ----------------------------------------------------------

Deck parse_netlist(const std::string& text, const std::string& filename) {
  KATO_OBS_SPAN("parse");
  return Parser(tokenize(text, filename), filename).run();
}

Deck parse_netlist_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::invalid_argument("parse_netlist_file: cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_netlist(ss.str(), path);
}

}  // namespace kato::net
