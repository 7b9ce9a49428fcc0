#include "io/blif.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <deque>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace plim::io {

namespace {

/// Signal of each name; the views point into names that outlive the map.
using NameMap = std::unordered_map<std::string_view, mig::Signal>;

/// The names write_blif gives to nodes. A PI keeps its port name; the
/// constant is `const0` and gate k is `n<k>`, each followed by as many `_`
/// as it takes to differ from every port name. Only a port that is itself
/// named like a gate or the constant moves a name.
class NodeNames {
 public:
  NodeNames(const mig::Mig& mig, const NameMap& ports) : mig_(mig) {
    for (const auto& [port, signal] : ports) {
      const auto n = default_owner(port);
      if (!n) {
        continue;
      }
      std::string name(port);
      do {
        name += '_';
      } while (ports.count(name) != 0);
      renamed_.emplace(*n, std::move(name));
    }
  }

  void write(std::ostream& os, mig::node n) const {
    if (!renamed_.empty()) {
      if (const auto it = renamed_.find(n); it != renamed_.end()) {
        os << it->second;
        return;
      }
    }
    if (mig_.is_constant(n)) {
      os << "const0";
    } else if (mig_.is_pi(n)) {
      os << mig_.pi_name(mig_.pi_index(n));
    } else {
      os << 'n' << n;
    }
  }

 private:
  /// The constant or gate whose default name is `name`, if any.
  [[nodiscard]] std::optional<mig::node> default_owner(
      std::string_view name) const {
    if (name == "const0") {
      return mig::node{0};
    }
    if (name.size() < 2 || name[0] != 'n' || name[1] == '0') {
      return std::nullopt;  // a gate k >= 1 is `n<k>` without leading zeros
    }
    mig::node n = 0;
    const auto* end = name.data() + name.size();
    const auto [ptr, ec] = std::from_chars(name.data() + 1, end, n);
    if (ec != std::errc{} || ptr != end || n >= mig_.size() ||
        !mig_.is_gate(n)) {
      return std::nullopt;
    }
    return n;
  }

  const mig::Mig& mig_;
  std::unordered_map<mig::node, std::string> renamed_;
};

}  // namespace

void write_blif(const mig::Mig& mig, std::ostream& os,
                const std::string& model_name) {
  // Every port name gets exactly one definition: its PI, or one buffer
  // cover. A PO named like a PI or an earlier PO needs no buffer when both
  // name the same signal; otherwise no file could say what the name means.
  NameMap ports;
  const auto define = [&](const std::string& name, mig::Signal s) {
    const auto [it, fresh] = ports.try_emplace(name, s);
    if (!fresh && it->second != s) {
      throw std::invalid_argument("write_blif: port name " + name +
                                  " names two different signals");
    }
    return fresh;
  };
  mig.foreach_pi([&](mig::node n) {
    define(mig.pi_name(mig.pi_index(n)), mig::Signal(n, false));
  });
  std::vector<bool> buffered(mig.num_pos());
  mig.foreach_po([&](mig::Signal f, std::uint32_t i) {
    buffered[i] = define(mig.po_name(i), f);
  });
  const NodeNames names(mig, ports);

  os << ".model " << model_name << '\n';
  os << ".inputs";
  mig.foreach_pi([&](mig::node n) {
    os << ' ';
    names.write(os, n);
  });
  os << '\n';
  os << ".outputs";
  mig.foreach_po(
      [&](mig::Signal, std::uint32_t i) { os << ' ' << mig.po_name(i); });
  os << '\n';
  os << ".names ";  // constant-0 driver: empty cover
  names.write(os, 0);
  os << '\n';

  mig.foreach_gate([&](mig::node n) {
    const auto& f = mig.fanins(n);
    os << ".names";
    for (const auto s : f) {
      os << ' ';
      names.write(os, s.index());
    }
    os << ' ';
    names.write(os, n);
    os << '\n';
    // Cover of MAJ with per-fanin complements: rows where at least two
    // (complement-adjusted) fanins are 1.
    const auto bit = [&](int i) {
      return f[static_cast<std::size_t>(i)].complemented() ? '0' : '1';
    };
    os << bit(0) << bit(1) << '-' << " 1\n";
    os << bit(0) << '-' << bit(2) << " 1\n";
    os << '-' << bit(1) << bit(2) << " 1\n";
  });

  mig.foreach_po([&](mig::Signal f, std::uint32_t i) {
    if (!buffered[i]) {
      return;
    }
    os << ".names ";
    names.write(os, f.index());
    os << ' ' << mig.po_name(i) << '\n';
    os << (f.complemented() ? "0 1\n" : "1 1\n");
  });
  os << ".end\n";
}

std::string to_blif(const mig::Mig& mig, const std::string& model_name) {
  std::ostringstream os;
  write_blif(mig, os, model_name);
  return os.str();
}

namespace {

/// One `.names` cover: its signal names sit in Model::signals (inputs,
/// then the output), its rows in Model::rows.
struct Cover {
  std::uint32_t first_signal = 0;
  std::uint32_t num_inputs = 0;
  std::uint32_t first_row = 0;
  std::uint32_t num_rows = 0;
};

struct Row {
  std::string_view plane;  ///< empty for a constant cover
  char out = '0';
};

/// A tokenized BLIF model. Every view points into the text being read or
/// into `joined`, which owns the lines assembled from `\` continuations.
struct Model {
  std::vector<std::string_view> inputs;
  std::vector<std::string_view> outputs;
  std::vector<std::string_view> signals;
  std::vector<Cover> covers;
  std::vector<Row> rows;
  std::deque<std::string> joined;
};

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Splits `line` at std::isspace characters into `tokens`.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (true) {
    while (i < line.size() && is_space(line[i])) {
      ++i;
    }
    if (i == line.size()) {
      return;
    }
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) {
      ++i;
    }
    tokens.push_back(line.substr(start, i - start));
  }
}

/// Adds one logical line (comments cut, continuations joined) to `model`.
void parse_line(std::string_view line, Model& model,
                std::vector<std::string_view>& tokens) {
  tokenize(line, tokens);
  if (tokens.empty()) {
    return;
  }
  const std::string_view tok = tokens[0];
  if (tok == ".model" || tok == ".end") {
    return;
  }
  if (tok == ".inputs" || tok == ".outputs") {
    auto& names = tok == ".inputs" ? model.inputs : model.outputs;
    names.insert(names.end(), tokens.begin() + 1, tokens.end());
    return;
  }
  if (tok == ".names") {
    if (tokens.size() == 1) {
      throw std::runtime_error(".names without signals");
    }
    model.covers.push_back(
        Cover{static_cast<std::uint32_t>(model.signals.size()),
              static_cast<std::uint32_t>(tokens.size() - 2),
              static_cast<std::uint32_t>(model.rows.size()), 0});
    model.signals.insert(model.signals.end(), tokens.begin() + 1,
                         tokens.end());
    return;
  }
  if (tok[0] == '.') {
    throw std::runtime_error("unsupported BLIF construct: " +
                             std::string(tok));
  }
  if (model.covers.empty()) {
    throw std::runtime_error("cover row outside .names");
  }
  Cover& cover = model.covers.back();
  if (cover.num_inputs == 0) {
    // Constant driver: the single column is the output value.
    model.rows.push_back(Row{{}, tok[0]});
  } else {
    if (tok.size() != cover.num_inputs || tokens.size() < 2 ||
        tokens[1].size() != 1) {
      throw std::runtime_error("malformed cover row: " + std::string(line));
    }
    model.rows.push_back(Row{tok, tokens[1][0]});
  }
  ++cover.num_rows;
}

/// Tokenizes `text`: lines split at '\n', '#' starts a comment, trailing
/// '\r' and spaces are trimmed, and a line then ending in '\' continues on
/// the next one (also at the end of the text).
Model parse_model(std::string_view text) {
  Model model;
  std::vector<std::string_view> tokens;
  std::string pending;  // continued lines so far
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (!line.empty() && line.back() == '\\') {
      line.remove_suffix(1);
      pending += line;
      continue;
    }
    if (pending.empty()) {
      parse_line(line, model, tokens);
      continue;
    }
    pending += line;
    model.joined.push_back(std::move(pending));
    pending.clear();
    parse_line(model.joined.back(), model, tokens);
  }
  if (!pending.empty()) {
    model.joined.push_back(std::move(pending));
    parse_line(model.joined.back(), model, tokens);
  }
  return model;
}

/// Builds the network: all PIs, then every cover in file order as an
/// OR of AND terms, then the POs.
mig::Mig build(const Model& model) {
  mig::Mig result;
  NameMap signals;
  signals.reserve(model.inputs.size() + model.covers.size());
  const auto define = [&](std::string_view name, mig::Signal s) {
    if (!signals.try_emplace(name, s).second) {
      throw std::runtime_error("signal defined twice: " + std::string(name));
    }
  };
  for (const auto name : model.inputs) {
    define(name, result.create_pi(std::string(name)));
  }

  // Covers may be listed out of dependency order in general BLIF; this
  // reader requires topological order (which write_blif produces).
  std::vector<mig::Signal> fanins;
  for (const Cover& cover : model.covers) {
    const auto* names = model.signals.data() + cover.first_signal;
    const std::string_view output = names[cover.num_inputs];
    const Row* rows = model.rows.data() + cover.first_row;
    // BLIF requires a uniform output plane per cover: on-set or off-set.
    const bool on_set = cover.num_rows == 0 || rows[0].out == '1';
    if (cover.num_inputs == 0) {
      // ".names x" with no rows = constant 0; row "1" = constant 1.
      define(output, result.get_constant(cover.num_rows != 0 && on_set));
      continue;
    }
    fanins.clear();
    for (std::uint32_t i = 0; i < cover.num_inputs; ++i) {
      const auto it = signals.find(names[i]);
      if (it == signals.end()) {
        throw std::runtime_error("cover uses undefined signal " +
                                 std::string(names[i]));
      }
      fanins.push_back(it->second);
    }
    mig::Signal acc = result.get_constant(false);
    for (std::uint32_t r = 0; r < cover.num_rows; ++r) {
      const auto& [plane, out] = rows[r];
      if ((out == '1') != on_set) {
        throw std::runtime_error("mixed on/off covers are unsupported");
      }
      mig::Signal term = result.get_constant(true);
      for (std::size_t i = 0; i < plane.size(); ++i) {
        if (plane[i] == '-') {
          continue;
        }
        const mig::Signal lit = plane[i] == '1' ? fanins[i] : !fanins[i];
        term = result.create_and(term, lit);
      }
      acc = result.create_or(acc, term);
    }
    define(output, on_set ? acc : !acc);
  }

  for (const auto name : model.outputs) {
    const auto it = signals.find(name);
    if (it == signals.end()) {
      throw std::runtime_error("undriven output " + std::string(name));
    }
    result.create_po(it->second, std::string(name));
  }
  return result;
}

}  // namespace

mig::Mig read_blif(std::istream& is) {
  std::string text;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof chunk), is.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return read_blif_text(text);
}

mig::Mig read_blif_text(const std::string& text) {
  return build(parse_model(text));
}

}  // namespace plim::io
