#include "io/blif.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <deque>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace plim::io {

namespace {

/// Signal of each name; the views point into names that outlive the map.
using NameMap = std::unordered_map<std::string_view, mig::Signal>;

/// BLIF text under construction. Without a stream it keeps the whole
/// text; with one it hands the text over in chunks of about
/// `kChunkBytes` at line ends, so writing a large network holds no more
/// than one chunk.
class BlifText {
 public:
  explicit BlifText(std::ostream* os) : os_(os) {
    if (os_ != nullptr) {
      text_.reserve(kChunkBytes + 1024);
    }
  }

  void put(char c) { text_ += c; }
  void put(std::string_view s) { text_ += s; }
  void put(std::uint32_t n) {
    char digits[10];
    const auto end = std::to_chars(digits, digits + sizeof digits, n).ptr;
    text_.append(digits, end);
  }

  void end_line() {
    text_ += '\n';
    if (os_ != nullptr && text_.size() >= kChunkBytes) {
      flush();
    }
  }

  void flush() {
    os_->write(text_.data(), static_cast<std::streamsize>(text_.size()));
    text_.clear();
  }

  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

  std::ostream* os_;
  std::string text_;
};

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

  void write(BlifText& out, mig::node n) const {
    if (!renamed_.empty()) {
      if (const auto it = renamed_.find(n); it != renamed_.end()) {
        out.put(it->second);
        return;
      }
    }
    if (mig_.is_constant(n)) {
      out.put("const0");
    } else if (mig_.is_pi(n)) {
      out.put(mig_.pi_name(mig_.pi_index(n)));
    } else {
      out.put('n');
      out.put(n);
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

/// Writes the whole file into `out`.
void emit_blif(const mig::Mig& mig, const std::string& model_name,
               BlifText& out) {
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

  out.put(".model ");
  out.put(model_name);
  out.end_line();
  out.put(".inputs");
  mig.foreach_pi([&](mig::node n) {
    out.put(' ');
    names.write(out, n);
  });
  out.end_line();
  out.put(".outputs");
  mig.foreach_po([&](mig::Signal, std::uint32_t i) {
    out.put(' ');
    out.put(mig.po_name(i));
  });
  out.end_line();
  out.put(".names ");  // constant-0 driver: empty cover
  names.write(out, 0);
  out.end_line();

  mig.foreach_gate([&](mig::node n) {
    const auto& f = mig.fanins(n);
    out.put(".names");
    for (const auto s : f) {
      out.put(' ');
      names.write(out, s.index());
    }
    out.put(' ');
    names.write(out, n);
    out.end_line();
    // Cover of MAJ with per-fanin complements: rows where at least two
    // (complement-adjusted) fanins are 1.
    const char b0 = f[0].complemented() ? '0' : '1';
    const char b1 = f[1].complemented() ? '0' : '1';
    const char b2 = f[2].complemented() ? '0' : '1';
    const char rows[] = {b0,  b1,  '-', ' ', '1', '\n',  //
                         b0,  '-', b2,  ' ', '1', '\n',  //
                         '-', b1,  b2,  ' ', '1'};
    out.put(std::string_view(rows, sizeof rows));
    out.end_line();
  });

  mig.foreach_po([&](mig::Signal f, std::uint32_t i) {
    if (!buffered[i]) {
      return;
    }
    out.put(".names ");
    names.write(out, f.index());
    out.put(' ');
    out.put(mig.po_name(i));
    out.end_line();
    out.put(f.complemented() ? "0 1" : "1 1");
    out.end_line();
  });
  out.put(".end");
  out.end_line();
}

}  // namespace

void write_blif(const mig::Mig& mig, std::ostream& os,
                const std::string& model_name) {
  BlifText out(&os);
  emit_blif(mig, model_name, out);
  out.flush();
}

std::string to_blif(const mig::Mig& mig, const std::string& model_name) {
  BlifText out(nullptr);
  emit_blif(mig, model_name, out);
  return out.take();
}

namespace {

/// The six whitespace bytes of the C locale (' ', '\t', '\n', '\v', '\f',
/// '\r'), whatever the locale is.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Cuts the next whitespace-separated token off the front of `rest`;
/// empty when none is left.
std::string_view next_token(std::string_view& rest) {
  std::size_t i = 0;
  while (i < rest.size() && is_space(rest[i])) {
    ++i;
  }
  std::size_t j = i;
  while (j < rest.size() && !is_space(rest[j])) {
    ++j;
  }
  const std::string_view token = rest.substr(i, j - i);
  rest.remove_prefix(j);
  return token;
}

/// Appends every token left in `rest` to `names`.
void append_tokens(std::string_view rest,
                   std::vector<std::string_view>& names) {
  for (auto token = next_token(rest); !token.empty();
       token = next_token(rest)) {
    names.push_back(token);
  }
}

/// The signal of each defined name: one flat open-addressing table
/// (linear probing, power-of-two capacity) that doubles at half load. Its
/// views point into the text being read.
class NameTable {
 public:
  /// Room for `expected` names before the first doubling.
  explicit NameTable(std::size_t expected)
      : slots_(std::bit_ceil(std::max<std::size_t>(2 * expected, 16))) {}

  /// Binds `name` to `s`; false when `name` already has a signal.
  bool define(std::string_view name, mig::Signal s) {
    if (2 * (count_ + 1) > slots_.size()) {
      std::vector<Slot> old(2 * slots_.size());
      old.swap(slots_);
      for (const Slot& slot : old) {
        if (slot.data != nullptr) {
          const std::string_view key(slot.data, slot.size);
          slots_[probe(key, hash(key))] = slot;
        }
      }
    }
    Slot& slot = slots_[probe(name, hash(name))];
    if (slot.data != nullptr) {
      return false;
    }
    slot = Slot{name.data(), name.size(), s};
    ++count_;
    return true;
  }

  /// The signal bound to `name`, or null. `h` is hash(name).
  [[nodiscard]] const mig::Signal* find(std::string_view name,
                                        std::size_t h) const {
    const Slot& slot = slots_[probe(name, h)];
    return slot.data != nullptr ? &slot.signal : nullptr;
  }

  /// Starts loading the slot where a name with hash `h` would be found, so
  /// that its lookup a few lines later does not wait for memory.
  void prefetch(std::size_t h) const {
    __builtin_prefetch(&slots_[h & (slots_.size() - 1)]);
  }

  static std::size_t hash(std::string_view name) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ name.size();
    std::size_t i = 0;
    for (; i + 8 <= name.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, name.data() + i, 8);
      h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    std::uint64_t tail = 0;
    if (i < name.size()) {
      std::memcpy(&tail, name.data() + i, name.size() - i);
    }
    h = (h ^ tail) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

 private:
  /// A token is never empty, so a null `data` marks a free slot.
  struct Slot {
    const char* data = nullptr;
    std::size_t size = 0;
    mig::Signal signal;
  };

  /// The slot holding `name`, or the free slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view name, std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.data == nullptr ||
          (slot.size == name.size() &&
           std::memcmp(slot.data, name.data(), name.size()) == 0)) {
        return i;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

/// Reads one BLIF model in a single pass over its lines, building the
/// network as it goes: the PIs at their `.inputs` lines, each cover as
/// an OR of AND terms once its last row is in (at the next `.names` line
/// or the end of the text), the POs at the end. A syntax error is thrown
/// at its line. A build error (a name defined twice, an undefined name, a
/// mixed cover, an undriven output) stops the build but is thrown only at
/// the end, since a syntax error anywhere in the text takes precedence.
/// An `.inputs` line after the first `.names` line would renumber every
/// gate, so it stops the build too: the text is then read a second time
/// with all its PIs created first (see read_blif_text).
class Reader {
 public:
  /// `pis`: every PI name of the text in order, created up front; the
  /// text's own `.inputs` lines are then skipped.
  Reader(std::string_view text, const std::vector<std::string_view>* pis)
      : text_(text),
        names_(text.size() / kBytesPerName),
        pis_first_(pis != nullptr) {
    if (pis_first_) {
      for (std::size_t i = 0; i < pis->size() && building(); ++i) {
        define((*pis)[i], result_.create_pi(std::string((*pis)[i])));
      }
    }
  }

  /// Reads the whole text. Throws std::runtime_error on the first syntax
  /// error, or else on the first build error unless late_inputs().
  void run() {
    // Lines split at '\n', '#' starts a comment, trailing '\r' and spaces
    // are trimmed, and a line then ending in '\' continues on the next
    // one (also at the end of the text).
    std::string pending;  // continued lines so far
    std::size_t pos = 0;
    while (pos < text_.size()) {
      const std::size_t end = std::min(text_.find('\n', pos), text_.size());
      std::string_view line = text_.substr(pos, end - pos);
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
        read_line(line);
        continue;
      }
      pending += line;
      joined_.push_back(std::move(pending));
      pending.clear();
      read_line(joined_.back());
    }
    if (!pending.empty()) {
      joined_.push_back(std::move(pending));
      read_line(joined_.back());
    }
    finish_cover();
    for (const auto name : outputs_) {
      if (!building()) {
        break;
      }
      if (const mig::Signal* s = names_.find(name, NameTable::hash(name))) {
        result_.create_po(*s, std::string(name));
      } else {
        error_ = "undriven output " + std::string(name);
      }
    }
    if (error_ && !late_inputs_) {
      throw std::runtime_error(*error_);
    }
  }

  /// Whether an `.inputs` line came after the first `.names` line.
  [[nodiscard]] bool late_inputs() const { return late_inputs_; }
  /// Every PI name of the text, in order.
  [[nodiscard]] const std::vector<std::string_view>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] mig::Mig take() { return std::move(result_); }

 private:
  /// Sizes the name table: write_blif spends about 50 bytes per name (a
  /// `.names` line and three rows per gate), and the table doubles if a
  /// text holds more names.
  static constexpr std::size_t kBytesPerName = 48;

  [[nodiscard]] bool building() const { return !error_ && !late_inputs_; }

  /// Binds a name while building; the caller checks building().
  void define(std::string_view name, mig::Signal s) {
    if (!names_.define(name, s)) {
      error_ = "signal defined twice: " + std::string(name);
    }
  }

  /// Adds one logical line (comments cut, continuations joined).
  void read_line(std::string_view line) {
    std::string_view rest = line;
    const std::string_view tok = next_token(rest);
    if (tok.empty() || tok == ".model" || tok == ".end") {
      return;
    }
    if (tok == ".inputs") {
      if (pis_first_) {
        return;
      }
      late_inputs_ = late_inputs_ || seen_cover_;
      const std::size_t first = inputs_.size();
      append_tokens(rest, inputs_);
      for (std::size_t i = first; i < inputs_.size() && building(); ++i) {
        define(inputs_[i], result_.create_pi(std::string(inputs_[i])));
      }
      return;
    }
    if (tok == ".outputs") {
      append_tokens(rest, outputs_);
      return;
    }
    if (tok == ".names") {
      finish_cover();
      cover_.clear();
      rows_.clear();
      num_rows_ = 0;
      append_tokens(rest, cover_);
      if (cover_.empty()) {
        throw std::runtime_error(".names without signals");
      }
      seen_cover_ = true;
      // The inputs are looked up once the rows are in.
      cover_hashes_.clear();
      for (const auto name : cover_) {
        cover_hashes_.push_back(NameTable::hash(name));
        names_.prefetch(cover_hashes_.back());
      }
      return;
    }
    if (tok[0] == '.') {
      throw std::runtime_error("unsupported BLIF construct: " +
                               std::string(tok));
    }
    if (!seen_cover_) {
      throw std::runtime_error("cover row outside .names");
    }
    // A row is its input plane (one character per cover input) followed
    // by its output character; a constant cover's single column is the
    // output value.
    const std::size_t width = cover_.size() - 1;
    if (width == 0) {
      rows_ += tok[0];
    } else {
      const std::string_view out = next_token(rest);
      if (tok.size() != width || out.size() != 1) {
        throw std::runtime_error("malformed cover row: " + std::string(line));
      }
      rows_ += tok;
      rows_ += out[0];
    }
    ++num_rows_;
  }

  /// Builds the cover read last, if any.
  void finish_cover() {
    if (cover_.empty() || !building()) {
      return;
    }
    const std::size_t width = cover_.size() - 1;
    const std::string_view output = cover_[width];
    // BLIF requires a uniform output plane per cover: on-set or off-set.
    const bool on_set = num_rows_ == 0 || rows_[width] == '1';
    if (width == 0) {
      // ".names x" with no rows = constant 0; row "1" = constant 1.
      define(output, result_.get_constant(num_rows_ != 0 && on_set));
      return;
    }
    fanins_.clear();
    for (std::size_t i = 0; i < width; ++i) {
      const mig::Signal* s = names_.find(cover_[i], cover_hashes_[i]);
      if (s == nullptr) {
        error_ = "cover uses undefined signal " + std::string(cover_[i]);
        return;
      }
      fanins_.push_back(*s);
    }
    mig::Signal acc = result_.get_constant(false);
    const char* row = rows_.data();
    for (std::uint32_t r = 0; r < num_rows_; ++r, row += width + 1) {
      if ((row[width] == '1') != on_set) {
        error_ = "mixed on/off covers are unsupported";
        return;
      }
      mig::Signal term = result_.get_constant(true);
      for (std::size_t i = 0; i < width; ++i) {
        if (row[i] == '-') {
          continue;
        }
        const mig::Signal lit = row[i] == '1' ? fanins_[i] : !fanins_[i];
        term = result_.create_and(term, lit);
      }
      acc = result_.create_or(acc, term);
    }
    define(output, on_set ? acc : !acc);
  }

  std::string_view text_;
  std::deque<std::string> joined_;  ///< lines assembled from continuations
  NameTable names_;
  mig::Mig result_;
  std::optional<std::string> error_;  ///< the first build error
  bool pis_first_;
  bool late_inputs_ = false;
  bool seen_cover_ = false;
  std::vector<std::string_view> inputs_;
  std::vector<std::string_view> outputs_;
  // The cover read last: its names (inputs, then the output) and its rows.
  std::vector<std::string_view> cover_;
  std::vector<std::size_t> cover_hashes_;
  std::string rows_;
  std::uint32_t num_rows_ = 0;
  std::vector<mig::Signal> fanins_;
};

}  // namespace

mig::Mig read_blif(std::istream& is) {
  std::string text;
  // A seekable stream tells how much is left, so the text grows once.
  if (auto* buf = is.rdbuf()) {
    const auto here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
    const auto end = buf->pubseekoff(0, std::ios::end, std::ios::in);
    if (here != -1 && end != -1 &&
        buf->pubseekpos(here, std::ios::in) == here && end > here) {
      text.reserve(static_cast<std::size_t>(end - here));
    }
  }
  char chunk[1 << 16];
  while (is.read(chunk, sizeof chunk), is.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return read_blif_text(text);
}

mig::Mig read_blif_text(const std::string& text) {
  Reader reader(text, nullptr);
  reader.run();
  if (!reader.late_inputs()) {
    return reader.take();
  }
  // PIs come first in the network, so a text that declares some after a
  // cover is read again with all of them declared up front.
  Reader again(text, &reader.inputs());
  again.run();
  return again.take();
}

}  // namespace plim::io
