#pragma once

#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/program.hpp"

namespace plim::arch {

/// Renders a program in the paper's listing syntax, e.g.
///
///   01: 0, 1, @X1
///   02: 1, i3, @X1
///   03: i1, i2, @X1
///
/// Inputs print by their declared names and RRAM cells as "@X<k>"
/// (1-based, as in the paper). "# input <i> <name>" lines come first and
/// "# output <name> @X<k>" lines last.
[[nodiscard]] std::string to_text(const Program& program);
void write_text(const Program& program, std::ostream& os);

/// Parses the textual form back (round-trip of `to_text`). Throws
/// std::runtime_error on malformed input or when the program fails
/// Program::validate().
[[nodiscard]] Program parse_program(const std::string& text);

/// A whole decimal number no larger than `max`: digits only, with no sign,
/// space or trailing character (std::stoul takes "-1", " 7" and "3x").
[[nodiscard]] std::optional<std::uint64_t> parse_decimal(
    std::string_view text, std::uint64_t max);

// ---- the grammar both listings share; sched/text adds the bank lines -------

/// A listing number: trimmed `text` is `prefix` and then parse_decimal in
/// [min, max], or std::runtime_error names `field`.
[[nodiscard]] std::uint32_t parse_number(
    std::string_view text, std::string_view prefix, std::string_view field,
    std::uint32_t min = 0,
    std::uint32_t max = std::numeric_limits<std::uint32_t>::max());

/// A cell as listings write it, "@X<index + 1>". parse_cell reads @X1 to
/// @X4294967295 and returns the index.
struct CellRef {
  std::uint32_t index = 0;
};
std::ostream& operator<<(std::ostream& os, CellRef cell);
[[nodiscard]] std::uint32_t parse_cell(std::string_view token);

/// `text` without surrounding spaces, tabs and '\r'; its trimmed parts
/// between the separators `sep` (none when empty); its two words, or
/// std::runtime_error quoting the line's `form`.
[[nodiscard]] std::string_view trim(std::string_view text);
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep);
[[nodiscard]] std::pair<std::string_view, std::string_view> two_words(
    std::string_view text, std::string_view form);

/// The "# input" lines; the "NN:" counter of line `number` (1-based; two
/// digits in listings of fewer than 100 lines); the "a, b, @Xz" operands;
/// the "# output" lines.
///
/// An operand names an input by its declared name, so the name has to
/// read back as that input: it is not empty, 0 or 1, does not start with
/// @X, holds no ',', '|' or whitespace, and repeats no earlier input.
/// write_inputs throws std::invalid_argument naming the first input that
/// breaks the rule, before it writes anything; ListingReader rejects the
/// "# input" line.
void write_inputs(std::ostream& os, const std::vector<std::string>& names);
void write_counter(std::ostream& os, std::size_t number, std::size_t lines);
void write_operands(std::ostream& os, const Instruction& instr,
                    const std::vector<std::string>& input_names);
void write_outputs(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::uint32_t>>& outputs);

/// Reads blank lines and the "# input" and "# output" ports, and hands
/// every other "#" line to `comment` and the text after each "NN:" counter
/// to `body`. Errors come back as std::runtime_error naming the line.
class ListingReader {
 public:
  using Hook = std::function<void(std::string_view)>;
  void read(std::string_view text, const Hook& comment, const Hook& body);

  /// Parses "a, b, @Xz" against the inputs declared so far.
  [[nodiscard]] Instruction instruction(std::string_view text) const;

  /// Declares the ports read on `program` (a Program or ParallelProgram).
  template <class P>
  void declare_ports(P& program) const {
    for (const auto& name : inputs_) {
      program.add_input(name);
    }
    for (const auto& [name, cell] : outputs_) {
      program.add_output(name, cell);
    }
  }

 private:
  std::vector<std::string> inputs_;
  std::map<std::string, std::uint32_t, std::less<>> input_index_;
  std::vector<std::pair<std::string, std::uint32_t>> outputs_;
};

}  // namespace plim::arch
