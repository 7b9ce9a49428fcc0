#include "arch/text.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace plim::arch {

namespace {

using InputIndex = std::map<std::string, std::uint32_t, std::less<>>;

/// Why a listing cannot declare an input named `name` after the inputs in
/// `earlier` (see write_inputs), or an empty string when it can.
std::string input_name_error(std::string_view name,
                             const InputIndex& earlier) {
  std::string_view flaw;
  if (name.empty()) {
    flaw = "is empty";
  } else if (name == "0" || name == "1") {
    flaw = "reads as a constant";
  } else if (name.starts_with("@X")) {
    flaw = "reads as a cell";
  } else if (name.find_first_of(",| \t\n\v\f\r") != name.npos) {
    flaw = "holds ',', '|' or whitespace";
  } else if (earlier.contains(name)) {
    flaw = "repeats an earlier input";
  } else {
    return {};
  }
  return "input '" + std::string(name) + "' " + std::string(flaw);
}

}  // namespace

void write_text(const Program& program, std::ostream& os) {
  write_inputs(os, program.input_names());
  for (std::size_t i = 0; i < program.num_instructions(); ++i) {
    write_counter(os, i + 1, program.num_instructions());
    os << ' ';
    write_operands(os, program[i], program.input_names());
    os << '\n';
  }
  write_outputs(os, program.outputs());
}

std::string to_text(const Program& program) {
  std::ostringstream os;
  write_text(program, os);
  return os.str();
}

Program parse_program(const std::string& text) {
  Program p;
  ListingReader reader;
  reader.read(
      text, [](std::string_view) {},
      [&](std::string_view body) { p.append(reader.instruction(body)); });
  reader.declare_ports(p);
  if (const auto err = p.validate(); !err.empty()) {
    throw std::runtime_error("invalid program: " + err);
  }
  return p;
}

std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                           std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

std::uint32_t parse_number(std::string_view text, std::string_view prefix,
                           std::string_view field, std::uint32_t min,
                           std::uint32_t max) {
  text = trim(text);
  const auto value = text.starts_with(prefix)
                         ? parse_decimal(text.substr(prefix.size()), max)
                         : std::nullopt;
  if (!value || *value < min) {
    throw std::runtime_error(
        std::string(field) + " '" + std::string(text) + "' is not " +
        std::string(prefix) + "<k> for a whole decimal k in " +
        std::to_string(min) + ".." + std::to_string(max));
  }
  return static_cast<std::uint32_t>(*value);
}

std::ostream& operator<<(std::ostream& os, CellRef cell) {
  return os << "@X" << (cell.index + 1);
}

std::uint32_t parse_cell(std::string_view token) {
  return parse_number(token, "@X", "RRAM cell", 1) - 1;
}

std::string_view trim(std::string_view text) {
  constexpr std::string_view kSpace = " \t\r";
  const auto b = text.find_first_not_of(kSpace);
  if (b == std::string_view::npos) {
    return {};
  }
  return text.substr(b, text.find_last_not_of(kSpace) - b + 1);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t pos = 0; !text.empty();) {
    const auto end = text.find(sep, pos);
    parts.push_back(trim(text.substr(pos, end - pos)));
    if (end == std::string_view::npos) {
      break;
    }
    pos = end + 1;
  }
  return parts;
}

std::pair<std::string_view, std::string_view> two_words(
    std::string_view text, std::string_view form) {
  text = trim(text);
  const auto space = std::min(text.find_first_of(" \t\r"), text.size());
  const auto second = trim(text.substr(space));
  if (second.empty() || second.find_first_of(" \t\r") != second.npos) {
    throw std::runtime_error("expected '" + std::string(form) + "'");
  }
  return {text.substr(0, space), second};
}

void write_inputs(std::ostream& os, const std::vector<std::string>& names) {
  InputIndex index;
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (const auto err = input_name_error(names[i], index); !err.empty()) {
      throw std::invalid_argument("cannot write a listing: " + err);
    }
    index.emplace(names[i], i);
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    os << "# input " << i << ' ' << names[i] << '\n';
  }
}

void write_counter(std::ostream& os, std::size_t number, std::size_t lines) {
  os << (lines < 100 && number < 10 ? "0" : "") << number << ':';
}

void write_operands(std::ostream& os, const Instruction& instr,
                    const std::vector<std::string>& input_names) {
  for (const Operand op : {instr.a, instr.b}) {
    if (op.is_constant()) {
      os << (op.constant_value() ? '1' : '0');
    } else if (op.is_input()) {
      os << input_names[op.address()];
    } else {
      os << CellRef{op.address()};
    }
    os << ", ";
  }
  os << CellRef{instr.z};
}

void write_outputs(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::uint32_t>>& outputs) {
  for (const auto& [name, cell] : outputs) {
    os << "# output " << name << ' ' << CellRef{cell} << '\n';
  }
}

void ListingReader::read(std::string_view text, const Hook& comment,
                         const Hook& body) {
  for (std::size_t number = 1; !text.empty(); ++number) {
    const auto eol = text.find('\n');
    const auto line = trim(text.substr(0, eol));
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    try {
      if (line.starts_with("# input ")) {
        const auto [i, name] = two_words(line.substr(8), "# input <i> <name>");
        const auto index = static_cast<std::uint32_t>(inputs_.size());
        (void)parse_number(i, "", "input index", index, index);
        if (const auto err = input_name_error(name, input_index_);
            !err.empty()) {
          throw std::runtime_error(err);
        }
        inputs_.emplace_back(name);
        input_index_.emplace(name, index);
      } else if (line.starts_with("# output ")) {
        const auto [name, cell] =
            two_words(line.substr(9), "# output <name> @X<k>");
        outputs_.emplace_back(name, parse_cell(cell));
      } else if (line.starts_with('#')) {
        comment(line);
      } else if (!line.empty()) {
        const auto colon = line.find(':');
        if (colon == std::string_view::npos) {
          throw std::runtime_error("missing the 'NN:' counter");
        }
        (void)parse_number(line.substr(0, colon), "", "counter");
        body(trim(line.substr(colon + 1)));
      }
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("line " + std::to_string(number) + ": " +
                               e.what());
    }
  }
}

Instruction ListingReader::instruction(std::string_view text) const {
  const auto parts = split(text, ',');
  if (parts.size() != 3) {
    throw std::runtime_error("expected three operands 'a, b, @Xz'");
  }
  const auto operand = [&](std::string_view token) {
    if (token == "0" || token == "1") {
      return Operand::constant(token == "1");
    }
    if (token.starts_with("@X")) {
      return Operand::rram(parse_cell(token));
    }
    const auto it = input_index_.find(token);
    if (it == input_index_.end()) {
      throw std::runtime_error("unknown operand '" + std::string(token) + "'");
    }
    return Operand::input(it->second);
  };
  return {operand(parts[0]), operand(parts[1]), parse_cell(parts[2])};
}

}  // namespace plim::arch
