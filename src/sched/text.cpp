#include "sched/text.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "arch/text.hpp"

namespace plim::sched {

namespace {

// Sync endpoint phases: f(etch), a (read A), b (read B), w(rite). Without
// a suffix, a token signals at w and waits before f.
constexpr std::string_view kPhaseLetters = "fabw";

/// "# bank <k> @X<a>..@X<b>" or "# bank <k> empty". An empty bank sits at
/// `highest_end`, after the cells so far, as validate()'s order demands.
void read_bank(std::string_view args, ParallelProgram& p,
               std::uint32_t& highest_end) {
  const auto [k, range] = arch::two_words(args, "# bank <k> @X<a>..@X<b>");
  const auto bank = arch::parse_number(k, "", "bank", 0, p.num_banks() - 1);
  if (range == "empty") {
    p.set_bank_range(bank, highest_end, highest_end);
    return;
  }
  const auto dots = range.find("..");
  const auto begin = arch::parse_cell(range.substr(0, dots));
  const auto end = dots == std::string_view::npos
                       ? 0
                       : arch::parse_cell(range.substr(dots + 2)) + 1;
  if (end <= begin) {
    throw std::runtime_error("malformed bank range '" + std::string(range) +
                             "'");
  }
  p.set_bank_range(bank, begin, end);
  highest_end = std::max(highest_end, end);
}

/// "# sync t<id>: b<f>@<p>[.x] -> b<t>@<q>[.x]", with 1-based token ids
/// and stream positions and an optional phase letter x.
SyncEdge read_sync(std::string_view args, const ParallelProgram& p) {
  const auto colon = args.find(':');
  const auto arrow = args.find("->", colon);
  if (arrow == std::string_view::npos ||
      arch::parse_number(args.substr(0, colon), "t", "sync token id") !=
          p.sync_edges().size() + 1) {
    throw std::runtime_error("expected '# sync t" +
                             std::to_string(p.sync_edges().size() + 1) +
                             ": b<f>@<p> -> b<t>@<q>'");
  }
  SyncEdge e;
  const auto endpoint = [&](std::string_view s, std::uint32_t& bank,
                            std::uint32_t& pos, std::uint32_t& phase) {
    s = arch::trim(s);
    const auto at = s.find('@');
    if (at == std::string_view::npos) {
      throw std::runtime_error("malformed sync endpoint '" + std::string(s) +
                               "'");
    }
    bank = arch::parse_number(s.substr(0, at), "b", "bank tag");
    auto position = s.substr(at + 1);
    if (const auto dot = position.find('.'); dot != std::string_view::npos) {
      phase = static_cast<std::uint32_t>(
          kPhaseLetters.find(position.substr(dot + 1)));
      if (position.size() != dot + 2 || phase >= kPhaseLetters.size()) {
        throw std::runtime_error("malformed sync phase (expected .f, .a, .b "
                                 "or .w)");
      }
      position.remove_suffix(2);
    }
    pos = arch::parse_number(position, "", "sync position", 1) - 1;
  };
  endpoint(args.substr(colon + 1, arrow - colon - 1), e.from_bank, e.from_pos,
           e.from_phase);
  endpoint(args.substr(arrow + 2), e.to_bank, e.to_pos, e.to_phase);
  return e;
}

}  // namespace

void write_text(const ParallelProgram& program, std::ostream& os) {
  os << "# parallel banks " << program.num_banks() << '\n';
  if (program.bus_width() > 0) {
    os << "# bus " << program.bus_width() << '\n';
  }
  arch::write_inputs(os, program.input_names());
  for (std::uint32_t b = 0; b < program.num_banks(); ++b) {
    const auto [begin, end] = program.bank_range(b);
    os << "# bank " << b << ' ';
    if (begin == end) {
      os << "empty\n";
    } else {
      os << arch::CellRef{begin} << ".." << arch::CellRef{end - 1} << '\n';
    }
  }
  for (std::uint32_t s = 0; s < program.num_steps(); ++s) {
    arch::write_counter(os, s + 1, program.num_steps());
    const char* separator = " ";
    for (const auto& slot : program.step(s)) {
      os << separator << 'b' << slot.bank << (slot.is_transfer ? "*: " : ": ");
      arch::write_operands(os, slot.instr, program.input_names());
      separator = " | ";
    }
    os << '\n';
  }
  for (std::uint32_t i = 0; i < program.sync_edges().size(); ++i) {
    const auto& e = program.sync_edges()[i];
    os << "# sync t" << (i + 1) << ": b" << e.from_bank << '@'
       << (e.from_pos + 1) << '.' << kPhaseLetters[e.from_phase & 3]
       << " -> b" << e.to_bank << '@' << (e.to_pos + 1) << '.'
       << kPhaseLetters[e.to_phase & 3] << '\n';
  }
  arch::write_outputs(os, program.outputs());
}

std::string to_text(const ParallelProgram& program) {
  std::ostringstream os;
  write_text(program, os);
  return os.str();
}

ParallelProgram parse_parallel_program(const std::string& text) {
  ParallelProgram p;  // no banks until the "# parallel banks" line
  std::uint32_t highest_end = 0;
  const auto need_banks = [&] {
    if (p.num_banks() == 0) {
      throw std::runtime_error("'# parallel banks' must come first");
    }
  };
  arch::ListingReader reader;
  const auto header = [&](std::string_view line) {
    if (line.starts_with("# parallel banks ")) {
      if (p.num_banks() != 0) {
        throw std::runtime_error("second '# parallel banks' line");
      }
      p = ParallelProgram(
          arch::parse_number(line.substr(17), "", "bank count", 1, kMaxBanks));
      for (std::uint32_t b = 0; b < p.num_banks(); ++b) {
        p.set_bank_range(b, 0, 0);
      }
    } else if (line.starts_with("# bus ")) {
      need_banks();
      p.set_bus_width(arch::parse_number(line.substr(6), "", "bus width", 1));
    } else if (line.starts_with("# bank ")) {
      need_banks();
      read_bank(line.substr(7), p, highest_end);
    } else if (line.starts_with("# sync ")) {
      need_banks();
      p.add_sync(read_sync(line.substr(7), p));
    }
  };
  const auto step = [&](std::string_view body) {
    need_banks();
    p.begin_step();
    for (auto slot : arch::split(body, '|')) {
      const auto colon = slot.find(':');
      if (colon == std::string_view::npos) {
        throw std::runtime_error("slot without a bank tag 'b<k>:'");
      }
      auto tag = arch::trim(slot.substr(0, colon));
      const bool is_transfer = tag.ends_with('*');
      tag.remove_suffix(is_transfer ? 1 : 0);
      p.add_slot({arch::parse_number(tag, "b", "bank tag"),
                  reader.instruction(slot.substr(colon + 1)), is_transfer});
    }
  };
  reader.read(text, header, step);
  reader.declare_ports(p);
  if (const auto err = p.validate(); !err.empty()) {
    throw std::runtime_error("invalid parallel program: " + err);
  }
  return p;
}

}  // namespace plim::sched
