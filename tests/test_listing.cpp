// Replays the committed listing corpus (tests/corpus/listing) through both
// listing parsers. Each file is either rejected with std::runtime_error or
// parses to a program that validates and survives to_text → parse →
// to_text unchanged. The "bad-" probes are malformed and must be rejected
// by both parsers; every other file was written by to_text, so the parser
// its header names must read it back to the same bytes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "arch/text.hpp"
#include "sched/text.hpp"

namespace plim {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The rendering of what `parse` reads from `text`, or nullopt when it
/// rejects the text.
template <class Program>
std::optional<std::string> replay(
    const std::string& text, Program (*parse)(const std::string&),
    std::string (*render)(const std::type_identity_t<Program>&)) {
  std::optional<Program> program;
  try {
    program = parse(text);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  EXPECT_EQ(program->validate(), "");
  const auto once = render(*program);
  EXPECT_EQ(render(parse(once)), once);
  return once;
}

TEST(ListingCorpus, EveryFileIsRejectedOrRoundTrips) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(PLIM_SOURCE_DIR) + "/tests/corpus/listing")) {
    const auto name = entry.path().filename().string();
    SCOPED_TRACE(name);
    const auto text = read_file(entry.path());
    const auto serial = replay(text, &arch::parse_program, &arch::to_text);
    const auto parallel =
        replay(text, &sched::parse_parallel_program, &sched::to_text);
    if (name.starts_with("bad-")) {
      EXPECT_FALSE(serial) << "the serial parser accepted a malformed probe";
      EXPECT_FALSE(parallel)
          << "the parallel parser accepted a malformed probe";
    } else {
      const auto& own =
          text.starts_with("# parallel banks") ? parallel : serial;
      ASSERT_TRUE(own.has_value()) << "to_text's own listing was rejected";
      EXPECT_EQ(*own, text);
    }
    ++files;
  }
  // 9 plimc listings (ctrl, cavlc, int2float: serial, 4 lockstep banks,
  // 4 decoupled banks on a 1-wide bus), 2 hand-written ones, 22 probes.
  EXPECT_EQ(files, 33u);
}

}  // namespace
}  // namespace plim
