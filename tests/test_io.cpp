#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/epfl.hpp"
#include "expr/parser.hpp"
#include "io/blif.hpp"
#include "io/dot.hpp"
#include "io/verilog.hpp"
#include "mig/simulation.hpp"
#include "util/rng.hpp"

namespace plim::io {
namespace {

TEST(Blif, RoundTripPreservesFunction) {
  const auto m =
      expr::build_from_expression("maj(a, b & c, !d) ^ (a | !c)", "f");
  const auto text = to_blif(m, "demo");
  const auto back = read_blif_text(text);
  EXPECT_EQ(back.num_pis(), m.num_pis());
  EXPECT_EQ(back.num_pos(), m.num_pos());
  const auto ta = mig::simulate_truth_tables(m);
  const auto tb = mig::simulate_truth_tables(back);
  EXPECT_EQ(ta[0], tb[0]);
}

TEST(Blif, RoundTripOnBenchmark) {
  const auto m = circuits::build_benchmark("cavlc");
  const auto back = read_blif_text(to_blif(m));
  util::Rng rng(2);
  EXPECT_TRUE(mig::random_equivalence_check(m, back, 16, rng));
}

TEST(Blif, HandlesConstantsAndComplementedOutputs) {
  mig::Mig m;
  const auto a = m.create_pi("a");
  m.create_po(m.get_constant(true), "one");
  m.create_po(m.get_constant(false), "zero");
  m.create_po(!a, "na");
  const auto back = read_blif_text(to_blif(m));
  EXPECT_EQ(mig::simulate_vector(back, {true}),
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(mig::simulate_vector(back, {false}),
            (std::vector<bool>{true, false, true}));
}

/// write_blif names gate k `n<k>` and the constant `const0` unless a port
/// already carries that name; then the node name gains '_' suffixes until
/// it is free, so no name is ever defined twice.
TEST(Blif, RoundTripKeepsPortsNamedLikeNodes) {
  mig::Mig m;
  const auto n4 = m.create_pi("n4");
  const auto b = m.create_pi("b");
  const auto c = m.create_pi("c");
  const auto g = m.create_maj(n4, b, c);  // node 4, default name n4
  ASSERT_EQ(g.index(), 4u);
  const auto a = m.create_pi("a");
  const auto h = m.create_maj(g, !a, !b);
  m.create_po(h, "n6");            // clashes with h's own default name
  m.create_po(!g, "n4_");          // clashes with g's first fallback
  m.create_po(m.get_constant(true), "const0");
  const auto text = to_blif(m);
  EXPECT_NE(text.find(".names n4 b c n4__\n"), std::string::npos) << text;
  EXPECT_NE(text.find(".names const0_\n"), std::string::npos) << text;
  const auto back = read_blif_text(text);
  ASSERT_EQ(back.num_pis(), 4u);
  ASSERT_EQ(back.num_pos(), 3u);
  for (unsigned v = 0; v < 16; ++v) {
    std::vector<bool> in;
    for (unsigned i = 0; i < 4; ++i) {
      in.push_back(((v >> i) & 1) != 0);
    }
    EXPECT_EQ(mig::simulate_vector(back, in), mig::simulate_vector(m, in))
        << v;
  }
}

TEST(Blif, WriterDefinesEachPortOnce) {
  mig::Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto g = m.create_and(a, b);
  m.create_po(a, "a");  // the PI itself: no buffer
  m.create_po(g, "f");
  m.create_po(g, "f");  // the same signal again: one buffer
  const auto text = to_blif(m);
  EXPECT_EQ(text.find(".names a a"), std::string::npos) << text;
  const auto first = text.find(" f\n1 1\n");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(" f\n1 1\n", first + 1), std::string::npos) << text;
  const auto back = read_blif_text(text);
  ASSERT_EQ(back.num_pos(), 3u);
  for (unsigned v = 0; v < 4; ++v) {
    const std::vector<bool> in{(v & 1) != 0, (v & 2) != 0};
    EXPECT_EQ(mig::simulate_vector(back, in), mig::simulate_vector(m, in));
  }
}

TEST(Blif, WriterRejectsAmbiguousPortNames) {
  {
    mig::Mig m;
    const auto a = m.create_pi("a");
    m.create_po(!a, "a");
    EXPECT_THROW((void)to_blif(m), std::invalid_argument);
  }
  {
    mig::Mig m;
    const auto a = m.create_pi("a");
    const auto b = m.create_pi("b");
    m.create_po(a, "f");
    m.create_po(b, "f");
    EXPECT_THROW((void)to_blif(m), std::invalid_argument);
  }
  {
    mig::Mig m;
    m.create_pi("a");
    m.create_pi("a");
    EXPECT_THROW((void)to_blif(m), std::invalid_argument);
  }
}

/// The message read_blif_text throws for `text`, or "" when it parses.
std::string read_error(const std::string& text) {
  try {
    (void)read_blif_text(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Blif, ReaderRejectsMalformedInput) {
  EXPECT_EQ(read_error(".model x\n.latch a b\n.end\n"),
            "unsupported BLIF construct: .latch");
  EXPECT_EQ(read_error(".model x\n.inputs a\n1 1\n"),
            "cover row outside .names");
  EXPECT_EQ(read_error(".model x\n.inputs a\n.outputs f\n"
                       ".names a f\n1- 1\n.end\n"),
            "malformed cover row: 1- 1");
  EXPECT_EQ(read_error(".inputs a\n.outputs f\n.names a f\n1\n"),
            "malformed cover row: 1");
  EXPECT_EQ(read_error(".inputs a\n.names\n"), ".names without signals");
  EXPECT_EQ(read_error(".outputs f\n.names a f\n1 1\n"),
            "cover uses undefined signal a");
  EXPECT_EQ(read_error(".inputs a\n.outputs f\n.names a f\n1 1\n0 0\n"),
            "mixed on/off covers are unsupported");
  EXPECT_EQ(read_error(".model x\n.outputs f\n.end\n"), "undriven output f");
}

TEST(Blif, ReaderRejectsSecondDefinitions) {
  EXPECT_EQ(read_error(".inputs a b a\n"), "signal defined twice: a");
  // A cover redefining a PI, a constant cover and another cover.
  EXPECT_EQ(read_error(".inputs a b\n.outputs b\n.names a b\n1 1\n"),
            "signal defined twice: b");
  EXPECT_EQ(read_error(".inputs a\n.outputs a\n.names a\n1\n"),
            "signal defined twice: a");
  EXPECT_EQ(read_error(".inputs a b\n.outputs f\n.names a f\n1 1\n"
                       ".names b f\n1 1\n"),
            "signal defined twice: f");
  // Listing an output twice is not a definition.
  const auto m = read_blif_text(
      ".inputs a\n.outputs f f\n.names a f\n0 1\n");
  ASSERT_EQ(m.num_pos(), 2u);
  EXPECT_EQ(m.po_at(0), m.po_at(1));
}

/// Physical lines split at '\n'; '#' starts a comment; trailing '\r' and
/// spaces are trimmed before the '\' continuation test; tokens split at
/// the six whitespace bytes of the C locale; lines without tokens are
/// skipped.
TEST(Blif, ReaderTokenRules) {
  const auto m = read_blif_text(
      "# leading comment\r\n"
      "\r\n"
      ".model\ttabs   # trailing comment\r\n"
      "\t \v\f\r\n"
      "\t.inputs\ta \\  \r\n"
      "  b\tc\r\n"
      ".outputs f\\\r\n"
      " g\n"
      "\n"
      ".names a b c f\n"
      "11- 1 # two-of-three\n"
      "1-1\t1\n"
      "-11 \\\n"
      "1\n"
      ".names a g\r\n"
      "0 1\r\n"
      ".end");
  ASSERT_EQ(m.num_pis(), 3u);
  EXPECT_EQ(m.pi_name(0), "a");
  EXPECT_EQ(m.pi_name(1), "b");
  EXPECT_EQ(m.pi_name(2), "c");
  ASSERT_EQ(m.num_pos(), 2u);
  EXPECT_EQ(m.po_name(0), "f");
  EXPECT_EQ(m.po_name(1), "g");
  for (unsigned v = 0; v < 8; ++v) {
    const bool a = (v & 1) != 0;
    const bool b = (v & 2) != 0;
    const bool c = (v & 4) != 0;
    EXPECT_EQ(mig::simulate_vector(m, {a, b, c}),
              (std::vector<bool>{(a && b) || (a && c) || (b && c), !a}))
        << v;
  }
  // A continuation joins the lines as they are: "a\" + "b" is one token.
  EXPECT_EQ(read_blif_text(".inputs a\\\nb\n").pi_name(0), "ab");
  // '\v' and '\f' split tokens inside a line; bytes 0x85 and 0xA0 (space
  // in some locales) do not.
  const auto spaced = read_blif_text(".inputs a\vb\fc d\x85\xA0" "e\n");
  ASSERT_EQ(spaced.num_pis(), 4u);
  EXPECT_EQ(spaced.pi_name(1), "b");
  EXPECT_EQ(spaced.pi_name(2), "c");
  EXPECT_EQ(spaced.pi_name(3), "d\x85\xA0" "e");
}

/// Names far denser than write_blif's output outgrow the name table's
/// first size; every one still resolves to its own signal.
TEST(Blif, ReaderResolvesDenselyPackedNames) {
  std::string inputs = ".inputs";
  std::string outputs = ".outputs";
  for (int i = 0; i < 3000; ++i) {
    inputs += " " + std::to_string(i);
    outputs += " " + std::to_string(2999 - i);
  }
  const auto m = read_blif_text(inputs + "\n" + outputs + "\n");
  ASSERT_EQ(m.num_pis(), 3000u);
  ASSERT_EQ(m.num_pos(), 3000u);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    EXPECT_EQ(m.po_at(i), mig::Signal(m.pi_at(2999 - i), false)) << i;
  }
}

/// read_blif reads a stream from where it stands to its end, whether or
/// not the stream can tell its size.
TEST(Blif, StreamReaderReadsTheRestOfTheStream) {
  const auto text = to_blif(circuits::build_benchmark("cavlc"), "cavlc");
  const auto expected = to_blif(read_blif_text(text), "cavlc");
  std::istringstream seekable("skip me\n" + text);
  std::string skipped;
  std::getline(seekable, skipped);
  EXPECT_EQ(to_blif(read_blif(seekable), "cavlc"), expected);

  // A stream buffer that cannot seek: the reader falls back to growing.
  struct Unseekable : std::stringbuf {
    using std::stringbuf::stringbuf;
    pos_type seekoff(off_type, std::ios::seekdir, std::ios::openmode) override {
      return pos_type(off_type(-1));
    }
  };
  Unseekable buf(text);
  std::istream unseekable(&buf);
  EXPECT_EQ(to_blif(read_blif(unseekable), "cavlc"), expected);
}

TEST(Blif, ReaderKeepsContinuationAtEndOfText) {
  // The row's last line ends in '\' with nothing after it: it still
  // belongs to the cover, so f = a rather than constant 0.
  const auto m =
      read_blif_text(".inputs a\n.outputs f\n.names a f\n1 1\\");
  EXPECT_EQ(mig::simulate_vector(m, {true})[0], true);
  EXPECT_EQ(mig::simulate_vector(m, {false})[0], false);
  EXPECT_EQ(read_blif_text(".inputs a\\\n").num_pis(), 1u);
}

/// Seeded corruption of a small BLIF file: truncations, byte flips and
/// line drops or duplications. Every variant must parse or throw
/// std::runtime_error — never crash, hang or throw anything else. Each
/// outcome (the parsed network's to_blif, or the exception message) is
/// folded into one FNV-1a digest, so a reader change that accepts,
/// rejects, builds or words a single variant differently fails here.
TEST(Blif, ReaderSurvivesMutations) {
  const auto source = to_blif(
      expr::build_from_expression("maj(a, b & c, !d) ^ (a | !c)", "f"),
      "demo");
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < source.size();) {
    const auto end = source.find('\n', pos);
    lines.push_back(source.substr(pos, end - pos + 1));
    pos = end + 1;
  }
  util::Rng rng(2024);
  unsigned parsed = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&](const std::string& outcome) {
    for (const unsigned char c : outcome) {
      digest = (digest ^ c) * 0x100000001b3ULL;
    }
    digest = (digest ^ 0xffU) * 0x100000001b3ULL;  // outcome separator
  };
  for (int k = 0; k < 2000; ++k) {
    std::string text;
    switch (k % 4) {
      case 0:  // truncation
        text = source.substr(0, rng.below(source.size()));
        break;
      case 1: {  // byte flips
        text = source;
        for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0;
             --flips) {
          text[rng.below(text.size())] = static_cast<char>(rng.below(256));
        }
        break;
      }
      case 2:  // drop a line
      case 3: {  // duplicate a line
        const auto victim = rng.below(lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
          if (i != victim || k % 4 == 3) {
            text += lines[i];
          }
          if (i == victim && k % 4 == 3) {
            text += lines[i];
          }
        }
        break;
      }
    }
    try {
      const auto m = read_blif_text(text);
      ++parsed;
      fold(to_blif(m));
    } catch (const std::runtime_error& e) {
      fold(e.what());
    } catch (...) {
      ADD_FAILURE() << "mutation " << k << " threw a non-runtime_error on:\n"
                    << text;
    }
  }
  // Both outcomes occur, so the mutations reach past the first line.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 2000u);
  EXPECT_EQ(digest, 0xea352d0980fd382dULL) << std::hex << digest;
}

TEST(Blif, ReaderSynthesizesCovers) {
  // Two-row cover: f = a·b̄ + ā·b (XOR).
  const auto m = read_blif_text(
      ".model x\n.inputs a b\n.outputs f\n"
      ".names a b f\n10 1\n01 1\n.end\n");
  EXPECT_EQ(mig::simulate_vector(m, {false, false})[0], false);
  EXPECT_EQ(mig::simulate_vector(m, {true, false})[0], true);
  EXPECT_EQ(mig::simulate_vector(m, {false, true})[0], true);
  EXPECT_EQ(mig::simulate_vector(m, {true, true})[0], false);
}

TEST(Blif, OffSetCoverIsComplemented) {
  // f defined by its off-set: f = 0 exactly when a = 1, b = 0.
  const auto m = read_blif_text(
      ".model x\n.inputs a b\n.outputs f\n"
      ".names a b f\n10 0\n.end\n");
  EXPECT_EQ(mig::simulate_vector(m, {true, false})[0], false);
  EXPECT_EQ(mig::simulate_vector(m, {false, false})[0], true);
  EXPECT_EQ(mig::simulate_vector(m, {true, true})[0], true);
}

TEST(Verilog, EmitsStructuralNetlist) {
  const auto m = expr::build_from_expression("(a & b) | !c", "out");
  const auto text = to_verilog(m, "unit");
  EXPECT_NE(text.find("module unit"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  EXPECT_NE(text.find("input a;"), std::string::npos);
  EXPECT_NE(text.find("output out;"), std::string::npos);
  // One assign per gate plus one per PO.
  std::size_t assigns = 0;
  for (std::size_t pos = text.find("assign"); pos != std::string::npos;
       pos = text.find("assign", pos + 1)) {
    ++assigns;
  }
  EXPECT_EQ(assigns, m.num_gates() + m.num_pos());
}

TEST(Verilog, SanitizesAwkwardNames) {
  mig::Mig m;
  const auto a = m.create_pi("3bad-name");
  m.create_po(a, "also bad");
  const auto text = to_verilog(m);
  EXPECT_EQ(text.find("3bad-name"), std::string::npos);
  EXPECT_NE(text.find("s3bad_name"), std::string::npos);
  EXPECT_NE(text.find("also_bad"), std::string::npos);
}

TEST(Dot, RendersEdgesWithComplementStyle) {
  mig::Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto g = m.create_and(!a, b);
  m.create_po(g, "f");
  const auto text = to_dot(m);
  EXPECT_NE(text.find("digraph mig"), std::string::npos);
  EXPECT_NE(text.find("style=dashed"), std::string::npos);
  EXPECT_NE(text.find("shape=invtriangle"), std::string::npos);
}

}  // namespace
}  // namespace plim::io
