#include "mig/rewriting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "circuits/epfl.hpp"
#include "core/compiler.hpp"
#include "expr/parser.hpp"
#include "io/blif.hpp"
#include "mig/cleanup.hpp"
#include "mig/random.hpp"
#include "mig/simulation.hpp"
#include "util/stats.hpp"

namespace plim::mig {
namespace {

/// Exhaustive (truth-table) equivalence for small networks.
bool tt_equivalent(const Mig& a, const Mig& b) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return false;
  }
  const auto ta = simulate_truth_tables(a);
  const auto tb = simulate_truth_tables(b);
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (!(ta[i] == tb[i])) {
      return false;
    }
  }
  return true;
}

TEST(PassSize, MergesDistributivePattern) {
  // (x∧y) ∨ (x∧z) = x ∧ (y∨z): Ω.D right-to-left saves one node.
  const auto m = expr::build_from_expression("(x & y) | (x & z)");
  EXPECT_EQ(m.num_gates(), 3u);
  const auto r = pass_size(m);
  EXPECT_EQ(r.num_gates(), 2u);
  EXPECT_TRUE(tt_equivalent(m, r));
}

TEST(PassSize, HandsOffWhenInnerGatesShared) {
  // Both AND gates feed a second output, so merging would not shrink the
  // network; the pass must keep the function either way.
  Mig m;
  const auto x = m.create_pi("x");
  const auto y = m.create_pi("y");
  const auto z = m.create_pi("z");
  const auto a1 = m.create_and(x, y);
  const auto a2 = m.create_and(x, z);
  m.create_po(m.create_or(a1, a2), "f");
  m.create_po(m.create_xor(a1, a2), "g");
  const auto r = pass_size(m);
  EXPECT_TRUE(tt_equivalent(m, r));
}

TEST(PassSize, MergesComplementedSharedPair) {
  // ⟨āb̄z⟩-style sharing through complemented gate edges (the virtual
  // fanin view): ¬(x∧y) ∧ ¬(x∧... keeps function.
  const auto m = expr::build_from_expression("!(x & y) & !(x & z)");
  const auto r = pass_size(m);
  EXPECT_TRUE(tt_equivalent(m, r));
  EXPECT_LE(r.num_gates(), m.num_gates());
}

TEST(PassInverters, FinalPassRemovesAllComplementedTriples) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.create_po(m.create_maj(!a, !b, !c), "f");
  EXPECT_EQ(count_multi_complement(m), 1u);
  const auto r = pass_inverters(m, /*conditional=*/false);
  EXPECT_EQ(count_multi_complement(r), 0u);
  EXPECT_TRUE(tt_equivalent(m, r));
}

TEST(PassInverters, ConditionalFlipRespectsFanoutTargets) {
  // N1 = ⟨i1 ī2 ī3⟩ feeding N2 = ⟨i2 ī4 N̄1⟩: flipping N1 is profitable
  // because it also removes N2's second complement (Fig. 3(a)).
  Mig m;
  const auto i1 = m.create_pi();
  const auto i2 = m.create_pi();
  const auto i3 = m.create_pi();
  const auto i4 = m.create_pi();
  const auto n1 = m.create_maj(i1, !i2, !i3);
  const auto n2 = m.create_maj(i2, !i4, !n1);
  m.create_po(n2, "f");
  const auto r = pass_inverters(m, /*conditional=*/true);
  EXPECT_EQ(count_multi_complement(r), 0u);
  EXPECT_TRUE(tt_equivalent(m, r));
}

TEST(PassInverters, ConditionalKeepsUnprofitableFlip) {
  // A 2-complement gate whose three fanout gates each hold exactly one
  // complemented fanin: flipping would give all three a second
  // complement (3 × +1 versus −2), so the conditional pass must not flip.
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto d = m.create_pi();
  const auto g = m.create_maj(!a, !b, c);
  const auto p1 = m.create_maj(g, !d, a);
  const auto p2 = m.create_maj(g, !d, b);
  const auto p3 = m.create_maj(g, !d, c);
  m.create_po(p1, "f1");
  m.create_po(p2, "f2");
  m.create_po(p3, "f3");
  const auto r = pass_inverters(m, /*conditional=*/true);
  EXPECT_EQ(count_multi_complement(r), 1u);  // g kept as-is
  EXPECT_TRUE(tt_equivalent(m, r));
}

TEST(PassReshape, PreservesFunctionOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto m = random_mig({6, 50, 4, 35, 35}, seed);
    const auto r = pass_reshape(m);
    EXPECT_TRUE(tt_equivalent(m, r)) << "seed " << seed;
    EXPECT_LE(r.num_gates(), m.num_gates()) << "seed " << seed;
  }
}

class RewriteProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RewriteProperty, FullRewritePreservesFunction) {
  const auto seed = GetParam();
  const auto m = random_mig({7, 80, 5, 35, 35}, seed);
  RewriteStats stats;
  const auto r = rewrite_for_plim(m, {}, &stats);
  EXPECT_TRUE(tt_equivalent(m, r)) << "seed " << seed;
  EXPECT_LE(stats.gates_after, stats.gates_before) << "seed " << seed;
  EXPECT_LE(stats.multi_complement_after, stats.multi_complement_before)
      << "seed " << seed;
}

TEST_P(RewriteProperty, RuleGroupsAreIndividuallySound) {
  // Each pass of the Algorithm 1 cycle preserves the function on its own,
  // so no pass relies on a later one to repair its output.
  const auto seed = GetParam();
  const auto m = random_mig({6, 60, 4, 40, 30}, seed);
  EXPECT_TRUE(tt_equivalent(m, pass_size(m))) << "seed " << seed;
  EXPECT_TRUE(tt_equivalent(m, pass_reshape(m))) << "seed " << seed;
  EXPECT_TRUE(tt_equivalent(m, pass_inverters(m, true))) << "seed " << seed;
  EXPECT_TRUE(tt_equivalent(m, pass_inverters(m, false))) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(Rewrite, EffortZeroOnlyCleans) {
  const auto m = random_mig({5, 30, 3, 30, 30}, 7);
  RewriteOptions opts;
  opts.effort = 0;
  const auto r = rewrite_for_plim(m, opts);
  EXPECT_TRUE(tt_equivalent(m, r));
}

TEST(Rewrite, IsIdempotentAfterConvergence) {
  const auto m = random_mig({6, 60, 4, 35, 35}, 13);
  RewriteOptions opts;
  opts.effort = 4;
  const auto r1 = rewrite_for_plim(m, opts);
  const auto r2 = rewrite_for_plim(r1, opts);
  EXPECT_EQ(r2.num_gates(), r1.num_gates());
  EXPECT_EQ(count_multi_complement(r2), count_multi_complement(r1));
}

/// Same nodes with the same fanins, same PI order, same POs.
bool same_structure(const Mig& x, const Mig& y) {
  if (x.size() != y.size() || x.num_pis() != y.num_pis() ||
      x.num_pos() != y.num_pos()) {
    return false;
  }
  for (node n = 0; n < x.size(); ++n) {
    if (x.kind(n) != y.kind(n) ||
        (x.is_gate(n) && x.fanins(n) != y.fanins(n))) {
      return false;
    }
  }
  for (std::uint32_t i = 0; i < x.num_pis(); ++i) {
    if (x.pi_at(i) != y.pi_at(i)) {
      return false;
    }
  }
  for (std::uint32_t i = 0; i < x.num_pos(); ++i) {
    if (x.po_at(i) != y.po_at(i)) {
      return false;
    }
  }
  return true;
}

/// The effort loop stops at a fixed point without changing the result:
/// effort 4 equals four chained effort-1 runs, and it runs exactly one
/// cycle past the last one that changed the network.
TEST(Rewrite, StopsAtFixedPointWithTheSameResult) {
  for (const auto* name : {"ctrl", "int2float", "i2c", "mem_ctrl"}) {
    const auto m = circuits::build_benchmark(name);
    RewriteStats stats;
    const auto full = rewrite_for_plim(m, {}, &stats);

    RewriteOptions one;
    one.effort = 1;
    auto chained = cleanup_dangling(m);
    std::uint32_t last_change = 0;
    for (std::uint32_t cycle = 1; cycle <= 4; ++cycle) {
      auto next = rewrite_for_plim(chained, one);
      if (!same_structure(next, chained)) {
        last_change = cycle;
      }
      chained = std::move(next);
    }
    EXPECT_TRUE(same_structure(full, chained)) << name;
    EXPECT_EQ(stats.cycles, std::min<std::uint32_t>(last_change + 1, 4))
        << name;
    EXPECT_LT(stats.cycles, 4u) << name << " never reached a fixed point";
  }
}

TEST(Rewrite, StatsReportBeforeAndAfter) {
  const auto m = expr::build_from_expression("(x & y) | (x & z)");
  RewriteStats stats;
  (void)rewrite_for_plim(m, {}, &stats);
  EXPECT_EQ(stats.gates_before, 3u);
  EXPECT_EQ(stats.gates_after, 2u);
  EXPECT_EQ(stats.depth_before, 2u);
}

TEST(Rewrite, HandlesConstantAndPassThroughOutputs) {
  Mig m;
  const auto a = m.create_pi("a");
  m.create_po(m.get_constant(true), "one");
  m.create_po(a, "id");
  m.create_po(!a, "not");
  const auto r = rewrite_for_plim(m);
  EXPECT_TRUE(tt_equivalent(m, r));
}

// ---- golden networks --------------------------------------------------------

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Pins the Table 1 flow node for node on 13 EPFL circuits (all but the
/// five arithmetic giants): shuffle, write_blif, read_blif,
/// rewrite_for_plim, compile. Each line holds the gate counts, cycles,
/// #I, #R and an FNV-1a of the BLIF listing of both the read and the
/// rewritten network, so a change to how networks are built (strash,
/// fanout views, pass compaction, the BLIF reader) that moves a single
/// node fails here. When a change intentionally alters the networks,
/// regenerate with
///   PLIM_REGEN_GOLDEN=1 ./test_rewriting --gtest_filter=Golden.*
/// from the build directory and commit the diff.
TEST(Golden, RewriteMatchesGoldenFile) {
  std::vector<std::string> lines;
  for (const auto* name :
       {"adder", "bar", "max", "sin", "cavlc", "ctrl", "dec", "i2c",
        "int2float", "mem_ctrl", "priority", "router", "voter"}) {
    const auto shuffled =
        shuffle_topological(circuits::build_benchmark(name), 18);
    const auto read = io::read_blif_text(io::to_blif(shuffled, name));
    RewriteStats stats;
    const auto rewritten = rewrite_for_plim(read, {}, &stats);
    const auto compiled = core::compile(rewritten);
    util::JsonWriter json;
    json.begin_object();
    json.field("circuit", name);
    json.field("gates_before", stats.gates_before);
    json.field("gates_after", stats.gates_after);
    json.field("cycles", stats.cycles);
    json.field("instructions", compiled.stats.num_instructions);
    json.field("rrams", compiled.stats.num_rrams);
    json.field("read_fnv1a", fnv1a_hex(io::to_blif(read, name)));
    json.field("rewritten_fnv1a", fnv1a_hex(io::to_blif(rewritten, name)));
    json.end_object();
    lines.push_back(json.str());
  }

  const std::string golden_path =
      std::string(PLIM_SOURCE_DIR) + "/tests/golden/rewrite.json";
  if (std::getenv("PLIM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << "[\n";
    for (std::size_t k = 0; k < lines.size(); ++k) {
      out << "  " << lines[k] << (k + 1 < lines.size() ? ",\n" : "\n");
    }
    out << "]\n";
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing " << golden_path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.size() > 2 && line.front() == ' ') {
      line.erase(0, 2);
      if (line.back() == ',') {
        line.pop_back();
      }
      expected.push_back(line);
    }
  }
  ASSERT_EQ(expected.size(), lines.size())
      << "golden circuit set changed — regenerate with PLIM_REGEN_GOLDEN=1";
  for (std::size_t k = 0; k < lines.size(); ++k) {
    EXPECT_EQ(lines[k], expected[k])
        << "network drifted — if intentional, regenerate with "
           "PLIM_REGEN_GOLDEN=1 (see test comment)";
  }
}

}  // namespace
}  // namespace plim::mig
