#include "mig/rewriting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

// ---- proving a pass unchanged ---------------------------------------------

constexpr std::array<Pass, 4> kPasses = {Pass::size, Pass::reshape,
                                         Pass::inverters_conditional,
                                         Pass::inverters_final};

/// The passes of one Algorithm 1 cycle, in order.
constexpr std::array<Pass, 5> kCycle = {Pass::size, Pass::reshape, Pass::size,
                                        Pass::inverters_conditional,
                                        Pass::inverters_final};

const char* pass_name(Pass pass) {
  switch (pass) {
    case Pass::size:
      return "size";
    case Pass::reshape:
      return "reshape";
    case Pass::inverters_conditional:
      return "inverters_conditional";
    case Pass::inverters_final:
      return "inverters_final";
  }
  return "?";
}

/// The public pass, which always rebuilds its input.
Mig run_pass(const Mig& m, Pass pass) {
  switch (pass) {
    case Pass::size:
      return pass_size(m);
    case Pass::reshape:
      return pass_reshape(m);
    case Pass::inverters_conditional:
      return pass_inverters(m, /*conditional=*/true);
    case Pass::inverters_final:
      return pass_inverters(m, /*conditional=*/false);
  }
  return m;
}

/// Verdicts of pass_may_change, checked against the rebuild: an
/// "unchanged" verdict must be a proof.
struct Verdicts {
  unsigned unchanged = 0;
  unsigned changed = 0;

  void check(const Mig& m, const std::string& what) {
    for (const Pass pass : kPasses) {
      if (pass_may_change(m, pass)) {
        ++changed;
        continue;
      }
      ++unchanged;
      EXPECT_TRUE(same_structure(run_pass(m, pass), m))
          << what << ": " << pass_name(pass)
          << " was proven unchanged but its rebuild differs";
    }
  }
};

/// A network with the five PIs x, y, u, v and z, for the hand-built cases
/// below. Each case takes `hit_below`: whether the structural twin its
/// rule looks for is created before the gate the rule rewrites or after.
struct HandBuilt {
  Mig m;
  Signal x, y, u, v, z;
  HandBuilt() {
    x = m.create_pi("x");
    y = m.create_pi("y");
    u = m.create_pi("u");
    v = m.create_pi("v");
    z = m.create_pi("z");
  }
};

/// Ω.D fires on n = ⟨A B z⟩ with A = ⟨x y u⟩ (also a PO, so not
/// expendable) and B = ⟨x y v⟩ only when ⟨u v z⟩ and ⟨x y ⟨u v z⟩⟩
/// already exist below n.
Mig distributivity_through_strash(bool hit_below) {
  HandBuilt h;
  auto& m = h.m;
  const auto twins = [&] {
    const auto inner = m.create_maj(h.u, h.v, h.z);
    m.create_po(m.create_maj(h.x, h.y, inner), "twin");
  };
  if (hit_below) {
    twins();
  }
  const auto a = m.create_maj(h.x, h.y, h.u);
  const auto b = m.create_maj(h.x, h.y, h.v);
  m.create_po(m.create_maj(a, b, h.z), "n");
  m.create_po(a, "a");
  if (!hit_below) {
    twins();
  }
  return m;
}

/// Ω.A fires on n = ⟨x u C⟩ with the expendable C = ⟨y u z⟩ only when
/// ⟨y u x⟩ already exists below n.
Mig associativity_through_strash(bool hit_below) {
  HandBuilt h;
  auto& m = h.m;
  const auto twin = [&] { m.create_po(m.create_maj(h.y, h.u, h.x), "twin"); };
  if (hit_below) {
    twin();
  }
  const auto c = m.create_maj(h.y, h.u, h.z);
  m.create_po(m.create_maj(h.x, h.u, c), "n");
  if (!hit_below) {
    twin();
  }
  return m;
}

TEST(PassProof, UnchangedVerdictIsAProofOnRandomNetworks) {
  Verdicts verdicts;
  const std::array<RandomMigOptions, 4> shapes = {{{4, 10, 2, 30, 30},
                                                   {6, 40, 3, 35, 35},
                                                   {8, 150, 6, 30, 40},
                                                   {10, 600, 8, 35, 35}}};
  for (const auto& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const auto what = std::to_string(shape.num_gates) + " gates, seed " +
                        std::to_string(seed);
      const auto m = random_mig(shape, seed);
      verdicts.check(m, what);
      // Every network a rewrite produces is compact, so the rule checks
      // decide; the passes along one cycle and the converged network
      // give both verdicts.
      auto cur = cleanup_dangling(m);
      verdicts.check(cur, what + ", cleaned");
      for (const Pass pass : kCycle) {
        cur = run_pass(cur, pass);
        verdicts.check(cur, what + ", after " + pass_name(pass));
      }
      verdicts.check(rewrite_for_plim(m), what + ", rewritten");
    }
  }
  EXPECT_GT(verdicts.unchanged, 100u);
  EXPECT_GT(verdicts.changed, 100u);
}

TEST(PassProof, CompactnessAndStrashHitsDecideTheVerdict) {
  // A dangling gate: no rule fires and no gate flips, but the rebuild
  // drops it.
  Mig dangling;
  {
    const auto a = dangling.create_pi("a");
    const auto b = dangling.create_pi("b");
    const auto c = dangling.create_pi("c");
    dangling.create_po(dangling.create_maj(a, b, c), "f");
    (void)dangling.create_maj(a, !b, c);
  }
  // A PI created after a gate: the rebuild creates every PI first.
  Mig late_pi;
  {
    const auto a = late_pi.create_pi("a");
    const auto b = late_pi.create_pi("b");
    const auto c = late_pi.create_pi("c");
    const auto g = late_pi.create_maj(a, b, c);
    const auto d = late_pi.create_pi("d");
    late_pi.create_po(late_pi.create_maj(g, d, a), "f");
  }
  for (const Pass pass : kPasses) {
    for (const Mig* m : {&dangling, &late_pi}) {
      EXPECT_TRUE(pass_may_change(*m, pass)) << pass_name(pass);
      EXPECT_FALSE(same_structure(run_pass(*m, pass), *m)) << pass_name(pass);
    }
  }

  // A rule that fires only through a strash hit below the gate changes
  // the network; with the twin above the gate it does not fire.
  const auto dist_below = distributivity_through_strash(true);
  const auto dist_above = distributivity_through_strash(false);
  const auto assoc_below = associativity_through_strash(true);
  const auto assoc_above = associativity_through_strash(false);
  EXPECT_TRUE(pass_may_change(dist_below, Pass::size));
  EXPECT_LT(pass_size(dist_below).num_gates(), dist_below.num_gates());
  EXPECT_FALSE(pass_may_change(dist_above, Pass::size));
  EXPECT_TRUE(pass_may_change(assoc_below, Pass::reshape));
  EXPECT_FALSE(same_structure(pass_reshape(assoc_below), assoc_below));
  EXPECT_FALSE(pass_may_change(assoc_above, Pass::reshape));

  Verdicts verdicts;
  verdicts.check(dangling, "dangling gate");
  verdicts.check(late_pi, "PI after a gate");
  verdicts.check(dist_below, "distributivity, twin below");
  verdicts.check(dist_above, "distributivity, twin above");
  verdicts.check(assoc_below, "associativity, twin below");
  verdicts.check(assoc_above, "associativity, twin above");
  EXPECT_GT(verdicts.unchanged, 0u);
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

/// The circuits of the golden file, in its order.
constexpr std::array<const char*, 18> kGoldenCircuits = {
    "adder", "bar", "max", "sin", "div", "log2", "multiplier", "sqrt",
    "square", "cavlc", "ctrl", "dec", "i2c", "int2float", "mem_ctrl",
    "priority", "router", "voter"};

/// The network the Table 1 flow compiles: shuffled, written and read.
Mig golden_network(const char* name) {
  const auto shuffled =
      shuffle_topological(circuits::build_benchmark(name), 18);
  return io::read_blif_text(io::to_blif(shuffled, name));
}

/// Pins the Table 1 flow node for node on all 18 EPFL circuits: shuffle,
/// write_blif, read_blif, rewrite_for_plim, compile. Each line holds the
/// gate counts, cycles, #I, #R and an FNV-1a of the BLIF listing of both
/// the read and the rewritten network, so a change to how networks are
/// built (strash, fanout views, pass compaction, the BLIF reader) that
/// moves a single node fails here. When a change intentionally alters
/// the networks, regenerate with
///   PLIM_REGEN_GOLDEN=1 ./test_rewriting --gtest_filter=Golden.*
/// from the build directory and commit the diff.
TEST(Golden, RewriteMatchesGoldenFile) {
  std::vector<std::string> lines;
  for (const auto* name : kGoldenCircuits) {
    const auto read = golden_network(name);
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

/// rewrite_for_plim rebuilds exactly the passes whose output differs from
/// their input: replaying its loop with the public passes, which always
/// rebuild, changes the network in as many passes as it reports rebuilt,
/// and ends at the same network.
TEST(Golden, RebuiltPassesAreExactlyTheChangingOnes) {
  std::uint32_t rebuilt = 0;
  std::uint32_t passes = 0;
  for (const auto* name : kGoldenCircuits) {
    const auto read = golden_network(name);
    RewriteStats stats;
    const auto rewritten = rewrite_for_plim(read, {}, &stats);

    auto cur = cleanup_dangling(read);
    std::uint32_t changed = 0;
    for (std::uint32_t cycle = 0; cycle < stats.cycles; ++cycle) {
      const auto start = cur;
      for (const Pass pass : kCycle) {
        auto next = run_pass(cur, pass);
        if (!same_structure(next, cur)) {
          ++changed;
        }
        cur = std::move(next);
      }
    }
    EXPECT_EQ(stats.passes_rebuilt, changed) << name;
    EXPECT_TRUE(same_structure(cur, rewritten)) << name;
    rebuilt += stats.passes_rebuilt;
    passes += 5 * stats.cycles;
  }
  // Most passes change nothing once the network has settled.
  EXPECT_LE(10 * rebuilt, 3 * passes) << rebuilt << " of " << passes;
}

}  // namespace
}  // namespace plim::mig
