#include "mig/mig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "mig/cleanup.hpp"
#include "mig/random.hpp"
#include "mig/simulation.hpp"
#include "mig/views.hpp"
#include "util/rng.hpp"

namespace plim::mig {
namespace {

TEST(Mig, FreshNetworkHasOnlyConstant) {
  Mig m;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.num_gates(), 0u);
  EXPECT_EQ(m.num_pis(), 0u);
  EXPECT_TRUE(m.is_constant(0));
}

TEST(Mig, ConstantSignals) {
  Mig m;
  EXPECT_EQ(m.get_constant(false).index(), 0u);
  EXPECT_EQ(m.get_constant(true), !m.get_constant(false));
}

TEST(Mig, CreatePiAssignsNamesAndIndices) {
  Mig m;
  const auto a = m.create_pi("x");
  const auto b = m.create_pi();
  EXPECT_TRUE(m.is_pi(a.index()));
  EXPECT_EQ(m.pi_index(a.index()), 0u);
  EXPECT_EQ(m.pi_index(b.index()), 1u);
  EXPECT_EQ(m.pi_name(0), "x");
  EXPECT_EQ(m.pi_name(1), "i2");
  EXPECT_EQ(m.num_pis(), 2u);
}

TEST(Mig, MajTrivialRules) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  // Two equal fanins dominate.
  EXPECT_EQ(m.create_maj(a, a, b), a);
  EXPECT_EQ(m.create_maj(b, a, a), a);
  EXPECT_EQ(m.create_maj(a, b, a), a);
  // A complementary pair selects the third operand.
  EXPECT_EQ(m.create_maj(a, !a, c), c);
  EXPECT_EQ(m.create_maj(c, a, !a), c);
  EXPECT_EQ(m.create_maj(a, c, !a), c);
  // Constant folding through the same rules.
  EXPECT_EQ(m.create_maj(m.get_constant(false), m.get_constant(true), c), c);
  EXPECT_EQ(m.create_maj(m.get_constant(false), m.get_constant(false), c),
            m.get_constant(false));
  EXPECT_EQ(m.num_gates(), 0u);
}

TEST(Mig, StructuralHashingSharesCommutativeVariants) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(c, a, b);
  const auto g3 = m.create_maj(b, c, a);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(g1, g3);
  EXPECT_EQ(m.num_gates(), 1u);
  EXPECT_EQ(m.strash_hits(), 2u);
}

TEST(Mig, HashingDistinguishesComplementPlacement) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(!a, b, c);
  const auto g3 = m.create_maj(a, b, !c);
  EXPECT_NE(g1, g2);
  EXPECT_NE(g1, g3);
  EXPECT_NE(g2, g3);
  EXPECT_EQ(m.num_gates(), 3u);
}

TEST(Mig, FaninsPreserveCreationOrder) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g = m.create_maj(c, a, b);  // deliberately unsorted
  const auto& f = m.fanins(g.index());
  EXPECT_EQ(f[0], c);
  EXPECT_EQ(f[1], a);
  EXPECT_EQ(f[2], b);
}

TEST(Mig, FindMajMatchesWithoutCreating) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  EXPECT_FALSE(m.find_maj(a, b, c).has_value());
  const auto g = m.create_maj(a, b, c);
  const auto found = m.find_maj(b, c, a);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, g);
  EXPECT_EQ(*m.find_maj(a, a, c), a);  // trivial rule, no node needed
  EXPECT_EQ(m.num_gates(), 1u);
}

TEST(Mig, AndOrUseConstantZeroFaninOnly) {
  // The paper's starting networks "only have the constant 0 child": AND
  // is ⟨ab0⟩ and OR is the De Morgan form ¬⟨āb̄0⟩ with a complemented
  // output edge.
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto g_and = m.create_and(a, b);
  const auto& f = m.fanins(g_and.index());
  EXPECT_TRUE(m.is_constant(f[2].index()));
  EXPECT_FALSE(f[2].complemented());
  EXPECT_FALSE(g_and.complemented());

  const auto g_or = m.create_or(a, b);
  EXPECT_TRUE(g_or.complemented());
  const auto& fo = m.fanins(g_or.index());
  EXPECT_TRUE(m.is_constant(fo[2].index()));
  EXPECT_FALSE(fo[2].complemented());
  EXPECT_TRUE(fo[0].complemented());
  EXPECT_TRUE(fo[1].complemented());
}

TEST(Mig, DerivedGatesComputeCorrectFunctions) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.create_po(m.create_and(a, b), "and");
  m.create_po(m.create_or(a, b), "or");
  m.create_po(m.create_xor(a, b), "xor");
  m.create_po(m.create_nand(a, b), "nand");
  m.create_po(m.create_nor(a, b), "nor");
  m.create_po(m.create_xnor(a, b), "xnor");
  m.create_po(m.create_ite(a, b, c), "ite");
  m.create_po(m.create_xor3(a, b, c), "xor3");
  m.create_po(m.create_maj(a, b, c), "maj");
  const auto fa = m.create_full_adder(a, b, c);
  m.create_po(fa.sum, "sum");
  m.create_po(fa.carry, "carry");

  for (unsigned v = 0; v < 8; ++v) {
    const bool va = v & 1;
    const bool vb = (v >> 1) & 1;
    const bool vc = (v >> 2) & 1;
    const auto out = simulate_vector(m, {va, vb, vc});
    EXPECT_EQ(out[0], va && vb) << v;
    EXPECT_EQ(out[1], va || vb) << v;
    EXPECT_EQ(out[2], va != vb) << v;
    EXPECT_EQ(out[3], !(va && vb)) << v;
    EXPECT_EQ(out[4], !(va || vb)) << v;
    EXPECT_EQ(out[5], va == vb) << v;
    EXPECT_EQ(out[6], va ? vb : vc) << v;
    EXPECT_EQ(out[7], va ^ vb ^ vc) << v;
    EXPECT_EQ(out[8], (va && vb) || (va && vc) || (vb && vc)) << v;
    EXPECT_EQ(out[9], va ^ vb ^ vc) << v;
    EXPECT_EQ(out[10], (va && vb) || (va && vc) || (vb && vc)) << v;
  }
}

TEST(Mig, LevelsAndDepth) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_and(a, b);
  const auto g2 = m.create_or(g1, c);
  m.create_po(g2, "f");
  const auto level = m.levels();
  EXPECT_EQ(level[a.index()], 0u);
  EXPECT_EQ(level[g1.index()], 1u);
  EXPECT_EQ(level[g2.index()], 2u);
  EXPECT_EQ(m.depth(), 2u);
}

/// Grows the strash table through many doublings: every gate must stay
/// findable under all six fanin orders, and re-creating it must hit.
TEST(Mig, StrashFindsEveryGateAfterGrowth) {
  Mig m;
  std::vector<Signal> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(m.create_pi());
  }
  util::Rng rng(11);
  while (m.num_gates() < 100000) {
    const auto pick = [&] {
      return pool[pool.size() - 1 - rng.below(std::min<std::size_t>(
                                        pool.size(), 512))] ^
             rng.flip();
    };
    pool.push_back(m.create_maj(pick(), pick(), pick()));
  }
  const auto gates = m.num_gates();
  const auto hits = m.strash_hits();
  std::uint64_t misses = 0;
  m.foreach_gate([&](node n) {
    auto f = m.fanins(n);
    std::sort(f.begin(), f.end());
    do {
      misses += m.find_maj(f[0], f[1], f[2]) != Signal(n, false);
      misses += m.create_maj(f[0], f[1], f[2]) != Signal(n, false);
    } while (std::next_permutation(f.begin(), f.end()));
  });
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(m.num_gates(), gates);
  EXPECT_EQ(m.strash_hits(), hits + 6 * std::uint64_t{gates});
}

TEST(Mig, ReserveChangesNothing) {
  Mig plain;
  Mig reserved;
  reserved.reserve(5000);
  for (Mig* m : {&plain, &reserved}) {
    std::vector<Signal> pool;
    for (int i = 0; i < 8; ++i) {
      pool.push_back(m->create_pi());
    }
    util::Rng rng(5);
    for (int i = 0; i < 4000; ++i) {
      const auto a = pool[rng.below(pool.size())] ^ rng.flip();
      const auto b = pool[rng.below(pool.size())] ^ rng.flip();
      const auto c = pool[rng.below(pool.size())] ^ rng.flip();
      pool.push_back(m->create_maj(a, b, c));
    }
  }
  ASSERT_EQ(plain.size(), reserved.size());
  EXPECT_EQ(plain.strash_hits(), reserved.strash_hits());
  plain.foreach_gate([&](node n) {
    EXPECT_EQ(plain.fanins(n), reserved.fanins(n)) << n;
  });
}

TEST(Mig, CopiedStrashTableIsIndependent) {
  Mig original;
  const auto a = original.create_pi();
  const auto b = original.create_pi();
  const auto c = original.create_pi();
  const auto g = original.create_maj(a, b, c);

  Mig copy = original;
  const auto h = copy.create_maj(!a, b, c);
  EXPECT_EQ(copy.find_maj(c, b, a), g);
  EXPECT_EQ(original.find_maj(!a, b, c), std::nullopt);
  EXPECT_EQ(original.num_gates(), 1u);

  const auto k = original.create_maj(a, !b, c);
  EXPECT_EQ(copy.find_maj(a, !b, c), std::nullopt);
  EXPECT_EQ(copy.find_maj(b, !a, c), h);
  EXPECT_EQ(copy.num_gates(), 2u);

  copy = original;  // assignment replaces the table too
  EXPECT_EQ(copy.find_maj(c, !b, a), k);
  EXPECT_EQ(copy.find_maj(!a, b, c), std::nullopt);
}

TEST(FanoutView, CountsParentsAndPoRefs) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_and(a, b);
  const auto g2 = m.create_or(g1, c);
  const auto g3 = m.create_and(g1, c);
  m.create_po(g2, "f");
  m.create_po(g1, "g");

  const FanoutView fv(m);
  const auto parents = fv.parents(g1.index());
  EXPECT_EQ(std::vector<node>(parents.begin(), parents.end()),
            (std::vector<node>{g2.index(), g3.index()}));
  EXPECT_EQ(fv.num_po_refs(g1.index()), 1u);
  EXPECT_EQ(fv.fanout_count(g1.index()), 3u);
  EXPECT_EQ(fv.fanout_count(g3.index()), 0u);
  EXPECT_TRUE(fv.parents(g3.index()).empty());
  EXPECT_EQ(fv.fanout_count(a.index()), 1u);
}

/// The CSR rows and the plain count array against a brute-force scan of
/// every gate's fanins.
TEST(FanoutView, MatchesBruteForceOnRandomNetworks) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    RandomMigOptions opts;
    opts.num_pis = 12;
    opts.num_gates = 400;
    opts.num_pos = 9;
    const auto m = random_mig(opts, seed);
    const FanoutView fv(m);
    const auto counts = fanout_counts(m);
    ASSERT_EQ(counts.size(), m.size());
    m.foreach_node([&](node n) {
      std::vector<node> parents;
      m.foreach_gate([&](node g) {
        const auto& f = m.fanins(g);
        if (std::any_of(f.begin(), f.end(),
                        [&](Signal s) { return s.index() == n; })) {
          parents.push_back(g);
        }
      });
      std::uint32_t po_refs = 0;
      m.foreach_po([&](Signal f, std::uint32_t) { po_refs += f.index() == n; });
      const auto row = fv.parents(n);
      EXPECT_EQ(std::vector<node>(row.begin(), row.end()), parents)
          << "seed " << seed << " node " << n;
      EXPECT_EQ(fv.num_po_refs(n), po_refs);
      EXPECT_EQ(fv.fanout_count(n), parents.size() + po_refs);
      EXPECT_EQ(counts[n], fv.fanout_count(n));
    });
  }
}

TEST(Cleanup, RemovesDanglingGates) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto used = m.create_and(a, b);
  m.create_or(a, b);  // dangling
  m.create_po(used, "f");
  EXPECT_EQ(m.num_gates(), 2u);

  const auto cleaned = cleanup_dangling(m);
  EXPECT_EQ(cleaned.num_gates(), 1u);
  EXPECT_EQ(cleaned.num_pis(), 2u);
  EXPECT_EQ(cleaned.num_pos(), 1u);
  EXPECT_EQ(cleaned.pi_name(0), "a");
  EXPECT_EQ(cleaned.po_name(0), "f");

  // Function preserved.
  for (unsigned v = 0; v < 4; ++v) {
    const std::vector<bool> in{(v & 1) != 0, (v & 2) != 0};
    EXPECT_EQ(simulate_vector(m, in)[0], simulate_vector(cleaned, in)[0]);
  }
}

TEST(Cleanup, PreservesComplementedAndConstantPos) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  m.create_po(!m.create_and(a, b), "nf");
  m.create_po(m.get_constant(true), "one");
  m.create_po(a, "pass");
  const auto cleaned = cleanup_dangling(m);
  ASSERT_EQ(cleaned.num_pos(), 3u);
  for (unsigned v = 0; v < 4; ++v) {
    const std::vector<bool> in{(v & 1) != 0, (v & 2) != 0};
    EXPECT_EQ(simulate_vector(cleaned, in),
              (std::vector<bool>{!((v & 1) && (v & 2)), true, (v & 1) != 0}));
  }
}

}  // namespace
}  // namespace plim::mig
