#include "core/compiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuits/motivation.hpp"
#include "core/verify.hpp"
#include "mig/random.hpp"
#include "mig/simulation.hpp"

namespace plim::core {
namespace {

using mig::Mig;

/// Compiles and end-to-end verifies against the PLiM machine model.
CompileResult compile_verified(const Mig& m, const CompileOptions& opts = {}) {
  auto result = compile(m, opts);
  const auto v = verify_program(m, result.program);
  EXPECT_TRUE(v.ok) << v.message;
  return result;
}

TEST(Compiler, SingleAndGate) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  m.create_po(m.create_and(a, b), "f");
  const auto r = compile_verified(m);
  // ⟨a b 0⟩: B ← 1 (case c), Z ← fresh cell loaded with 0 (case c… the
  // constant was taken by B, so Z copies a or b? No: children are a, b,
  // const0; B consumes the constant, Z reuses nothing (PIs are not
  // overwritable) → 2-instruction copy, A direct). 1 cell total.
  EXPECT_EQ(r.stats.num_rrams, 1u);
  EXPECT_LE(r.stats.num_instructions, 3u);
}

TEST(Compiler, IdealSingleComplementNodeIsOneInstructionPlusPrep) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto c = m.create_pi("c");
  m.create_po(m.create_maj(a, !b, c), "f");
  const auto r = compile_verified(m);
  // B ← b free via RM3's intrinsic inversion; Z must materialize a PI
  // value (2 instructions); A direct; final RM3: 3 instructions total.
  EXPECT_EQ(r.stats.num_instructions, 3u);
  EXPECT_EQ(r.stats.num_rrams, 1u);
}

TEST(Compiler, ConstantOutputs) {
  Mig m;
  (void)m.create_pi("a");
  m.create_po(m.get_constant(false), "zero");
  m.create_po(m.get_constant(true), "one");
  const auto r = compile_verified(m);
  EXPECT_EQ(r.stats.num_instructions, 2u);
  EXPECT_EQ(r.stats.num_rrams, 2u);
}

TEST(Compiler, PassThroughAndInvertedPis) {
  Mig m;
  const auto a = m.create_pi("a");
  m.create_po(a, "f");
  m.create_po(!a, "nf");
  m.create_po(a, "f2");  // shares the copy cell with f
  const auto r = compile_verified(m);
  EXPECT_EQ(r.stats.num_rrams, 2u);
  EXPECT_EQ(r.program.output_cell(0), r.program.output_cell(2));
}

TEST(Compiler, ComplementedPoReusesCachedComplement) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto g = m.create_and(a, b);
  m.create_po(!g, "nf");
  m.create_po(!g, "nf2");
  const auto r = compile_verified(m);
  EXPECT_EQ(r.program.output_cell(0), r.program.output_cell(1));
}

TEST(Compiler, SharedSubexpressionReleasesCells) {
  // A chain long enough that the FIFO free list must recycle cells.
  Mig m;
  auto x = m.create_pi("x0");
  for (int i = 1; i < 20; ++i) {
    x = m.create_and(x, m.create_pi("x" + std::to_string(i)));
  }
  m.create_po(x, "f");
  const auto r = compile_verified(m);
  // A chain keeps at most a couple of live values at a time.
  EXPECT_LE(r.stats.peak_live_rrams, 3u);
  EXPECT_LT(r.stats.num_rrams, 6u);
}

TEST(Compiler, MultiComplementNodeCostsExtra) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto c = m.create_pi("c");
  Mig single = m;  // copy with one complement
  m.create_po(m.create_maj(!a, !b, !c), "f");
  single.create_po(single.create_maj(a, !b, c), "f");
  const auto multi_result = compile_verified(m);
  const auto single_result = compile_verified(single);
  EXPECT_GT(multi_result.stats.num_instructions,
            single_result.stats.num_instructions);
}

TEST(Compiler, AllOptionCombinationsVerifyOnRandomMigs) {
  for (const bool smart : {false, true}) {
    for (const bool cache : {false, true}) {
      for (const auto policy : {AllocationPolicy::fifo, AllocationPolicy::lifo,
                                AllocationPolicy::fresh}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          const auto m = mig::random_mig({6, 60, 4, 35, 30}, seed);
          CompileOptions opts;
          opts.smart_candidates = smart;
          opts.cache_complements = cache;
          opts.allocation = policy;
          const auto r = compile(m, opts);
          const auto v = verify_program(m, r.program, 4, seed);
          ASSERT_TRUE(v.ok)
              << v.message << " (smart=" << smart << " cache=" << cache
              << " policy=" << static_cast<int>(policy) << " seed=" << seed
              << ")";
        }
      }
    }
  }
}

TEST(Compiler, SmartOrderNeverUsesMoreRramsOnChains) {
  // Two independent chains joined at the top: smart candidate selection
  // should interleave to release cells early.
  Mig m;
  auto left = m.create_pi("l0");
  auto right = m.create_pi("r0");
  for (int i = 1; i < 12; ++i) {
    left = m.create_and(left, m.create_pi("l" + std::to_string(i)));
    right = m.create_or(right, m.create_pi("r" + std::to_string(i)));
  }
  m.create_po(m.create_and(left, right), "f");

  CompileOptions naive;
  naive.smart_candidates = false;
  const auto r_naive = compile_verified(m, naive);
  const auto r_smart = compile_verified(m);
  EXPECT_LE(r_smart.stats.num_rrams, r_naive.stats.num_rrams);
}

TEST(Compiler, TextbookTranslationVerifies) {
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    const auto m = mig::random_mig({5, 40, 3, 30, 40}, seed);
    const auto r = translate_naive_textbook(m);
    const auto v = verify_program(m, r.program, 4, seed);
    ASSERT_TRUE(v.ok) << v.message << " seed " << seed;
  }
}

TEST(Compiler, SkipsUnreachableGates) {
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto used = m.create_and(a, b);
  (void)m.create_or(a, b);  // dangling
  m.create_po(used, "f");
  const auto r = compile_verified(m);
  EXPECT_EQ(r.stats.num_gates, 1u);
}

TEST(Compiler, RramCapHonored) {
  // An AND chain reuses its single destination cell throughout: even a
  // capacity of one suffices (destination case (b) at every step).
  Mig m;
  auto x = m.create_pi("x0");
  for (int i = 1; i < 16; ++i) {
    x = m.create_and(x, m.create_pi("x" + std::to_string(i)));
  }
  m.create_po(x, "f");
  CompileOptions opts;
  opts.rram_cap = 1;
  const auto r = compile(m, opts);
  EXPECT_EQ(r.stats.num_rrams, 1u);

  // A balanced tree keeps several intermediate values live; a capacity of
  // two cells is infeasible.
  Mig tree;
  std::vector<mig::Signal> layer;
  for (int i = 0; i < 16; ++i) {
    layer.push_back(tree.create_pi("t" + std::to_string(i)));
  }
  while (layer.size() > 1) {
    std::vector<mig::Signal> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(tree.create_and(layer[i], layer[i + 1]));
    }
    layer = next;
  }
  tree.create_po(layer[0], "f");
  CompileOptions tight;
  tight.rram_cap = 2;
  EXPECT_THROW((void)compile(tree, tight), RramCapExceeded);
  CompileOptions enough;
  enough.rram_cap = 16;
  const auto rt = compile(tree, enough);
  EXPECT_LE(rt.stats.num_rrams, 16u);
  const auto v = verify_program(tree, rt.program);
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(Compiler, ProgramMetadataMatchesInterface) {
  const auto m = mig::random_mig({4, 20, 3, 30, 30}, 3);
  const auto r = compile(m);
  EXPECT_EQ(r.program.num_inputs(), m.num_pis());
  EXPECT_EQ(r.program.num_outputs(), m.num_pos());
  EXPECT_TRUE(r.program.validate().empty());
  EXPECT_EQ(r.stats.num_rrams, r.program.num_rrams());
}

TEST(Compiler, WorstCaseNodeBound) {
  // §4.2.2: at most 1 + 6 instructions and 3 extra cells per node.
  Mig m;
  const auto a = m.create_pi("a");
  const auto b = m.create_pi("b");
  const auto c = m.create_pi("c");
  // All-complemented node over multi-fanout children.
  const auto g = m.create_maj(!a, !b, !c);
  m.create_po(g, "f");
  m.create_po(m.create_and(a, m.create_and(b, c)), "keepalive");
  CompileOptions opts;
  opts.cache_complements = false;
  const auto r = compile_verified(m, opts);
  EXPECT_LE(r.stats.num_instructions, 7u + 5u /* keepalive chain + PO */);
}

TEST(Compiler, EveryCompiledCellIsWrittenBeforeRead) {
  // The A and B operands read cells; Z is written (a fresh cell's first
  // write is a reset that does not depend on what the cell held).
  std::vector<Mig> networks{circuits::make_fig3b()};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    networks.push_back(mig::random_mig({6, 60, 4, 35, 30}, seed));
  }
  for (const auto& m : networks) {
    const auto& program = compile(m).program;
    std::vector<bool> written(program.num_rrams(), false);
    for (std::size_t i = 0; i < program.num_instructions(); ++i) {
      const auto& ins = program[i];
      for (const auto op : {ins.a, ins.b}) {
        if (op.is_rram()) {
          EXPECT_TRUE(written[op.address()])
              << "instruction " << i << " reads uninitialized cell";
        }
      }
      written[ins.z] = true;
    }
    EXPECT_EQ(std::count(written.begin(), written.end(), false), 0)
        << "every cell of the program is written";
  }
}

TEST(Compiler, PeakLiveMatchesCompilerStatistic) {
  // The allocator tracks peak live cells online; the cells live at once
  // in the emitted program (from a cell's first write to its last
  // access, an output's to the end) can only be fewer, since the
  // allocator holds a cell from request time and may keep a complement
  // cached past its last use.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto r = compile(mig::random_mig({6, 60, 4, 35, 30}, seed));
    const auto& program = r.program;
    const auto n = program.num_instructions();
    // first[c] == n marks a cell that is never written.
    std::vector<std::size_t> first(program.num_rrams(), n);
    std::vector<std::size_t> last(program.num_rrams(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& ins = program[i];
      for (const auto op : {ins.a, ins.b}) {
        if (op.is_rram()) {
          last[op.address()] = i;
        }
      }
      first[ins.z] = std::min(first[ins.z], i);
      last[ins.z] = i;
    }
    for (std::uint32_t o = 0; o < program.num_outputs(); ++o) {
      last[program.output_cell(o)] = n - 1;
    }
    std::vector<int> delta(n + 1, 0);
    for (std::size_t cell = 0; cell < first.size(); ++cell) {
      if (first[cell] < n) {
        ++delta[first[cell]];
        --delta[last[cell] + 1];
      }
    }
    int live = 0;
    int peak = 0;
    for (std::size_t i = 0; i < n; ++i) {
      live += delta[i];
      peak = std::max(peak, live);
    }
    EXPECT_LE(static_cast<std::uint32_t>(peak), r.stats.peak_live_rrams)
        << "seed " << seed;
    EXPECT_GT(peak, 0);
  }
}

}  // namespace
}  // namespace plim::core
