#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "circuits/epfl.hpp"
#include "core/compiler.hpp"
#include "driver/driver.hpp"
#include "mig/random.hpp"
#include "mig/rewriting.hpp"
#include "sched/depgraph.hpp"
#include "sched/refine.hpp"
#include "sched/scheduler.hpp"
#include "sched/text.hpp"
#include "sched/verify.hpp"

namespace plim::sched {
namespace {

ScheduleOptions with_refinement(std::uint32_t banks, std::uint32_t passes) {
  ScheduleOptions opts;
  opts.banks = banks;
  opts.refine_passes = passes;
  return opts;
}

// ---- monotonicity -----------------------------------------------------------

/// Refinement's objective is lexicographic (steps, then transfers): the
/// refined schedule never takes more steps than the unrefined one, and
/// transfers only rise when steps strictly fall.
TEST(Refine, NeverIncreasesStepsOrTradesTransfersWithoutStepWins) {
  const auto migs = {
      circuits::make_adder(16),
      circuits::make_priority(64),
      circuits::make_cavlc(),
      circuits::make_int2float(),
  };
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    for (const std::uint32_t banks : {2u, 4u, 8u}) {
      const auto base =
          schedule(compiled.program, with_refinement(banks, 0));
      const auto refined =
          schedule(compiled.program, with_refinement(banks, 4));
      EXPECT_LE(refined.stats.steps, base.stats.steps) << banks << " banks";
      if (refined.stats.steps == base.stats.steps) {
        EXPECT_LE(refined.stats.transfers, base.stats.transfers)
            << banks << " banks";
      }
      EXPECT_EQ(refined.program.validate(), "");
    }
  }
}

TEST(Refine, MorePassesNeverHurt) {
  const auto compiled = core::compile(circuits::make_dec(6));
  for (const std::uint32_t banks : {2u, 4u}) {
    std::uint32_t prev_steps = 0xffffffffu;
    for (const std::uint32_t passes : {0u, 1u, 2u, 4u, 8u}) {
      const auto result =
          schedule(compiled.program, with_refinement(banks, passes));
      EXPECT_LE(result.stats.steps, prev_steps)
          << banks << " banks, " << passes << " passes";
      prev_steps = result.stats.steps;
    }
  }
}

// ---- knobs ------------------------------------------------------------------

TEST(Refine, NoOpAtOneBank) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_refinement(1, 8));
  EXPECT_EQ(result.stats.refine_passes, 0u);
  EXPECT_EQ(result.stats.refine_moves_kept, 0u);
  EXPECT_EQ(result.stats.steps, result.stats.serial_instructions);
  EXPECT_DOUBLE_EQ(result.stats.speedup, 1.0);
}

TEST(Refine, RespectsZeroPasses) {
  const auto compiled = core::compile(circuits::make_cavlc());
  const auto off = schedule(compiled.program, with_refinement(4, 0));
  EXPECT_EQ(off.stats.refine_passes, 0u);
  EXPECT_EQ(off.stats.refine_moves_kept, 0u);
  EXPECT_EQ(off.stats.refine_steps_saved, 0u);
  // Scheduling is deterministic: zero passes must reproduce itself.
  const auto again = schedule(compiled.program, with_refinement(4, 0));
  EXPECT_EQ(to_text(off.program), to_text(again.program));
}

TEST(Refine, ReportsItsWork) {
  const auto compiled = core::compile(circuits::make_priority(64));
  const auto base = schedule(compiled.program, with_refinement(4, 0));
  const auto refined = schedule(compiled.program, with_refinement(4, 8));
  EXPECT_GT(refined.stats.refine_passes, 0u);
  EXPECT_GT(refined.stats.refine_moves_kept, 0u);
  // refine_steps_saved counts refinement proper; the dual-start trial
  // (producer vs LPT greedy order) may account for the rest of the gap
  // to the unrefined baseline.
  EXPECT_LE(refined.stats.refine_steps_saved,
            base.stats.steps - refined.stats.steps);
  EXPECT_GT(refined.stats.refine_steps_saved, 0u);
  EXPECT_GE(refined.stats.schedule_ms, 0.0);
}

// ---- equivalence ------------------------------------------------------------

/// Machine-run parity with the serial program must hold after refinement
/// moves segments and clusters between banks.
TEST(Refine, RandomizedEquivalenceAfterRefinement) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mig::RandomMigOptions ropts;
    ropts.num_pis = 6;
    ropts.num_gates = 40 + static_cast<std::uint32_t>(seed * 23 % 60);
    ropts.num_pos = 3;
    const auto network = mig::random_mig(ropts, seed);
    const auto compiled = core::compile(network);
    for (const std::uint32_t banks : {2u, 4u, 8u}) {
      const auto result =
          schedule(compiled.program, with_refinement(banks, 4));
      ASSERT_EQ(result.program.validate(), "") << "banks " << banks;
      EXPECT_TRUE(equivalent_to_serial(compiled.program, result.program, 4,
                                       seed * 100 + banks))
          << "banks " << banks;
    }
  }
}

// ---- evaluator exactness ----------------------------------------------------

/// Deterministic stand-in for the scheduler's exact evaluator: steps is
/// the peak bank load (instructions plus one slot per distinct incoming
/// copy), transfers the distinct (producer, reader-bank) pairs, and the
/// first cross-bank read becomes a critical edge so the unscreened
/// critical-edge stream has candidates too. It is a pure function of the
/// bank assignment, so a fresh call on refine()'s final assignment must
/// reproduce exactly the (steps, transfers) refine() reported — even
/// when the incremental screen's own load model disagrees with it.
RefineEval toy_exact_eval(const DependenceGraph& graph, std::uint32_t banks,
                          const std::vector<std::uint32_t>& seg_bank) {
  RefineEval eval;
  std::vector<std::uint32_t> load(banks, 0);
  for (std::uint32_t i = 0; i < graph.num_instructions(); ++i) {
    ++load[seg_bank[graph.segment_of(i)]];
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> copies;
  for (std::uint32_t i = 0; i < graph.num_instructions(); ++i) {
    const std::uint32_t reader_bank = seg_bank[graph.segment_of(i)];
    for (const std::uint32_t def : {graph.def_of_a(i), graph.def_of_b(i)}) {
      if (def == DependenceGraph::npos ||
          seg_bank[graph.segment_of(def)] == reader_bank) {
        continue;
      }
      if (copies.insert({def, reader_bank}).second) {
        ++load[reader_bank];
        if (eval.critical_cross_edges.empty()) {
          eval.critical_cross_edges.emplace_back(graph.segment_of(def),
                                                 graph.segment_of(i));
        }
      }
    }
  }
  eval.transfers = static_cast<std::uint32_t>(copies.size());
  eval.steps = *std::max_element(load.begin(), load.end());
  eval.chain = graph.critical_path();
  return eval;
}

/// The accepted state never drifts from the exact evaluator: after
/// refine() returns, re-evaluating the final assignment from scratch
/// must reproduce the reported (steps, transfers) bit-for-bit, however
/// far the screen's own load model is from the evaluator's.
TEST(Refine, AcceptedStateMatchesFreshExactEvaluation) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    mig::RandomMigOptions ropts;
    ropts.num_pis = 6;
    ropts.num_gates = 50 + static_cast<std::uint32_t>(seed * 37 % 70);
    ropts.num_pos = 3;
    const auto compiled = core::compile(mig::random_mig(ropts, seed));
    const auto graph = DependenceGraph::build(compiled.program);
    std::vector<std::uint32_t> cluster_of(graph.num_segments());
    std::iota(cluster_of.begin(), cluster_of.end(), 0u);
    for (const std::uint32_t banks : {2u, 4u, 8u}) {
      std::vector<std::uint32_t> seg_bank(graph.num_segments());
      for (std::uint32_t s = 0; s < graph.num_segments(); ++s) {
        seg_bank[s] = s % banks;
      }
      const auto evaluate = [&](const std::vector<std::uint32_t>& sb,
                                const RefineEval*) {
        return toy_exact_eval(graph, banks, sb);
      };
      RefineOptions opts;
      opts.passes = 6;
      const auto baseline = evaluate(seg_bank, nullptr);
      auto incumbent = baseline;
      RefineWork work;
      const auto stats = refine(graph, seg_bank, cluster_of, banks, opts,
                                evaluate, work, &incumbent);
      const auto ctx = ::testing::Message()
                       << "seed " << seed << ", banks " << banks;
      const auto fresh = evaluate(seg_bank, nullptr);
      EXPECT_EQ(incumbent.steps, fresh.steps) << ctx;
      EXPECT_EQ(incumbent.transfers, fresh.transfers) << ctx;
      EXPECT_EQ(stats.steps_after, fresh.steps) << ctx;
      EXPECT_EQ(stats.transfers_after, fresh.transfers) << ctx;
      EXPECT_EQ(stats.steps_before, baseline.steps) << ctx;
      EXPECT_EQ(stats.transfers_before, baseline.transfers) << ctx;
      // Lexicographic keep-rule holds at the end state.
      EXPECT_LE(stats.steps_after, stats.steps_before) << ctx;
      if (stats.steps_after == stats.steps_before) {
        EXPECT_LE(stats.transfers_after, stats.transfers_before) << ctx;
      }
      EXPECT_LE(work.moves_screened, work.moves_tried) << ctx;
      for (const auto bank : seg_bank) {
        ASSERT_LT(bank, banks);
      }
    }
  }
}

/// An evaluator may stop pricing a trial once it provably cannot be
/// kept (see RefineEvaluator). A bounded toy evaluator — a non-improving
/// evaluation, without transfers or critical edges, whenever the
/// busiest bank's load (the toy's step bound) exceeds the incumbent's
/// steps — must leave refinement exactly where the unbounded one does:
/// the same final assignment, the same outcome and the same work.
TEST(Refine, BoundedEvaluatorKeepsTheSameMoves) {
  std::uint32_t bounded_total = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    mig::RandomMigOptions ropts;
    ropts.num_pis = 6;
    ropts.num_gates = 50 + static_cast<std::uint32_t>(seed * 37 % 70);
    ropts.num_pos = 3;
    const auto compiled = core::compile(mig::random_mig(ropts, seed));
    const auto graph = DependenceGraph::build(compiled.program);
    std::vector<std::uint32_t> cluster_of(graph.num_segments());
    std::iota(cluster_of.begin(), cluster_of.end(), 0u);
    for (const std::uint32_t banks : {2u, 4u, 8u}) {
      const auto unbounded = [&](const std::vector<std::uint32_t>& sb,
                                 const RefineEval*) {
        return toy_exact_eval(graph, banks, sb);
      };
      std::uint32_t bounded = 0;
      const auto bounded_eval = [&](const std::vector<std::uint32_t>& sb,
                                    const RefineEval* incumbent) {
        auto eval = toy_exact_eval(graph, banks, sb);
        if (incumbent != nullptr && eval.steps > incumbent->steps) {
          ++bounded;
          RefineEval losing;
          losing.steps = 0xffffffffu;
          return losing;
        }
        return eval;
      };
      RefineOptions opts;
      opts.passes = 6;
      const auto run = [&](const RefineEvaluator& evaluate,
                           std::vector<std::uint32_t>& seg_bank,
                           RefineWork& work) {
        for (std::uint32_t s = 0; s < graph.num_segments(); ++s) {
          seg_bank[s] = s % banks;
        }
        return refine(graph, seg_bank, cluster_of, banks, opts, evaluate,
                      work);
      };
      std::vector<std::uint32_t> plain_bank(graph.num_segments());
      std::vector<std::uint32_t> bounded_bank(graph.num_segments());
      RefineWork plain_work;
      RefineWork bounded_work;
      const auto plain = run(unbounded, plain_bank, plain_work);
      const auto fast = run(bounded_eval, bounded_bank, bounded_work);
      const auto ctx = ::testing::Message()
                       << "seed " << seed << ", banks " << banks;
      EXPECT_EQ(bounded_bank, plain_bank) << ctx;
      EXPECT_EQ(fast.moves_kept, plain.moves_kept) << ctx;
      EXPECT_EQ(fast.steps_before, plain.steps_before) << ctx;
      EXPECT_EQ(fast.steps_after, plain.steps_after) << ctx;
      EXPECT_EQ(fast.transfers_before, plain.transfers_before) << ctx;
      EXPECT_EQ(fast.transfers_after, plain.transfers_after) << ctx;
      EXPECT_EQ(fast.makespan_after, plain.makespan_after) << ctx;
      EXPECT_EQ(bounded_work.passes_run, plain_work.passes_run) << ctx;
      EXPECT_EQ(bounded_work.moves_tried, plain_work.moves_tried) << ctx;
      EXPECT_EQ(bounded_work.moves_screened, plain_work.moves_screened)
          << ctx;
      EXPECT_EQ(bounded_work.full_evals, plain_work.full_evals) << ctx;
      bounded_total += bounded;
    }
  }
  EXPECT_GT(bounded_total, 0u) << "the bound never fired";
}

/// The incremental screen is what makes 20 passes affordable: most
/// trial moves must be rejected on the delta estimate alone, without an
/// exact re-schedule. Deterministic — counts, not wall-clock.
TEST(Refine, ScreenRejectsMostTrials) {
  for (const char* name : {"dec", "router"}) {
    Options options;
    options.banks = 4;
    const auto outcome =
        Driver(options).run(CompileRequest::from_benchmark(name));
    ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.error_summary();
    ASSERT_TRUE(outcome.stats.schedule.has_value()) << name;
    const auto& s = *outcome.stats.schedule;
    EXPECT_GT(s.refine_moves_tried, 0u) << name;
    EXPECT_GE(s.refine_moves_screened * 2, s.refine_moves_tried)
        << name << ": " << s.refine_moves_screened << " of "
        << s.refine_moves_tried << " trials screened";
  }
}

// ---- critical-path regression bars ------------------------------------------

/// The headline convergence bars, in the bench configuration (effort-2
/// rewriting, the DAC'16 pipeline): with refinement on, the
/// latency-bound circuits schedule within 1.25× of the dependence-graph
/// lower bound — max of the post-renaming chain bound and the per-bank
/// throughput bound. The raw RAW critical path alone is unreachable on
/// a lockstep machine: voter's residual reader→chain-write orderings
/// already exceed 1.25× of it, and max's throughput bound is ~2.6× it.
/// Before slack scheduling + refinement these circuits sat at ≈1.6× of
/// this bound (ROADMAP "critical-path gap" item).
std::uint32_t bench_pipeline_steps_over_bound(const mig::Mig& network,
                                              ScheduleStats* out = nullptr) {
  mig::RewriteOptions ropts;
  ropts.effort = 2;
  const auto compiled = core::compile(mig::rewrite_for_plim(network, ropts));
  const auto result = schedule(compiled.program, with_refinement(4, 8));
  EXPECT_EQ(result.program.validate(), "");
  EXPECT_GE(result.stats.steps, result.stats.step_lower_bound);
  if (out != nullptr) {
    *out = result.stats;
  }
  return result.stats.steps;
}

TEST(RefineBars, VoterWithinQuarterOfLowerBoundAtFourBanks) {
  ScheduleStats stats;
  const auto steps =
      bench_pipeline_steps_over_bound(circuits::make_voter(), &stats);
  EXPECT_LE(steps, (stats.step_lower_bound * 5 + 3) / 4)  // 1.25× (ceil)
      << "steps " << steps << " vs lower bound " << stats.step_lower_bound;
}

TEST(RefineBars, MaxWithinQuarterOfLowerBoundAtFourBanks) {
  ScheduleStats stats;
  const auto steps =
      bench_pipeline_steps_over_bound(circuits::make_max(), &stats);
  EXPECT_LE(steps, (stats.step_lower_bound * 5 + 3) / 4)
      << "steps " << steps << " vs lower bound " << stats.step_lower_bound;
}

}  // namespace
}  // namespace plim::sched
