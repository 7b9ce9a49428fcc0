/// Recompute-on-evict compilation under RRAM capacity pressure: degraded
/// programs must stay functionally identical to the MIG (and to their
/// unconstrained compilation) — eviction and replay may only cost
/// instructions, never correctness.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "circuits/epfl.hpp"
#include "core/compiler.hpp"
#include "core/verify.hpp"
#include "driver/driver.hpp"
#include "mig/random.hpp"
#include "mig/rewriting.hpp"
#include "sched/scheduler.hpp"
#include "sched/verify.hpp"

namespace plim {
namespace {

bool has_code(const std::vector<Diagnostic>& diags, const std::string& code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

// ---- core layer -------------------------------------------------------------

TEST(Degradation, LowerBoundIsHonest) {
  // AOIG-style benchmark generators give every gate a constant fanin, so
  // per-gate residency never exceeds two distinct values; the bound is
  // then driven by the distinct output signals that must coexist at
  // program end (ctrl: 26 POs).
  const auto network = circuits::build_benchmark("ctrl");
  const auto bound = core::live_set_lower_bound(network);
  EXPECT_GE(bound, 2u);
  // Any successful compilation's peak must respect the bound.
  const auto baseline = core::compile(network);
  EXPECT_LE(bound, baseline.stats.peak_live_rrams);
}

TEST(Degradation, CapBelowBoundFailsFastWithBound) {
  const auto network = circuits::build_benchmark("ctrl");
  const auto bound = core::live_set_lower_bound(network);
  ASSERT_GT(bound, 1u);
  core::CompileOptions opts;
  opts.rram_cap = bound - 1;
  opts.degradation.enabled = true;
  try {
    (void)core::compile(network, opts);
    FAIL() << "cap below the live-set lower bound must be infeasible";
  } catch (const core::RramCapExceeded& e) {
    EXPECT_EQ(e.cap(), bound - 1);
    EXPECT_EQ(e.live_lower_bound(), bound);
  }
}

TEST(Degradation, TightCapDegradesButVerifies) {
  // voter: one PO and a ~500-cell unconstrained peak — capacity pressure
  // falls entirely on recomputable intermediates, the regime the
  // degradation targets (PO-dominated circuits have almost no evictable
  // slack: output cells are immovable once finalized).
  const auto network =
      mig::rewrite_for_plim(circuits::build_benchmark("voter"));
  const auto baseline = core::compile(network);
  const auto peak = baseline.stats.peak_live_rrams;
  ASSERT_GT(peak, 40u);

  core::CompileOptions opts;
  opts.rram_cap = peak - peak / 4;  // 25% under the unconstrained peak
  opts.degradation.enabled = true;
  opts.degradation.aggressive = true;
  const auto degraded = core::compile(network, opts);

  EXPECT_LE(degraded.stats.peak_live_rrams, *opts.rram_cap);
  EXPECT_GT(degraded.stats.cells_evicted, 0u);
  EXPECT_GT(degraded.stats.ops_recomputed, 0u);
  EXPECT_GE(degraded.stats.num_instructions, baseline.stats.num_instructions);
  const auto check = core::verify_program(network, degraded.program, 4);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(Degradation, StatsAreInertWithoutPressure) {
  const auto network = circuits::build_benchmark("int2float");
  const auto result = core::compile(network);
  EXPECT_EQ(result.stats.cells_evicted, 0u);
  EXPECT_EQ(result.stats.ops_recomputed, 0u);
  EXPECT_EQ(result.stats.replay_max_depth, 0u);
  EXPECT_EQ(result.stats.rram_cap, 0u);
  EXPECT_GT(result.stats.live_lower_bound, 0u);
}

// ---- randomized equivalence across banks and execution models ---------------

/// Degraded compilation at a cap 25% under the unconstrained peak,
/// scheduled at 1/2/4/8 banks under both execution models. The degraded
/// serial program is verified against the MIG, and its bank schedule
/// against the serial program — a replay emitted into the wrong bank or
/// an evicted cell revived with a stale value fails here. The cap bounds
/// the program that runs, so the driver accepts the banked compile only
/// when its schedule fits the cap too.
TEST(Degradation, RandomTightCapsStayEquivalentAcrossBanks) {
  mig::RandomMigOptions ropts;
  ropts.num_pis = 8;
  ropts.num_gates = 150;
  ropts.num_pos = 3;

  for (const std::uint32_t banks : {1u, 2u, 4u, 8u}) {
    for (const auto execution :
         {sched::ExecutionModel::lockstep, sched::ExecutionModel::decoupled}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto network = mig::random_mig(ropts, seed * 7919 + banks);
        const auto label =
            "random b" + std::to_string(banks) + " s" + std::to_string(seed);
        const auto request = CompileRequest::from_mig(network, label);

        Options options;
        options.rewrite.effort = 0;
        options.verify.enabled = true;
        options.verify.rounds = 2;
        options.verify.seed = seed;

        const auto uncapped = Driver(options).run(request);
        ASSERT_TRUE(uncapped.ok()) << label << ": "
                                   << uncapped.error_summary();
        const auto peak = uncapped.stats.compile.peak_live_rrams;
        const auto bound = uncapped.stats.compile.live_lower_bound;
        ASSERT_GT(peak, 8u) << label;

        auto capped = options;
        capped.compile.rram_cap = std::max(peak - peak / 4, bound);
        capped.compile.degradation.enabled = true;
        const auto cap = *capped.compile.rram_cap;
        const auto degraded = Driver(capped).run(request);
        ASSERT_TRUE(degraded.ok()) << label << ": "
                                   << degraded.error_summary();
        EXPECT_TRUE(degraded.stats.verified) << label;
        EXPECT_LE(degraded.stats.compile.peak_live_rrams, cap) << label;
        // A cap under the unconstrained peak cannot be met without at
        // least one eviction.
        EXPECT_GT(degraded.stats.compile.cells_evicted, 0u) << label;
        EXPECT_TRUE(has_code(degraded.diagnostics, "rram-cap-degraded"))
            << label;

        sched::ScheduleOptions sopts;
        sopts.banks = banks;
        sopts.execution = execution;
        const auto scheduled = sched::schedule(degraded.program, sopts);
        EXPECT_EQ(scheduled.program.validate(), "") << label;
        EXPECT_TRUE(sched::equivalent_to_serial(degraded.program,
                                                scheduled.program, 2, seed))
            << label;
        EXPECT_TRUE(sched::equivalent_to_serial(
            degraded.program, scheduled.program, 2, seed,
            sched::ExecutionModel::decoupled))
            << label;

        capped.banks = banks;
        capped.schedule.execution = execution;
        const auto banked = Driver(capped).run(request);
        if (scheduled.stats.parallel_rrams <= cap) {
          EXPECT_TRUE(banked.ok()) << label << ": " << banked.error_summary();
        } else {
          EXPECT_TRUE(has_code(banked.diagnostics, "schedule-cap-exceeded"))
              << label << ": " << banked.error_summary();
        }
      }
    }
  }
}

}  // namespace
}  // namespace plim
