#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "arch/program.hpp"
#include "circuits/epfl.hpp"
#include "core/compiler.hpp"
#include "mig/random.hpp"
#include "sched/decoupled.hpp"
#include "sched/scheduler.hpp"
#include "sched/text.hpp"
#include "sched/verify.hpp"

namespace plim::sched {
namespace {

constexpr std::uint32_t kBankCounts[] = {1, 2, 4, 8};
constexpr auto kPhases = arch::Machine::phases_per_instruction;

ScheduleOptions with_banks(std::uint32_t banks) {
  ScheduleOptions opts;
  opts.banks = banks;
  return opts;
}

void expect_decoupled_equivalent(const arch::Program& serial,
                                 const ParallelProgram& parallel,
                                 std::uint64_t seed, unsigned rounds = 4) {
  EXPECT_TRUE(equivalent_to_serial(serial, parallel, rounds, seed,
                                   ExecutionModel::decoupled));
}

// ---- sync derivation --------------------------------------------------------

TEST(DeriveSync, TokensAreMatchedInRangeAndStepForward) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(4));
  const auto& pp = result.program;
  ASSERT_GT(result.stats.transfers, 0u);
  EXPECT_TRUE(pp.has_sync());
  EXPECT_EQ(pp.validate(), "");
  EXPECT_EQ(result.stats.sync_tokens, pp.sync_edges().size());

  // Every token is one signal/wait pair between real stream ops.
  const StreamView view(pp);
  for (const auto& e : pp.sync_edges()) {
    ASSERT_LT(e.from_bank, pp.num_banks());
    ASSERT_LT(e.to_bank, pp.num_banks());
    EXPECT_NE(e.from_bank, e.to_bank);
    ASSERT_LT(e.from_pos, view.len(e.from_bank));
    ASSERT_LT(e.to_pos, view.len(e.to_bank));
    // Signal strictly precedes the wait in lockstep step order — the
    // derived token graph is acyclic (deadlock-free) by construction.
    EXPECT_LT(view.step[view.id(e.from_bank, e.from_pos)],
              view.step[view.id(e.to_bank, e.to_pos)]);
  }
}

TEST(DeriveSync, CoalescesTransfersBetweenBankPairs) {
  const auto compiled = core::compile(circuits::make_priority(64));
  const auto result = schedule(compiled.program, with_banks(4));
  // Two RM3 instructions per transfer, but coalescing (the Pareto
  // frontier per bank pair) must keep the token count at or below the
  // cross-bank read count.
  EXPECT_LE(result.program.sync_edges().size(),
            std::size_t{2} * result.stats.transfers);
  EXPECT_GT(result.program.sync_edges().size(), 0u);
  EXPECT_EQ(result.program.validate(), "");
}

// ---- decoupled equivalence --------------------------------------------------

TEST(DecoupledEquivalence, RandomMigs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mig::RandomMigOptions opts;
    opts.num_pis = 5 + static_cast<std::uint32_t>(seed % 3);
    opts.num_gates = 30 + static_cast<std::uint32_t>(seed * 17 % 50);
    opts.num_pos = 3;
    const auto network = mig::random_mig(opts, seed);
    const auto compiled = core::compile(network);
    for (const auto banks : kBankCounts) {
      const auto result = schedule(compiled.program, with_banks(banks));
      ASSERT_EQ(result.program.validate(), "") << banks << " banks";
      expect_decoupled_equivalent(compiled.program, result.program,
                                  seed * 100 + banks);
    }
  }
}

TEST(DecoupledEquivalence, ComponentCircuits) {
  const auto migs = {
      circuits::make_adder(8),
      circuits::make_dec(4),
      circuits::make_priority(16),
      circuits::make_ctrl(),
      circuits::make_int2float(),
  };
  std::uint64_t seed = 4242;
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    for (const auto banks : kBankCounts) {
      const auto result = schedule(compiled.program, with_banks(banks));
      expect_decoupled_equivalent(compiled.program, result.program,
                                  seed++ + banks);
    }
  }
}

TEST(DecoupledEquivalence, BoundedBusSchedules) {
  const auto compiled = core::compile(circuits::make_cavlc());
  for (const auto width : {std::uint32_t{1}, std::uint32_t{2}}) {
    auto opts = with_banks(4);
    opts.cost.bus_width = width;
    const auto result = schedule(compiled.program, opts);
    ASSERT_EQ(result.program.validate(), "");
    expect_decoupled_equivalent(compiled.program, result.program,
                                900 + width);
  }
}

// ---- cycle accounting -------------------------------------------------------

TEST(DecoupledTiming, NeverExceedsLockstepBound) {
  const auto migs = {circuits::make_int2float(), circuits::make_cavlc(),
                     circuits::make_priority(64)};
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    for (const auto banks : kBankCounts) {
      const auto result = schedule(compiled.program, with_banks(banks));
      EXPECT_LE(result.stats.decoupled_cycles, result.stats.lockstep_cycles);
      EXPECT_EQ(result.stats.lockstep_cycles,
                std::uint64_t{result.stats.steps} * kPhases);
      // The pipelined stream span of the busiest bank is a hard floor.
      std::uint32_t max_load = 0;
      for (const auto load : result.stats.bank_load) {
        max_load = std::max(max_load, load);
      }
      if (max_load > 0) {
        EXPECT_GE(result.stats.decoupled_cycles,
                  std::uint64_t{max_load - 1} * (kPhases - 1) + kPhases);
      }
    }
  }
}

TEST(DecoupledTiming, BoundHoldsOnBusBoundedSchedules) {
  const auto compiled = core::compile(circuits::make_priority(64));
  for (const auto width : {std::uint32_t{1}, std::uint32_t{2}}) {
    for (const auto banks : {std::uint32_t{4}, std::uint32_t{8}}) {
      auto opts = with_banks(banks);
      opts.cost.bus_width = width;
      const auto result = schedule(compiled.program, opts);
      EXPECT_LE(result.stats.decoupled_cycles, result.stats.lockstep_cycles)
          << banks << " banks, bus " << width;
    }
  }
}

TEST(DecoupledTiming, RealCircuitsCutCyclesByTenPercent) {
  // The headline of the decoupled model: independent pipelined
  // controllers beat the global step clock by well over 10% on real
  // circuits (the EPFL-wide claim is barred in bench/sched_speedup).
  for (const auto& network :
       {circuits::make_int2float(), circuits::make_priority(64)}) {
    const auto compiled = core::compile(network);
    const auto result = schedule(compiled.program, with_banks(4));
    EXPECT_GE(result.stats.decoupled_speedup, 1.1);
  }
}

TEST(DecoupledTiming, BusArbiterAccountsStalls) {
  const auto compiled = core::compile(circuits::make_int2float());
  auto opts = with_banks(4);
  opts.cost.bus_width = 1;
  const auto result = schedule(compiled.program, opts);
  const auto& narrow_program = result.program;
  ASSERT_EQ(narrow_program.bus_width(), 1u);
  auto unbounded_program = narrow_program;
  unbounded_program.set_bus_width(0);
  ASSERT_EQ(unbounded_program.validate(), "");
  const auto narrow = decoupled_timing(narrow_program);
  const auto unbounded = decoupled_timing(unbounded_program);
  // A width-1 bus can only delay the same streams, and the delay is
  // visible as stall cycles.
  EXPECT_GE(narrow.makespan_cycles, unbounded.makespan_cycles);
  EXPECT_EQ(unbounded.bus_stall_cycles, 0u);
  EXPECT_GT(narrow.bus_stall_cycles, 0u);
}

TEST(DecoupledTiming, BusyPlusIdleEqualsFinishPerBank) {
  const auto compiled = core::compile(circuits::make_cavlc());
  const auto result = schedule(compiled.program, with_banks(4));
  const auto timing = decoupled_timing(result.program);
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_EQ(timing.bank_busy_cycles[b] + timing.bank_idle_cycles[b],
              timing.bank_finish_cycles[b])
        << "bank " << b;
    EXPECT_LE(timing.bank_finish_cycles[b], timing.makespan_cycles);
  }
  // The schedule stats carry the same per-bank idle view.
  ASSERT_EQ(result.stats.bank_idle_cycles.size(), 4u);
}

TEST(DecoupledTiming, SingleBankMatchesSerialStream) {
  const auto compiled = core::compile(circuits::make_ctrl());
  const auto result = schedule(compiled.program, with_banks(1));
  EXPECT_FALSE(result.program.has_sync());
  // One pipelined stream: (n − 1) × (phases − 1) + phases.
  const auto n = result.stats.parallel_instructions;
  EXPECT_EQ(result.stats.decoupled_cycles,
            std::uint64_t{n - 1} * (kPhases - 1) + kPhases);
}

// ---- the one timing model ---------------------------------------------------

/// The decoupled clock's contract on one program: every token points
/// forward, start times honour each token's phase-level latency (the
/// SyncEdge contract, and no consumer launches before its producer) and
/// each bank's pipelined cadence, and a bounded bus never has more than
/// its width of copies in flight.
void expect_clock_contract(const ParallelProgram& pp) {
  const StreamView view(pp);
  const auto timing = decoupled_timing(pp);
  ASSERT_EQ(timing.order.size(), view.size());
  std::vector<std::uint64_t> start(view.size());
  for (std::size_t k = 0; k < timing.order.size(); ++k) {
    const auto [bank, pos] = timing.order[k];
    start[view.id(bank, pos)] = timing.start_cycles[k];
  }
  for (const auto& e : pp.sync_edges()) {
    const auto from = view.id(e.from_bank, e.from_pos);
    const auto to = view.id(e.to_bank, e.to_pos);
    EXPECT_LT(view.step[from], view.step[to]);
    EXPECT_GE(start[to] + e.to_phase, start[from] + e.from_phase + 1);
    EXPECT_GE(start[to], start[from]);
  }
  for (std::uint32_t b = 0; b < view.banks; ++b) {
    for (std::uint32_t pos = 1; pos < view.len(b); ++pos) {
      EXPECT_GE(start[view.id(b, pos)],
                start[view.id(b, pos - 1)] + kPhases - 1);
    }
  }
  if (pp.bus_width() == 0) {
    return;
  }
  std::vector<std::uint64_t> copies;  // a copy holds the bus all phases
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    if (view.remote[i]) {
      copies.push_back(start[i]);
    }
  }
  for (const auto at : copies) {
    const auto in_flight = std::count_if(
        copies.begin(), copies.end(),
        [at](std::uint64_t s) { return s <= at && at < s + kPhases; });
    EXPECT_LE(in_flight, pp.bus_width()) << "at cycle " << at;
  }
}

TEST(DecoupledClock, RandomProgramsKeepTheContract) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    mig::RandomMigOptions mopts;
    mopts.num_pis = 4 + static_cast<std::uint32_t>(seed % 4);
    mopts.num_gates = 40 + static_cast<std::uint32_t>(seed * 13 % 60);
    mopts.num_pos = 3;
    const auto compiled = core::compile(mig::random_mig(mopts, seed));
    for (const auto banks :
         {std::uint32_t{2}, std::uint32_t{4}, std::uint32_t{8}}) {
      for (const auto width :
           {std::uint32_t{0}, std::uint32_t{1}, std::uint32_t{2}}) {
        for (const auto model :
             {ExecutionModel::lockstep, ExecutionModel::decoupled}) {
          auto opts = with_banks(banks);
          opts.cost.bus_width = width;
          opts.execution = model;
          const auto result = schedule(compiled.program, opts);
          SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                       std::to_string(banks) + " banks, bus " +
                       std::to_string(width) +
                       (model == ExecutionModel::decoupled ? ", decoupled"
                                                           : ", lockstep"));
          ASSERT_EQ(result.program.validate(), "");
          ASSERT_EQ(result.program.bus_width(), width);
          expect_clock_contract(result.program);
        }
      }
    }
  }
}

TEST(DecoupledClock, TokensMustPointForward) {
  // Bank 0 writes @X1 in step 1; bank 1 copies it in step 2.
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, false});
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              true});
  derive_sync(p);
  ASSERT_EQ(p.validate(), "");
  // Next to the covering tokens: one from step 2 back to step 1, and one
  // within step 1.
  for (const auto bad : {SyncEdge{1, 1, 0, 0}, SyncEdge{1, 0, 0, 0}}) {
    auto q = p;
    q.add_sync(bad);
    EXPECT_NE(q.validate().find("not after its signal"), std::string::npos)
        << q.validate();
    arch::Machine machine;
    EXPECT_THROW((void)machine.run_decoupled(q, {}), std::logic_error);
  }
}

// ---- decoupled-native scheduling --------------------------------------------

TEST(DecoupledNative, FuzzedMakespanSchedulesStaySound) {
  // Phase-level tokens + makespan-first refinement must preserve the
  // hard guarantees on arbitrary circuits: the schedule validates
  // (deadlock-free, every hazard covered), the timing stays between its
  // own lower bound and the lockstep bound, and both machine models
  // compute the serial program's function.
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    mig::RandomMigOptions mopts;
    mopts.num_pis = 4 + static_cast<std::uint32_t>(seed % 4);
    mopts.num_gates = 40 + static_cast<std::uint32_t>(seed * 23 % 60);
    mopts.num_pos = 2 + static_cast<std::uint32_t>(seed % 3);
    const auto network = mig::random_mig(mopts, seed);
    const auto compiled = core::compile(network);
    for (const auto banks :
         {std::uint32_t{2}, std::uint32_t{4}, std::uint32_t{8}}) {
      auto opts = with_banks(banks);
      opts.execution = ExecutionModel::decoupled;
      const auto result = schedule(compiled.program, opts);
      ASSERT_EQ(result.program.validate(), "")
          << "seed " << seed << ", " << banks << " banks";
      EXPECT_LE(result.stats.decoupled_cycles, result.stats.lockstep_cycles);
      EXPECT_LE(result.stats.makespan_lower_bound,
                result.stats.decoupled_cycles);
      expect_decoupled_equivalent(compiled.program, result.program,
                                  seed * 1000 + banks);
      EXPECT_TRUE(equivalent_to_serial(compiled.program, result.program, 4,
                                       seed * 1000 + banks,
                                       ExecutionModel::lockstep));
    }
  }
}

TEST(DecoupledNative, PhaseLevelTokensNeverSlowTheClock) {
  // Regression for the phase-level sync contract: over the same streams,
  // tokens signaled at the producer's hazard phase and waited at the
  // consumer's read phase can only shave cycles off the conservative
  // whole-instruction (w -> f) form they generalize.
  const auto migs = {circuits::make_int2float(), circuits::make_cavlc(),
                     circuits::make_priority(64)};
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    const auto result = schedule(compiled.program, with_banks(4));
    ASSERT_TRUE(result.program.has_sync());
    const auto phase_level = decoupled_timing(result.program);
    auto conservative = result.program;
    const auto edges = conservative.sync_edges();
    conservative.clear_sync();
    for (auto e : edges) {
      e.from_phase = kPhases - 1;
      e.to_phase = 0;
      conservative.add_sync(e);
    }
    ASSERT_EQ(conservative.validate(), "");
    const auto full = decoupled_timing(conservative);
    EXPECT_LE(phase_level.makespan_cycles, full.makespan_cycles);
    EXPECT_LT(phase_level.makespan_cycles, full.makespan_cycles)
        << "phase-level tokens bought nothing on a real circuit";
  }
}

// ---- machine execution ------------------------------------------------------

TEST(RunDecoupled, MatchesLockstepOutputsAndTiming) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(4));
  std::vector<std::uint64_t> in(compiled.program.num_inputs());
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  }
  arch::Machine lockstep;
  arch::Machine decoupled;
  EXPECT_EQ(lockstep.run_parallel_words(result.program, in),
            decoupled.run_decoupled_words(result.program, in));
  EXPECT_EQ(lockstep.cycles(), result.stats.lockstep_cycles);
  EXPECT_EQ(decoupled.cycles(), result.stats.decoupled_cycles);
  EXPECT_EQ(decoupled.instructions_executed(),
            result.stats.parallel_instructions);
  // Decoupled controllers halt at their own finish: each bank's total
  // occupancy (busy + waits) stays within the lockstep clock, which
  // ticks every bank to the end of the program.
  ASSERT_EQ(decoupled.bank_idle_cycles().size(), 4u);
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_LE(decoupled.bank_busy_cycles()[b] + decoupled.bank_idle_cycles()[b],
              lockstep.bank_busy_cycles()[b] + lockstep.bank_idle_cycles()[b])
        << "bank " << b;
  }
}

TEST(RunDecoupled, RejectsCrossBankReadsWithoutSync) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              true});
  ASSERT_EQ(p.validate(), "");  // fine as a lockstep program
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_decoupled(p, {}), std::logic_error);
  // With the derived tokens the same program runs decoupled.
  derive_sync(p);
  ASSERT_TRUE(p.has_sync());
  ASSERT_EQ(p.validate(), "");
  EXPECT_NO_THROW((void)machine.run_decoupled(p, {}));
}

TEST(RunDecoupled, DeadlockIsAValidationErrorAndThrows) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  for (int s = 0; s < 2; ++s) {
    p.begin_step();
    p.add_slot({0, {arch::Operand::constant(false),
                    arch::Operand::constant(true), 0}, false});
    p.add_slot({1, {arch::Operand::constant(false),
                    arch::Operand::constant(true), 1}, false});
  }
  // b0's first op waits on b1's second and vice versa: a cycle, which
  // needs a token that does not point forward in step order.
  p.add_sync({0, 1, 1, 0});
  p.add_sync({1, 1, 0, 0});
  EXPECT_NE(p.validate().find("not after its signal"), std::string::npos);
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_decoupled(p, {}), std::logic_error);
}

TEST(ParallelValidate, DetectsMissingSyncCoverage) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, false});
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              true});
  // A forward token that signals at bank 0's read-A phase, before the
  // write the transfer reads commits: the RAW hazard stays uncovered — a
  // validation error, and the decoupled runner refuses to race through
  // it at run time too.
  p.add_sync({0, 0, 1, 1, 1, 1});
  EXPECT_NE(p.validate().find("missing synchronization"), std::string::npos);
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_decoupled(p, {}), std::logic_error);
}

TEST(ParallelValidate, RejectsMalformedSyncEndpoints) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, false});

  p.add_sync({0, 0, 5, 0});  // no such bank
  EXPECT_NE(p.validate().find("no such bank"), std::string::npos);
  p.clear_sync();
  p.add_sync({0, 0, 0, 0});  // self-loop
  EXPECT_NE(p.validate().find("itself"), std::string::npos);
  p.clear_sync();
  p.add_sync({0, 7, 1, 0});  // beyond the stream
  EXPECT_NE(p.validate().find("beyond"), std::string::npos);
}

// ---- text round trip --------------------------------------------------------

TEST(ParallelText, RoundTripsSyncTokens) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(3));
  const auto text = to_text(result.program);
  EXPECT_NE(text.find("# sync t1:"), std::string::npos);
  const auto parsed = parse_parallel_program(text);
  EXPECT_EQ(parsed.sync_edges(), result.program.sync_edges());
  EXPECT_EQ(to_text(parsed), text);
  expect_decoupled_equivalent(compiled.program, parsed, 31007);
}

TEST(ParallelText, RejectsUnmatchedSyncTokens) {
  const std::string header =
      "# parallel banks 2\n"
      "# bank 0 @X1..@X1\n"
      "# bank 1 @X2..@X2\n"
      "01: b0: 0, 1, @X1\n"
      "02: b1: 0, 1, @X2\n";
  // Half a pair: no wait side.
  EXPECT_THROW((void)parse_parallel_program(header + "# sync t1: b0@1 ->\n"),
               std::runtime_error);
  // No signal -> wait arrow at all.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1 b1@1\n"),
      std::runtime_error);
  // Token ids must be 1..N in order (a skipped id is a lost pair).
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t2: b0@1 -> b1@1\n"),
      std::runtime_error);
  // 0-based positions are malformed.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@0 -> b1@1\n"),
      std::runtime_error);
  // Valid shape but out-of-range position fails validation.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@9 -> b1@1\n"),
      std::runtime_error);
  // A well-formed token parses.
  EXPECT_NO_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1 -> b1@1\n"));
}

}  // namespace
}  // namespace plim::sched
