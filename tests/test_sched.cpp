#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "arch/program.hpp"
#include "circuits/epfl.hpp"
#include "core/compiler.hpp"
#include "driver/driver.hpp"
#include "mig/random.hpp"
#include "sched/depgraph.hpp"
#include "sched/scheduler.hpp"
#include "sched/text.hpp"
#include "sched/verify.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace plim::sched {
namespace {

constexpr std::uint32_t kBankCounts[] = {1, 2, 4, 8};

/// Serial and scheduled programs must agree on random input vectors with
/// independently randomized initial RRAM content (a correct schedule
/// initializes every cell before reading it, exactly like the serial
/// compiler output does).
void expect_equivalent(const arch::Program& serial,
                       const ParallelProgram& parallel, std::uint64_t seed,
                       unsigned rounds = 4) {
  EXPECT_TRUE(equivalent_to_serial(serial, parallel, rounds, seed));
}

ScheduleOptions with_banks(std::uint32_t banks) {
  ScheduleOptions opts;
  opts.banks = banks;
  return opts;
}

void expect_schedules_equivalent(const arch::Program& serial,
                                 std::uint64_t seed) {
  for (const auto banks : kBankCounts) {
    const auto result = schedule(serial, with_banks(banks));
    EXPECT_EQ(result.program.validate(), "") << banks << " banks";
    EXPECT_EQ(result.stats.parallel_instructions,
              result.stats.serial_instructions + 2 * result.stats.transfers +
                  result.stats.duplicated_instructions);
    EXPECT_EQ(result.program.num_instructions(),
              result.stats.parallel_instructions);
    EXPECT_EQ(result.program.num_transfer_instructions(),
              2 * result.stats.transfers);
    EXPECT_GE(result.stats.steps, result.stats.critical_path);
    std::uint32_t load_sum = 0;
    for (const auto l : result.stats.bank_load) {
      load_sum += l;
    }
    EXPECT_EQ(load_sum, result.stats.parallel_instructions);
    expect_equivalent(serial, result.program, seed + banks);
  }
}

// ---- dependence graph -------------------------------------------------------

bool has_dep(const DependenceGraph& g, std::uint32_t to, std::uint32_t from,
             DepKind kind) {
  for (const auto& d : g.deps(to)) {
    if (d.pred == from && d.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(DepGraph, ChainAndSegments) {
  arch::Program p;
  const auto a = p.add_input("a");
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(a), arch::Operand::constant(false), 0);
  p.append(arch::Operand::input(a), arch::Operand::input(a), 0);
  p.add_output("f", 0);

  const auto g = DependenceGraph::build(p);
  ASSERT_EQ(g.num_instructions(), 3u);
  EXPECT_TRUE(g.is_reset(0));
  EXPECT_FALSE(g.is_reset(1));
  EXPECT_FALSE(g.reads_initial_state());
  // One segment: the reset and both chain writes.
  ASSERT_EQ(g.num_segments(), 1u);
  EXPECT_EQ(g.segment(0).first_write, 0u);
  EXPECT_EQ(g.segment(0).last_write, 2u);
  EXPECT_TRUE(has_dep(g, 1, 0, DepKind::raw));
  EXPECT_TRUE(has_dep(g, 2, 1, DepKind::raw));
  EXPECT_EQ(g.critical_path(), 3u);
}

TEST(DepGraph, CellReuseMakesWarAndWawEdges) {
  arch::Program p;
  const auto a = p.add_input("a");
  const auto b = p.add_input("b");
  // X1 ← a; X2 ← X1; X1 reused for b (reset): WAW with the old write,
  // WAR with the read in instruction 3.
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(a), arch::Operand::constant(false), 0);
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 1);
  p.append(arch::Operand::rram(0), arch::Operand::constant(false), 1);
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(b), arch::Operand::constant(false), 0);
  p.add_output("f", 1);
  p.add_output("g", 0);

  const auto g = DependenceGraph::build(p);
  EXPECT_TRUE(has_dep(g, 3, 1, DepKind::raw));  // X2 ← X1 reads the value
  EXPECT_TRUE(has_dep(g, 4, 1, DepKind::waw));  // re-reset overwrites it
  EXPECT_TRUE(has_dep(g, 4, 3, DepKind::war));  // ... after the read
  ASSERT_EQ(g.num_segments(), 3u);
  EXPECT_EQ(g.segment_of(5), 2u);
}

TEST(DepGraph, DetectsInitialStateReads) {
  arch::Program p;
  p.add_input("a");
  p.append(arch::Operand::rram(1), arch::Operand::constant(false), 0);
  p.ensure_rram_count(2);
  const auto g = DependenceGraph::build(p);
  EXPECT_TRUE(g.reads_initial_state());
  EXPECT_THROW((void)schedule(p, with_banks(2)), std::invalid_argument);
}

/// The read graph bank assignment, refinement and the incremental
/// screen all price on equals a brute-force recomputation from the
/// per-instruction defs: segment sizes, each read def's distinct foreign
/// reader segments, and the per-segment produced/read rows.
TEST(DepGraph, ReadGraphMatchesBruteForce) {
  constexpr auto npos = DependenceGraph::npos;
  const auto as_vector = [](std::span<const std::uint32_t> row) {
    return std::vector<std::uint32_t>(row.begin(), row.end());
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    mig::RandomMigOptions opts;
    opts.num_pis = 4 + static_cast<std::uint32_t>(seed % 4);
    opts.num_gates = 20 + static_cast<std::uint32_t>(seed * 29 % 90);
    opts.num_pos = 1 + static_cast<std::uint32_t>(seed % 4);
    const auto compiled = core::compile(mig::random_mig(opts, seed));
    const auto g = DependenceGraph::build(compiled.program);
    const auto num_segments = g.num_segments();

    std::vector<std::uint32_t> size(num_segments, 0);
    std::map<std::uint32_t, std::set<std::uint32_t>> readers;  // def → segs
    for (std::uint32_t i = 0; i < g.num_instructions(); ++i) {
      const auto s = g.segment_of(i);
      ++size[s];
      for (const auto def : {g.def_of_a(i), g.def_of_b(i)}) {
        if (def != npos && g.segment_of(def) != s) {
          readers[def].insert(s);
        }
      }
    }
    std::vector<std::vector<std::uint32_t>> produced(num_segments);
    std::vector<std::vector<std::uint32_t>> read(num_segments);
    ASSERT_EQ(g.num_read_defs(), readers.size()) << "seed " << seed;
    std::uint32_t d = 0;
    for (const auto& [def, segs] : readers) {
      EXPECT_EQ(g.producer_segment(d), g.segment_of(def))
          << "seed " << seed << ", def " << def;
      EXPECT_EQ(as_vector(g.reader_segments(d)),
                std::vector<std::uint32_t>(segs.begin(), segs.end()))
          << "seed " << seed << ", def " << def;
      produced[g.segment_of(def)].push_back(d);
      for (const auto s : segs) {
        read[s].push_back(d);
      }
      ++d;
    }
    for (std::uint32_t s = 0; s < num_segments; ++s) {
      EXPECT_EQ(g.segment_size(s), size[s]) << "seed " << seed;
      EXPECT_EQ(as_vector(g.defs_produced_by(s)), produced[s])
          << "seed " << seed << ", segment " << s;
      EXPECT_EQ(as_vector(g.defs_read_by(s)), read[s])
          << "seed " << seed << ", segment " << s;
    }
  }
}

// ---- hazard regressions -----------------------------------------------------

/// Cell-reuse hazard: a freed cell is re-initialized for an unrelated
/// value while the old value is still being consumed. A scheduler that
/// ignores WAR/WAW (or renames incorrectly) reorders the re-initialization
/// before the consume and computes g = b instead of g = a.
TEST(SchedHazards, WarWawOnReusedCell) {
  arch::Program p;
  const auto a = p.add_input("a");
  const auto b = p.add_input("b");
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(a), arch::Operand::constant(false), 0);
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 1);
  p.append(arch::Operand::rram(0), arch::Operand::constant(false), 1);
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(b), arch::Operand::constant(false), 0);
  p.add_output("f", 0);
  p.add_output("g", 1);

  for (const auto banks : kBankCounts) {
    const auto result = schedule(p, with_banks(banks));
    ASSERT_EQ(result.program.validate(), "");
    arch::Machine machine;
    for (unsigned v = 0; v < 4; ++v) {
      const bool av = (v & 1) != 0;
      const bool bv = (v & 2) != 0;
      const auto out = machine.run_parallel(result.program, {av, bv});
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[0], bv) << "banks " << banks;
      EXPECT_EQ(out[1], av) << "banks " << banks;
    }
  }
}

/// Mid-segment read hazard: instruction 3 reads X1 between two chain
/// writes of the same segment. Renaming does not help here — the next
/// chain write must still wait for the read (WAR inside one lifetime).
TEST(SchedHazards, MidSegmentReadVersusChainWrite) {
  arch::Program p;
  const auto a = p.add_input("a");
  const auto b = p.add_input("b");
  const auto c = p.add_input("c");
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(a), arch::Operand::constant(false), 0);
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 1);
  p.append(arch::Operand::rram(0), arch::Operand::constant(false), 1);
  // Chain continues on X1: X1 ← ⟨b c̄ a⟩ — not a reset, same segment.
  p.append(arch::Operand::input(b), arch::Operand::input(c), 0);
  p.add_output("f", 0);
  p.add_output("g", 1);

  const auto g = DependenceGraph::build(p);
  ASSERT_EQ(g.num_segments(), 2u);  // the late write extends segment 0

  for (const auto banks : kBankCounts) {
    const auto result = schedule(p, with_banks(banks));
    ASSERT_EQ(result.program.validate(), "");
    arch::Machine machine;
    for (unsigned v = 0; v < 8; ++v) {
      const bool av = (v & 1) != 0;
      const bool bv = (v & 2) != 0;
      const bool cv = (v & 4) != 0;
      const auto out = machine.run_parallel(result.program, {av, bv, cv});
      const bool n1 = (bv && !cv) || (bv && av) || (!cv && av);
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[0], n1) << "banks " << banks << " v " << v;
      EXPECT_EQ(out[1], av) << "banks " << banks << " v " << v;
    }
  }
}

// ---- randomized equivalence -------------------------------------------------

TEST(SchedEquivalence, RandomMigs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    mig::RandomMigOptions opts;
    opts.num_pis = 5 + static_cast<std::uint32_t>(seed % 3);
    opts.num_gates = 30 + static_cast<std::uint32_t>(seed * 17 % 50);
    opts.num_pos = 3;
    const auto network = mig::random_mig(opts, seed);
    const auto compiled = core::compile(network);
    expect_schedules_equivalent(compiled.program, seed * 1000);
  }
}

TEST(SchedEquivalence, ComponentCircuits) {
  const auto migs = {
      circuits::make_adder(8),
      circuits::make_dec(4),
      circuits::make_priority(16),
      circuits::make_ctrl(),
      circuits::make_int2float(),
  };
  std::uint64_t seed = 42;
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    expect_schedules_equivalent(compiled.program, seed++);
  }
}

TEST(SchedEquivalence, NaiveCompiledProgramsToo) {
  // Index-order translation exercises different allocation patterns.
  core::CompileOptions opts;
  opts.smart_candidates = false;
  opts.allocation = core::AllocationPolicy::lifo;
  const auto compiled = core::compile(circuits::make_cavlc(), opts);
  expect_schedules_equivalent(compiled.program, 7);
}

// ---- stats ------------------------------------------------------------------

TEST(SchedStats, SingleBankDegeneratesToSerial) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(1));
  EXPECT_EQ(result.stats.transfers, 0u);
  EXPECT_EQ(result.stats.steps, result.stats.serial_instructions);
  EXPECT_DOUBLE_EQ(result.stats.speedup, 1.0);
  EXPECT_DOUBLE_EQ(result.stats.utilization, 1.0);
}

TEST(SchedStats, MultiBankSpeedsUp) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(4));
  EXPECT_GT(result.stats.speedup, 1.2);
  EXPECT_GT(result.stats.transfers, 0u);
  EXPECT_LE(result.stats.utilization, 1.0);
  EXPECT_GE(result.stats.steps, result.stats.critical_path);
}

TEST(SchedStats, MachineAccountsCyclesPerStep) {
  const auto compiled = core::compile(circuits::make_ctrl());
  const auto result = schedule(compiled.program, with_banks(4));
  arch::Machine machine;
  std::vector<std::uint64_t> in(compiled.program.num_inputs(), 0);
  (void)machine.run_parallel_words(result.program, in);
  EXPECT_EQ(machine.cycles(), std::uint64_t{result.stats.steps} *
                                  arch::Machine::phases_per_instruction);
  EXPECT_EQ(machine.instructions_executed(),
            result.stats.parallel_instructions);
}

// ---- machine conflict detection ---------------------------------------------

TEST(RunParallel, RejectsDoubleWriteInOneStep) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(true),
                  arch::Operand::constant(false), 0}, false});
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_parallel(p, {}), std::logic_error);
}

TEST(RunParallel, RejectsReadOfCellWrittenInSameStep) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              true});
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_parallel(p, {}), std::logic_error);
}

TEST(RunParallel, RejectsWrongInputCount) {
  const auto compiled = core::compile(circuits::make_ctrl());
  const auto result = schedule(compiled.program, with_banks(2));
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_parallel(result.program, {true}),
               std::invalid_argument);
}

// ---- validation -------------------------------------------------------------

TEST(ParallelValidate, CatchesRemoteReadByComputeSlot) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              false});
  EXPECT_NE(p.validate().find("remote cell"), std::string::npos);
}

TEST(ParallelValidate, CatchesDestinationOutsideBank) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, false});
  EXPECT_NE(p.validate().find("outside the bank"), std::string::npos);
}

TEST(ParallelValidate, AcceptsTransferReadingRemote) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, true});
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              true});
  EXPECT_EQ(p.validate(), "");
}

// ---- text round trip --------------------------------------------------------

TEST(ParallelText, RoundTrips) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(3));
  const auto text = to_text(result.program);
  const auto parsed = parse_parallel_program(text);
  EXPECT_EQ(to_text(parsed), text);
  ASSERT_EQ(parsed.num_steps(), result.program.num_steps());
  ASSERT_EQ(parsed.num_banks(), result.program.num_banks());
  for (std::uint32_t s = 0; s < parsed.num_steps(); ++s) {
    ASSERT_EQ(parsed.step(s), result.program.step(s)) << "step " << s;
  }
  expect_equivalent(compiled.program, parsed, 1234);
}

TEST(ParallelText, RoundTripsWithEmptyBanks) {
  // Fewer segments than banks leaves some banks without cells; their
  // "# bank <k> empty" lines must still round-trip through the parser.
  arch::Program p;
  const auto a = p.add_input("a");
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(a), arch::Operand::constant(false), 0);
  p.add_output("f", 0);
  const auto result = schedule(p, with_banks(8));
  const auto text = to_text(result.program);
  EXPECT_NE(text.find("empty"), std::string::npos);
  const auto parsed = parse_parallel_program(text);
  EXPECT_EQ(to_text(parsed), text);
  expect_equivalent(p, parsed, 77);
}

TEST(ParallelText, RoundTripsBusWidth) {
  const auto compiled = core::compile(circuits::make_ctrl());
  auto opts = with_banks(3);
  opts.cost.bus_width = 2;
  const auto result = schedule(compiled.program, opts);
  const auto text = to_text(result.program);
  EXPECT_NE(text.find("# bus 2"), std::string::npos);
  const auto parsed = parse_parallel_program(text);
  EXPECT_EQ(parsed.bus_width(), 2u);
  EXPECT_EQ(to_text(parsed), text);
  expect_equivalent(compiled.program, parsed, 2026);
}

TEST(ParallelText, RejectsOverlappingBankRanges) {
  EXPECT_THROW((void)parse_parallel_program(
                   "# parallel banks 2\n"
                   "# bank 0 @X1..@X4\n"
                   "# bank 1 @X3..@X6\n"
                   "01: b0: 0, 1, @X1\n"),
               std::runtime_error);
  try {
    (void)parse_parallel_program(
        "# parallel banks 2\n"
        "# bank 0 @X1..@X4\n"
        "# bank 1 @X3..@X6\n"
        "01: b0: 0, 1, @X1\n");
    FAIL() << "overlapping bank ranges must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overlaps"), std::string::npos);
  }
}

TEST(ParallelText, RejectsSlotOfUndeclaredBank) {
  // Two banks declared, slot claims bank 7: a validation error, not UB.
  try {
    (void)parse_parallel_program(
        "# parallel banks 2\n"
        "# bank 0 @X1..@X1\n"
        "# bank 1 @X2..@X2\n"
        "01: b7: 0, 1, @X1\n");
    FAIL() << "undeclared bank must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no such bank"), std::string::npos);
  }
}

TEST(ParallelText, RejectsBusWidthViolation) {
  // Two cross-bank copies in one step over a declared width-1 bus.
  try {
    (void)parse_parallel_program(
        "# parallel banks 2\n"
        "# bus 1\n"
        "# bank 0 @X1..@X2\n"
        "# bank 1 @X3..@X4\n"
        "01: b0: 0, 1, @X1 | b1: 0, 1, @X3\n"
        "02: b0*: @X3, 0, @X2 | b1*: @X1, 0, @X4\n");
    FAIL() << "bus-width violation must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bus width"), std::string::npos);
  }
}

TEST(ParallelText, ParseRejectsMalformed) {
  EXPECT_THROW((void)parse_parallel_program("01: b0: 0, 1, @X1"),
               std::runtime_error);  // no banks header
  EXPECT_THROW(
      (void)parse_parallel_program("# parallel banks 1\n01: 0, 1, @X1"),
      std::runtime_error);  // missing bank tag
  EXPECT_THROW(
      (void)parse_parallel_program(
          "# parallel banks 1\n# bank 0 @X1..@X1\n01: b4: 0, 1, @X1"),
      std::runtime_error);  // bank out of range fails validation
  EXPECT_THROW((void)parse_parallel_program("# parallel banks x"),
               std::runtime_error);  // malformed number, not logic_error
  EXPECT_THROW(
      (void)parse_parallel_program(
          "# parallel banks 1\n# bank 0 @X1..@X1\n01: bzz: 0, 1, @X1"),
      std::runtime_error);  // malformed bank tag number
}

// ---- cost model -------------------------------------------------------------

TEST(CostModel, DuplicationAndPlacementCost) {
  CostModel cost;
  EXPECT_TRUE(cost.should_duplicate(2));
  EXPECT_FALSE(cost.should_duplicate(3));
  // Transfers price at transfer_instructions each, land as that many
  // instructions in the consuming bank before the load comparison, and
  // imbalance weighs in like the transfers: 3 transfers onto a bank at
  // load 5 (least loaded 0) → effective load 11, cost 6 + 11.
  EXPECT_DOUBLE_EQ(cost.placement_cost(3, 5, 0), 17.0);
  // A bank below the minimum load contributes no imbalance term.
  EXPECT_DOUBLE_EQ(cost.placement_cost(0, 2, 4), 0.0);
}

// ---- bounded bus ------------------------------------------------------------

TEST(BoundedBus, SchedulerHonoursBusWidth) {
  const auto compiled = core::compile(circuits::make_int2float());
  auto opts = with_banks(4);
  // The bounded-vs-unbounded step comparison below only holds for the
  // *same* search: refinement's heuristic trajectory differs per bus
  // width and can legitimately converge better under the narrower bus.
  opts.refine_passes = 0;
  const auto unbounded = schedule(compiled.program, opts);
  opts.cost.bus_width = 1;
  const auto bounded = schedule(compiled.program, opts);
  EXPECT_EQ(bounded.program.validate(), "");
  EXPECT_EQ(bounded.program.bus_width(), 1u);
  EXPECT_EQ(bounded.stats.bus_width, 1u);
  for (std::uint32_t s = 0; s < bounded.program.num_steps(); ++s) {
    EXPECT_LE(bounded.program.step_bus_ops(s), 1u) << "step " << s;
  }
  // Squeezing every copy through a width-1 bus cannot be faster, and the
  // schedule must still compute the same function.
  EXPECT_GE(bounded.stats.steps, unbounded.stats.steps);
  expect_equivalent(compiled.program, bounded.program, 4242);
}

TEST(BoundedBus, ValidateRejectsOverSubscribedStep) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 2);
  p.set_bank_range(1, 2, 4);
  p.set_bus_width(1);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 2}, false});
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 3}, false});
  // Two cross-bank copies in one step over a width-1 bus (into the
  // freshly reset cells @X2/@X4, away from the cells being read).
  p.begin_step();
  p.add_slot({0, {arch::Operand::rram(2), arch::Operand::constant(false), 1},
              true});
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 3},
              true});
  EXPECT_NE(p.validate().find("bus width"), std::string::npos);
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_parallel(p, {}), std::logic_error);
  // An unbounded declaration accepts the same step.
  p.set_bus_width(0);
  EXPECT_EQ(p.validate(), "");
  EXPECT_NO_THROW((void)machine.run_parallel(p, {}));
}

TEST(BoundedBus, EndToEndOnCircuits) {
  // Width-1 and width-2 buses over a real circuit: schedules stay valid,
  // equivalent, and monotone in steps. Monotonicity across widths is a
  // property of the greedy scheduler on a fixed assignment — refinement
  // searches per configuration and can close more of the gap at width 1
  // than at width 2 — so it is pinned off here.
  const auto compiled = core::compile(circuits::make_cavlc());
  std::uint32_t prev_steps = 0;
  for (const auto width : {std::uint32_t{1}, std::uint32_t{2},
                           std::uint32_t{0}}) {
    auto opts = with_banks(8);
    opts.refine_passes = 0;
    opts.cost.bus_width = width;
    const auto result = schedule(compiled.program, opts);
    EXPECT_EQ(result.program.validate(), "") << "width " << width;
    expect_equivalent(compiled.program, result.program, 7000 + width);
    if (width == 1) {
      prev_steps = result.stats.steps;
    } else {
      EXPECT_LE(result.stats.steps, prev_steps) << "width " << width;
      prev_steps = result.stats.steps;
    }
  }
}

// ---- duplicate-computation-vs-copy ------------------------------------------

/// Two banks; bank-crossing reads of a short input-only producer chain
/// should be recomputed locally (no bus traffic), not transferred.
TEST(Duplication, RecomputesShortInputOnlyChains) {
  arch::Program p;
  const auto a = p.add_input("a");
  const auto b = p.add_input("b");
  // Segment 0: X1 ← a (reset + load, self-contained).
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(a), arch::Operand::constant(false), 0);
  // Segments 1/2: two independent consumers reading X1 — placed apart,
  // at least one reads it remotely.
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 1);
  p.append(arch::Operand::rram(0), arch::Operand::input(b), 1);
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 2);
  p.append(arch::Operand::input(b), arch::Operand::rram(0), 2);
  p.add_output("f", 1);
  p.add_output("g", 2);
  p.add_output("h", 0);

  auto opts = with_banks(2);
  // Split the producer and the first consumer across banks so a remote
  // read is forced (the default cost model and refinement would rightly
  // merge this tiny program into one bank): with transfers priced at
  // zero, load balance alone puts segments 0, 1 and 2 in banks 0, 1, 0.
  opts.cluster = false;
  opts.refine_passes = 0;
  opts.cost.transfer_instructions = 0;
  opts.cost.duplicate_max_instructions = 2;
  const auto dup = schedule(p, opts);
  EXPECT_EQ(dup.program.validate(), "");
  expect_equivalent(p, dup.program, 555);

  opts.cost.duplicate_max_instructions = 0;  // duplication disabled
  const auto xfer = schedule(p, opts);
  EXPECT_EQ(xfer.program.validate(), "");
  expect_equivalent(p, xfer.program, 556);

  // Same remote reads: resolved by recomputation in one schedule, by bus
  // copies in the other.
  EXPECT_GT(dup.stats.duplicates, 0u);
  EXPECT_EQ(xfer.stats.duplicates, 0u);
  EXPECT_LT(dup.stats.transfers, xfer.stats.transfers);
  EXPECT_EQ(dup.stats.parallel_instructions,
            dup.stats.serial_instructions + 2 * dup.stats.transfers +
                dup.stats.duplicated_instructions);
}

TEST(Duplication, NeverDuplicatesChainsReadingCells) {
  arch::Program p;
  const auto a = p.add_input("a");
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 0);
  p.append(arch::Operand::input(a), arch::Operand::constant(false), 0);
  // Segment 1 reads X1 — not self-contained, must transfer when remote.
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 1);
  p.append(arch::Operand::rram(0), arch::Operand::constant(false), 1);
  // Segment 2 reads X2 remotely.
  p.append(arch::Operand::constant(false), arch::Operand::constant(true), 2);
  p.append(arch::Operand::rram(1), arch::Operand::input(a), 2);
  p.add_output("f", 2);
  p.add_output("g", 1);

  auto opts = with_banks(4);
  opts.cluster = false;
  opts.cost.duplicate_max_instructions = 100;  // even with a huge budget
  const auto result = schedule(p, opts);
  expect_equivalent(p, result.program, 901);
  // The X1 chain (input-only) may duplicate; the X2 chain reads an RRAM
  // cell, so any remote read of it must stay a transfer.
  for (std::uint32_t s = 0; s < result.program.num_steps(); ++s) {
    for (const auto& slot : result.program.step(s)) {
      if (!slot.is_transfer) {
        const auto [begin, end] = result.program.bank_range(slot.bank);
        for (const auto op : {slot.instr.a, slot.instr.b}) {
          EXPECT_FALSE(op.is_rram() &&
                       (op.address() < begin || op.address() >= end));
        }
      }
    }
  }
}

// ---- majority-subtree clustering --------------------------------------------

/// The voter-style regression the clustering exists for: the majority
/// tree's chains must not ping-pong between banks, so 8 banks must beat
/// 4 banks in steps (before clustering, 8 banks *lost* to 4).
TEST(Clustering, VoterStepsImproveFromFourToEightBanks) {
  const auto network = circuits::make_voter(256);
  const auto compiled = core::compile(network);
  const auto four = schedule(compiled.program, with_banks(4));
  const auto eight = schedule(compiled.program, with_banks(8));
  EXPECT_LT(eight.stats.steps, four.stats.steps);
  expect_equivalent(compiled.program, four.program, 881);
  expect_equivalent(compiled.program, eight.program, 882);
}

TEST(Clustering, CutsTransfersOnComponentCircuits) {
  const auto compiled = core::compile(circuits::make_priority(64));
  auto opts = with_banks(4);
  const auto clustered = schedule(compiled.program, opts);
  opts.cluster = false;
  const auto flat = schedule(compiled.program, opts);
  EXPECT_LT(clustered.stats.transfers, flat.stats.transfers);
  expect_equivalent(compiled.program, clustered.program, 19);
  expect_equivalent(compiled.program, flat.program, 20);
}

// ---- pipeline integration ---------------------------------------------------

TEST(Pipeline, OptionalSchedulingStage) {
  const auto request =
      CompileRequest::from_mig(circuits::make_cavlc(), "cavlc");
  Options options;
  options.verify.enabled = false;  // checked below
  const auto without = Driver(options).run(request);
  ASSERT_TRUE(without.ok()) << without.error_summary();
  EXPECT_FALSE(without.parallel.has_value());
  options.banks = 4;
  const auto with = Driver(options).run(request);
  ASSERT_TRUE(with.ok()) << with.error_summary();
  ASSERT_TRUE(with.parallel.has_value());
  EXPECT_EQ(with.stats.schedule->banks, 4u);
  EXPECT_EQ(with.parallel->validate(), "");
  expect_equivalent(with.program, *with.parallel, 99);
}

// ---- schedule phase timing --------------------------------------------------

/// Every millisecond of a schedule belongs to a named sub-phase: assign,
/// refine, pack, alloc and sync together cover the scheduler's
/// wall-clock.
TEST(ScheduleStats, SubPhasesCoverScheduleTime) {
  const auto compiled = core::compile(circuits::build_benchmark("i2c"));
  auto opts = with_banks(4);
  opts.execution = ExecutionModel::decoupled;
  opts.cost.bus_width = 1;
  const auto s = schedule(compiled.program, opts).stats;
  const double phases =
      s.assign_ms + s.refine_ms + s.pack_ms + s.alloc_ms + s.sync_ms;
  EXPECT_GT(s.refine_ms, 0.0);
  EXPECT_LE(phases, s.schedule_ms);
  EXPECT_GE(phases, 0.95 * s.schedule_ms)
      << "assign " << s.assign_ms << " refine " << s.refine_ms << " pack "
      << s.pack_ms << " alloc " << s.alloc_ms << " sync " << s.sync_ms
      << " of " << s.schedule_ms;
}

// ---- golden schedules -------------------------------------------------------

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- init sinking and allocation --------------------------------------------

/// Runs `check(label, serial, program, seed)` on 36 schedules: three
/// random MIGs at 2, 4 and 8 banks, on an unbounded and a one-wide bus,
/// under both execution models.
template <typename Check>
void for_each_random_schedule(Check&& check) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    mig::RandomMigOptions ropts;
    ropts.num_pis = 8;
    ropts.num_gates = 120 + static_cast<std::uint32_t>(seed * 40);
    ropts.num_pos = 4;
    const auto compiled = core::compile(mig::random_mig(ropts, seed));
    for (const std::uint32_t banks : {2u, 4u, 8u}) {
      for (const std::uint32_t bus : {0u, 1u}) {
        for (const auto execution :
             {ExecutionModel::lockstep, ExecutionModel::decoupled}) {
          auto opts = with_banks(banks);
          opts.cost.bus_width = bus;
          opts.execution = execution;
          const auto result = schedule(compiled.program, opts);
          const auto label =
              "seed " + std::to_string(seed) + " @" + std::to_string(banks) +
              " bus " + std::to_string(bus) +
              (execution == ExecutionModel::decoupled ? " decoupled"
                                                      : " lockstep");
          check(label, compiled.program, result.program, seed + banks);
        }
      }
    }
  }
}

/// An init writes a constant: both operands constant and different.
bool is_init(const Slot& slot) {
  return slot.instr.a.is_constant() && slot.instr.b.is_constant() &&
         slot.instr.a.constant_value() != slot.instr.b.constant_value();
}

/// Every init of bank b at step s writing cell c sits in the latest idle
/// slot before c is next needed: with u the first later step touching c
/// in any bank (the program's end when none does), bank b issues in
/// every step of (s, u). No pass after the sink rewrites the steps, so
/// this holds under either objective, bus and execution model.
TEST(Schedule, InitsSitInTheirLatestIdleSlot) {
  const auto touches = [](const Slot& slot, std::uint32_t cell) {
    const auto reads = [&](arch::Operand op) {
      return op.is_rram() && op.address() == cell;
    };
    return slot.instr.z == cell || reads(slot.instr.a) || reads(slot.instr.b);
  };
  for_each_random_schedule([&](const std::string& label,
                               const arch::Program& serial,
                               const ParallelProgram& p, std::uint64_t seed) {
    std::uint32_t inits = 0;
    for (std::uint32_t s = 0; s < p.num_steps(); ++s) {
      for (const auto& init : p.step(s)) {
        if (!is_init(init)) {
          continue;
        }
        ++inits;
        auto u = s + 1;
        for (; u < p.num_steps(); ++u) {
          const auto& step = p.step(u);
          if (std::any_of(step.begin(), step.end(), [&](const Slot& x) {
                return touches(x, init.instr.z);
              })) {
            break;
          }
        }
        for (auto t = s + 1; t < u; ++t) {
          const auto& step = p.step(t);
          EXPECT_TRUE(std::any_of(
              step.begin(), step.end(),
              [&](const Slot& x) { return x.bank == init.bank; }))
              << label << ": init of cell " << init.instr.z << " in step "
              << s << " could sink to step " << t << " (next use in step "
              << u << ")";
        }
      }
    }
    EXPECT_GT(inits, 0u) << label;
    expect_equivalent(serial, p, seed);
  });
}

/// The allocator is exact: every bank's cell range holds as many cells
/// as the bank ever has values live at once. A value opens with the
/// init of its cell and lives to its last touch — a write, or a read
/// from any bank — before the cell's next init; an output's final value
/// lives to the end of the program.
TEST(Schedule, EveryBankNeedsOnlyItsPeakLiveValues) {
  for_each_random_schedule([](const std::string& label, const arch::Program&,
                              const ParallelProgram& p, std::uint64_t) {
    constexpr auto kNone = ~std::uint32_t{0};
    const auto end = p.num_steps();
    // Per bank and step: values opening there, and values closing after.
    std::vector<std::vector<std::int32_t>> delta(
        p.num_banks(), std::vector<std::int32_t>(end + 1, 0));
    std::vector<std::uint32_t> opened(p.num_rrams(), kNone);
    std::vector<std::uint32_t> last_touch(p.num_rrams(), 0);
    const auto close = [&](std::uint32_t cell, std::uint32_t last) {
      auto& d = delta[p.bank_of_cell(cell)];
      ++d[opened[cell]];
      --d[last + 1];
    };
    for (std::uint32_t s = 0; s < end; ++s) {
      for (const auto& slot : p.step(s)) {
        for (const auto op : {slot.instr.a, slot.instr.b}) {
          if (op.is_rram()) {
            last_touch[op.address()] = s;
          }
        }
        const auto z = slot.instr.z;
        if (is_init(slot)) {
          if (opened[z] != kNone) {
            close(z, last_touch[z]);
          }
          opened[z] = s;
        }
        last_touch[z] = s;
      }
    }
    std::vector<bool> output(p.num_rrams(), false);
    for (std::uint32_t o = 0; o < p.num_outputs(); ++o) {
      output[p.output_cell(o)] = true;
    }
    for (std::uint32_t c = 0; c < p.num_rrams(); ++c) {
      if (opened[c] != kNone) {
        close(c, output[c] ? end - 1 : last_touch[c]);
      }
    }
    for (std::uint32_t b = 0; b < p.num_banks(); ++b) {
      std::int32_t live = 0;
      std::int32_t peak = 0;
      for (const auto d : delta[b]) {
        live += d;
        peak = std::max(peak, live);
      }
      const auto [begin, stop] = p.bank_range(b);
      EXPECT_EQ(stop - begin, static_cast<std::uint32_t>(peak))
          << label << ": bank " << b << " holds " << stop - begin
          << " cells for at most " << peak << " live values";
    }
  });
}

/// One golden line: the schedule's quality figures plus a hash of its
/// full listing, so any change to the emitted program shows up.
std::string golden_line(const std::string& config,
                        const CompileOutcome& outcome) {
  const auto& s = *outcome.stats.schedule;
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(to_text(*outcome.parallel))));
  util::JsonWriter json;
  json.begin_object();
  json.field("config", config);
  json.field("steps", s.steps);
  json.field("transfers", s.transfers);
  json.field("parallel_instructions", s.parallel_instructions);
  json.field("rrams", s.parallel_rrams);
  json.field("makespan_cycles", s.makespan_cycles);
  json.field("sync_tokens", s.sync_tokens);
  json.field("text_fnv1a", std::string(hash));
  json.end_object();
  return json.str();
}

/// Pins the emitted schedules — lockstep on an unbounded bus and
/// decoupled on a one-wide bus (bus deferral, makespan objective), plus
/// random networks at 2 and 8 banks — through the full
/// default pipeline. When a change intentionally alters the scheduler's
/// output, regenerate with
///   PLIM_REGEN_GOLDEN=1 ./test_sched --gtest_filter=Golden.*
/// from the build directory and commit the diff.
TEST(Golden, SchedulesMatchGoldenFile) {
  struct Config {
    std::string label;
    CompileRequest request;
    std::uint32_t banks;
    ExecutionModel execution;
    std::uint32_t bus_width;
  };
  std::vector<Config> configs;
  for (const auto* name :
       {"ctrl", "router", "cavlc", "int2float", "dec", "priority", "i2c"}) {
    const auto request = CompileRequest::from_benchmark(name);
    configs.push_back({name, request, 4, ExecutionModel::lockstep, 0});
    configs.push_back({name, request, 4, ExecutionModel::decoupled, 1});
  }
  // A bus wider than one copy per step.
  configs.push_back({"i2c", CompileRequest::from_benchmark("i2c"), 4,
                     ExecutionModel::decoupled, 2});
  for (const std::uint64_t seed : {7, 8}) {
    mig::RandomMigOptions ropts;
    ropts.num_pis = 10;
    ropts.num_gates = 250;
    ropts.num_pos = 6;
    const auto request = CompileRequest::from_mig(
        mig::random_mig(ropts, seed), "random" + std::to_string(seed));
    for (const std::uint32_t banks : {2, 8}) {
      configs.push_back({request.label(), request, banks,
                         ExecutionModel::lockstep, 0});
      configs.push_back({request.label(), request, banks,
                         ExecutionModel::decoupled, 1});
    }
  }

  std::vector<std::string> lines;
  for (const auto& c : configs) {
    Options options;
    options.banks = c.banks;
    options.schedule.execution = c.execution;
    options.schedule.cost.bus_width = c.bus_width;
    const auto outcome = Driver(options).run(c.request);
    const auto config =
        c.label + "@" + std::to_string(c.banks) +
        (c.execution == ExecutionModel::decoupled ? " decoupled" : " lockstep") +
        " bus" + std::to_string(c.bus_width);
    ASSERT_TRUE(outcome.ok()) << config << ": " << outcome.error_summary();
    lines.push_back(golden_line(config, outcome));
  }

  const std::string golden_path =
      std::string(PLIM_SOURCE_DIR) + "/tests/golden/schedules.json";
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
      << "golden schedule set changed — regenerate with PLIM_REGEN_GOLDEN=1";
  for (std::size_t k = 0; k < lines.size(); ++k) {
    EXPECT_EQ(lines[k], expected[k])
        << "schedule drifted — if intentional, regenerate with "
           "PLIM_REGEN_GOLDEN=1 (see test comment)";
  }
}

}  // namespace
}  // namespace plim::sched
