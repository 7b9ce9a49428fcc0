#include "driver/driver.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/epfl.hpp"
#include "io/blif.hpp"
#include "util/metrics.hpp"

namespace plim {
namespace {

bool has_code(const std::vector<Diagnostic>& diags, const std::string& code) {
  for (const auto& d : diags) {
    if (d.code == code) {
      return true;
    }
  }
  return false;
}

// ---- options validation matrix ----------------------------------------------

TEST(OptionsValidate, DefaultsAreClean) {
  EXPECT_TRUE(Options{}.validate().empty());
  Options banked;
  banked.banks = 4;
  banked.schedule.execution = sched::ExecutionModel::decoupled;
  EXPECT_TRUE(banked.validate().empty());
  EXPECT_TRUE(Options::textbook_naive().validate().empty());
}

TEST(OptionsValidate, DecoupledExecutionNeedsBanks) {
  Options options;
  options.schedule.execution = sched::ExecutionModel::decoupled;
  const auto diags = options.validate();
  EXPECT_TRUE(has_errors(diags));
  EXPECT_TRUE(has_code(diags, "execution-needs-banks"));
}

TEST(OptionsValidate, BanksRangeIsBounded) {
  Options options;
  options.banks = 1024;  // the documented maximum is fine
  EXPECT_TRUE(options.validate().empty());
  options.banks = 1025;
  EXPECT_TRUE(has_code(options.validate(), "banks-out-of-range"));
}

TEST(OptionsValidate, TextbookSlotsConflictWithSmartCandidates) {
  Options options;
  options.compile.textbook_slots = true;  // smart_candidates still default-on
  EXPECT_TRUE(has_code(options.validate(), "textbook-conflicts-smart"));
  options.compile.smart_candidates = false;
  EXPECT_TRUE(options.validate().empty());
}

TEST(OptionsValidate, ZeroRramCapIsRejected) {
  Options options;
  options.compile.rram_cap = 0;
  EXPECT_TRUE(has_code(options.validate(), "rram-cap-zero"));
}

TEST(OptionsValidate, ZeroVerifyRoundsAreRejected) {
  Options options;
  options.verify.rounds = 0;
  EXPECT_TRUE(has_code(options.validate(), "verify-rounds-zero"));
  options.verify.enabled = false;  // rounds are then irrelevant
  EXPECT_TRUE(options.validate().empty());
}

TEST(OptionsValidate, InertBusWidthIsOnlyAWarning) {
  Options options;
  options.schedule.cost.bus_width = 2;  // banks == 0: nothing to bound
  const auto diags = options.validate();
  EXPECT_FALSE(has_errors(diags));
  EXPECT_TRUE(has_code(diags, "bus-width-without-banks"));
  options.banks = 4;
  EXPECT_TRUE(options.validate().empty());
}

TEST(Driver, RefusesContradictoryOptionsPerOutcome) {
  Options options;
  options.schedule.execution = sched::ExecutionModel::decoupled;  // banks == 0
  const Driver driver(options);
  const auto outcome = driver.run(CompileRequest::from_benchmark("ctrl"));
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(has_code(outcome.diagnostics, "execution-needs-banks"));
}

/// Every millisecond of a request belongs to a named top-level phase:
/// load, rewrite, compile, verify, schedule and schedule verification
/// together cover the request's wall-clock.
TEST(Driver, PhasesCoverTotalTime) {
  Options options;
  options.banks = 4;
  options.schedule.execution = sched::ExecutionModel::decoupled;
  const auto outcome =
      Driver(options).run(CompileRequest::from_benchmark("i2c"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  ASSERT_TRUE(outcome.stats.verified);
  const auto& m = outcome.stats.metrics;
  const double phases = m.load_ms + m.rewrite_ms + m.compile_ms +
                        m.verify_ms + m.schedule_ms + m.schedule_verify_ms;
  EXPECT_GT(m.schedule_verify_ms, 0.0);
  EXPECT_LE(phases, m.total_ms);
  EXPECT_GE(phases, 0.95 * m.total_ms)
      << "load " << m.load_ms << " rewrite " << m.rewrite_ms << " compile "
      << m.compile_ms << " verify " << m.verify_ms << " schedule "
      << m.schedule_ms << " schedule verify " << m.schedule_verify_ms
      << " of " << m.total_ms;
}

// ---- request kinds ----------------------------------------------------------

TEST(Driver, BenchmarkAndInMemoryRequestsAgree) {
  Options options;
  options.rewrite.effort = 1;
  options.banks = 2;
  options.verify.rounds = 2;
  const Driver driver(options);

  const auto by_name = driver.run(CompileRequest::from_benchmark("ctrl"));
  const auto by_mig = driver.run(
      CompileRequest::from_mig(circuits::build_benchmark("ctrl"), "ctrl"));
  ASSERT_TRUE(by_name.ok()) << by_name.error_summary();
  ASSERT_TRUE(by_mig.ok()) << by_mig.error_summary();
  // Same network, same options → byte-identical reports (labels match).
  auto a = by_name.stats;
  auto b = by_mig.stats;
  a.normalize_timing();
  b.normalize_timing();
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Driver, BlifRequestRoundTrips) {
  const auto network = circuits::build_benchmark("int2float");
  const std::string path = "driver_roundtrip.blif";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    io::write_blif(network, out, "int2float");
  }
  Options options;
  options.rewrite.effort = 1;
  options.verify.rounds = 2;
  const auto outcome =
      Driver(options).run(CompileRequest::from_blif(path, "int2float"));
  std::remove(path.c_str());
  // BLIF re-synthesizes the covers AOIG-style, so instruction counts may
  // differ from the in-memory build — but the driver's verification pins
  // the compiled program to the parsed network's function.
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  EXPECT_TRUE(outcome.stats.verified);
  EXPECT_GT(outcome.stats.compile.num_instructions, 0u);
  EXPECT_EQ(outcome.stats.benchmark, "int2float");
}

/// The rewrite report describes the network after the dangling-gate
/// cleanup at every effort, so "before" reads the same with rewriting off.
TEST(Driver, RewriteReportIgnoresDanglingGatesAtEveryEffort) {
  const std::string path = "driver_dangling.blif";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << ".model dangling\n.inputs a b c\n.outputs f\n"
           ".names a b unused\n11 1\n.names a c f\n11 1\n.end\n";
  }
  std::vector<CompileOutcome> outcomes;
  for (const unsigned effort : {0u, 1u}) {
    Options options;
    options.rewrite.effort = effort;
    outcomes.push_back(Driver(options).run(CompileRequest::from_blif(path)));
  }
  std::remove(path.c_str());
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
    EXPECT_EQ(outcome.stats.initial_gates, 2u);  // the raw network
    EXPECT_EQ(outcome.stats.rewrite.gates_before, 1u);
  }
  EXPECT_EQ(outcomes[0].stats.rewrite.gates_after, 1u);
  EXPECT_EQ(outcomes[0].stats.rewrite.cycles, 0u);
}

TEST(Driver, LoadFailuresAreStructured) {
  const Driver driver;
  const auto missing =
      driver.run(CompileRequest::from_blif("does-not-exist.blif"));
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(has_code(missing.diagnostics, "input-open-failed"));

  const auto unknown =
      driver.run(CompileRequest::from_benchmark("no-such-benchmark"));
  EXPECT_FALSE(unknown.ok());
  EXPECT_TRUE(has_code(unknown.diagnostics, "unknown-benchmark"));
}

TEST(Driver, RramCapExceededIsStructured) {
  Options options;
  options.rewrite.effort = 1;
  options.compile.rram_cap = 2;
  const auto outcome =
      Driver(options).run(CompileRequest::from_benchmark("ctrl"));
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(has_code(outcome.diagnostics, "rram-cap-exceeded"));
}

// The cap bounds the scheduled program too: router@4 fits a cap of
// exactly its parallel cells and fails one cell below it, although its
// serial program fits both.
TEST(Driver, ScheduleCapExceededIsStructured) {
  const auto request = CompileRequest::from_benchmark("router");
  Options options;
  options.banks = 4;
  const auto uncapped = Driver(options).run(request);
  ASSERT_TRUE(uncapped.ok()) << uncapped.error_summary();
  const auto cells = uncapped.stats.schedule->parallel_rrams;
  ASSERT_LT(uncapped.stats.compile.num_rrams, cells - 1);

  options.compile.rram_cap = cells;
  const auto fits = Driver(options).run(request);
  ASSERT_TRUE(fits.ok()) << fits.error_summary();
  EXPECT_EQ(fits.stats.schedule->parallel_rrams, cells);

  options.compile.rram_cap = cells - 1;
  const auto over = Driver(options).run(request);
  EXPECT_FALSE(over.ok());
  EXPECT_TRUE(has_code(over.diagnostics, "schedule-cap-exceeded"));
  EXPECT_NE(over.error_summary().find(std::to_string(cells)),
            std::string::npos);
  EXPECT_NE(over.error_summary().find(std::to_string(cells - 1)),
            std::string::npos);
}

// ---- capacity-pressure retry ladder ------------------------------------------

namespace ladder {

std::size_t count_code(const std::vector<Diagnostic>& diags,
                       const std::string& code) {
  std::size_t n = 0;
  for (const auto& d : diags) {
    n += d.code == code ? 1 : 0;
  }
  return n;
}

bool mentions(const std::vector<Diagnostic>& diags, const std::string& code,
              const std::string& text) {
  for (const auto& d : diags) {
    if (d.code == code && d.message.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

Options capped_options(std::uint32_t cap) {
  Options options;
  options.compile.rram_cap = cap;
  options.compile.degradation.enabled = true;
  options.verify.enabled = true;
  options.verify.rounds = 2;
  return options;
}

}  // namespace ladder

TEST(OptionsValidate, DegradationWithoutCapIsOnlyAWarning) {
  Options options;
  options.compile.degradation.enabled = true;  // no rram_cap: inert
  const auto diags = options.validate();
  EXPECT_FALSE(has_errors(diags));
  EXPECT_TRUE(has_code(diags, "degradation-without-cap"));
}

TEST(RetryLadder, RoomyCapSucceedsAtLevelZeroSilently) {
  // A cap above the unconstrained peak never enters the ladder: no
  // retries, no degradation warning, bit-for-bit the plain program.
  const auto outcome = Driver(ladder::capped_options(10000))
                           .run(CompileRequest::from_benchmark("int2float"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  EXPECT_EQ(ladder::count_code(outcome.diagnostics, "rram-cap-retry"), 0u);
  EXPECT_EQ(ladder::count_code(outcome.diagnostics, "rram-cap-degraded"), 0u);
  EXPECT_EQ(outcome.stats.compile.cells_evicted, 0u);
}

TEST(RetryLadder, Level1RecomputeSucceedsUnderMildPressure) {
  // max: unconstrained peak 260, but plain recompute (level 1, no
  // cascades) already fits ~200 — exactly one retry, success at level 1.
  const auto outcome = Driver(ladder::capped_options(200))
                           .run(CompileRequest::from_benchmark("max"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  EXPECT_TRUE(outcome.stats.verified);
  EXPECT_EQ(ladder::count_code(outcome.diagnostics, "rram-cap-retry"), 1u);
  EXPECT_TRUE(ladder::mentions(outcome.diagnostics, "rram-cap-degraded",
                               "degradation level 1"));
  EXPECT_GT(outcome.stats.compile.cells_evicted, 0u);
  EXPECT_LE(outcome.stats.compile.peak_live_rrams, 200u);
}

TEST(RetryLadder, Level2AggressiveSucceedsUnderTightPressure) {
  // int2float: peak 23; level 1 holds down to ~21, cap 18 needs the
  // aggressive cascades of level 2 — two retries, then success.
  util::MetricsRegistry::global().set_enabled(true);
  const auto before =
      util::MetricsRegistry::global().counter("driver.rram_cap.retries");
  const auto outcome = Driver(ladder::capped_options(18))
                           .run(CompileRequest::from_benchmark("int2float"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  EXPECT_TRUE(outcome.stats.verified);
  EXPECT_EQ(ladder::count_code(outcome.diagnostics, "rram-cap-retry"), 2u);
  EXPECT_TRUE(ladder::mentions(outcome.diagnostics, "rram-cap-degraded",
                               "degradation level 2"));
  EXPECT_LE(outcome.stats.compile.peak_live_rrams, 18u);
  // Attempts also land in the process-wide metrics registry.
  EXPECT_EQ(
      util::MetricsRegistry::global().counter("driver.rram_cap.retries"),
      before + 2);
}

TEST(RetryLadder, FeasibleCapExhaustsTheLadder) {
  // int2float's live-set lower bound is 7, so cap 10 is not proven
  // infeasible, but no level fits it: levels 0-2 are attempted (two
  // retries), and the error names the exhausted ladder, not the bound.
  const auto outcome = Driver(ladder::capped_options(10))
                           .run(CompileRequest::from_benchmark("int2float"));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(ladder::count_code(outcome.diagnostics, "rram-cap-retry"), 2u);
  EXPECT_TRUE(ladder::mentions(outcome.diagnostics, "rram-cap-exceeded",
                               "every degradation level up to 2 was "
                               "attempted"));
  EXPECT_FALSE(ladder::mentions(outcome.diagnostics, "rram-cap-exceeded",
                                "infeasible"));
}

TEST(RetryLadder, InfeasibleCapStopsAtTheBound) {
  // int2float has 7 distinct output signals — cap 5 is infeasible for
  // any strategy. Level 1 proves it by failing fast, so the ladder stops
  // after one retry, and the final diagnostic carries the honest bound.
  util::MetricsRegistry::global().set_enabled(true);
  const auto failures_before =
      util::MetricsRegistry::global().counter("driver.rram_cap.failures");
  const auto outcome = Driver(ladder::capped_options(5))
                           .run(CompileRequest::from_benchmark("int2float"));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(ladder::count_code(outcome.diagnostics, "rram-cap-retry"), 1u);
  EXPECT_TRUE(ladder::mentions(outcome.diagnostics, "rram-cap-exceeded",
                               "live-set lower bound of 7"));
  EXPECT_FALSE(ladder::mentions(outcome.diagnostics, "rram-cap-exceeded",
                                "every degradation level"));
  EXPECT_EQ(
      util::MetricsRegistry::global().counter("driver.rram_cap.failures"),
      failures_before + 1);
}

TEST(RetryLadder, NeverRewritesAgainstTheCallersEffort) {
  // With rewriting off, every level compiles the network the caller
  // asked for, and the stats describe that network.
  auto options = ladder::capped_options(15);
  options.rewrite.effort = 0;
  const auto outcome =
      Driver(options).run(CompileRequest::from_benchmark("int2float"));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(ladder::count_code(outcome.diagnostics, "rram-cap-retry"), 2u);
  EXPECT_TRUE(ladder::mentions(outcome.diagnostics, "rram-cap-exceeded",
                               "every degradation level up to 2 was "
                               "attempted"));
  EXPECT_EQ(outcome.stats.rewrite.cycles, 0u);
  EXPECT_EQ(outcome.stats.gates, outcome.stats.rewrite.gates_after);
}

TEST(RetryLadder, DegradedStatsReachTheReport) {
  const auto outcome = Driver(ladder::capped_options(18))
                           .run(CompileRequest::from_benchmark("int2float"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  const auto json = outcome.stats.to_json();
  EXPECT_NE(json.find("\"rram_cap\":18"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cells_evicted\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_recomputed\""), std::string::npos);
  EXPECT_NE(json.find("\"live_lower_bound\":7"), std::string::npos) << json;
}

// ---- manifests --------------------------------------------------------------

TEST(Manifest, ParsesCommentsBareNamesAndKinds) {
  std::istringstream in(
      "# EPFL smoke subset\n"
      "benchmark ctrl\n"
      "cavlc      # bare token = benchmark shorthand\n"
      "\n"
      "blif some/path.blif\n");
  const auto requests = read_manifest(in);
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].kind(), CompileRequest::Kind::benchmark);
  EXPECT_EQ(requests[0].label(), "ctrl");
  EXPECT_EQ(requests[1].label(), "cavlc");
  EXPECT_EQ(requests[2].kind(), CompileRequest::Kind::blif);
  EXPECT_EQ(requests[2].path(), "some/path.blif");
}

TEST(Manifest, RejectsMalformedLines) {
  std::istringstream trailing("benchmark ctrl extra\n");
  EXPECT_THROW((void)read_manifest(trailing), std::runtime_error);
  std::istringstream dangling("blif\n");
  EXPECT_THROW((void)read_manifest(dangling), std::runtime_error);
}

// ---- batch determinism ------------------------------------------------------

/// The determinism bar of the facade: a 4-thread batch over ≥4 EPFL
/// benchmarks must produce byte-identical reports to serial runs. This is
/// the in-process twin of CI's `plimc --batch --threads 4` diff.
TEST(Batch, ThreadedEqualsSerialByteForByte) {
  const std::vector<std::string> names = {"ctrl",   "cavlc", "int2float",
                                          "router", "dec",   "priority"};
  std::vector<CompileRequest> requests;
  for (const auto& name : names) {
    requests.push_back(CompileRequest::from_benchmark(name));
  }

  Options options;
  options.rewrite.effort = 1;
  options.banks = 2;
  options.verify.rounds = 1;
  const Driver driver(options);

  const auto threaded = driver.run_batch(requests, 4);
  ASSERT_EQ(threaded.size(), requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto serial = driver.run(requests[i]);
    ASSERT_TRUE(serial.ok()) << names[i] << ": " << serial.error_summary();
    ASSERT_TRUE(threaded[i].ok())
        << names[i] << ": " << threaded[i].error_summary();
    auto a = serial.stats;
    auto b = threaded[i].stats;
    a.normalize_timing();
    b.normalize_timing();
    EXPECT_EQ(a.to_json(), b.to_json()) << names[i];
  }

  // A single-threaded batch is the same code path minus the pool.
  const auto serial_batch = driver.run_batch(requests, 1);
  ASSERT_EQ(serial_batch.size(), threaded.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto a = serial_batch[i].stats;
    auto b = threaded[i].stats;
    a.normalize_timing();
    b.normalize_timing();
    EXPECT_EQ(a.to_json(), b.to_json()) << names[i];
  }
}

TEST(Batch, FailuresStayPerRequest) {
  std::vector<CompileRequest> requests = {
      CompileRequest::from_benchmark("ctrl"),
      CompileRequest::from_benchmark("no-such-benchmark"),
      CompileRequest::from_benchmark("router"),
  };
  Options options;
  options.rewrite.effort = 1;
  options.verify.rounds = 1;
  const auto outcomes = Driver(options).run_batch(requests, 2);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_TRUE(has_code(outcomes[1].diagnostics, "unknown-benchmark"));
  EXPECT_TRUE(outcomes[2].ok());
}

// ---- golden StatsReport schema ----------------------------------------------

/// Pins the StatsReport JSON — schema *and* trajectory — for one fully
/// deterministic configuration. When a PR intentionally changes the
/// schema or the scheduler's output, regenerate the golden file with
///   PLIM_REGEN_GOLDEN=1 ./test_driver --gtest_filter=Golden.*
/// from the build directory and commit the diff.
TEST(Golden, StatsReportJsonMatchesGoldenFile) {
  Options options;
  options.rewrite.effort = 1;
  options.banks = 2;
  options.verify.rounds = 2;
  const auto outcome =
      Driver(options).run(CompileRequest::from_benchmark("ctrl"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  auto report = outcome.stats;
  report.normalize_timing();
  const auto json = report.to_json();

  const std::string golden_path =
      std::string(PLIM_SOURCE_DIR) + "/tests/golden/stats_report.json";
  if (std::getenv("PLIM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << json << '\n';
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing " << golden_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') {
    expected.pop_back();
  }
  EXPECT_EQ(json, expected)
      << "StatsReport schema/trajectory drifted — if intentional, "
         "regenerate with PLIM_REGEN_GOLDEN=1 (see test comment)";
}

}  // namespace
}  // namespace plim
