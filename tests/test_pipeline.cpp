#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "circuits/epfl.hpp"
#include "core/verify.hpp"
#include "driver/driver.hpp"
#include "mig/cleanup.hpp"
#include "mig/simulation.hpp"
#include "util/rng.hpp"

namespace plim {
namespace {

/// The three configurations of Table 1: the naïve column disables MIG
/// rewriting and candidate selection, the rewriting column only
/// candidate selection, and the full compiler runs both.
enum class Config { naive, rewriting, full };

Options table1_options(Config config) {
  Options options;
  if (config == Config::naive) {
    options.rewrite.effort = 0;
  }
  options.compile.smart_candidates = config == Config::full;
  options.verify.enabled = false;  // the tests check programs themselves
  return options;
}

CompileOutcome run(const mig::Mig& m, const Options& options) {
  auto outcome = Driver(options).run(CompileRequest::from_mig(m, "test"));
  EXPECT_TRUE(outcome.ok()) << outcome.error_summary();
  return outcome;
}

TEST(Pipeline, NaiveConfigUsesUnrewrittenNetwork) {
  const auto m = circuits::build_benchmark("ctrl");
  const auto r = run(m, table1_options(Config::naive));
  EXPECT_EQ(r.stats.gates, mig::cleanup_dangling(m).num_gates());
  EXPECT_EQ(r.stats.rewrite.cycles, 0u);  // rewriting never ran
}

TEST(Pipeline, RewritingConfigsReportStats) {
  const auto m = circuits::build_benchmark("ctrl");
  const auto r = run(m, table1_options(Config::rewriting));
  EXPECT_GT(r.stats.rewrite.gates_before, 0u);
  EXPECT_EQ(r.stats.gates, r.stats.rewrite.gates_after);
}

TEST(Pipeline, FullPipelineBeatsNaiveOnTheSuiteAggregate) {
  // The paper's headline: over the suite, rewriting+compilation reduces
  // both #I and #R versus the naïve translation. Individual benchmarks
  // may regress (the paper's Table 1 has negative entries too), so this
  // asserts the aggregate on a representative subset.
  std::uint64_t i_naive = 0;
  std::uint64_t i_full = 0;
  std::uint64_t r_naive = 0;
  std::uint64_t r_full = 0;
  for (const char* name : {"cavlc", "ctrl", "router", "int2float", "i2c"}) {
    const auto m = circuits::build_benchmark(name);
    const auto naive = run(m, table1_options(Config::naive));
    const auto full = run(m, table1_options(Config::full));
    i_naive += naive.stats.compile.num_instructions;
    i_full += full.stats.compile.num_instructions;
    r_naive += naive.stats.compile.num_rrams;
    r_full += full.stats.compile.num_rrams;
  }
  EXPECT_LT(i_full, i_naive);
  EXPECT_LT(r_full, r_naive);
}

TEST(Pipeline, AllConfigsVerifyOnBenchmarks) {
  for (const char* name : {"cavlc", "router", "int2float"}) {
    const auto m = circuits::build_benchmark(name);
    for (const auto config : {Config::naive, Config::rewriting, Config::full}) {
      const auto r = run(m, table1_options(config));
      // Verify against the network that was compiled (rewritten or not),
      // then tie the rewritten network back to the original by random
      // co-simulation.
      const auto compiled_for = config == Config::naive
                                    ? mig::cleanup_dangling(m)
                                    : mig::rewrite_for_plim(m);
      const auto v = core::verify_program(compiled_for, r.program, 4, 9);
      EXPECT_TRUE(v.ok) << name << ": " << v.message;
      util::Rng rng(13);
      EXPECT_TRUE(mig::random_equivalence_check(m, compiled_for, 8, rng))
          << name;
    }
  }
}

TEST(Pipeline, ForwardsExecutionModelToScheduler) {
  const auto m = circuits::build_benchmark("int2float");
  auto options = table1_options(Config::full);
  options.banks = 4;
  options.schedule.execution = sched::ExecutionModel::decoupled;
  const auto r = run(m, options);
  ASSERT_TRUE(r.stats.schedule.has_value());
  const auto& s = *r.stats.schedule;
  EXPECT_EQ(s.execution, sched::ExecutionModel::decoupled);
  EXPECT_EQ(s.makespan_cycles, s.decoupled_cycles);
  EXPECT_LE(s.decoupled_cycles, s.lockstep_cycles);
  EXPECT_GT(s.sync_tokens, 0u);
  ASSERT_EQ(s.bank_idle_cycles.size(), 4u);
}

// ---- plimc CLI flag combinations --------------------------------------------

/// Runs the plimc binary (built next to the test, cwd = build dir) and
/// captures stdout. Returns the exit status via `status`.
std::string run_plimc(const std::string& flags, int& status) {
  const std::string cmd = "./plimc " + flags + " 2>/dev/null";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    status = -1;
    return out;
  }
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out += buf.data();
  }
  status = pclose(pipe);
  return out;
}

/// Like run_plimc, but captures stderr (where plimc routes every
/// diagnostic) and discards stdout.
std::string run_plimc_stderr(const std::string& flags, int& status) {
  const std::string cmd = "./plimc " + flags + " 2>&1 1>/dev/null";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    status = -1;
    return out;
  }
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out += buf.data();
  }
  status = pclose(pipe);
  return out;
}

bool plimc_available() {
  std::ifstream bin("./plimc");
  return bin.good();
}

TEST(PlimcCli, JsonToStdoutSuppressesListing) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  // "--json -" without -o: stats own stdout, the listing is suppressed.
  const auto out = run_plimc("--benchmark ctrl --banks 2 --json -", status);
  EXPECT_EQ(status, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.find("# parallel banks"), std::string::npos);
  EXPECT_NE(out.find("\"makespan_cycles\""), std::string::npos);
  EXPECT_NE(out.find("\"bank_idle_cycles\""), std::string::npos);
}

TEST(PlimcCli, JsonToStdoutWithOutputFileKeepsBoth) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  const auto out = run_plimc(
      "--benchmark ctrl --banks 2 --json - -o plimc_cli_test.plim", status);
  EXPECT_EQ(status, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  std::ifstream listing("plimc_cli_test.plim");
  ASSERT_TRUE(listing.good());
  std::stringstream ss;
  ss << listing.rdbuf();
  EXPECT_NE(ss.str().find("# parallel banks 2"), std::string::npos);
  std::remove("plimc_cli_test.plim");
}

TEST(PlimcCli, JsonFileKeepsListingOnStdout) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  const auto out =
      run_plimc("--benchmark ctrl --banks 2 --json plimc_cli_test.json",
                status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("# parallel banks 2"), std::string::npos);
  std::ifstream json("plimc_cli_test.json");
  ASSERT_TRUE(json.good());
  std::stringstream ss;
  ss << json.rdbuf();
  EXPECT_EQ(ss.str().find("# parallel"), std::string::npos);
  EXPECT_NE(ss.str().find("\"schedule\""), std::string::npos);
  std::remove("plimc_cli_test.json");
}

TEST(PlimcCli, DecoupledExecutionFlag) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  const auto out = run_plimc(
      "--benchmark ctrl --banks 2 --execution decoupled --json -", status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("\"execution\":\"decoupled\""), std::string::npos);
  // The sync tokens ride the listing when it is requested.
  const auto listing = run_plimc(
      "--benchmark int2float --banks 4 --execution decoupled", status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(listing.find("# sync t1:"), std::string::npos);
  // Unknown model names are usage errors.
  (void)run_plimc("--benchmark ctrl --banks 2 --execution warp", status);
  EXPECT_NE(status, 0);
  // Decoupled execution without a schedule would be silently meaningless.
  (void)run_plimc("--benchmark ctrl --execution decoupled", status);
  EXPECT_NE(status, 0);
}

TEST(PlimcCli, WarningsGoToStderrAndKeepExitZero) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  // --degrade without --cap is inert: a warning, never a failure.
  int status = 0;
  auto err = run_plimc_stderr("--benchmark ctrl --degrade --json -", status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(err.find("warning[degradation-without-cap]"), std::string::npos);
  // The hint names the flag plimc actually accepts.
  EXPECT_NE(err.find("--cap N"), std::string::npos);

  // A degraded-but-successful compile: retry + degradation warnings on
  // stderr, exit 0, and stdout stays pure JSON (warnings must not leak
  // into a machine-read stream).
  const auto out =
      run_plimc("--benchmark int2float --cap 18 --degrade --json -", status);
  EXPECT_EQ(status, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.find("warning["), std::string::npos);
  err = run_plimc_stderr("--benchmark int2float --cap 18 --degrade --json -",
                         status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(err.find("warning[rram-cap-retry]"), std::string::npos);
  EXPECT_NE(err.find("warning[rram-cap-degraded]"), std::string::npos);

  // Below the live-set lower bound every rung fails: error on stderr,
  // non-zero exit.
  err = run_plimc_stderr("--benchmark int2float --cap 5 --degrade --json -",
                         status);
  EXPECT_NE(status, 0);
  EXPECT_NE(err.find("error[rram-cap-exceeded]"), std::string::npos);
  EXPECT_NE(err.find("live-set lower bound"), std::string::npos);
}

TEST(Pipeline, CustomRewriteEffortIsHonored) {
  const auto m = circuits::build_benchmark("cavlc");
  auto fast = table1_options(Config::full);
  fast.rewrite.effort = 1;
  const auto r1 = run(m, fast);
  auto thorough = table1_options(Config::full);
  thorough.rewrite.effort = 6;
  const auto r6 = run(m, thorough);
  EXPECT_LE(r6.stats.compile.num_instructions,
            r1.stats.compile.num_instructions + 8);
}

}  // namespace
}  // namespace plim
