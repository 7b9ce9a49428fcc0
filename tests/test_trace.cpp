#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/driver.hpp"
#include "sched/scheduler.hpp"
#include "util/trace.hpp"

namespace plim {
namespace {

/// The tests share one process-wide tracer; each starts from a clean,
/// disabled slate and leaves it that way so ordering never matters.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Tracer::global().set_enabled(false);
    util::Tracer::global().clear();
  }
  void TearDown() override {
    util::Tracer::global().set_enabled(false);
    util::Tracer::global().clear();
  }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  auto& tracer = util::Tracer::global();
  ASSERT_FALSE(tracer.enabled());
  {
    util::TraceSpan span("should-not-appear");
    tracer.complete("nope", "x", 2, 0, 0.0, 1.0);
  }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST_F(TraceTest, DisabledSpanIsCheap) {
  // The satellite "<1% overhead" contract, made deterministic: a
  // disabled span must cost a relaxed atomic load and nothing else. The
  // generous per-span bound (2µs averaged over 100k) fails loudly if
  // someone adds an allocation, lock, or clock read to the fast path,
  // while staying far above scheduler-jitter noise on CI machines.
  auto& tracer = util::Tracer::global();
  ASSERT_FALSE(tracer.enabled());
  constexpr int kSpans = 100'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    util::TraceSpan span("disabled");
  }
  const auto ns = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_EQ(tracer.num_events(), 0u);
  EXPECT_LT(ns / kSpans, 2000.0);
}

TEST_F(TraceTest, SpansBalanceAcrossThreads) {
  auto& tracer = util::Tracer::global();
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        util::TraceSpan outer("outer");
        util::TraceSpan inner("inner");
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }

  // Every B has a matching E on its own (pid, tid) track, well-nested.
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> depth;
  int begins = 0;
  for (const auto& e : tracer.snapshot()) {
    const auto track = std::make_pair(e.pid, e.tid);
    if (e.ph == 'B') {
      ++depth[track];
      ++begins;
    } else if (e.ph == 'E') {
      ASSERT_GT(depth[track], 0) << "E without matching B";
      --depth[track];
    }
  }
  EXPECT_EQ(begins, kThreads * kSpansPerThread * 2);
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << track.second;
  }
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  auto& tracer = util::Tracer::global();
  tracer.set_enabled(true);
  {
    util::TraceSpan span("phase-a", "\"benchmark\":\"ctrl\"");
  }
  const auto pid = tracer.reserve_pid();
  ASSERT_GE(pid, 2u);
  tracer.name_process(pid, "machine");
  tracer.name_thread(pid, 0, "bank 0");
  tracer.complete("busy", "busy", pid, 0, 0.0, 4.0);
  tracer.flow_start("sync", pid, 0, 4.0, 7);
  tracer.flow_finish("sync", pid, 1, 8.0, 7);

  const auto json = tracer.to_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase-a\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"benchmark\":\"ctrl\"}"), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);  // flow binding
  EXPECT_NE(json.find("\"name\":\"bank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(TraceTest, DriverEmitsOneSpanPerPhase) {
  Options options;
  options.banks = 2;
  options.verify.rounds = 1;
  options.trace.enabled = true;
  options.schedule.execution = sched::ExecutionModel::decoupled;
  const Driver driver(options);
  const auto outcome = driver.run(CompileRequest::from_benchmark("ctrl"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();

  std::map<std::string, int> begins;
  int machine_pids = 0;
  for (const auto& e : util::Tracer::global().snapshot()) {
    if (e.ph == 'B') {
      ++begins[e.name];
    }
    if (e.ph == 'M' && e.name == "process_name" && e.pid >= 2) {
      ++machine_pids;
    }
  }
  for (const char* phase : {"request", "load", "rewrite", "compile", "verify",
                            "schedule", "verify-schedule", "sched.assign",
                            "sched.pack", "sched.alloc"}) {
    EXPECT_EQ(begins[phase], 1) << phase;
  }
  EXPECT_GE(begins["refine.pass"], 1);
  // Decoupled execution rendered at least one per-bank cycle timeline.
  EXPECT_GE(machine_pids, 1);

  // The measured phase extents land in StatsReport::metrics even though
  // normalize_timing would zero them for determinism-diffed output.
  EXPECT_GT(outcome.stats.metrics.total_ms, 0.0);
  auto report = outcome.stats;
  report.normalize_timing();
  EXPECT_EQ(report.metrics.total_ms, 0.0);
  EXPECT_EQ(report.metrics.load_ms, 0.0);
  EXPECT_EQ(report.metrics.schedule_ms, 0.0);
  ASSERT_TRUE(report.schedule.has_value());
  EXPECT_EQ(report.schedule->refine_ms, 0.0);
  EXPECT_EQ(report.schedule->sync_ms, 0.0);
}

TEST_F(TraceTest, WriteChromeTraceRoundTrips) {
  auto& tracer = util::Tracer::global();
  tracer.set_enabled(true);
  {
    util::TraceSpan span("roundtrip");
  }
  const auto path =
      ::testing::TempDir() + "/plim_trace_roundtrip.json";
  ASSERT_TRUE(tracer.write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), tracer.to_json() + "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plim
