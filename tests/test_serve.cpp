#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "circuits/epfl.hpp"
#include "driver/driver.hpp"
#include "io/blif.hpp"
#include "mig/mig.hpp"
#include "serve/cache.hpp"
#include "serve/mpmc_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/structural_hash.hpp"
#include "util/metrics.hpp"

namespace plim {
namespace {

// ---- MpmcQueue -------------------------------------------------------------

TEST(MpmcQueueTest, FifoSingleThread) {
  serve::MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(q.push(i));
  }
  EXPECT_EQ(q.approx_size(), 8u);  // full
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_EQ(q.approx_size(), 0u);  // empty
}

TEST(MpmcQueueTest, CloseDrainsRemainingElements) {
  serve::MpmcQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // refused after close
  int out = -1;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  serve::MpmcQueue<int> q(64);  // smaller than the stream: exercises parking
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&]() {
      int v = 0;
      while (q.pop(v)) {
        sum.fetch_add(v, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.close();
  for (auto& t : consumers) {
    t.join();
  }

  constexpr long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // each element exactly once
}

// ---- structural hashing ----------------------------------------------------

TEST(StructuralHashTest, RebuildingTheSameCircuitGivesTheSameKey) {
  const Options options;
  const auto a = serve::structural_key(circuits::make_ctrl(), options);
  const auto b = serve::structural_key(circuits::make_ctrl(), options);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_hex(), b.to_hex());
  EXPECT_EQ(a.to_hex().size(), 32u);
}

TEST(StructuralHashTest, NamesDoNotChangeTheKey) {
  // The same structure with different PI/PO names must share a cache
  // line — names are presentation, not structure.
  mig::Mig named;
  {
    const auto x = named.create_pi("x");
    const auto y = named.create_pi("y");
    const auto z = named.create_pi("z");
    named.create_po(named.create_maj(x, y, z), "out");
  }
  mig::Mig anonymous;
  {
    const auto x = anonymous.create_pi();
    const auto y = anonymous.create_pi();
    const auto z = anonymous.create_pi();
    anonymous.create_po(anonymous.create_maj(x, y, z));
  }
  const Options options;
  EXPECT_EQ(serve::structural_key(named, options),
            serve::structural_key(anonymous, options));
}

TEST(StructuralHashTest, StructureChangesChangeTheKey) {
  mig::Mig base;
  const auto x = base.create_pi();
  const auto y = base.create_pi();
  const auto z = base.create_pi();
  base.create_po(base.create_maj(x, y, z));

  mig::Mig complemented;
  {
    const auto a = complemented.create_pi();
    const auto b = complemented.create_pi();
    const auto c = complemented.create_pi();
    complemented.create_po(!complemented.create_maj(a, b, c));
  }
  mig::Mig extra_po;
  {
    const auto a = extra_po.create_pi();
    const auto b = extra_po.create_pi();
    const auto c = extra_po.create_pi();
    const auto m = extra_po.create_maj(a, b, c);
    extra_po.create_po(m);
    extra_po.create_po(m);
  }
  const Options options;
  const auto key = serve::structural_key(base, options);
  EXPECT_NE(key, serve::structural_key(complemented, options));
  EXPECT_NE(key, serve::structural_key(extra_po, options));
}

TEST(StructuralHashTest, EpflBenchmarksHavePairwiseDistinctKeys) {
  const Options options;
  std::vector<std::pair<std::string, serve::StructuralKey>> keys;
  for (const auto& spec : circuits::epfl_suite()) {
    keys.emplace_back(spec.name,
                      serve::structural_key(spec.build(), options));
  }
  ASSERT_GE(keys.size(), 10u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i].second, keys[j].second)
          << keys[i].first << " collides with " << keys[j].first;
    }
  }
}

TEST(StructuralHashTest, EveryOptionsFieldChangesTheKey) {
  // One mutation per plim::Options field. When Options grows a field,
  // hash_options must absorb it and this list must cover it — a cached
  // outcome served across an option change is a wrong answer. The
  // schedule fields the Driver ignores cannot change an outcome, so
  // they must leave the key alone.
  const std::vector<std::pair<const char*, void (*)(Options&)>> mutations = {
      {"banks", [](Options& o) { o.banks = 4; }},
      {"rewrite.effort", [](Options& o) { o.rewrite.effort = 7; }},
      {"compile.smart_candidates",
       [](Options& o) { o.compile.smart_candidates = false; }},
      {"compile.cache_complements",
       [](Options& o) { o.compile.cache_complements = false; }},
      {"compile.textbook_slots",
       [](Options& o) { o.compile.textbook_slots = true; }},
      {"compile.allocation",
       [](Options& o) {
         o.compile.allocation = core::AllocationPolicy::lifo;
       }},
      {"compile.rram_cap", [](Options& o) { o.compile.rram_cap = 64; }},
      {"compile.degradation.enabled",
       [](Options& o) { o.compile.degradation.enabled = true; }},
      {"schedule.cost.bus_width",
       [](Options& o) { o.schedule.cost.bus_width = 3; }},
      {"schedule.cluster", [](Options& o) { o.schedule.cluster = false; }},
      {"schedule.refine_passes",
       [](Options& o) { o.schedule.refine_passes = 3; }},
      {"schedule.execution",
       [](Options& o) {
         o.schedule.execution = sched::ExecutionModel::decoupled;
       }},
      {"verify.enabled", [](Options& o) { o.verify.enabled = false; }},
      {"verify.rounds", [](Options& o) { o.verify.rounds = 3; }},
      {"verify.seed", [](Options& o) { o.verify.seed = 42; }},
      {"trace.enabled", [](Options& o) { o.trace.enabled = true; }},
  };

  const auto network = circuits::make_ctrl();
  const Options baseline;
  const auto base_key = serve::structural_key(network, baseline);
  for (const auto& [name, mutate] : mutations) {
    Options mutated;
    mutate(mutated);
    EXPECT_NE(serve::structural_key(network, mutated), base_key)
        << "changing " << name << " must change the cache key";
  }

  const std::vector<std::pair<const char*, void (*)(Options&)>> ignored = {
      {"schedule.refine_incremental",
       [](Options& o) { o.schedule.refine_incremental = false; }},
      {"schedule.refine_resync",
       [](Options& o) { o.schedule.refine_resync = 4; }},
      {"schedule.lookahead", [](Options& o) { o.schedule.lookahead = false; }},
      {"schedule.objective",
       [](Options& o) { o.schedule.objective = sched::Objective::makespan; }},
  };
  for (const auto& [name, mutate] : ignored) {
    Options mutated;
    mutate(mutated);
    EXPECT_EQ(serve::structural_key(network, mutated), base_key)
        << name << " is ignored, so it must not split the cache";
  }
}

TEST(StructuralHashTest, ContentKeysSeparateBytesKindsAndOptions) {
  const Options options;
  const auto blif = CompileRequest::Kind::blif;
  // Lengths across the 32-byte stripes and the zero-padded tail.
  std::string text(70, 'x');
  const auto key = serve::content_key(blif, text, options);
  EXPECT_EQ(serve::content_key(blif, text, options), key);
  for (const std::size_t at : {std::size_t{0}, std::size_t{31},
                               std::size_t{64}, std::size_t{69}}) {
    auto edited = text;
    edited[at] = 'y';
    EXPECT_NE(serve::content_key(blif, edited, options), key) << at;
  }
  EXPECT_NE(serve::content_key(blif, text + '\0', options), key);
  EXPECT_NE(serve::content_key(blif, text.substr(1), options), key);
  EXPECT_NE(serve::content_key(CompileRequest::Kind::benchmark, text, options),
            key);
  Options banked;
  banked.banks = 4;
  EXPECT_NE(serve::content_key(blif, text, banked), key);
}

// ---- CompileCache ----------------------------------------------------------

serve::StructuralKey key_of(std::uint64_t n) {
  serve::StructuralHasher h;
  h.mix(n);
  return h.key();
}

std::shared_ptr<const CompileOutcome> outcome_named(const std::string& name) {
  CompileOutcome outcome;
  outcome.stats.benchmark = name;
  return std::make_shared<const CompileOutcome>(std::move(outcome));
}

TEST(CompileCacheTest, HitReturnsTheInsertedOutcome) {
  serve::CompileCache cache(1 << 20);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(1), outcome_named("a"));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stats.benchmark, "a");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(CompileCacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  // Empty outcomes estimate ~1 KiB each; budget for roughly two.
  const auto entry_bytes =
      serve::CompileCache::approx_bytes(*outcome_named("x"));
  serve::CompileCache cache(2 * entry_bytes);
  cache.insert(key_of(1), outcome_named("a"));
  cache.insert(key_of(2), outcome_named("b"));
  ASSERT_NE(cache.lookup(key_of(1)), nullptr);  // refresh: 2 becomes LRU
  cache.insert(key_of(3), outcome_named("c"));  // evicts 2, not 1
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 2 * entry_bytes);
}

TEST(CompileCacheTest, ZeroBudgetDisablesCaching) {
  serve::CompileCache cache(0);
  cache.insert(key_of(1), outcome_named("a"));
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(CompileCacheTest, ReinsertReplacesAndRefreshes) {
  serve::CompileCache cache(1 << 20);
  cache.insert(key_of(1), outcome_named("old"));
  cache.insert(key_of(1), outcome_named("new"));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stats.benchmark, "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---- Driver::run_cached ----------------------------------------------------

TEST(RunCachedTest, HitIsByteIdenticalToAFreshCompile) {
  Options options;
  options.banks = 4;
  const Driver driver(options);
  serve::CompileCache cache(std::size_t{64} << 20);
  const auto request = CompileRequest::from_benchmark("ctrl");

  const auto first = driver.run_cached(request, cache);
  ASSERT_TRUE(first.outcome->ok()) << first.outcome->error_summary();
  EXPECT_FALSE(first.cache_hit);

  const auto second = driver.run_cached(request, cache);
  ASSERT_TRUE(second.outcome->ok());
  EXPECT_TRUE(second.cache_hit);

  auto fresh = driver.run(request);
  ASSERT_TRUE(fresh.ok());

  // Modulo wall-clock, a hit is the fresh compile: same report bytes,
  // same program, same schedule.
  auto first_stats = first.outcome->stats;
  auto second_stats = second.outcome->stats;
  first_stats.normalize_timing();
  second_stats.normalize_timing();
  fresh.stats.normalize_timing();
  EXPECT_EQ(second_stats.to_json(), fresh.stats.to_json());
  EXPECT_EQ(first_stats.to_json(), second_stats.to_json());
  EXPECT_EQ(second.outcome->program.num_instructions(),
            fresh.program.num_instructions());
  ASSERT_TRUE(second.outcome->parallel.has_value());
  ASSERT_TRUE(fresh.parallel.has_value());
  EXPECT_EQ(second.outcome->parallel->num_steps(),
            fresh.parallel->num_steps());
}

TEST(RunCachedTest, HitSharesTheOutcomeAndBatchRelabelsIt) {
  // Two labels, one structure: the second request hits the first's cache
  // line and gets the very object the first stored, still named for the
  // first. A batch returns copies, each under its own request's name.
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  const auto first_request =
      CompileRequest::from_mig(circuits::make_ctrl(), "first");
  const auto second_request =
      CompileRequest::from_mig(circuits::make_ctrl(), "second");
  const auto first = driver.run_cached(first_request, cache);
  const auto second = driver.run_cached(second_request, cache);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.outcome.get(), first.outcome.get());
  EXPECT_EQ(second.outcome->stats.benchmark, "first");

  const auto batch =
      driver.run_batch({first_request, second_request}, 1, &cache);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].stats.benchmark, "first");
  EXPECT_EQ(batch[1].stats.benchmark, "second");
}

TEST(RunCachedTest, DifferentOptionsDoNotShareCacheLines) {
  serve::CompileCache cache(std::size_t{64} << 20);
  Options banked;
  banked.banks = 4;
  const Driver serial{Options{}};
  const Driver parallel_driver{banked};
  const auto request = CompileRequest::from_benchmark("ctrl");
  EXPECT_FALSE(serial.run_cached(request, cache).cache_hit);
  // Same circuit, different options — must miss, not serve the serial
  // outcome.
  const auto banked_result = parallel_driver.run_cached(request, cache);
  EXPECT_FALSE(banked_result.cache_hit);
  EXPECT_TRUE(banked_result.outcome->stats.schedule.has_value());
}

TEST(RunCachedTest, FailuresAreNotCached) {
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  const auto request = CompileRequest::from_blif("/nonexistent/x.blif");
  const auto first = driver.run_cached(request, cache);
  EXPECT_FALSE(first.outcome->ok());
  EXPECT_FALSE(first.cache_hit);
  const auto second = driver.run_cached(request, cache);
  EXPECT_FALSE(second.outcome->ok());
  EXPECT_FALSE(second.cache_hit);  // still a miss: failures stay out
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---- batch through the cache -----------------------------------------------

TEST(BatchCacheTest, DuplicateRequestsCompileOnceAndStayByteIdentical) {
  Options options;
  options.banks = 2;
  const Driver driver(options);
  std::vector<CompileRequest> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(CompileRequest::from_benchmark("ctrl"));
    requests.push_back(CompileRequest::from_benchmark("int2float"));
  }

  const auto plain = driver.run_batch(requests, 2);
  serve::CompileCache cache(std::size_t{64} << 20);
  const auto cached = driver.run_batch(requests, 2, &cache);

  ASSERT_EQ(plain.size(), cached.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(cached[i].ok());
    auto a = plain[i].stats;
    auto b = cached[i].stats;
    a.normalize_timing();
    b.normalize_timing();
    EXPECT_EQ(a.to_json(), b.to_json()) << "request " << i;
  }
  // Threaded hit counts are racy (two workers can miss the same key
  // concurrently before either inserts), so exact counting needs the
  // serial path: two distinct (circuit, options) pairs compile, four
  // repeats are served from the cache.
  serve::CompileCache serial_cache(std::size_t{64} << 20);
  const auto serial = driver.run_batch(requests, 1, &serial_cache);
  ASSERT_EQ(serial.size(), requests.size());
  EXPECT_EQ(serial_cache.stats().misses, 2u);
  EXPECT_EQ(serial_cache.stats().hits, 4u);
}

/// A batch hit compiled nothing: it reports its own lookup time as
/// total_ms and no phase time, while its normalized report is the
/// uncached one.
TEST(BatchCacheTest, HitsReportTheirOwnLatency) {
  Options options;
  options.banks = 2;
  const Driver driver(options);
  const std::vector<CompileRequest> requests = {
      CompileRequest::from_benchmark("ctrl"),
      CompileRequest::from_benchmark("ctrl"),
      CompileRequest::from_benchmark("int2float"),
      CompileRequest::from_benchmark("int2float")};
  serve::CompileCache cache(std::size_t{64} << 20);
  const auto cached = driver.run_batch(requests, 1, &cache);
  const auto plain = driver.run_batch(requests, 1);
  ASSERT_EQ(cached.size(), requests.size());
  ASSERT_EQ(cache.stats().hits, 2u);

  for (const std::size_t hit : {std::size_t{1}, std::size_t{3}}) {
    ASSERT_TRUE(cached[hit].ok());
    const auto& m = cached[hit].stats.metrics;
    EXPECT_GT(m.total_ms, 0.0) << "request " << hit;
    EXPECT_LT(m.total_ms, cached[hit - 1].stats.metrics.total_ms)
        << "request " << hit << " reports the compile that filled its entry";
    EXPECT_EQ(m.load_ms, 0.0);
    EXPECT_EQ(m.rewrite_ms, 0.0);
    EXPECT_EQ(m.compile_ms, 0.0);
    EXPECT_EQ(m.verify_ms, 0.0);
    EXPECT_EQ(m.schedule_ms, 0.0);
    EXPECT_EQ(m.schedule_verify_ms, 0.0);
    ASSERT_TRUE(cached[hit].stats.schedule.has_value());
    const auto& s = *cached[hit].stats.schedule;
    EXPECT_EQ(s.schedule_ms + s.assign_ms + s.refine_ms + s.pack_ms +
                  s.alloc_ms + s.sync_ms,
              0.0);
    // The miss it shares an entry with keeps its own measured phases.
    EXPECT_GT(cached[hit - 1].stats.metrics.compile_ms, 0.0);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto a = plain[i].stats;
    auto b = cached[i].stats;
    a.normalize_timing();
    b.normalize_timing();
    EXPECT_EQ(a.to_json(), b.to_json()) << "request " << i;
  }
}

// ---- protocol --------------------------------------------------------------

TEST(ProtocolTest, ParsesCompileAndCommandRequests) {
  serve::Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"id":"r1","benchmark":"ctrl"})", req, error))
      << error;
  EXPECT_EQ(req.kind, serve::Request::Kind::compile);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.benchmark, "ctrl");

  ASSERT_TRUE(serve::parse_request(
      R"({"id":"r2","blif":"circuits/adder.blif"})", req, error));
  EXPECT_EQ(req.blif, "circuits/adder.blif");

  ASSERT_TRUE(serve::parse_request(R"({"cmd":"ping"})", req, error));
  EXPECT_EQ(req.kind, serve::Request::Kind::ping);
  ASSERT_TRUE(serve::parse_request(R"({"cmd":"stats","id":"s"})", req, error));
  EXPECT_EQ(req.kind, serve::Request::Kind::stats);
  ASSERT_TRUE(serve::parse_request(R"({"cmd":"shutdown"})", req, error));
  EXPECT_EQ(req.kind, serve::Request::Kind::shutdown);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  serve::Request req;
  std::string error;
  EXPECT_FALSE(serve::parse_request("not json", req, error));
  EXPECT_FALSE(serve::parse_request("{}", req, error));  // no source
  EXPECT_FALSE(serve::parse_request(
      R"({"benchmark":"a","blif":"b"})", req, error));  // both sources
  EXPECT_FALSE(serve::parse_request(
      R"({"cmd":"ping","benchmark":"a"})", req, error));  // cmd + source
  EXPECT_FALSE(serve::parse_request(
      R"({"cmd":"reboot"})", req, error));  // unknown cmd
  EXPECT_FALSE(serve::parse_request(
      R"({"benchmark":"a","bogus":1})", req, error));  // unknown field
  EXPECT_FALSE(serve::parse_request(
      R"({"benchmark":{"x":1}})", req, error));  // nested value
  EXPECT_FALSE(serve::parse_request(
      R"({"benchmark":"a"} trailing)", req, error));
}

// ---- Server ----------------------------------------------------------------

/// The report is the response suffix starting at its key — everything
/// before it (latency fields) is legitimately non-deterministic.
std::string report_part(const std::string& response) {
  const auto pos = response.find("\"report\":");
  return pos == std::string::npos ? std::string() : response.substr(pos);
}

TEST(ServerTest, ProcessLineServesPingStatsAndCompiles) {
  Options options;
  options.banks = 2;
  serve::ServerOptions server_options;
  server_options.workers = 2;
  server_options.stdio = false;
  serve::Server server(options, server_options);

  EXPECT_EQ(server.process_line(R"({"cmd":"ping","id":"p"})"),
            R"({"id":"p","ok":true,"pong":true})");

  const auto miss =
      server.process_line(R"({"id":"r1","benchmark":"ctrl"})");
  EXPECT_NE(miss.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(miss.find("\"ok\":true"), std::string::npos);
  const auto hit = server.process_line(R"({"id":"r2","benchmark":"ctrl"})");
  EXPECT_NE(hit.find("\"cache\":\"hit\""), std::string::npos);

  // Byte-identical reports: the hit's report equals the miss's.
  ASSERT_FALSE(report_part(miss).empty());
  EXPECT_EQ(report_part(miss), report_part(hit));

  const auto stats = server.process_line(R"({"cmd":"stats","id":"s"})");
  EXPECT_NE(stats.find("\"cache_hits\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"cache_misses\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"cache_evictions\":0"), std::string::npos);

  const auto snapshot = server.snapshot();
  EXPECT_EQ(snapshot.requests, 2u);
  EXPECT_DOUBLE_EQ(snapshot.hit_rate, 0.5);
  EXPECT_GT(snapshot.p50_ms, 0.0);
  EXPECT_GE(snapshot.p99_ms, snapshot.p50_ms);
}

TEST(ServerTest, StatsReportCacheEvictions) {
  // Size two entries on a roomy cache, then give a second server room
  // for the larger one alone: the second compile evicts the first.
  serve::ServerOptions server_options;
  server_options.stdio = false;
  std::size_t ctrl_bytes = 0;
  std::size_t both_bytes = 0;
  {
    serve::Server sizing(Options{}, server_options);
    (void)sizing.process_line(R"({"id":"a","benchmark":"ctrl"})");
    ctrl_bytes = sizing.cache().stats().bytes;
    (void)sizing.process_line(R"({"id":"b","benchmark":"dec"})");
    both_bytes = sizing.cache().stats().bytes;
  }
  ASSERT_GT(ctrl_bytes, 0u);
  ASSERT_GT(both_bytes, ctrl_bytes);
  server_options.cache_bytes = std::max(ctrl_bytes, both_bytes - ctrl_bytes);
  serve::Server server(Options{}, server_options);
  EXPECT_NE(server.process_line(R"({"cmd":"stats","id":"s"})")
                .find("\"cache_evictions\":0"),
            std::string::npos);
  (void)server.process_line(R"({"id":"a","benchmark":"ctrl"})");
  (void)server.process_line(R"({"id":"b","benchmark":"dec"})");
  EXPECT_EQ(server.snapshot().cache_evictions, 1u);
  EXPECT_NE(server.process_line(R"({"cmd":"stats","id":"s"})")
                .find("\"cache_evictions\":1"),
            std::string::npos);
}

TEST(ServerTest, ProcessLineReportsErrors) {
  serve::ServerOptions server_options;
  server_options.stdio = false;
  serve::Server server(Options{}, server_options);
  const auto bad = server.process_line("garbage");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(bad.find("bad-request"), std::string::npos);

  const auto missing =
      server.process_line(R"({"id":"r","benchmark":"no-such-circuit"})");
  EXPECT_NE(missing.find("\"ok\":false"), std::string::npos);
}

TEST(ServerTest, ShutdownCommandFlagsTheDrain) {
  serve::ServerOptions server_options;
  server_options.stdio = false;
  serve::Server server(Options{}, server_options);
  EXPECT_FALSE(server.shutdown_requested());
  const auto response =
      server.process_line(R"({"cmd":"shutdown","id":"bye"})");
  EXPECT_NE(response.find("\"shutdown\":true"), std::string::npos);
  EXPECT_TRUE(server.shutdown_requested());
}

// ---- content index and input files ---------------------------------------

/// A file under the test temp dir, removed when the test ends.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "plim_" + std::to_string(::getpid()) +
              "_" + name) {}
  ~TempFile() { ::unlink(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  void write(const std::string& text) const {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << text;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

const std::string& ctrl_blif() {
  static const std::string text = io::to_blif(circuits::make_ctrl(), "ctrl");
  return text;
}

const std::string& dec_blif() {
  static const std::string text = io::to_blif(circuits::make_dec(), "dec");
  return text;
}

std::string compile_line(const std::string& id, const std::string& path) {
  return R"({"id":")" + id + R"(","blif":")" + path + R"("})";
}

/// The error code of a failed outcome's first diagnostic.
std::string first_code(const CompileOutcome& outcome) {
  return outcome.diagnostics.empty() ? "" : outcome.diagnostics[0].code;
}

TEST(ContentIndexTest, SameBytesAtASecondPathAreAContentHit) {
  serve::ServerOptions server_options;
  server_options.stdio = false;
  serve::Server server(Options{}, server_options);
  const TempFile a("same_a.blif");
  const TempFile b("same_b.blif");
  a.write(ctrl_blif());
  b.write(ctrl_blif());

  const auto miss = server.process_line(compile_line("1", a.path()));
  const auto hit = server.process_line(compile_line("2", b.path()));
  EXPECT_NE(miss.find("\"cache\":\"miss\""), std::string::npos) << miss;
  EXPECT_NE(hit.find("\"cache\":\"hit\""), std::string::npos) << hit;
  EXPECT_EQ(server.cache().stats().content_hits, 1u);

  // The hit reports under its own path and is otherwise the miss's report.
  auto expected = report_part(miss);
  const auto at = expected.find(a.path());
  ASSERT_NE(at, std::string::npos);
  expected.replace(at, a.path().size(), b.path());
  EXPECT_EQ(report_part(hit), expected);
  EXPECT_NE(server.process_line(R"({"cmd":"stats","id":"s"})")
                .find("\"content_hits\":1"),
            std::string::npos);
}

TEST(ContentIndexTest, OverwrittenFileMissesAndRestoredBytesHit) {
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  const TempFile file("overwritten.blif");
  const auto request = CompileRequest::from_blif(file.path());

  file.write(ctrl_blif());
  const auto ctrl = driver.run_cached(request, cache);
  ASSERT_TRUE(ctrl.outcome->ok()) << ctrl.outcome->error_summary();
  file.write(dec_blif());
  const auto dec = driver.run_cached(request, cache);
  ASSERT_TRUE(dec.outcome->ok()) << dec.outcome->error_summary();
  EXPECT_FALSE(dec.cache_hit);
  EXPECT_EQ(dec.outcome->stats.initial_gates,
            circuits::make_dec().num_gates());
  EXPECT_NE(dec.outcome->stats.initial_gates,
            ctrl.outcome->stats.initial_gates);

  file.write(ctrl_blif());
  const auto restored = driver.run_cached(request, cache);
  EXPECT_TRUE(restored.cache_hit);
  EXPECT_EQ(restored.outcome.get(), ctrl.outcome.get());
  EXPECT_EQ(cache.stats().content_hits, 1u);
}

TEST(ContentIndexTest, CommentOnlyEditHitsStructurallyThenByContent) {
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  const TempFile file("commented.blif");
  const auto request = CompileRequest::from_blif(file.path());
  file.write(ctrl_blif());
  EXPECT_FALSE(driver.run_cached(request, cache).cache_hit);

  file.write("# an edited comment\n" + ctrl_blif());
  EXPECT_TRUE(driver.run_cached(request, cache).cache_hit);
  EXPECT_EQ(cache.stats().content_hits, 0u);  // found by structure
  EXPECT_TRUE(driver.run_cached(request, cache).cache_hit);
  EXPECT_EQ(cache.stats().content_hits, 1u);  // now by content
  EXPECT_EQ(cache.stats().aliases, 2u);
}

TEST(ContentIndexTest, EvictionDropsTheEntrysAliases) {
  const Driver driver{Options{}};
  const TempFile ctrl("evicted_ctrl.blif");
  const TempFile dec("evicted_dec.blif");
  ctrl.write(ctrl_blif());
  dec.write(dec_blif());
  const auto ctrl_bytes = serve::CompileCache::approx_bytes(
      driver.run(CompileRequest::from_blif(ctrl.path())));
  const auto dec_bytes = serve::CompileCache::approx_bytes(
      driver.run(CompileRequest::from_blif(dec.path())));
  serve::CompileCache cache(std::max(ctrl_bytes, dec_bytes));  // one entry

  (void)driver.run_cached(CompileRequest::from_blif(ctrl.path()), cache);
  EXPECT_EQ(cache.stats().aliases, 1u);
  (void)driver.run_cached(CompileRequest::from_blif(dec.path()), cache);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().aliases, 1u);  // dec's; ctrl's died with it
  EXPECT_FALSE(
      driver.run_cached(CompileRequest::from_blif(ctrl.path()), cache)
          .cache_hit);
  EXPECT_EQ(cache.stats().content_hits, 0u);
}

TEST(ContentIndexTest, AFifthByteFormDropsTheOldestAlias) {
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  std::vector<std::unique_ptr<TempFile>> forms;
  for (int k = 0; k < 5; ++k) {
    forms.push_back(
        std::make_unique<TempFile>("form" + std::to_string(k) + ".blif"));
    forms.back()->write("# form " + std::to_string(k) + "\n" + ctrl_blif());
    (void)driver.run_cached(CompileRequest::from_blif(forms.back()->path()),
                            cache);
  }
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().aliases, serve::CompileCache::kMaxAliases);
  EXPECT_EQ(cache.stats().content_hits, 0u);

  // Form 0 was the oldest alias: it hits through the structure again.
  EXPECT_TRUE(
      driver.run_cached(CompileRequest::from_blif(forms[0]->path()), cache)
          .cache_hit);
  EXPECT_EQ(cache.stats().content_hits, 0u);
  EXPECT_TRUE(
      driver.run_cached(CompileRequest::from_blif(forms[4]->path()), cache)
          .cache_hit);
  EXPECT_EQ(cache.stats().content_hits, 1u);
  EXPECT_EQ(cache.stats().aliases, serve::CompileCache::kMaxAliases);
}

TEST(ContentIndexTest, ASecondNamedBenchmarkRequestIsAContentHit) {
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  const auto request = CompileRequest::from_benchmark("ctrl");
  EXPECT_FALSE(driver.run_cached(request, cache).cache_hit);
  EXPECT_TRUE(driver.run_cached(request, cache).cache_hit);
  EXPECT_EQ(cache.stats().content_hits, 1u);
  // The same circuit in memory still shares the entry, by structure.
  EXPECT_TRUE(driver
                  .run_cached(CompileRequest::from_mig(
                                  circuits::build_benchmark("ctrl"), "in-memory"),
                              cache)
                  .cache_hit);
  EXPECT_EQ(cache.stats().content_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ContentIndexTest, ZeroBudgetRecordsNoAlias) {
  const Driver driver{Options{}};
  serve::CompileCache cache(0);
  const auto request = CompileRequest::from_benchmark("ctrl");
  EXPECT_FALSE(driver.run_cached(request, cache).cache_hit);
  EXPECT_FALSE(driver.run_cached(request, cache).cache_hit);
  EXPECT_EQ(cache.stats().aliases, 0u);
  EXPECT_EQ(cache.stats().content_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ContentIndexTest, ConcurrentRequestsForANewFileGetIdenticalReports) {
  Options options;
  options.banks = 2;
  serve::ServerOptions server_options;
  server_options.stdio = false;
  serve::Server server(options, server_options);
  const TempFile file("concurrent.blif");
  file.write(ctrl_blif());
  constexpr int kThreads = 4;
  std::vector<std::string> reports(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      reports[t] = report_part(
          server.process_line(compile_line(std::to_string(t), file.path())));
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  ASSERT_FALSE(reports[0].empty());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(reports[t], reports[0]) << "thread " << t;
  }
  const auto stats = server.cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, std::uint64_t{kThreads});
}

TEST(InputFileTest, NonRegularFilesAreRefusedUnread) {
  const TempFile fifo("input.fifo");
  ASSERT_EQ(::mkfifo(fifo.path().c_str(), 0600), 0);
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  const std::vector<std::string> paths = {fifo.path(), "/dev/zero",
                                          ::testing::TempDir()};
  for (const auto& path : paths) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcome = driver.run(CompileRequest::from_blif(path));
    const auto cached =
        driver.run_cached(CompileRequest::from_blif(path), cache);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << path;
    EXPECT_EQ(first_code(outcome), "input-not-regular") << path;
    EXPECT_EQ(first_code(*cached.outcome), "input-not-regular") << path;
  }
}

TEST(InputFileTest, AFileOverTheCapIsRefusedUnread) {
  // Sparse: the size is there, the blocks are not, and nothing reads it.
  const TempFile big("oversized.blif");
  const int fd = ::open(big.path().c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, (off_t{64} << 20) + 1), 0);
  ::close(fd);
  const auto outcome =
      Driver{Options{}}.run(CompileRequest::from_blif(big.path()));
  EXPECT_EQ(first_code(outcome), "input-too-large");
}

TEST(InputFileTest, APathWithANulByteIsRefused) {
  serve::ServerOptions server_options;
  server_options.stdio = false;
  serve::Server server(Options{}, server_options);
  const TempFile ok("ok.blif");
  ok.write(ctrl_blif());
  EXPECT_NE(server.process_line(compile_line("ok", ok.path()))
                .find("\"ok\":true"),
            std::string::npos);
  // The OS would open the prefix: ok.blif, which compiles.
  const auto refused =
      server.process_line(compile_line("nul", ok.path() + "\\u0000x"));
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("input-open-failed"), std::string::npos) << refused;
}

/// A client of the Unix socket at `path`: connect() retried while the
/// listener is not up yet; -1 when it never comes up. Reads time out
/// after 10 s, so a reply that never comes fails a test instead of
/// hanging it.
int connect_unix(const std::string& path) {
  for (int retry = 0; retry < 500; ++retry) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof addr) == 0) {
      const struct timeval timeout = {10, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends one request line on `fd` and returns the reply line ("" on a
/// closed connection).
std::string exchange(int fd, const std::string& line) {
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    return {};
  }
  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    const auto n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      break;
    }
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  return reply;
}

std::string ping_over(int fd) {
  return exchange(fd, "{\"cmd\":\"ping\",\"id\":\"c\"}\n");
}

const std::string kPong = "{\"id\":\"c\",\"ok\":true,\"pong\":true}\n";

/// A worker count past ServerOptions::kMaxWorkers (say, a wrapped "-1")
/// is clamped before any thread starts, and 0 still means one worker.
/// The server is never started: only the clamped option is read.
TEST(ServerTest, WorkerCountIsClamped) {
  serve::ServerOptions server_options;
  server_options.stdio = false;
  server_options.workers = 4294967295u;
  EXPECT_EQ(serve::Server(Options{}, server_options).snapshot().workers,
            serve::ServerOptions::kMaxWorkers);
  server_options.workers = 0;
  EXPECT_EQ(serve::Server(Options{}, server_options).snapshot().workers, 1u);
}

/// Unix-socket clients that connect, ping and hang up one after another:
/// each is answered, the acceptor joins the readers of closed
/// connections as new clients arrive, and the drain still exits 0.
TEST(ServerTest, SocketClientsComeAndGo) {
  serve::ServerOptions server_options;
  server_options.workers = 1;
  server_options.stdio = false;
  server_options.unix_socket = ::testing::TempDir() + "plim_churn_" +
                               std::to_string(::getpid()) + ".sock";
  serve::Server server(Options{}, server_options);
  int rc = -1;
  std::thread daemon([&] { rc = server.serve(); });
  for (int client = 0; client < 20; ++client) {
    const int fd = connect_unix(server_options.unix_socket);
    if (fd < 0) {
      ADD_FAILURE() << "cannot connect to " << server_options.unix_socket;
      break;
    }
    EXPECT_EQ(ping_over(fd), kPong) << "client " << client;
    ::close(fd);
  }
  server.request_shutdown();
  daemon.join();
  EXPECT_EQ(rc, 0);
}

/// A client of 127.0.0.1:`port`, with the same 10 s read timeout as
/// connect_unix(); -1 when the connection is refused.
int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const struct timeval timeout = {10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

/// The loopback TCP listener (plimc --listen 0): the OS picks the port,
/// bound_tcp_port() reports it, a client there gets a pong and a
/// compile, and the drain empties the queue and exits 0.
TEST(ServerTest, TcpListenerServesOnTheBoundPort) {
  serve::ServerOptions server_options;
  server_options.workers = 1;
  server_options.stdio = false;
  server_options.tcp_port = 0;
  serve::Server server(Options{}, server_options);
  EXPECT_EQ(server.bound_tcp_port(), -1);
  int rc = -1;
  std::thread daemon([&] { rc = server.serve(); });
  for (int retry = 0; retry < 500 && server.bound_tcp_port() < 0; ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const int port = server.bound_tcp_port();
  EXPECT_GT(port, 0);
  const int fd = port > 0 ? connect_tcp(port) : -1;
  EXPECT_GE(fd, 0) << "cannot connect to 127.0.0.1:" << port;
  if (fd >= 0) {
    EXPECT_EQ(ping_over(fd), kPong);
    const auto reply =
        exchange(fd, "{\"id\":\"t\",\"benchmark\":\"ctrl\"}\n");
    EXPECT_NE(reply.find("\"id\":\"t\",\"ok\":true"), std::string::npos)
        << reply;
    EXPECT_FALSE(report_part(reply).empty()) << reply;
    ::close(fd);
  }
  server.request_shutdown();
  daemon.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(server.snapshot().requests, fd >= 0 ? 1u : 0u);
  EXPECT_EQ(server.snapshot().queue_depth, 0u);
}

/// 64 idle clients fill the connection cap: the 65th gets one
/// too-many-connections line and is hung up on, and once one of the 64
/// closes, the next client is served again.
TEST(ServerTest, CapsConcurrentConnections) {
  serve::ServerOptions server_options;
  server_options.workers = 1;
  server_options.stdio = false;
  server_options.unix_socket = ::testing::TempDir() + "plim_cap_" +
                               std::to_string(::getpid()) + ".sock";
  serve::Server server(Options{}, server_options);
  int rc = -1;
  std::thread daemon([&] { rc = server.serve(); });
  std::vector<int> idle;
  for (int client = 0; client < 64; ++client) {
    const int fd = connect_unix(server_options.unix_socket);
    if (fd < 0) {
      ADD_FAILURE() << "cannot connect to " << server_options.unix_socket;
      break;
    }
    idle.push_back(fd);
    EXPECT_EQ(ping_over(fd), kPong) << "client " << client;
  }
  const int extra = connect_unix(server_options.unix_socket);
  EXPECT_GE(extra, 0);
  if (extra >= 0) {
    std::string refused;
    char chunk[256];
    for (auto n = ::read(extra, chunk, sizeof chunk); n > 0;
         n = ::read(extra, chunk, sizeof chunk)) {
      refused.append(chunk, static_cast<std::size_t>(n));  // through EOF
    }
    EXPECT_NE(refused.find("\"code\":\"too-many-connections\""),
              std::string::npos)
        << refused;
    EXPECT_EQ(std::count(refused.begin(), refused.end(), '\n'), 1);
    ::close(extra);
  }
  if (!idle.empty()) {
    ::close(idle.back());
    idle.pop_back();
  }
  // The closed client's reader finishes within a poll interval; retry
  // until the acceptor has seen it go.
  std::string reply;
  for (int attempt = 0; attempt < 20 && reply != kPong; ++attempt) {
    const int fd = connect_unix(server_options.unix_socket);
    reply = fd >= 0 ? ping_over(fd) : "";
    if (fd >= 0) {
      ::close(fd);
    }
    if (reply != kPong) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_EQ(reply, kPong);
  for (const int fd : idle) {
    ::close(fd);
  }
  server.request_shutdown();
  daemon.join();
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace plim
