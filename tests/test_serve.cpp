#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "circuits/epfl.hpp"
#include "driver/driver.hpp"
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
      {"rewrite.size_rules",
       [](Options& o) { o.rewrite.size_rules = false; }},
      {"rewrite.reshaping",
       [](Options& o) { o.rewrite.reshaping = false; }},
      {"rewrite.inverter_rules",
       [](Options& o) { o.rewrite.inverter_rules = false; }},
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
      {"compile.degradation.max_level",
       [](Options& o) { o.compile.degradation.max_level = 1; }},
      {"compile.degradation.rewrite_boost",
       [](Options& o) { o.compile.degradation.rewrite_boost = 5; }},
      {"schedule.cost.bus_width",
       [](Options& o) { o.schedule.cost.bus_width = 3; }},
      {"schedule.cost.transfer_instructions",
       [](Options& o) { o.schedule.cost.transfer_instructions = 4; }},
      {"schedule.cost.duplicate_max_instructions",
       [](Options& o) { o.schedule.cost.duplicate_max_instructions = 5; }},
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

  auto first = driver.run_cached(request, cache);
  ASSERT_TRUE(first.outcome.ok()) << first.outcome.error_summary();
  EXPECT_FALSE(first.cache_hit);

  auto second = driver.run_cached(request, cache);
  ASSERT_TRUE(second.outcome.ok());
  EXPECT_TRUE(second.cache_hit);

  auto fresh = driver.run(request);
  ASSERT_TRUE(fresh.ok());

  // Modulo wall-clock, a hit is the fresh compile: same report bytes,
  // same program, same schedule.
  first.outcome.stats.normalize_timing();
  second.outcome.stats.normalize_timing();
  fresh.stats.normalize_timing();
  EXPECT_EQ(second.outcome.stats.to_json(), fresh.stats.to_json());
  EXPECT_EQ(first.outcome.stats.to_json(), second.outcome.stats.to_json());
  EXPECT_EQ(second.outcome.program.num_instructions(),
            fresh.program.num_instructions());
  ASSERT_TRUE(second.outcome.parallel.has_value());
  ASSERT_TRUE(fresh.parallel.has_value());
  EXPECT_EQ(second.outcome.parallel->num_steps(), fresh.parallel->num_steps());
}

TEST(RunCachedTest, HitPatchesTheRequestLabel) {
  // Two labels, one structure: the second request hits the first's cache
  // line but still reports under its own name.
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  auto mig_a = circuits::make_ctrl();
  auto mig_b = circuits::make_ctrl();
  const auto first = driver.run_cached(
      CompileRequest::from_mig(std::move(mig_a), "first"), cache);
  const auto second = driver.run_cached(
      CompileRequest::from_mig(std::move(mig_b), "second"), cache);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.outcome.stats.benchmark, "first");
  EXPECT_EQ(second.outcome.stats.benchmark, "second");
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
  EXPECT_TRUE(banked_result.outcome.stats.schedule.has_value());
}

TEST(RunCachedTest, FailuresAreNotCached) {
  const Driver driver{Options{}};
  serve::CompileCache cache(std::size_t{64} << 20);
  const auto request = CompileRequest::from_blif("/nonexistent/x.blif");
  const auto first = driver.run_cached(request, cache);
  EXPECT_FALSE(first.outcome.ok());
  EXPECT_FALSE(first.cache_hit);
  const auto second = driver.run_cached(request, cache);
  EXPECT_FALSE(second.outcome.ok());
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

/// Sends one ping on `fd` and returns the reply line ("" on a closed
/// connection).
std::string ping_over(int fd) {
  const std::string ping = "{\"cmd\":\"ping\",\"id\":\"c\"}\n";
  if (::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(ping.size())) {
    return {};
  }
  std::string reply;
  char chunk[256];
  while (reply.find('\n') == std::string::npos) {
    const auto n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      break;
    }
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  return reply;
}

const std::string kPong = "{\"id\":\"c\",\"ok\":true,\"pong\":true}\n";

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
