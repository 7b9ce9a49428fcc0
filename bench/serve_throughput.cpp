/// Compile-server throughput bench: prices the compiled-program cache
/// on the EPFL smoke set (the six small control circuits CI
/// already batches) by firing every request twice through the exact
/// serving path (serve::Server::process_line — parse, cache probe,
/// compile-or-hit, response rendering) from a pool of client threads.
///
///   cold  every (circuit, options) pair for the first time: all misses,
///         full pipeline per request;
///   warm  the same requests again, repeated: all hits — one digest of
///         the benchmark name, one map probe, one response render.
///
/// Reports per-pass p50/p99 latency, warm requests/s, the cache hit
/// rate and the cold/warm p50 ratio — the headline (a warm hit must be
/// at least 10x below a cold compile). Each benchmark's
/// StatsReport (timing normalized) is emitted in the shared plimc
/// --json schema, so tools/diff_bench.py gates schedule quality on this
/// trajectory like on BENCH_sched.json.
///
/// Usage: serve_throughput [--threads N] [--reps N] [--json <file|->]
///                         [--smoke]
///
/// --smoke shrinks the warm pass and exits non-zero unless the warm
/// pass hit every request in the cache and the cold p50 is at least
/// 10x the warm p50 — the CI gate that keeps the cache from silently
/// degenerating into a recompile.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "arch/text.hpp"
#include "circuits/epfl.hpp"
#include "driver/driver.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kSmokeSet[] = {"ctrl", "router", "cavlc",
                                     "int2float", "dec", "priority"};
constexpr double kSmokeSpeedupBar = 10.0;

std::string fixed(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) {
    return 0.0;
  }
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sample.size() - 1) + 0.5);
  return sample[std::min(rank, sample.size() - 1)];
}

/// Fires `lines` at the server from `threads` clients; returns the
/// per-request latencies (ms) and the pass wall-clock (ms).
struct PassResult {
  std::vector<double> latencies_ms;
  double wall_ms = 0.0;
};

PassResult fire(plim::serve::Server& server,
                const std::vector<std::string>& lines, unsigned threads) {
  PassResult result;
  result.latencies_ms.resize(lines.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> all_ok{true};
  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&]() {
      for (;;) {
        const auto i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= lines.size()) {
          return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        const auto response = server.process_line(lines[i]);
        const auto t1 = std::chrono::steady_clock::now();
        result.latencies_ms[i] =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (response.find("\"ok\":true") == std::string::npos) {
          all_ok.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  if (!all_ok.load()) {
    result.latencies_ms.clear();  // a failed request voids the pass
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 4;
  unsigned reps = 20;
  std::string json_path;
  bool smoke = false;
  // Reads the value after flag argv[i] as a whole decimal number in
  // [min, max] into `out` and steps past it; false after naming the flag.
  const auto number = [&](int& i, std::uint64_t min, std::uint64_t max,
                          unsigned& out) {
    const auto value = plim::arch::parse_decimal(argv[i + 1], max);
    if (!value || *value < min) {
      std::cerr << "serve_throughput: " << argv[i]
                << " needs a whole decimal number in " << min << ".." << max
                << ", got '" << argv[i + 1] << "'\n";
      return false;
    }
    out = static_cast<unsigned>(*value);
    ++i;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // One client thread per server worker.
      if (!number(i, 1, plim::serve::ServerOptions::kMaxWorkers, threads)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      if (!number(i, 1, std::numeric_limits<unsigned>::max(), reps)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: serve_throughput [--threads N] [--reps N] "
                   "[--json <file|->] [--smoke]\n";
      return 2;
    }
  }
  if (smoke) {
    reps = std::min(reps, 10u);
  }

  // The daemon's compile configuration: the 4-bank config BENCH_sched.json
  // tracks, verification off (bench, not test).
  plim::Options options;
  options.banks = 4;
  options.rewrite.effort = 2;
  options.verify.enabled = false;

  plim::serve::ServerOptions server_options;
  server_options.workers = threads;
  server_options.stdio = false;
  plim::serve::Server server(options, server_options);

  std::vector<std::string> cold_lines;
  for (const auto* name : kSmokeSet) {
    cold_lines.push_back(std::string(R"({"id":")") + name +
                         R"(","benchmark":")" + name + R"("})");
  }
  std::vector<std::string> warm_lines;
  for (unsigned r = 0; r < reps; ++r) {
    for (const auto& line : cold_lines) {
      warm_lines.push_back(line);
    }
  }

  // Cold pass serially: every request is a miss compiled exactly once,
  // so the cold p50 prices one full pipeline run, not a race between
  // duplicate compiles of the same circuit.
  const auto cold = fire(server, cold_lines, 1);
  if (cold.latencies_ms.empty()) {
    std::cerr << "serve_throughput: a cold request failed\n";
    return 1;
  }
  const auto after_cold = server.snapshot();
  const auto warm = fire(server, warm_lines, threads);
  if (warm.latencies_ms.empty()) {
    std::cerr << "serve_throughput: a warm request failed\n";
    return 1;
  }
  const auto after_warm = server.snapshot();

  const double cold_p50 = percentile(cold.latencies_ms, 0.50);
  const double cold_p99 = percentile(cold.latencies_ms, 0.99);
  const double warm_p50 = percentile(warm.latencies_ms, 0.50);
  const double warm_p99 = percentile(warm.latencies_ms, 0.99);
  const double warm_rps =
      warm.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(warm.latencies_ms.size()) /
                warm.wall_ms
          : 0.0;
  const auto warm_hits = after_warm.cache_hits - after_cold.cache_hits;
  const auto warm_misses = after_warm.cache_misses - after_cold.cache_misses;
  const double warm_hit_rate =
      warm_hits + warm_misses > 0
          ? static_cast<double>(warm_hits) /
                static_cast<double>(warm_hits + warm_misses)
          : 0.0;
  const double speedup = warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0;

  plim::util::TablePrinter table(
      {"Pass", "Requests", "p50 ms", "p99 ms", "Requests/s"});
  table.add_row({"cold", std::to_string(cold.latencies_ms.size()),
                 fixed(cold_p50, 3), fixed(cold_p99, 3), "-"});
  table.add_row({"warm", std::to_string(warm.latencies_ms.size()),
                 fixed(warm_p50, 3), fixed(warm_p99, 3),
                 fixed(warm_rps, 0)});
  table.print(std::cout);
  std::cout << "\nwarm hit rate " << fixed(100.0 * warm_hit_rate, 1)
            << "%, cold/warm p50 " << fixed(speedup, 1) << "x\n";

  plim::util::JsonWriter json;
  json.begin_object();
  json.field("bench", "serve_throughput");
  json.field("smoke", smoke);
  json.field("threads", std::uint64_t{threads});
  json.field("reps", std::uint64_t{reps});
  json.field("cold_requests", std::uint64_t{cold.latencies_ms.size()});
  json.field("warm_requests", std::uint64_t{warm.latencies_ms.size()});
  json.field("cold_p50_ms", cold_p50);
  json.field("cold_p99_ms", cold_p99);
  json.field("warm_p50_ms", warm_p50);
  json.field("warm_p99_ms", warm_p99);
  json.field("warm_requests_per_s", warm_rps);
  json.field("warm_hit_rate", warm_hit_rate);
  json.field("cold_over_warm_p50", speedup);

  // One StatsReport per benchmark (timing normalized) in the shared
  // schema, so diff_bench gates the schedule quality this daemon serves
  // exactly like a batch's.
  json.begin_array("benchmarks");
  const plim::Driver driver(options);
  for (const auto* name : kSmokeSet) {
    auto outcome = driver.run(plim::CompileRequest::from_benchmark(name));
    if (!outcome.ok()) {
      std::cerr << "serve_throughput: " << name << ": "
                << outcome.error_summary() << '\n';
      return 1;
    }
    outcome.stats.normalize_timing();
    json.begin_object();
    json.field("benchmark", name);
    json.begin_object("serve");
    outcome.stats.write_json_fields(json);
    json.end_object();
    json.end_object();
  }
  json.end_array();

  const bool gate_ok = warm_hit_rate >= 1.0 && speedup >= kSmokeSpeedupBar;
  json.field("smoke_gate_ok", gate_ok);
  json.end_object();

  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << json.str() << '\n';
    } else {
      std::ofstream out(json_path);
      out << json.str() << '\n';
      std::cout << "wrote " << json_path << '\n';
    }
  }

  if (smoke && !gate_ok) {
    std::cerr << "smoke gate FAILED: warm pass must hit the cache on "
                 "every request (got "
              << fixed(100.0 * warm_hit_rate, 1)
              << "%) and the cold p50 must be at least "
              << fixed(kSmokeSpeedupBar, 0) << "x the warm p50 (got "
              << fixed(speedup, 1) << "x)\n";
    return 1;
  }
  return 0;
}
