/// plimc — the PLiM compiler as a command-line tool, a thin shell over
/// the plim::Driver facade.
///
/// Reads a combinational BLIF netlist (or a named EPFL-equivalent
/// benchmark), runs the DAC'16 pipeline (MIG rewriting + smart
/// compilation) and writes the RM3 program in the paper's listing syntax.
/// With --batch it compiles a whole manifest of requests — optionally
/// across a thread pool — and emits one JSON stats report per request.
///
/// Usage:
///   plimc --blif <file.blif> [options]
///   plimc --benchmark <name> [options]
///   plimc --batch <manifest> [--threads N] [options]
///   plimc --serve [--socket <path>] [--listen <port>] [--threads N]
///                 [--cache-mb N] [options]
/// Options:
///   -o <file>        write the program there (default: stdout)
///   --effort N       maximum rewriting cycles; stops early at a fixed
///                    point (default 4, 0 disables)
///   --naive          index-order candidates (Table-1 naïve column)
///   --alloc fifo|lifo|fresh
///   --cap N          RRAM capacity bound (fails if infeasible)
///   --degrade        graceful degradation under --cap pressure: climb
///                    the Driver retry ladder (recompute-on-evict →
///                    aggressive eviction) instead of failing; a
///                    degraded success warns on stderr and still exits 0
///   --banks N        schedule onto N parallel PLiM banks and emit the
///                    multi-bank listing instead of the serial one
///   --bus-width K    bound the inter-bank bus to K cross-bank copies
///                    per step (default unbounded)
///   --refine-passes N  KL refinement passes over the cluster→bank
///                    assignment (default 20, 0 disables)
///   --execution M    lockstep | decoupled (see sched::ExecutionModel):
///                    the cycle figures --stats reports, and what the
///                    scheduler optimizes — decoupled schedules the
///                    event-driven makespan, lockstep ones the step count
///   --batch <file>   compile every request of the manifest (one per
///                    line: "blif <path>", "benchmark <name>", or a bare
///                    benchmark name; '#' comments). Implies stats-only
///                    output: a JSON array of StatsReports with timing
///                    normalized, so runs are byte-identical across
///                    --threads values. Per-request wall-clock and an
///                    end-of-batch latency summary (total, p50/p99) go
///                    to stderr, where they cannot perturb that
///                    determinism contract.
///   --threads N      worker threads for --batch / --serve (default 1 for
///                    --batch, 4 for --serve)
///   --serve          run as a persistent compile daemon: JSON-lines
///                    requests on stdin (responses on stdout) and on any
///                    socket from --socket/--listen, compiled by a worker
///                    pool behind a compiled-program cache (see
///                    README "Server mode" for the protocol). The option
///                    flags above fix the daemon's compile options, like
///                    they fix a batch's. SIGINT/SIGTERM (or stdin EOF,
///                    or {"cmd":"shutdown"}) drains gracefully: accepted
///                    requests are answered, --trace/--metrics flushed,
///                    exit 0. A second signal aborts immediately.
///   --socket <path>  (with --serve) also listen on this Unix socket
///   --listen <port>  (with --serve) also listen on 127.0.0.1:<port>
///                    (0 = OS-assigned; the bound port is announced on
///                    stderr)
///   --cache-mb N     compiled-program cache budget in MiB for --serve
///                    and --batch (default 256; 0 disables). Batch
///                    manifests with duplicate (circuit, options) pairs
///                    compile once; hit counts go to stderr and the
///                    stdout JSON stays byte-identical.
///   --json <file|->  machine-readable stats report (StatsReport schema)
///                    to a file or stdout; "--json -" without -o
///                    suppresses the program listing so the JSON block
///                    owns stdout
///   --trace <file>   capture a Chrome trace-event JSON of the run (one
///                    span per pipeline phase per request; per-bank
///                    cycle timelines under --execution decoupled) —
///                    load it in Perfetto or chrome://tracing
///   --metrics        print the metrics-registry summary (counters,
///                    gauges, histograms) to stderr after the run
///   --no-verify      skip the end-to-end machine verification
///   --stats          print statistics to stderr
///
/// Numeric arguments must be whole non-negative decimal numbers that fit
/// their flag ("-1", "3x" and "+2" are rejected, not wrapped or
/// truncated); --listen takes at most 65535.
///
/// Exit codes: 0 success, 1 request failed (I/O, compilation,
/// verification, an input name no listing can carry), 2 usage or
/// contradictory options (an unknown argument or a malformed value is
/// named on stderr before the usage block; contradictory options are
/// each rejected with a diagnostic from plim::Options::validate()).
/// Warnings — validation warnings and run-produced ones like
/// rram-cap-degraded — go to stderr and never change the exit code; only
/// errors exit non-zero.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/text.hpp"
#include "driver/driver.hpp"
#include "sched/text.hpp"
#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace {

int usage() {
  std::cerr << "usage: plimc (--blif <file> | --benchmark <name> | "
               "--batch <manifest> | --serve)\n"
               "             [-o <file>] [--effort N] [--naive] "
               "[--alloc fifo|lifo|fresh] [--cap N]\n"
               "             [--degrade]\n"
               "             [--banks N] [--bus-width K] "
               "[--refine-passes N]\n"
               "             [--execution lockstep|decoupled]\n"
               "             [--threads N] [--json <file|->] "
               "[--trace <file>] [--metrics]\n"
               "             [--no-verify] [--stats]\n"
               "             [--serve [--socket <path>] [--listen <port>] "
               "[--cache-mb N]]\n"
               "       N, K and <port> are whole non-negative decimal "
               "numbers\n";
  return 2;
}

/// Names what was wrong with the command line, then prints the usage.
int usage_error(const std::string& why) {
  std::cerr << "plimc: " << why << '\n';
  return usage();
}

/// The serving daemon behind the signal handlers. The first SIGINT or
/// SIGTERM flags the graceful drain (one atomic store — async-signal
/// safe); a second signal means "now", so it hard-aborts.
plim::serve::Server* g_server = nullptr;
std::atomic<int> g_signals_seen{0};

extern "C" void on_shutdown_signal(int /*signo*/) {
  if (g_signals_seen.fetch_add(1, std::memory_order_acq_rel) == 0 &&
      g_server != nullptr) {
    g_server->request_shutdown();
    return;
  }
  _exit(130);
}

/// Nearest-rank percentile over an ascending sample (q in [0, 1]).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void print_stats(const plim::CompileOutcome& outcome) {
  const auto& stats = outcome.stats;
  std::cerr << "gates: " << stats.initial_gates << " -> " << stats.gates
            << " (multi-complement " << stats.rewrite.multi_complement_before
            << " -> " << stats.rewrite.multi_complement_after << "; "
            << stats.rewrite.cycles << " rewriting cycles, "
            << stats.rewrite.passes_rebuilt << " passes rebuilt)\n"
            << "instructions: " << stats.compile.num_instructions
            << ", rrams: " << stats.compile.num_rrams << " (peak live "
            << stats.compile.peak_live_rrams << ")\n";
  if (!stats.schedule) {
    return;
  }
  const auto& s = *stats.schedule;
  std::cerr << "schedule: " << s.banks << " banks, " << s.steps << " steps, "
            << s.parallel_instructions << " instructions (" << s.transfers
            << " transfers, " << s.duplicates << " duplicated values), "
            << s.parallel_rrams << " rrams ("
            << (s.serial_rrams > 0 ? static_cast<double>(s.parallel_rrams) /
                                         s.serial_rrams
                                   : 1.0)
            << "x serial), utilization " << s.utilization
            << ", speedup " << s.speedup << "x (critical path "
            << s.critical_path << ", lower bound " << s.step_lower_bound
            << ")\n";
  if (s.refine_passes > 0) {
    std::cerr << "refinement: " << s.refine_passes << " passes, "
              << s.refine_moves_tried << " moves tried ("
              << s.refine_moves_screened << " screened, "
              << s.refine_full_evals << " exact re-schedules, "
              << s.refine_bounded << " of them bounded), "
              << s.refine_moves_kept << " kept, " << s.refine_steps_saved
              << " steps saved (" << s.schedule_ms << " ms scheduling)\n";
  }
  std::cerr << "schedule phases (ms): assign " << s.assign_ms << ", refine "
            << s.refine_ms << ", pack " << s.pack_ms << ", alloc "
            << s.alloc_ms << ", sync " << s.sync_ms << " (total "
            << s.schedule_ms << ")\n";
  if (s.bus_width > 0) {
    std::cerr << "bus: width " << s.bus_width << ", " << s.bus_stalls
              << " stalled bank-steps\n";
  }
  std::cerr << "cycles: "
            << (s.execution == plim::sched::ExecutionModel::decoupled
                    ? "decoupled"
                    : "lockstep")
            << " makespan " << s.makespan_cycles << " (lockstep "
            << s.lockstep_cycles << ", decoupled " << s.decoupled_cycles
            << ", lower bound " << s.makespan_lower_bound << ", "
            << s.sync_tokens << " sync tokens, decoupling speedup "
            << s.decoupled_speedup << "x)\n";
  std::cerr << "bank idle cycles:";
  for (const auto idle : s.bank_idle_cycles) {
    std::cerr << ' ' << idle;
  }
  std::cerr << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  std::string blif_path;
  std::string benchmark;
  std::string batch_path;
  std::string out_path;
  std::string json_path;
  std::string trace_path;
  unsigned threads = 1;
  bool threads_set = false;
  bool verify = true;
  bool stats = false;
  bool metrics = false;
  bool serve_mode = false;
  std::string socket_path;
  int listen_port = -1;
  std::size_t cache_mb = 256;
  plim::Options options;

  for (int i = 1; i < argc; ++i) {
    const auto arg = std::string(argv[i]);
    const char* value = nullptr;
    // The flag's argument; false (after naming the flag) when missing.
    const auto next = [&]() {
      value = i + 1 < argc ? argv[++i] : nullptr;
      if (value == nullptr) {
        std::cerr << "plimc: " << arg << " needs a value\n";
      }
      return value != nullptr;
    };
    // The flag's argument as a count in [0, max], named when malformed.
    std::uint64_t number = 0;
    const auto count = [&](std::uint64_t max) {
      if (!next()) {
        return false;
      }
      const auto parsed = plim::arch::parse_decimal(value, max);
      if (!parsed) {
        std::cerr << "plimc: " << arg << " needs a non-negative integer"
                  << (max < std::numeric_limits<std::uint32_t>::max()
                          ? " up to " + std::to_string(max)
                          : std::string{})
                  << ", got '" << value << "'\n";
        return false;
      }
      number = *parsed;
      return true;
    };
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    if (arg == "--blif" || arg == "--benchmark" || arg == "--batch" ||
        arg == "--socket" || arg == "-o" || arg == "--json" ||
        arg == "--trace") {
      if (!next()) {
        return usage();
      }
      auto& target = arg == "--blif"        ? blif_path
                     : arg == "--benchmark" ? benchmark
                     : arg == "--batch"     ? batch_path
                     : arg == "--socket"    ? socket_path
                     : arg == "-o"          ? out_path
                     : arg == "--json"      ? json_path
                                            : trace_path;
      target = value;
    } else if (arg == "--threads") {
      if (!count(std::numeric_limits<unsigned>::max())) {
        return usage();
      }
      threads = static_cast<unsigned>(number);
      threads_set = true;
    } else if (arg == "--serve") {
      serve_mode = true;
    } else if (arg == "--listen") {
      if (!count(65535)) {
        return usage();
      }
      listen_port = static_cast<int>(number);
    } else if (arg == "--cache-mb") {
      // The budget is held in bytes.
      if (!count(std::numeric_limits<std::size_t>::max() >> 20)) {
        return usage();
      }
      cache_mb = static_cast<std::size_t>(number);
    } else if (arg == "--effort") {
      if (!count(std::numeric_limits<unsigned>::max())) {
        return usage();
      }
      options.rewrite.effort = static_cast<unsigned>(number);
    } else if (arg == "--naive") {
      options.compile.smart_candidates = false;
    } else if (arg == "--alloc") {
      if (!next()) {
        return usage();
      }
      if (std::strcmp(value, "fifo") == 0) {
        options.compile.allocation = plim::core::AllocationPolicy::fifo;
      } else if (std::strcmp(value, "lifo") == 0) {
        options.compile.allocation = plim::core::AllocationPolicy::lifo;
      } else if (std::strcmp(value, "fresh") == 0) {
        options.compile.allocation = plim::core::AllocationPolicy::fresh;
      } else {
        return usage_error("--alloc needs fifo, lifo or fresh, got '" +
                           std::string(value) + "'");
      }
    } else if (arg == "--cap") {
      if (!count(kU32)) {
        return usage();
      }
      options.compile.rram_cap = static_cast<std::uint32_t>(number);
    } else if (arg == "--degrade") {
      options.compile.degradation.enabled = true;
    } else if (arg == "--banks") {
      if (!count(kU32)) {
        return usage();
      }
      options.banks = static_cast<std::uint32_t>(number);
    } else if (arg == "--bus-width") {
      if (!count(kU32)) {
        return usage();
      }
      options.schedule.cost.bus_width = static_cast<std::uint32_t>(number);
    } else if (arg == "--refine-passes") {
      if (!count(kU32)) {
        return usage();
      }
      options.schedule.refine_passes = static_cast<std::uint32_t>(number);
    } else if (arg == "--execution") {
      if (!next()) {
        return usage();
      }
      if (std::strcmp(value, "decoupled") == 0) {
        options.schedule.execution = plim::sched::ExecutionModel::decoupled;
      } else if (std::strcmp(value, "lockstep") == 0) {
        options.schedule.execution = plim::sched::ExecutionModel::lockstep;
      } else {
        return usage_error("--execution needs lockstep or decoupled, got '" +
                           std::string(value) + "'");
      }
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--stats") {
      stats = true;
    } else {
      return usage_error("unknown argument '" + arg + "'");
    }
  }
  options.verify.enabled = verify;
  options.trace.enabled = !trace_path.empty();
  if (metrics) {
    plim::util::MetricsRegistry::global().set_enabled(true);
  }

  const bool batch = !batch_path.empty();
  const int sources =
      (blif_path.empty() ? 0 : 1) + (benchmark.empty() ? 0 : 1);
  if (serve_mode) {
    if (batch || sources != 0) {
      std::cerr << "plimc: --serve takes requests over the protocol, not "
                   "--blif/--benchmark/--batch\n";
      return 2;
    }
    if (!out_path.empty() || stats || !json_path.empty()) {
      std::cerr << "plimc: -o, --stats and --json are not supported with "
                   "--serve (responses carry the reports)\n";
      return 2;
    }
  } else {
    if (!socket_path.empty() || listen_port >= 0) {
      std::cerr << "plimc: --socket/--listen require --serve\n";
      return 2;
    }
    if (batch ? sources != 0 : sources != 1) {
      return usage_error(
          "exactly one request source is needed: --blif, --benchmark or --batch");
    }
    if (threads_set && threads != 1 && !batch) {
      std::cerr << "plimc: --threads only applies to --batch/--serve runs\n";
      return 2;
    }
    if (batch && (!out_path.empty() || stats)) {
      std::cerr << "plimc: -o and --stats are not supported with --batch "
                   "(batch output is the JSON report stream)\n";
      return 2;
    }
  }

  // Contradictory option sets are rejected up front with the validator's
  // actionable diagnostics — no more silently inert flag combinations.
  const auto diags = options.validate();
  for (const auto& d : diags) {
    std::cerr << "plimc: " << plim::format(d) << '\n';
  }
  if (plim::has_errors(diags)) {
    return 2;
  }
  // Diagnostics the run reproduces verbatim (every outcome re-validates
  // the options) are deduplicated against this up-front print; warnings
  // the run itself produced (rram-cap-retry, rram-cap-degraded, …) are
  // news and do get printed — to stderr, without touching the exit code.
  std::vector<std::string> validation_codes;
  validation_codes.reserve(diags.size());
  for (const auto& d : diags) {
    validation_codes.push_back(d.code);
  }
  const auto print_outcome_diags = [&](const plim::CompileOutcome& outcome,
                                       const std::string& label) {
    for (const auto& d : outcome.diagnostics) {
      if (d.severity != plim::Diagnostic::Severity::error &&
          std::find(validation_codes.begin(), validation_codes.end(),
                    d.code) != validation_codes.end()) {
        continue;
      }
      std::cerr << "plimc: " << (label.empty() ? "" : label + ": ")
                << plim::format(d) << '\n';
    }
  };

  // ---- serve mode -----------------------------------------------------------
  if (serve_mode) {
    plim::serve::ServerOptions server_options;
    server_options.workers = threads_set ? std::max(threads, 1u) : 4u;
    server_options.cache_bytes = cache_mb << 20;
    server_options.stdio = true;
    server_options.unix_socket = socket_path;
    server_options.tcp_port = listen_port;
    plim::serve::Server server(std::move(options), server_options);
    // First SIGINT/SIGTERM → graceful drain; second → hard abort.
    g_server = &server;
    std::signal(SIGINT, on_shutdown_signal);
    std::signal(SIGTERM, on_shutdown_signal);
    const int rc = server.serve();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_server = nullptr;
    const auto snapshot = server.snapshot();
    std::cerr << "plimc: served " << snapshot.requests
              << " compile requests (cache hit rate " << snapshot.hit_rate
              << ", p50 " << snapshot.p50_ms << " ms, p99 "
              << snapshot.p99_ms << " ms)\n";
    if (metrics) {
      std::cerr << plim::util::MetricsRegistry::global().summary();
    }
    if (!trace_path.empty() &&
        !plim::util::Tracer::global().write_chrome_trace(trace_path)) {
      return 1;
    }
    return rc;
  }

  const plim::Driver driver(options);

  // ---- batch mode -----------------------------------------------------------
  if (batch) {
    std::vector<plim::CompileRequest> requests;
    try {
      requests = plim::read_manifest_file(batch_path);
    } catch (const std::exception& e) {
      std::cerr << "plimc: " << e.what() << '\n';
      return 2;
    }
    if (requests.empty()) {
      std::cerr << "plimc: manifest " << batch_path << " holds no requests\n";
      return 2;
    }
    // Repeated requests in the manifest (the same file bytes or
    // benchmark name) compile once: the cache serves repeats. Hit counts
    // are stderr news only — outcome content is identical either way,
    // so the stdout JSON stays byte-identical across thread counts and
    // cache states.
    plim::serve::CompileCache cache(cache_mb << 20);
    auto outcomes = driver.run_batch(requests, threads,
                                     cache_mb > 0 ? &cache : nullptr);
    if (cache_mb > 0) {
      const auto cache_stats = cache.stats();
      std::cerr << "plimc: batch cache: " << cache_stats.hits << " hits, "
                << cache_stats.misses << " misses\n";
    }

    bool all_ok = true;
    std::vector<double> latencies;
    latencies.reserve(outcomes.size());
    double batch_total_ms = 0.0;
    plim::util::JsonWriter json;
    json.begin_object();
    json.field("bench", "plimc_batch");
    json.begin_array("results");
    for (auto& outcome : outcomes) {
      print_outcome_diags(outcome, outcome.stats.benchmark);
      all_ok = all_ok && outcome.ok();
      // Per-request timing goes to stderr *before* normalization zeroes
      // it: stdout carries the determinism-diffed JSON, stderr the
      // compile-server-style latency report.
      const auto ms = outcome.stats.metrics.total_ms;
      latencies.push_back(ms);
      batch_total_ms += ms;
      std::cerr << "plimc: " << outcome.stats.benchmark << ": " << ms
                << " ms\n";
      // Wall-clock fields are zeroed so a threaded batch is
      // byte-identical to a serial one (CI diffs the two).
      outcome.stats.normalize_timing();
      json.begin_object();
      outcome.stats.write_json_fields(json);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::sort(latencies.begin(), latencies.end());
    std::cerr << "plimc: batch of " << outcomes.size() << " requests in "
              << batch_total_ms << " ms (p50 " << percentile(latencies, 0.50)
              << " ms, p99 " << percentile(latencies, 0.99) << " ms)\n";
    if (!plim::util::emit_json(json, json_path.empty() ? "-" : json_path,
                               "plimc")) {
      return 1;
    }
    if (metrics) {
      std::cerr << plim::util::MetricsRegistry::global().summary();
    }
    if (!trace_path.empty() &&
        !plim::util::Tracer::global().write_chrome_trace(trace_path)) {
      return 1;
    }
    return all_ok ? 0 : 1;
  }

  // ---- single-request mode --------------------------------------------------
  const auto request = !blif_path.empty()
                           ? plim::CompileRequest::from_blif(blif_path)
                           : plim::CompileRequest::from_benchmark(benchmark);
  const auto outcome = driver.run(request);
  print_outcome_diags(outcome, "");
  if (!outcome.ok()) {
    return 1;
  }

  if (stats) {
    print_stats(outcome);
  }
  if (metrics) {
    std::cerr << plim::util::MetricsRegistry::global().summary();
  }
  if (!trace_path.empty() &&
      !plim::util::Tracer::global().write_chrome_trace(trace_path)) {
    return 1;
  }

  if (!json_path.empty()) {
    plim::util::JsonWriter json;
    json.begin_object();
    outcome.stats.write_json_fields(json);
    json.end_object();
    if (!plim::util::emit_json(json, json_path, "plimc")) {
      return 1;
    }
  }

  // "--json -" without -o hands stdout to the JSON block and suppresses
  // the program listing (stats-only mode for pipelines / CI).
  if (json_path == "-" && out_path.empty()) {
    return 0;
  }
  std::string text;
  try {
    text = outcome.parallel ? plim::sched::to_text(*outcome.parallel)
                            : plim::arch::to_text(outcome.program);
  } catch (const std::invalid_argument& e) {
    // An input name the listing syntax cannot carry (arch::write_inputs).
    std::cerr << "plimc: " << e.what() << '\n';
    return 1;
  }
  if (out_path.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "plimc: cannot write " << out_path << '\n';
      return 1;
    }
    out << text;
  }
  return 0;
}
