#pragma once

// Shared pieces of the plim benchmark harness: workload table, seeded
// input generation, the result line, span recording and the independent
// output check. See perfbench/README.md for what each workload measures.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/program.hpp"
#include "driver/options.hpp"
#include "mig/mig.hpp"
#include "sched/parallel_program.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string plimc;     ///< daemon binary (serve workload)
  std::string work_dir;    ///< this run's inputs and sockets (removed at exit)
  std::string trace_path;  ///< where the traced run writes its spans
};

struct Workload {
  std::string name;
  std::vector<std::string> circuits;
  /// Shuffle variants generated per circuit (parallel to `circuits`).
  std::vector<unsigned> variants;
  std::uint32_t banks = 0;
  plim::sched::ExecutionModel execution = plim::sched::ExecutionModel::lockstep;
  std::uint32_t bus_width = 0;  ///< 0 = unbounded
  bool serve = false;

  [[nodiscard]] plim::Options options() const;
};

/// The named workload, or null.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Stream tags for derive_seed (circuit shuffles use the name's hash).
enum Stream : std::uint64_t { kOrderStream = 1, kZipfStream, kCheckStream };

/// splitmix64 of (seed, a, b): every seeded stream of the benchmark
/// (shuffles, request order, Zipf draws, check vectors) derives from it.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b = 0);

/// One generated request file and the network it was written from.
struct Input {
  std::string circuit;
  unsigned variant = 0;
  std::string path;       ///< BLIF file the compiler receives
  plim::mig::Mig network;  ///< the generated (shuffled) network
};

/// Builds the workload's shuffle variants of every circuit and writes each
/// as BLIF under `dir`. Inputs come out in a seeded order.
[[nodiscard]] std::vector<Input> generate_inputs(const Workload& w,
                                                 std::uint64_t seed,
                                                 const std::string& dir);

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& values);
/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb_self();

/// The result object printed as the last stdout line.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one failed output and prints why.
  void fail(const std::string& why);
  [[nodiscard]] std::string to_json() const;
};

/// In-memory span recorder of the traced run; written once, at exit.
/// Thread-safe: the serve clients record from their own threads.
class Spans {
 public:
  /// A fresh request id, unique within this recorder.
  std::uint64_t next_request();
  /// Opens a span; returns its id (the parent of spans opened under it).
  std::size_t open(std::string name, std::uint64_t request,
                   std::size_t parent);
  void close(std::size_t id);
  [[nodiscard]] double duration_ms(std::size_t id) const;
  /// Share of span `id` covered by its direct children.
  [[nodiscard]] double child_coverage(std::size_t id) const;
  /// Chrome trace-event JSON ("X" events, args carry parent + request;
  /// otherData records the workload and seed).
  [[nodiscard]] bool write(const std::string& path, const Args& args) const;

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

 private:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    std::size_t parent = kNoParent;
    std::size_t thread = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
  std::uint64_t requests_ = 0;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Spans& spans, std::string name, std::uint64_t request,
            std::size_t parent)
      : spans_(spans), id_(spans.open(std::move(name), request, parent)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  Spans& spans_;
  std::size_t id_;
};

/// Independent output check: runs `serial` (and `parallel`, lockstep and
/// optionally decoupled) on arch::Machine over seeded input vectors with
/// seeded initial memory and compares against mig simulation of the
/// generated network. Returns "" when every output matches, else why.
/// `serial_cycles` receives the serial program's machine cycles.
[[nodiscard]] std::string check_outputs(
    const plim::mig::Mig& generated, const plim::arch::Program& serial,
    const plim::sched::ParallelProgram* parallel, bool decoupled,
    std::uint64_t seed, std::uint64_t* serial_cycles = nullptr);

/// Traced run of the compile pipeline over `inputs`, layer by layer in
/// Driver::run_impl's order (read_blif, rewrite_for_plim, compile,
/// verify_program, schedule, validate, equivalent_to_serial), each call
/// in a span under its request's span. A mirror pass of Driver::run on the
/// same files must reproduce every program's figures. Adds the io, mig,
/// core, sched and driver per-layer metrics, serve.hash_ms and
/// trace.overhead_ratio to `result`.
void traced_pipeline(const Workload& w, const std::vector<Input>& inputs,
                     Spans& spans, Result& result);

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned kSetupReps = 3;

/// Workload runners; each fills `result` and prints per-circuit rows.
void run_compile_workload(const Workload& w, const Args& args,
                          Result& result);
void run_serve_workload(const Workload& w, const Args& args, Result& result);

}  // namespace perfbench
