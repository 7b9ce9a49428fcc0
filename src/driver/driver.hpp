#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/program.hpp"
#include "driver/diagnostic.hpp"
#include "driver/options.hpp"
#include "driver/request.hpp"
#include "driver/stats_report.hpp"
#include "sched/parallel_program.hpp"

namespace plim::serve {
class CompileCache;
}  // namespace plim::serve

namespace plim {

/// Everything one compilation produced. `ok()` gates the payload: when
/// false, `diagnostics` explains why and the programs are unspecified.
/// Warnings can accompany a successful outcome.
struct CompileOutcome {
  std::vector<Diagnostic> diagnostics;
  /// The serial RM3 program.
  arch::Program program;
  /// Multi-bank schedule of `program`; engaged when Options::banks > 0.
  std::optional<sched::ParallelProgram> parallel;
  /// Unified quality metrics (the JSON schema of `plimc --json`).
  StatsReport stats;

  [[nodiscard]] bool ok() const { return !has_errors(diagnostics); }
  /// Error messages joined with "; " (empty when ok()).
  [[nodiscard]] std::string error_summary() const {
    return plim::error_summary(diagnostics);
  }
};

/// The front door of the PLiM compiler: one request in, one outcome out.
///
///   plim::Options options;
///   options.banks = 4;
///   const plim::Driver driver(options);
///   const auto outcome =
///       driver.run(plim::CompileRequest::from_benchmark("adder"));
///   if (!outcome.ok()) { /* outcome.diagnostics */ }
///
/// `run()` is const, reentrant and thread-safe: the driver holds only
/// immutable options, every pipeline stage works on locals, and all
/// failures are captured as diagnostics instead of escaping exceptions.
/// `run_batch()` fans a worklist across a thread pool; results come back
/// in request order regardless of thread interleaving, and with
/// StatsReport::normalize_timing() a threaded batch is byte-identical to
/// a serial one.
class Driver {
 public:
  Driver() = default;
  explicit Driver(Options options) : options_(std::move(options)) {}

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Runs the full pipeline on one request: load (BLIF / named benchmark
  /// / in-memory MIG) → rewrite → compile → verify → schedule → verify
  /// schedule. Never throws for request- or option-level problems; those
  /// come back as error diagnostics in the outcome. Every phase is timed
  /// into StatsReport::metrics, and under Options::trace each phase also
  /// emits a span into util::Tracer (one "request" span per call, so
  /// run_batch traces show per-thread worklist occupancy). A BLIF
  /// request must name a regular file of at most 64 MiB: a FIFO,
  /// device, socket or directory fails with `input-not-regular` before
  /// any byte is read, and a larger file with `input-too-large`.
  [[nodiscard]] CompileOutcome run(const CompileRequest& request) const;

  /// run() through the compiled-program cache, one lookup per request
  /// under serve::request_key: a BLIF request keys by its file's bytes,
  /// a benchmark request by its name, an in-memory request by its
  /// network's structure and port names, each ⊕ the options. A miss
  /// runs run() on the bytes already read, so it is timed and diagnosed
  /// exactly like run(), and a successful outcome is inserted for the
  /// next caller. A request that cannot be keyed (contradictory options,
  /// an unreadable file, no network) runs uncached. Counted into the
  /// metrics registry as "driver.cache.hits" / "driver.cache.misses".
  ///
  /// `outcome` is the cache's own immutable object on a hit, and the
  /// one it was given on a miss: no outcome is deep-copied. Its
  /// StatsReport::benchmark names the request that filled the entry,
  /// so a caller reporting under this request's label relabels its copy
  /// of the report.
  struct CachedOutcome {
    std::shared_ptr<const CompileOutcome> outcome;
    bool cache_hit = false;
  };
  [[nodiscard]] CachedOutcome run_cached(const CompileRequest& request,
                                         serve::CompileCache& cache) const;

  /// Runs every request and returns the outcomes in request order.
  /// `threads` > 1 fans the worklist over that many worker threads fed
  /// by a bounded MPMC work queue (capped at the worklist size); each
  /// request still fails or succeeds independently. With `cache`,
  /// requests route through run_cached and each result is a copy of
  /// its shared outcome under the request's own label, so manifests
  /// with duplicate (circuit, options) pairs compile once. Outcome
  /// *content* is unchanged (a hit is byte-identical to a fresh compile
  /// modulo wall-clock), preserving the byte-determinism contract
  /// across thread counts and cache states. A hit's timing is its own:
  /// its lookup's wall time as `total_ms` and 0 for every phase.
  [[nodiscard]] std::vector<CompileOutcome> run_batch(
      const std::vector<CompileRequest>& requests, unsigned threads = 1,
      serve::CompileCache* cache = nullptr) const;

 private:
  /// run() on a BLIF request whose file run_cached already read: the
  /// loader parses `blif_bytes` instead of reading the file again.
  [[nodiscard]] CompileOutcome run(const CompileRequest& request,
                                   std::optional<std::string> blif_bytes) const;
  [[nodiscard]] CompileOutcome run_impl(
      const CompileRequest& request,
      std::optional<std::string>& blif_bytes) const;

  Options options_;
};

}  // namespace plim
