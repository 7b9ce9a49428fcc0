#include "driver/driver.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "circuits/epfl.hpp"
#include "core/compiler.hpp"
#include "core/verify.hpp"
#include "io/blif.hpp"
#include "mig/cleanup.hpp"
#include "mig/rewriting.hpp"
#include "sched/scheduler.hpp"
#include "sched/verify.hpp"
#include "serve/cache.hpp"
#include "serve/mpmc_queue.hpp"
#include "serve/structural_hash.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace plim {

namespace {

/// Largest BLIF file a request may name. log2's, the largest EPFL one,
/// is 2.9 MB.
constexpr std::size_t kMaxInputBytes = std::size_t{64} << 20;

/// Closes the descriptor it owns.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

/// Reads the BLIF file at `path` into `bytes`, or reports why it cannot.
/// Only a regular file of at most kMaxInputBytes is read: the open does
/// not wait for a FIFO's writer, and a device, socket or directory is
/// refused before any byte is read.
bool read_input_file(const std::string& path, std::string& bytes,
                     std::vector<Diagnostic>& diags) {
  const auto fail = [&](const char* code, std::string message) {
    diags.push_back(Diagnostic::error(code, std::move(message)));
    return false;
  };
  const auto too_large = [&] {
    return fail("input-too-large",
                path + " is larger than " +
                    std::to_string(kMaxInputBytes >> 20) + " MiB");
  };
  if (path.find('\0') != std::string::npos) {
    // The OS would open the prefix before the NUL, not the path named.
    return fail("input-open-failed",
                "cannot open " + path + ": the path contains a NUL byte");
  }
  const FileDescriptor fd(
      ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_NOCTTY | O_CLOEXEC));
  if (fd.get() < 0) {
    return fail("input-open-failed", "cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return fail("input-not-regular", path + " is not a regular file");
  }
  if (static_cast<std::uintmax_t>(st.st_size) > kMaxInputBytes) {
    return too_large();
  }
  // One byte past the size fstat saw, so a file that grew meanwhile
  // keeps reading (up to the cap) and one that did not ends at EOF.
  bytes.resize(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t have = 0;
  for (;;) {
    if (have == bytes.size()) {
      if (have > kMaxInputBytes) {
        return too_large();
      }
      bytes.resize(std::min(2 * have, kMaxInputBytes + 1));
    }
    const auto n = ::read(fd.get(), bytes.data() + have, bytes.size() - have);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return fail("input-open-failed",
                  "cannot read " + path + ": " + std::strerror(errno));
    }
    if (n == 0) {
      break;
    }
    have += static_cast<std::size_t>(n);
  }
  bytes.resize(have);
  return true;
}

/// Parses the bytes of the BLIF file at `path` into `storage`.
const mig::Mig* parse_blif(const std::string& path, const std::string& bytes,
                           std::optional<mig::Mig>& storage,
                           std::vector<Diagnostic>& diags) {
  try {
    storage = io::read_blif_text(bytes);
    return &*storage;
  } catch (const std::exception& e) {
    diags.push_back(
        Diagnostic::error("blif-parse-error", path + ": " + e.what()));
    return nullptr;
  }
}

/// Loads the request's network, or reports why it cannot be loaded.
/// In-memory requests are *not* copied — the returned pointer aliases
/// either `storage` or the request's shared network (which the request
/// keeps alive for the duration of the run).
const mig::Mig* load_network(const CompileRequest& request,
                             std::optional<mig::Mig>& storage,
                             std::vector<Diagnostic>& diags) {
  switch (request.kind()) {
    case CompileRequest::Kind::blif: {
      std::string bytes;
      if (!read_input_file(request.path(), bytes, diags)) {
        return nullptr;
      }
      return parse_blif(request.path(), bytes, storage, diags);
    }
    case CompileRequest::Kind::benchmark:
      try {
        storage = circuits::build_benchmark(request.label());
        return &*storage;
      } catch (const std::exception& e) {
        diags.push_back(Diagnostic::error("unknown-benchmark", e.what()));
        return nullptr;
      }
    case CompileRequest::Kind::network:
      if (request.network() == nullptr) {
        diags.push_back(Diagnostic::error(
            "request-invalid", "in-memory request carries no network"));
        return nullptr;
      }
      return request.network();
  }
  diags.push_back(Diagnostic::error("request-invalid",
                                    "unknown request kind"));
  return nullptr;
}

}  // namespace

CompileOutcome Driver::run(const CompileRequest& request) const {
  // Options::trace switches on the process-wide collectors; it never
  // switches them off, so a caller (plimc --trace) that enabled them
  // directly keeps collecting across drivers with any option set.
  if (options_.trace.enabled) {
    util::Tracer::global().set_enabled(true);
    util::MetricsRegistry::global().set_enabled(true);
  }
  const util::TraceSpan request_span(
      "request",
      "\"benchmark\":\"" + util::json_escape(request.label()) + "\"");
  const auto t0 = std::chrono::steady_clock::now();
  auto out = run_impl(request);
  out.stats.metrics.total_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
  return out;
}

CompileOutcome Driver::run_impl(const CompileRequest& request) const {
  CompileOutcome out;
  out.stats.benchmark = request.label();
  auto& metrics = out.stats.metrics;

  // Contradictory options are a caller error, reported per-outcome so a
  // batch over a bad option set fails every request with the same story.
  out.diagnostics = options_.validate();
  if (has_errors(out.diagnostics)) {
    return out;
  }

  // ---- load ----------------------------------------------------------------
  std::optional<mig::Mig> loaded;
  const mig::Mig* network = nullptr;
  {
    const util::ScopedPhase phase("load", &metrics.load_ms);
    network = load_network(request, loaded, out.diagnostics);
  }
  if (network == nullptr) {
    return out;
  }
  out.stats.initial_gates = network->num_gates();

  // ---- rewrite -------------------------------------------------------------
  mig::Mig optimized;
  try {
    const util::ScopedPhase phase("rewrite", &metrics.rewrite_ms);
    if (options_.rewrite.effort > 0) {
      optimized = mig::rewrite_for_plim(*network, options_.rewrite,
                                        &out.stats.rewrite);
    } else {
      // Rewriting off: the "before/after" metrics still describe the
      // network that is about to be compiled, so reports stay comparable
      // across effort levels.
      optimized = mig::cleanup_dangling(*network);
      out.stats.rewrite.gates_before = network->num_gates();
      out.stats.rewrite.gates_after = optimized.num_gates();
      out.stats.rewrite.depth_before = network->depth();
      out.stats.rewrite.depth_after = optimized.depth();
      out.stats.rewrite.multi_complement_before =
          mig::count_multi_complement(*network);
      out.stats.rewrite.multi_complement_after =
          mig::count_multi_complement(optimized);
    }
  } catch (const std::exception& e) {
    out.diagnostics.push_back(Diagnostic::error("rewrite-failed", e.what()));
    return out;
  }
  out.stats.gates = optimized.num_gates();

  // ---- compile (with the capacity-pressure retry ladder) -------------------
  core::CompileOptions copts;
  copts.smart_candidates = options_.compile.smart_candidates;
  copts.cache_complements = options_.compile.cache_complements;
  copts.textbook_slots = options_.compile.textbook_slots;
  copts.allocation = options_.compile.allocation;
  copts.rram_cap = options_.compile.rram_cap;

  // Ladder levels, attempted in order until one fits the cap:
  //   0  plain compile (exactly the non-degraded behavior);
  //   1  recompute-on-evict;
  //   2  aggressive eviction (replay cascades admitted).
  // Without degradation enabled only level 0 runs. A degraded compile
  // fails fast on a cap below the live-set lower bound, which no level
  // can fit, so the ladder stops there.
  constexpr std::uint32_t kTopLevel = 2;
  const std::uint32_t max_level =
      options_.compile.degradation.enabled && options_.compile.rram_cap
          ? kTopLevel
          : 0;
  auto& registry = util::MetricsRegistry::global();
  core::CompileResult compiled;
  std::uint32_t level = 0;
  {
    const util::ScopedPhase phase("compile", &metrics.compile_ms);
    for (;; ++level) {
      copts.degradation.enabled = level >= 1;
      copts.degradation.aggressive = level >= 2;
      try {
        compiled = core::compile(optimized, copts);
        break;
      } catch (const core::RramCapExceeded& e) {
        const bool infeasible = e.cap() < e.live_lower_bound();
        if (level < max_level && !infeasible) {
          registry.counter_add("driver.rram_cap.retries");
          out.diagnostics.push_back(Diagnostic::warning(
              "rram-cap-retry",
              "compile attempt at degradation level " + std::to_string(level) +
                  " exceeded the RRAM cap (" + e.what() +
                  ") — retrying at level " + std::to_string(level + 1)));
          continue;
        }
        registry.counter_add("driver.rram_cap.failures");
        std::string msg{e.what()};
        if (infeasible) {
          msg += "; caps below the live-set lower bound of " +
                 std::to_string(e.live_lower_bound()) +
                 " cells are infeasible for any strategy";
        } else if (max_level > 0) {
          msg += "; every degradation level up to " +
                 std::to_string(max_level) + " was attempted";
        }
        out.diagnostics.push_back(
            Diagnostic::error("rram-cap-exceeded", msg));
        return out;
      } catch (const std::exception& e) {
        out.diagnostics.push_back(
            Diagnostic::error("compile-failed", e.what()));
        return out;
      }
    }
  }
  if (level > 0) {
    registry.counter_add("driver.rram_cap.degraded_successes");
    registry.counter_add("driver.rram_cap.cells_evicted",
                         compiled.stats.cells_evicted);
    registry.counter_add("driver.rram_cap.ops_recomputed",
                         compiled.stats.ops_recomputed);
    out.diagnostics.push_back(Diagnostic::warning(
        "rram-cap-degraded",
        "compiled under capacity pressure at degradation level " +
            std::to_string(level) + ": " +
            std::to_string(compiled.stats.cells_evicted) +
            " cells evicted, " +
            std::to_string(compiled.stats.ops_recomputed) +
            " ops recomputed (replay depth " +
            std::to_string(compiled.stats.replay_max_depth) +
            "), peak live " +
            std::to_string(compiled.stats.peak_live_rrams) + " of cap " +
            std::to_string(*options_.compile.rram_cap)));
  }
  out.program = std::move(compiled.program);
  out.stats.compile = compiled.stats;
  // The true capacity need under reuse (num_rrams overstates it) — the
  // gauges a capacity planner watches.
  registry.gauge_set("compile.peak_live_rrams",
                     compiled.stats.peak_live_rrams);

  // ---- verify the serial program -------------------------------------------
  // Against the *original* network, not the rewritten one: the facade's
  // verification covers the whole pipeline (rewriting included), so a
  // function-changing rewrite cannot hide behind a faithful translation.
  if (options_.verify.enabled) {
    try {
      const util::ScopedPhase phase("verify", &metrics.verify_ms);
      const auto v =
          core::verify_program(*network, out.program, options_.verify.rounds,
                               options_.verify.seed);
      if (!v.ok) {
        out.diagnostics.push_back(Diagnostic::error(
            "verify-failed",
            "program diverges from the input network: " + v.message));
        return out;
      }
    } catch (const std::exception& e) {
      out.diagnostics.push_back(Diagnostic::error("verify-failed", e.what()));
      return out;
    }
  }

  // Scheduling reads only the serial program: free the networks and the
  // compile result before it builds its workspace. A network request's
  // network is the caller's, not ours, and stays.
  network = nullptr;
  loaded.reset();
  optimized = {};
  compiled = {};

  // ---- schedule ------------------------------------------------------------
  if (options_.banks > 0) {
    sched::ScheduleOptions sopts;
    sopts.banks = options_.banks;
    sopts.cost = options_.schedule.cost;
    sopts.cluster = options_.schedule.cluster;
    sopts.refine_passes = options_.schedule.refine_passes;
    sopts.execution = options_.schedule.execution;
    sopts.trace_label = request.label();
    sched::ScheduleResult scheduled;
    try {
      const util::ScopedPhase phase("schedule", &metrics.schedule_ms);
      scheduled = sched::schedule(out.program, sopts);
    } catch (const std::exception& e) {
      out.diagnostics.push_back(
          Diagnostic::error("schedule-failed", e.what()));
      return out;
    }
    if (const auto err = scheduled.program.validate(); !err.empty()) {
      out.diagnostics.push_back(Diagnostic::error(
          "schedule-invalid", "scheduler emitted an invalid program: " + err));
      return out;
    }
    // The cap bounds the program that runs, and renaming plus transfer
    // copies give a banked program its own cell count.
    if (const auto cap = options_.compile.rram_cap;
        cap && scheduled.stats.parallel_rrams > *cap) {
      out.diagnostics.push_back(Diagnostic::error(
          "schedule-cap-exceeded",
          "scheduled program needs " +
              std::to_string(scheduled.stats.parallel_rrams) +
              " RRAM cells on " + std::to_string(options_.banks) +
              " banks, over the cap of " + std::to_string(*cap)));
      return out;
    }
    if (options_.verify.enabled) {
      try {
        const util::ScopedPhase phase("verify-schedule",
                                      &metrics.schedule_verify_ms);
        if (!sched::equivalent_to_serial(out.program, scheduled.program,
                                         options_.verify.rounds,
                                         options_.verify.seed)) {
          out.diagnostics.push_back(Diagnostic::error(
              "schedule-diverges",
              "parallel schedule diverges from the serial program"));
          return out;
        }
        if (options_.schedule.execution == sched::ExecutionModel::decoupled &&
            !sched::equivalent_to_serial(out.program, scheduled.program,
                                         options_.verify.rounds,
                                         options_.verify.seed,
                                         sched::ExecutionModel::decoupled)) {
          out.diagnostics.push_back(Diagnostic::error(
              "decoupled-diverges",
              "decoupled execution diverges from the serial program"));
          return out;
        }
      } catch (const std::exception& e) {
        out.diagnostics.push_back(
            Diagnostic::error("schedule-diverges", e.what()));
        return out;
      }
    }
    out.parallel = std::move(scheduled.program);
    out.stats.schedule = scheduled.stats;
    metrics.refine_moves_tried = scheduled.stats.refine_moves_tried;
    metrics.refine_moves_kept = scheduled.stats.refine_moves_kept;
    metrics.refine_moves_screened = scheduled.stats.refine_moves_screened;
    metrics.bus_stalls = scheduled.stats.bus_stalls;
    for (const auto idle : scheduled.stats.bank_idle_cycles) {
      metrics.bank_idle_cycles += idle;
    }
  }

  out.stats.verified = options_.verify.enabled;
  return out;
}

Driver::CachedOutcome Driver::run_cached(const CompileRequest& request,
                                         serve::CompileCache& cache) const {
  if (has_errors(options_.validate())) {
    // Contradictory options are never cached — run() reports them with
    // the full per-outcome diagnostics story.
    return {std::make_shared<const CompileOutcome>(run(request))};
  }
  const auto failed = [&](std::vector<Diagnostic> diags) {
    CompileOutcome out;
    out.stats.benchmark = request.label();
    out.diagnostics = std::move(diags);
    return CachedOutcome{
        std::make_shared<const CompileOutcome>(std::move(out))};
  };

  // Content first: bytes (or a name) seen before are answered without
  // a parse. An in-memory network has no content to digest.
  std::vector<Diagnostic> load_diags;
  std::string bytes;
  std::optional<serve::ContentKey> content;
  switch (request.kind()) {
    case CompileRequest::Kind::blif:
      if (!read_input_file(request.path(), bytes, load_diags)) {
        return failed(std::move(load_diags));
      }
      content = serve::content_key(request.kind(), bytes, options_);
      break;
    case CompileRequest::Kind::benchmark:
      content = serve::content_key(request.kind(), request.label(), options_);
      break;
    case CompileRequest::Kind::network:
      break;
  }
  auto& registry = util::MetricsRegistry::global();
  if (content) {
    if (auto cached = cache.lookup_content(*content)) {
      registry.counter_add("driver.cache.hits");
      registry.counter_add("driver.cache.content_hits");
      return {std::move(cached), true};
    }
  }

  // Unseen content: the key is a digest of the *loaded* network, so the
  // same circuit hits whether it arrives as other bytes, a named
  // benchmark or an in-memory MIG.
  std::optional<mig::Mig> loaded;
  const mig::Mig* network =
      request.kind() == CompileRequest::Kind::blif
          ? parse_blif(request.path(), bytes, loaded, load_diags)
          : load_network(request, loaded, load_diags);
  std::string().swap(bytes);  // dead once parsed; not held through a compile
  if (network == nullptr) {
    return failed(std::move(load_diags));
  }
  const auto key = serve::structural_key(*network, options_);
  if (auto cached = cache.lookup(key)) {
    registry.counter_add("driver.cache.hits");
    if (content) {
      cache.add_alias(*content, key);
    }
    return {std::move(cached), true};
  }
  registry.counter_add("driver.cache.misses");

  // Miss: compile the already-loaded network. Wrapping it as an
  // in-memory request keeps every later pipeline phase (and its
  // diagnostics) identical to a direct run while skipping the second
  // parse; Kind::network requests already share their storage.
  auto outcome = std::make_shared<const CompileOutcome>(
      request.kind() == CompileRequest::Kind::network
          ? run(request)
          : run(CompileRequest::from_mig(std::move(*loaded), request.label())));
  if (outcome->ok()) {
    cache.insert(key, outcome);
    if (content) {
      cache.add_alias(*content, key);
    }
  }
  return {std::move(outcome)};
}

std::vector<CompileOutcome> Driver::run_batch(
    const std::vector<CompileRequest>& requests, unsigned threads,
    serve::CompileCache* cache) const {
  std::vector<CompileOutcome> outcomes(requests.size());
  if (requests.empty()) {
    return outcomes;
  }
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(std::max(threads, 1u), requests.size()));

  // Deterministic by construction: outcome i is always computed from
  // request i, whatever worker claims it — only the claiming order
  // varies between runs, never the result placement. The worklist flows
  // through the same bounded MPMC queue the compile server dispatches
  // on, so batch mode exercises the service's conduit.
  serve::MpmcQueue<std::size_t> queue(
      std::min<std::size_t>(requests.size(), 1024));
  const auto work = [&]() {
    std::size_t i = 0;
    while (queue.pop(i)) {
      try {
        if (cache != nullptr) {
          // A cached outcome is shared and names the request that filled
          // its entry; the batch returns a copy under this request's.
          // A hit compiled nothing, so it carries its own wall time
          // instead of the filling request's phase times.
          const auto t0 = std::chrono::steady_clock::now();
          const auto cached = run_cached(requests[i], *cache);
          outcomes[i] = *cached.outcome;
          outcomes[i].stats.benchmark = requests[i].label();
          if (cached.cache_hit) {
            outcomes[i].stats.normalize_timing();
            outcomes[i].stats.metrics.total_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
          }
        } else {
          outcomes[i] = run(requests[i]);
        }
      } catch (const std::exception& e) {
        // run() captures expected failures itself; this is the backstop
        // that keeps one pathological request from tearing down a batch.
        outcomes[i].diagnostics.push_back(
            Diagnostic::error("internal-error", e.what()));
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back(work);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    queue.push(i);
  }
  queue.close();
  for (auto& thread : pool) {
    thread.join();
  }
  return outcomes;
}

}  // namespace plim
