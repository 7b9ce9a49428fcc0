#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace plim::util {

/// Process-wide trace collector emitting Chrome trace-event JSON — the
/// format `chrome://tracing` and Perfetto load directly. Two kinds of
/// timeline coexist in one file, separated by pid:
///
///  - pid 1 ("plim compiler"): wall-clock duration spans (ph B/E), one
///    tid per OS thread — the per-phase view of Driver::run;
///  - pid ≥ 2 (one per reserve_pid() call): *virtual-clock* tracks
///    whose timestamps are machine cycles, one tid per PLiM bank — the
///    cycle-accurate execution timelines of decoupled schedules (see
///    sched::trace_decoupled_timeline).
///
/// Thread safety: every emission takes one mutex; the disabled fast
/// path is a single relaxed atomic load and touches nothing else — no
/// allocation, no lock, no clock read — so instrumentation can stay in
/// hot paths permanently. Enable with set_enabled(true) (plimc does
/// this for --trace), collect, then write_chrome_trace().
class Tracer {
 public:
  /// One trace event (a row of the "traceEvents" array). `args_json`
  /// holds pre-serialized object fields ("\"key\":\"value\"") or is
  /// empty.
  struct Event {
    std::string name;
    std::string cat;
    char ph = 'X';          ///< B/E span, X complete, s/f flow, M meta
    std::uint32_t pid = 1;  ///< 1 = wall-clock compiler; ≥2 = cycle timelines
    std::uint32_t tid = 0;
    double ts = 0.0;   ///< µs for pid 1, machine cycles for pid ≥ 2
    double dur = 0.0;  ///< X events only
    std::uint64_t id = 0;  ///< flow events only
    std::string args_json;
  };

  static constexpr std::uint32_t kCompilerPid = 1;

  /// The one process-wide instance every layer emits into.
  static Tracer& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Drops every recorded event (the enabled flag is untouched).
  void clear();

  // ---- wall-clock events (pid 1, tid = current thread) -------------------
  // All no-ops when disabled.

  /// Opens a duration span (ph "B") on the calling thread's track.
  void begin(const char* name, const std::string& args_json = {});
  /// Closes the innermost span of the calling thread (ph "E").
  void end();

  // ---- virtual-clock events (cycle timelines, explicit pid/tid) ----------

  /// Reserves a fresh pid for one virtual timeline (≥ 2, unique per call).
  std::uint32_t reserve_pid();
  /// Names a virtual process / one of its tracks (ph "M" metadata).
  void name_process(std::uint32_t pid, const std::string& name);
  void name_thread(std::uint32_t pid, std::uint32_t tid,
                   const std::string& name);
  /// A complete slice (ph "X") at an explicit timestamp — cycle-level
  /// busy/idle/wait slices on a bank track.
  void complete(const char* name, const char* cat, std::uint32_t pid,
                std::uint32_t tid, double ts, double dur);
  /// A flow arrow between two tracks (ph "s" start / "f" finish), bound
  /// to the enclosing slices at the given timestamps — bus transfers
  /// from producing to consuming bank.
  void flow_start(const char* name, std::uint32_t pid, std::uint32_t tid,
                  double ts, std::uint64_t id);
  void flow_finish(const char* name, std::uint32_t pid, std::uint32_t tid,
                   double ts, std::uint64_t id);

  // ---- export ------------------------------------------------------------

  [[nodiscard]] std::size_t num_events() const;
  /// Copy of the recorded events, in emission order (test hook).
  [[nodiscard]] std::vector<Event> snapshot() const;
  /// The whole trace as one JSON document ({"traceEvents": [...]}).
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() (plus a newline) to `path`; false + stderr on I/O
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  void push(Event event);
  [[nodiscard]] double now_us() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::atomic<std::uint32_t> next_pid_{2};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII duration span: ph "B" at construction, ph "E" at destruction,
/// on the calling thread's track of the compiler pid. When the tracer
/// is disabled at construction, both ends are free (one relaxed load).
///
///   util::TraceSpan span("rewrite", "\"benchmark\":\"ctrl\"");
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const std::string& args_json = {})
      : open_(Tracer::global().enabled()) {
    if (open_) {
      Tracer::global().begin(name, args_json);
    }
  }
  ~TraceSpan() {
    if (open_) {
      Tracer::global().end();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool open_;
};

/// A TraceSpan that additionally measures its own wall-clock duration
/// into `*out_ms` (when non-null) at destruction — the one-liner the
/// driver wraps every pipeline phase in so the trace view and the
/// StatsReport "metrics" object can never disagree about a phase's
/// extent. The measurement itself is unconditional (two clock reads);
/// only the trace emission is gated on the tracer being enabled.
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name, double* out_ms = nullptr,
                       const std::string& args_json = {})
      : span_(name, args_json),
        out_ms_(out_ms),
        t0_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    if (out_ms_ != nullptr) {
      *out_ms_ = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0_)
                     .count();
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  TraceSpan span_;
  double* out_ms_;
  std::chrono::steady_clock::time_point t0_;
};

/// Escapes `s` as the contents of a JSON string (no surrounding quotes)
/// — for building TraceSpan args ("\"benchmark\":\"" + escaped + "\"").
/// The two-argument form appends to `out` instead (util::JsonWriter).
[[nodiscard]] std::string json_escape(const std::string& s);
void json_escape(const std::string& s, std::string& out);

}  // namespace plim::util
