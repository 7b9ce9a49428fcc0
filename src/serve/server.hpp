#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.hpp"
#include "serve/cache.hpp"
#include "serve/mpmc_queue.hpp"
#include "serve/protocol.hpp"

namespace plim::serve {

/// Transport and sizing knobs of one compile server (the compile
/// pipeline itself is configured by the plim::Options the Server is
/// constructed with — one option set per daemon, like one option set
/// per batch).
struct ServerOptions {
  /// Most compile worker threads a server starts; a larger `workers` is
  /// clamped to it.
  static constexpr unsigned kMaxWorkers = 256;
  /// Compile worker threads popping the MPMC queue (1..kMaxWorkers).
  unsigned workers = 4;
  /// Compiled-program cache budget (estimated bytes; 0 disables).
  std::size_t cache_bytes = std::size_t{256} << 20;
  /// Serve JSON-lines on stdin/stdout.
  bool stdio = true;
  /// Additionally listen on a Unix domain socket at this path ("" off).
  std::string unix_socket;
  /// Additionally listen on 127.0.0.1:tcp_port (<0 off; 0 lets the OS
  /// pick — the bound port is announced on stderr either way).
  int tcp_port = -1;
};

/// `plimc --serve`: a persistent compile daemon. Requests arrive as
/// JSON lines (see protocol.hpp) over stdin and/or local sockets, fan
/// out onto a worker pool through a bounded MPMC queue, and are
/// answered from the compiled-program cache (see CompileCache) whenever
/// the same file bytes or benchmark name were compiled before. Request
/// counts, cache hits and misses and request latency flow into
/// util::MetricsRegistry ("serve.*" metrics) next to the per-phase
/// driver metrics; the stats command reports the hit rate, queue depth
/// and worker count. At most 64 socket connections are served
/// at once; a client past the cap gets one `too-many-connections` error
/// line and is disconnected.
///
/// Shutdown: EOF on stdin, a {"cmd":"shutdown"} request, or
/// request_shutdown() (the CLI's SIGINT/SIGTERM handler) all trigger
/// the same graceful drain — stop reading, answer everything already
/// accepted, then return from serve() so the CLI can flush traces and
/// exit 0. A second signal is the CLI's hard abort; the server never
/// blocks it.
class Server {
 public:
  Server(Options compile_options, ServerOptions server_options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the daemon until shutdown. Returns 0 on a graceful drain, 1
  /// when a requested listener could not be set up.
  int serve();

  /// Flags the graceful drain. Async-signal-safe (one atomic store);
  /// the read/accept loops poll the flag every 200 ms.
  void request_shutdown() noexcept {
    shutdown_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Synchronous in-process request: parse `line`, dispatch, return the
  /// response line. Tests and benches drive the exact handler + cache +
  /// metrics path without a transport. A "shutdown" line flags the
  /// drain like a socket client's would.
  [[nodiscard]] std::string process_line(const std::string& line);

  /// Live counters ({"cmd":"stats"} renders exactly this).
  [[nodiscard]] ServerSnapshot snapshot() const;

  [[nodiscard]] const CompileCache& cache() const noexcept { return cache_; }
  /// The TCP port actually bound (useful with tcp_port = 0); -1 when no
  /// TCP listener is up. Valid after serve() started listening.
  [[nodiscard]] int bound_tcp_port() const noexcept { return bound_port_; }

 private:
  /// One client byte stream (stdin/stdout or an accepted socket).
  struct Connection {
    int fd_in = -1;
    int fd_out = -1;
    bool owns_fds = false;  ///< accepted sockets are closed on teardown
    std::mutex write_mutex;

    ~Connection();
    void write_line(const std::string& line);
  };

  /// Reader thread of one accepted connection; `done` flips as it
  /// returns, so the acceptor can join it without blocking.
  struct ConnReader {
    std::atomic<bool> done{false};
    std::thread thread;
  };

  struct Job {
    Request request;
    std::chrono::steady_clock::time_point enqueued;
    std::function<void(const std::string&)> respond;
  };

  void worker_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void acceptor_loop(int listen_fd);
  /// Parses `line` and answers it unless it asks for a compile: a
  /// malformed line, ping, stats or shutdown (which also flags the
  /// drain). A compile request comes back in `request`, unanswered.
  [[nodiscard]] std::optional<std::string> answer_command(
      const std::string& line, Request& request);
  void handle_line(const std::string& line,
                   const std::shared_ptr<Connection>& conn);
  /// Runs one compile request end to end; `enqueued` anchors the
  /// latency figures.
  [[nodiscard]] std::string run_compile(
      const Request& request, std::chrono::steady_clock::time_point enqueued,
      std::chrono::steady_clock::time_point started);
  void record_latency(double latency_ms);
  /// Decrements pending_ and wakes the drain waiter (missed-wakeup safe).
  void finish_job();
  void drain_and_stop();

  Driver driver_;
  ServerOptions options_;
  CompileCache cache_;
  MpmcQueue<Job> queue_;

  std::atomic<bool> shutdown_{false};
  std::atomic<int> bound_port_{-1};

  /// Jobs accepted but not yet answered; the drain waits for zero.
  std::atomic<std::size_t> pending_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_;

  /// Exact latency percentiles over a bounded window of recent compile
  /// requests (the registry's log2 histogram is the coarse export; the
  /// stats command reports these).
  mutable std::mutex latency_mutex_;
  std::vector<double> latencies_;
  std::size_t latency_next_ = 0;
  std::uint64_t requests_answered_ = 0;

  std::vector<std::thread> workers_;
  /// Acceptor + stdio threads; touched only by serve()/~Server.
  std::vector<std::thread> io_threads_;
  /// Readers of accepted connections (the live ones count against the
  /// connection cap); pushed by acceptor threads, so guarded. Finished
  /// ones are joined at the next accept, the rest after every acceptor
  /// has exited.
  std::mutex conn_mutex_;
  std::list<ConnReader> conn_readers_;
  std::vector<int> listen_fds_;
};

}  // namespace plim::serve
