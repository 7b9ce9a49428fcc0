#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "util/metrics.hpp"

namespace plim::serve {

namespace {

/// Poll interval of every blocking loop — the upper bound on how long a
/// shutdown flag stays unnoticed.
constexpr int kPollMs = 200;
/// Latency ring size behind the stats command's exact percentiles.
constexpr std::size_t kLatencyWindow = 4096;
/// Bounded job-queue depth; readers park when clients outrun the pool.
constexpr std::size_t kQueueCapacity = 256;
/// Longest request line a reader buffers. A request names a benchmark
/// or a file path, so a longer line is a misbehaving client; capping it
/// bounds the daemon's memory per connection.
constexpr std::size_t kMaxLineBytes = std::size_t{64} << 10;
/// Most socket connections served at once. Each one holds a reader
/// thread and its stack; a client past the cap gets one
/// `too-many-connections` error line and is disconnected.
constexpr std::size_t kMaxConnections = 64;

double ms_since(std::chrono::steady_clock::time_point from,
                std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank percentile over an unsorted copy of the window.
double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) {
    return 0.0;
  }
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sample.size() - 1) + 0.5);
  return sample[std::min(rank, sample.size() - 1)];
}

}  // namespace

Server::Connection::~Connection() {
  if (owns_fds && fd_in >= 0) {
    ::close(fd_in);
    if (fd_out != fd_in && fd_out >= 0) {
      ::close(fd_out);
    }
  }
}

void Server::Connection::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(write_mutex);
  std::string framed = line;
  framed.push_back('\n');
  const char* data = framed.data();
  std::size_t left = framed.size();
  while (left > 0) {
    // A socket whose client already hung up must fail the send, not
    // raise SIGPIPE and take the daemon down.
    const auto n = owns_fds ? ::send(fd_out, data, left, MSG_NOSIGNAL)
                            : ::write(fd_out, data, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // client went away; nothing useful to do with the line
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
}

Server::Server(Options compile_options, ServerOptions server_options)
    : driver_(std::move(compile_options)),
      options_(server_options),
      cache_(server_options.cache_bytes),
      queue_(kQueueCapacity) {
  options_.workers =
      std::clamp(options_.workers, 1u, ServerOptions::kMaxWorkers);
}

Server::~Server() {
  // serve() joins everything on the graceful path; this is the backstop
  // for early exits (listener setup failure).
  request_shutdown();
  queue_.close();
  for (auto& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  for (auto& t : io_threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  // All acceptors have exited; nothing mutates conn_readers_ anymore.
  for (auto& r : conn_readers_) {
    if (r.thread.joinable()) {
      r.thread.join();
    }
  }
  for (const int fd : listen_fds_) {
    ::close(fd);
  }
}

void Server::record_latency(double latency_ms) {
  const std::lock_guard<std::mutex> lock(latency_mutex_);
  ++requests_answered_;
  if (latencies_.size() < kLatencyWindow) {
    latencies_.push_back(latency_ms);
  } else {
    latencies_[latency_next_] = latency_ms;
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  }
}

ServerSnapshot Server::snapshot() const {
  ServerSnapshot s;
  const auto cache_stats = cache_.stats();
  s.cache_hits = cache_stats.hits;
  s.cache_misses = cache_stats.misses;
  s.cache_evictions = cache_stats.evictions;
  s.hit_rate = cache_stats.hit_rate();
  s.cache_entries = cache_stats.entries;
  s.cache_bytes = cache_stats.bytes;
  s.cache_max_bytes = cache_stats.max_bytes;
  s.queue_depth = queue_.approx_size();
  s.workers = options_.workers;
  {
    const std::lock_guard<std::mutex> lock(latency_mutex_);
    s.requests = requests_answered_;
    s.p50_ms = percentile(latencies_, 0.50);
    s.p99_ms = percentile(latencies_, 0.99);
  }
  return s;
}

std::string Server::run_compile(
    const Request& request, std::chrono::steady_clock::time_point enqueued,
    std::chrono::steady_clock::time_point started) {
  const auto compile_request =
      !request.benchmark.empty()
          ? CompileRequest::from_benchmark(request.benchmark)
          : CompileRequest::from_blif(request.blif);
  auto result = driver_.run_cached(compile_request, cache_);
  // The envelope owns the wall clock; the report stays byte-stable, so
  // a hit's report is identical to the miss that populated it.
  result.outcome.stats.normalize_timing();

  const auto done = std::chrono::steady_clock::now();
  const auto latency_ms = ms_since(enqueued, done);
  const auto queue_ms = ms_since(enqueued, started);
  record_latency(latency_ms);
  auto& registry = util::MetricsRegistry::global();
  registry.counter_add("serve.requests");
  registry.counter_add(result.cache_hit ? "serve.cache.hits"
                                        : "serve.cache.misses");
  registry.observe("serve.latency_ms", latency_ms);
  registry.observe("serve.queue_ms", queue_ms);
  registry.gauge_set("serve.cache.hit_rate", cache_.stats().hit_rate());
  return compile_response(request.id, result.outcome, result.cache_hit,
                          latency_ms, queue_ms);
}

void Server::worker_loop() {
  Job job;
  while (queue_.pop(job)) {
    const auto started = std::chrono::steady_clock::now();
    std::string response;
    try {
      response = run_compile(job.request, job.enqueued, started);
    } catch (const std::exception& e) {
      response = error_response(job.request.id, "internal-error", e.what());
    }
    job.respond(response);
    finish_job();
  }
}

void Server::finish_job() {
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  // Lock-then-notify so the drain waiter cannot check pending_ and park
  // between our decrement and the notification.
  { const std::lock_guard<std::mutex> lock(drain_mutex_); }
  drained_.notify_all();
}

void Server::handle_line(const std::string& line,
                         const std::shared_ptr<Connection>& conn) {
  Request request;
  std::string error;
  if (!parse_request(line, request, error)) {
    conn->write_line(error_response("", "bad-request", error));
    return;
  }
  switch (request.kind) {
    case Request::Kind::ping:
      conn->write_line(pong_response(request.id));
      return;
    case Request::Kind::stats:
      conn->write_line(stats_response(request.id, snapshot()));
      return;
    case Request::Kind::shutdown:
      conn->write_line(shutdown_response(request.id));
      request_shutdown();
      return;
    case Request::Kind::compile:
      break;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  util::MetricsRegistry::global().gauge_set(
      "serve.queue_depth", static_cast<double>(queue_.approx_size() + 1));
  Job job;
  job.request = std::move(request);
  job.enqueued = std::chrono::steady_clock::now();
  job.respond = [conn](const std::string& response) {
    conn->write_line(response);
  };
  const auto id = job.request.id;
  if (!queue_.push(std::move(job))) {
    // Only a closed queue refuses a blocking push: the drain began
    // between parse and enqueue.
    finish_job();
    conn->write_line(error_response(
        id, "server-shutting-down",
        "the server is draining and accepts no new compile requests"));
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  bool discarding = false;  // dropping an oversized line through its '\n'
  const auto reject_oversized = [&] {
    conn->write_line(error_response(
        "", "request-too-large",
        "request line exceeds " + std::to_string(kMaxLineBytes) +
            " bytes; input dropped through the next newline"));
  };
  char chunk[4096];
  while (!shutdown_requested()) {
    struct pollfd pfd = {conn->fd_in, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;  // the signal handler set the flag; the loop re-checks
      }
      break;
    }
    if (ready == 0) {
      continue;
    }
    const auto n = ::read(conn->fd_in, chunk, sizeof chunk);
    if (n == 0) {
      break;  // EOF — for stdin this is the "input script done" shutdown
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (std::exchange(discarding, false)) {
        continue;  // the tail of a line already answered as too large
      }
      if (line.size() > kMaxLineBytes) {
        reject_oversized();
        continue;
      }
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (line.find_first_not_of(" \t") == std::string::npos) {
        continue;
      }
      handle_line(line, conn);
    }
    if (!discarding && buffer.size() > kMaxLineBytes) {
      reject_oversized();
      discarding = true;
    }
    if (discarding) {
      buffer.clear();
    }
  }
}

void Server::acceptor_loop(int listen_fd) {
  while (!shutdown_requested()) {
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (ready == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd_in = fd;
    conn->fd_out = fd;
    conn->owns_fds = true;
    // One reader thread per connection: compile concurrency comes from
    // the worker pool, so readers are cheap line-splitters. Readers of
    // closed connections are joined here, so a long-lived daemon does
    // not keep one finished thread, and its stack, per past client.
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto it = conn_readers_.begin(); it != conn_readers_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = conn_readers_.erase(it);
      } else {
        ++it;
      }
    }
    if (conn_readers_.size() >= kMaxConnections) {
      // The line fits a fresh socket's send buffer, so this never blocks;
      // dropping `conn` closes the connection.
      conn->write_line(error_response(
          "", "too-many-connections",
          "the server already serves " + std::to_string(kMaxConnections) +
              " connections; retry after one closes"));
      continue;
    }
    auto& reader = conn_readers_.emplace_back();
    reader.thread = std::thread(
        [this, conn = std::move(conn), &done = reader.done]() {
          reader_loop(conn);
          done.store(true, std::memory_order_release);
        });
  }
}

void Server::drain_and_stop() {
  // Answer everything already accepted before the workers go home: a
  // drain is only graceful if no accepted request dies unanswered.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drained_.wait(lock, [this]() {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  queue_.close();
  for (auto& t : workers_) {
    t.join();
  }
  workers_.clear();
}

std::string Server::process_line(const std::string& line) {
  Request request;
  std::string error;
  if (!parse_request(line, request, error)) {
    return error_response("", "bad-request", error);
  }
  switch (request.kind) {
    case Request::Kind::ping:
      return pong_response(request.id);
    case Request::Kind::stats:
      return stats_response(request.id, snapshot());
    case Request::Kind::shutdown:
      request_shutdown();
      return shutdown_response(request.id);
    case Request::Kind::compile:
      break;
  }
  const auto now = std::chrono::steady_clock::now();
  try {
    return run_compile(request, now, now);
  } catch (const std::exception& e) {
    return error_response(request.id, "internal-error", e.what());
  }
}

int Server::serve() {
  // ---- listeners first: fail before any thread is spawned ------------------
  if (!options_.unix_socket.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (fd < 0 ||
        options_.unix_socket.size() >= sizeof addr.sun_path) {
      std::cerr << "plimc: cannot create unix socket "
                << options_.unix_socket << '\n';
      if (fd >= 0) {
        ::close(fd);
      }
      return 1;
    }
    std::memcpy(addr.sun_path, options_.unix_socket.c_str(),
                options_.unix_socket.size() + 1);
    ::unlink(options_.unix_socket.c_str());  // stale socket from a crash
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
      std::cerr << "plimc: cannot listen on unix socket "
                << options_.unix_socket << ": " << std::strerror(errno)
                << '\n';
      ::close(fd);
      return 1;
    }
    listen_fds_.push_back(fd);
    std::cerr << "plimc: serving on unix socket " << options_.unix_socket
              << '\n';
  }
  if (options_.tcp_port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      std::cerr << "plimc: cannot create tcp socket\n";
      return 1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local service only
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
      std::cerr << "plimc: cannot listen on 127.0.0.1:" << options_.tcp_port
                << ": " << std::strerror(errno) << '\n';
      ::close(fd);
      return 1;
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
    bound_port_.store(ntohs(addr.sin_port), std::memory_order_release);
    listen_fds_.push_back(fd);
    std::cerr << "plimc: serving on 127.0.0.1:" << bound_port_.load()
              << '\n';
  }

  util::MetricsRegistry::global().gauge_set(
      "serve.workers", static_cast<double>(options_.workers));
  workers_.reserve(options_.workers);
  for (unsigned t = 0; t < options_.workers; ++t) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
  for (const int fd : listen_fds_) {
    io_threads_.emplace_back([this, fd]() { acceptor_loop(fd); });
  }

  if (options_.stdio) {
    auto stdio = std::make_shared<Connection>();
    stdio->fd_in = STDIN_FILENO;
    stdio->fd_out = STDOUT_FILENO;
    stdio->owns_fds = false;
    reader_loop(stdio);  // serve() *is* the stdin reader
    request_shutdown();  // EOF on stdin ends the daemon
  } else {
    while (!shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    }
  }

  // ---- graceful drain -------------------------------------------------------
  // Readers and acceptors notice the flag within one poll interval;
  // they stop producing, then the queue drains and the workers answer
  // every accepted request before exiting.
  for (auto& t : io_threads_) {
    t.join();
  }
  io_threads_.clear();
  // Acceptors are gone, so conn_readers_ is stable; connection readers
  // notice the flag within one poll interval too.
  for (auto& r : conn_readers_) {
    r.thread.join();
  }
  conn_readers_.clear();
  drain_and_stop();
  for (const int fd : listen_fds_) {
    ::close(fd);
  }
  if (!options_.unix_socket.empty()) {
    ::unlink(options_.unix_socket.c_str());
  }
  listen_fds_.clear();
  return 0;
}

}  // namespace plim::serve
