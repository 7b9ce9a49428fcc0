// serve-zipf: a `plimc --serve --socket` daemon driven by four closed-loop
// clients whose requests follow a seeded Zipf draw over shuffle variants
// of ten control circuits, with a cache budget below the working set.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "driver/driver.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr unsigned kClients = 4;   // closed-loop connections
constexpr unsigned kCacheMiB = 3;  // the working set is ~3.3 MiB
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kZipfBlock = 1000;  // requests per stratum
constexpr std::size_t kZipfBlocks = 32;

// Popularity order, most requested first: the six circuits with the
// largest programs (two variants each) stay cached; the long tail of
// light variants churns through the rest of the budget.
const std::vector<std::string> kPopularity = {
    "max", "bar", "i2c", "adder", "priority", "dec",
    "router", "int2float", "cavlc", "ctrl"};
constexpr std::size_t kHeavy = 6;

/// The compile daemon: spawned with a stdin pipe (EOF drains it) and its
/// peak RSS collected when it exits.
class Daemon {
 public:
  Daemon(const std::string& plimc, const std::string& socket_path,
         const std::string& log_path) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[0], STDIN_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const std::string cache = std::to_string(kCacheMiB);
    std::vector<std::string> argv_s = {plimc,     "--serve",  "--socket",
                                       socket_path, "--banks", "4",
                                       "--threads", "4",       "--cache-mb",
                                       cache};
    std::vector<char*> argv;
    for (auto& a : argv_s) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, plimc.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[0]);
    stdin_ = fds[1];
    if (rc != 0) {
      ::close(stdin_);
      throw std::runtime_error("cannot spawn " + plimc);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      stop();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Closes stdin (graceful drain) and waits; returns peak RSS in MiB.
  double stop() {
    if (stdin_ >= 0) {
      ::close(stdin_);
      stdin_ = -1;
    }
    struct rusage usage {};
    int status = 0;
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int stdin_ = -1;
};

/// One client connection speaking the JSON-lines protocol.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) {
        ::close(fd_);
      }
      throw std::runtime_error("cannot connect to " + socket_path);
    }
    // A daemon that stops answering fails the run instead of hanging it.
    const timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and returns the response line.
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const auto n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        throw std::runtime_error("socket write failed");
      }
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      if (const auto nl = buffer_.find('\n'); nl != std::string::npos) {
        auto response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[65536];
      const auto n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        throw std::runtime_error("no answer from the daemon");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Connects once the daemon listens and answers a ping (10 s limit).
std::unique_ptr<Client> await_daemon(const std::string& socket_path) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      auto client = std::make_unique<Client>(socket_path);
      if (client->call(R"({"id":"ping","cmd":"ping"})").find("\"pong\":true") !=
          std::string::npos) {
        return client;
      }
    } catch (const std::runtime_error&) {
      if (Clock::now() > deadline) {
        throw;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Seeded Zipf request stream over ranks 0..n-1, stratified: every block
/// of about kZipfBlock requests holds each rank in Zipf proportion (at
/// least once), in a seeded order. Request k's rank is a function of
/// (seed, k) alone, so the stream does not depend on client interleaving
/// and every seed sees the same mix.
class ZipfStream {
 public:
  ZipfStream(std::size_t n, std::uint64_t seed) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    }
    std::vector<std::uint32_t> block;
    for (std::size_t r = 0; r < n; ++r) {
      const double share =
          std::pow(static_cast<double>(r + 1), -kZipfExponent) / sum;
      const auto count = std::max<long>(
          1, std::lround(share * static_cast<double>(kZipfBlock)));
      block.insert(block.end(), static_cast<std::size_t>(count),
                   static_cast<std::uint32_t>(r));
    }
    for (std::size_t b = 0; b < kZipfBlocks; ++b) {
      plim::util::Rng rng(derive_seed(seed, b));
      for (std::size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.next() % i]);
      }
      stream_.insert(stream_.end(), block.begin(), block.end());
    }
  }
  [[nodiscard]] std::size_t rank(std::uint64_t k) const {
    return stream_[k % stream_.size()];
  }

 private:
  std::vector<std::uint32_t> stream_;
};

/// The fields of a compile response the benchmark reads.
struct Response {
  bool ok = false;
  bool hit = false;
  double queue_ms = 0;
  std::string report;  ///< the StatsReport object, verbatim
};

Response parse_response(const std::string& line) {
  Response r;
  r.ok = line.find("\"ok\":true") != std::string::npos;
  r.hit = line.find("\"cache\":\"hit\"") != std::string::npos;
  if (const auto q = line.find("\"queue_ms\":"); q != std::string::npos) {
    r.queue_ms = std::strtod(line.c_str() + q + 11, nullptr);
  }
  if (const auto p = line.find("\"report\":"); p != std::string::npos &&
                                               line.back() == '}') {
    r.report = line.substr(p + 9, line.size() - p - 10);
  }
  return r;
}

/// A number field of the report's nested "schedule" object, 0 if absent.
double schedule_number(const std::string& report, const std::string& key) {
  const auto schedule = report.find("\"schedule\":{");
  const auto p = report.find("\"" + key + "\":", schedule);
  return schedule == std::string::npos || p == std::string::npos
             ? 0.0
             : std::strtod(report.c_str() + p + key.size() + 3, nullptr);
}

struct Sample {
  double latency_ms = 0;
  double queue_ms = 0;
  bool hit = false;
};

/// What the clients observed over one phase.
struct Phase {
  std::vector<Sample> samples;
  std::vector<std::string> errors;
  double wall_s = 0;
};

/// Runs `kClients` closed-loop clients. `next` yields the input index of
/// the k-th request (or SIZE_MAX to stop); `send` performs one request on
/// the client's transport and returns the response line; `check` vets it.
template <typename Next, typename Send, typename Check>
Phase closed_loop(Next next, Send send, Check check) {
  Phase phase;
  std::mutex mutex;
  std::atomic<std::uint64_t> counter{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample> samples;
      std::vector<std::string> errors;
      try {
        for (;;) {
          const auto k = counter.fetch_add(1);
          const auto index = next(k);
          if (index == SIZE_MAX) {
            break;
          }
          const auto r0 = Clock::now();
          const auto line = send(c, k, index);
          Sample s;
          s.latency_ms = ms_between(r0, Clock::now());
          const auto response = parse_response(line);
          s.hit = response.hit;
          s.queue_ms = response.queue_ms;
          samples.push_back(s);
          if (auto error = check(index, response); !error.empty()) {
            errors.push_back(std::move(error));
          }
        }
      } catch (const std::exception& e) {
        errors.push_back(e.what());
      }
      const std::lock_guard<std::mutex> lock(mutex);
      phase.samples.insert(phase.samples.end(), samples.begin(), samples.end());
      phase.errors.insert(phase.errors.end(), errors.begin(), errors.end());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  phase.wall_s = ms_between(t0, Clock::now()) / 1000.0;
  return phase;
}

std::string request_line(std::uint64_t k, const Input& input) {
  return "{\"id\":\"r" + std::to_string(k) + "\",\"blif\":\"" + input.path +
         "\"}";
}

/// Rank r of the Zipf stream maps to a seed-independent file: the heavy
/// circuits first, then the light ones, each group variant-major in
/// kPopularity order.
std::vector<std::size_t> rank_to_input(const std::vector<Input>& inputs) {
  const auto key = [&](std::size_t i) {
    const auto pos = static_cast<std::size_t>(
        std::find(kPopularity.begin(), kPopularity.end(), inputs[i].circuit) -
        kPopularity.begin());
    return std::tuple(pos >= kHeavy, inputs[i].variant, pos);
  };
  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  return order;
}

using Clients = std::vector<std::unique_ptr<Client>>;

/// Waits for the daemon to answer a ping, then opens the client
/// connections.
Clients connect_clients(const std::string& socket_path) {
  static_cast<void>(await_daemon(socket_path));
  Clients clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(socket_path));
  }
  return clients;
}

/// Every file once, most popular first, so the four clients share the
/// heavy compiles evenly. Fills `cold_reports` (input index → the report
/// of its cold compile).
Phase cold_pass(Clients& clients, const std::vector<Input>& inputs,
                const std::vector<std::size_t>& ranks,
                std::vector<std::string>& cold_reports) {
  cold_reports.assign(inputs.size(), {});
  return closed_loop(
      [&](std::uint64_t k) { return k < ranks.size() ? ranks[k] : SIZE_MAX; },
      [&](unsigned c, std::uint64_t k, std::size_t index) {
        return clients[c]->call(request_line(k, inputs[index]));
      },
      [&](std::size_t index, const Response& r) -> std::string {
        if (!r.ok || r.report.empty()) {
          return inputs[index].path + ": cold request failed";
        }
        cold_reports[index] = r.report;
        return {};
      });
}

/// The Zipf stream for `seconds`; every report must equal the cold one.
Phase zipf_loop(Clients& clients, const std::vector<Input>& inputs,
                const std::vector<std::size_t>& ranks, const ZipfStream& zipf,
                double seconds, const std::vector<std::string>& cold_reports) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  return closed_loop(
      [&](std::uint64_t k) {
        return Clock::now() < deadline ? ranks[zipf.rank(k)] : SIZE_MAX;
      },
      [&](unsigned c, std::uint64_t k, std::size_t index) {
        return clients[c]->call(request_line(k, inputs[index]));
      },
      [&](std::size_t index, const Response& r) -> std::string {
        if (!r.ok) {
          return inputs[index].path + ": request failed";
        }
        if (r.report != cold_reports[index]) {
          return inputs[index].path + ": report differs from the cold compile";
        }
        return {};
      });
}

/// One variant per circuit compiled in-process must match the daemon's
/// report byte for byte, and its programs must compute the generated
/// network.
void check_against_driver(const Workload& w, const Args& args,
                          const std::vector<Input>& inputs,
                          const std::vector<std::string>& cold_reports,
                          Result& result) {
  const plim::Driver driver(w.options());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].variant != 0) {
      continue;
    }
    auto outcome =
        driver.run(plim::CompileRequest::from_blif(inputs[i].path));
    if (!outcome.ok()) {
      result.fail(inputs[i].path + ": " + outcome.error_summary());
      continue;
    }
    const auto error = check_outputs(
        inputs[i].network, outcome.program, &*outcome.parallel, false,
        derive_seed(args.seed, kCheckStream, i));
    outcome.stats.normalize_timing();
    std::printf("%-10s cache entry %zu bytes\n", inputs[i].circuit.c_str(),
                plim::serve::CompileCache::approx_bytes(outcome));
    if (!error.empty()) {
      result.fail(inputs[i].path + ": " + error);
    } else if (outcome.stats.to_json() != cold_reports[i]) {
      result.fail(inputs[i].path + ": daemon report differs from Driver::run");
    }
  }
}

void count_phase(const Phase& phase, Result& result) {
  result.attempted += phase.samples.size();
  for (const auto& e : phase.errors) {
    result.fail(e);
  }
}

/// Client latencies of a phase, optionally only its hits or its misses.
std::vector<double> latencies(const Phase& phase,
                              std::optional<bool> hits = std::nullopt) {
  std::vector<double> out;
  for (const auto& s : phase.samples) {
    if (!hits || s.hit == *hits) {
      out.push_back(s.latency_ms);
    }
  }
  return out;
}

/// Traced serve run: the per-layer pipeline pass on one variant per
/// circuit, the daemon (queue waits from the response envelopes) and an
/// in-process serve::Server driven through process_line from the same
/// client threads (hit/miss latency, hit ratio and LRU evictions).
void run_traced(const Workload& w, const Args& args,
                const std::vector<Input>& inputs,
                const std::string& socket_path, Result& result) {
  Spans spans;
  std::vector<Input> one_variant;
  for (const auto& in : inputs) {
    if (in.variant == 0) {
      one_variant.push_back(in);
    }
  }
  traced_pipeline(w, one_variant, spans, result);

  const auto ranks = rank_to_input(inputs);
  const ZipfStream zipf(inputs.size(), derive_seed(args.seed, kZipfStream));
  std::vector<std::string> cold_reports;
  std::vector<double> queue_ms;
  {
    Daemon daemon(args.plimc, socket_path, args.work_dir + "/daemon.log");
    auto clients = connect_clients(socket_path);
    count_phase(cold_pass(clients, inputs, ranks, cold_reports), result);
    const auto loop = zipf_loop(clients, inputs, ranks, zipf,
                                args.seconds / 2.0, cold_reports);
    count_phase(loop, result);
    for (const auto& s : loop.samples) {
      queue_ms.push_back(s.queue_ms);
    }
    clients.clear();
    daemon.stop();
  }

  plim::serve::ServerOptions server_options;
  server_options.workers = kClients;
  server_options.cache_bytes = std::size_t{kCacheMiB} << 20;
  server_options.stdio = false;
  plim::serve::Server server(w.options(), server_options);
  const auto send = [&](unsigned, std::uint64_t k, std::size_t index) {
    const auto id = spans.next_request();
    const SpanScope request(spans, "request", id, Spans::kNoParent);
    const SpanScope serve(spans, "serve.process_line", id, request.id());
    return server.process_line(request_line(k, inputs[index]));
  };
  const auto check = [&](std::size_t index,
                         const Response& r) -> std::string {
    return r.ok && r.report == cold_reports[index]
               ? std::string()
               : inputs[index].path + ": in-process report differs";
  };
  const auto cold = closed_loop(
      [&](std::uint64_t k) { return k < ranks.size() ? ranks[k] : SIZE_MAX; },
      send, check);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds / 2.0);
  const auto loop = closed_loop(
      [&](std::uint64_t k) {
        return Clock::now() < deadline ? ranks[zipf.rank(k)] : SIZE_MAX;
      },
      send, check);
  count_phase(cold, result);
  count_phase(loop, result);
  const auto stats = server.cache().stats();

  result.add("serve.hit_p50_ms", median(latencies(loop, true)), "ms");
  result.add("serve.miss_p50_ms", median(latencies(loop, false)), "ms");
  result.add("serve.queue_p99_ms", quantile(queue_ms, 0.99), "ms");
  result.add("serve.hit_ratio", stats.hit_rate(), "ratio");
  result.add("serve.evictions", static_cast<double>(stats.evictions), "count");
  std::printf(
      "in-process server: %zu requests, %llu hits, %llu misses, %llu "
      "evictions, %zu of %zu cache bytes\n",
      loop.samples.size() + cold.samples.size(),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.evictions), stats.bytes,
      stats.max_bytes);
  if (!spans.write(args.trace_path, args)) {
    result.fail("cannot write " + args.trace_path);
  }
}

}  // namespace

void run_serve_workload(const Workload& w, const Args& args, Result& result) {
  const auto socket_path = args.work_dir + "/plimc.sock";
  const auto inputs_dir = args.work_dir + "/inputs";
  if (args.trace) {
    run_traced(w, args, generate_inputs(w, args.seed, inputs_dir),
               socket_path, result);
    return;
  }

  // Set-up (inputs written, a fresh daemon answering pings) and the cold
  // pass run kSetupReps times; setup_s and compile_s are their medians.
  // The last daemon goes on to serve the Zipf loop.
  std::vector<double> setup_s;
  std::vector<double> cold_s;
  std::vector<Input> inputs;
  std::vector<std::size_t> ranks;
  std::vector<std::string> cold_reports;
  std::vector<std::string> first_reports;
  Phase zipf_phase;
  std::string stats;
  double peak_rss_mb = 0;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    inputs = generate_inputs(w, args.seed, inputs_dir);
    Daemon daemon(args.plimc, socket_path, args.work_dir + "/daemon.log");
    auto clients = connect_clients(socket_path);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);

    ranks = rank_to_input(inputs);
    const auto cold = cold_pass(clients, inputs, ranks, cold_reports);
    cold_s.push_back(cold.wall_s);
    count_phase(cold, result);
    if (rep == 0) {
      first_reports = cold_reports;
    } else if (cold_reports != first_reports) {
      result.fail("cold reports differ between daemons");
    }
    if (rep + 1 == kSetupReps) {
      const ZipfStream zipf(inputs.size(),
                            derive_seed(args.seed, kZipfStream));
      zipf_phase = zipf_loop(clients, inputs, ranks, zipf, args.seconds,
                             cold_reports);
      count_phase(zipf_phase, result);
      stats = clients[0]->call(R"({"id":"stats","cmd":"stats"})");
    }
    clients.clear();
    peak_rss_mb = daemon.stop();
  }
  check_against_driver(w, args, inputs, cold_reports, result);

  std::vector<double> instructions, cells, cycles;
  std::printf("%-16s %9s %8s %8s %10s %8s\n", "file", "#I", "#R", "steps",
              "makespan", "xfers");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& r = cold_reports[i];
    if (r.empty()) {
      continue;
    }
    instructions.push_back(schedule_number(r, "instructions"));
    cells.push_back(schedule_number(r, "rrams"));
    cycles.push_back(schedule_number(r, "makespan_cycles"));
    std::printf("%-16s %9.0f %8.0f %8.0f %10.0f %8.0f\n",
                (inputs[i].circuit + "-" + std::to_string(inputs[i].variant))
                    .c_str(),
                instructions.back(), cells.back(), schedule_number(r, "steps"),
                cycles.back(), schedule_number(r, "transfers"));
  }
  const auto zipf_latencies = latencies(zipf_phase);
  std::size_t hits = 0;
  for (const auto& s : zipf_phase.samples) {
    hits += s.hit ? 1 : 0;
  }
  std::printf("cold passes (s):");
  for (const double c : cold_s) {
    std::printf(" %.3f", c);
  }
  std::printf(
      "\nzipf loop %zu requests (%zu hits) in %.3f s; failed_fraction "
      "%.6f\ndaemon stats: %s\n",
      zipf_latencies.size(), hits, zipf_phase.wall_s,
      static_cast<double>(result.failed) /
          static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
      stats.c_str());

  result.add("setup_s", median(setup_s), "s");
  result.add("compile_s", median(cold_s), "s");
  result.add("peak_rss_mb", peak_rss_mb, "MiB");
  result.add("instructions_geomean", geomean(instructions), "instructions");
  result.add("cells_geomean", geomean(cells), "cells");
  result.add("cycles_geomean", geomean(cycles), "cycles");
  result.add("serve_p50_ms", quantile(zipf_latencies, 0.5), "ms");
  result.add("serve_p99_ms", quantile(zipf_latencies, 0.99), "ms");
  result.add("serve_rps",
             static_cast<double>(zipf_latencies.size()) / zipf_phase.wall_s,
             "1/s");
}

}  // namespace perfbench
