#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "arch/machine.hpp"
#include "bench.hpp"
#include "circuits/epfl.hpp"
#include "io/blif.hpp"
#include "mig/random.hpp"
#include "mig/simulation.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// The EPFL suite minus the four slowest arithmetic circuits to schedule
// (div, log2, multiplier, square); sqrt stays as the large arithmetic case.
// The four large circuits compile once per pass, the ten smaller ones in
// three shuffle variants, so the quality geomeans rest on more than one
// shuffle of each small circuit.
const std::vector<std::string> kBanked = {
    "sqrt", "sin",  "mem_ctrl", "voter",     "adder",    "bar",    "max",
    "cavlc", "ctrl", "dec",      "i2c", "int2float", "priority", "router"};
const std::vector<unsigned> kBankedVariants = {1, 1, 1, 1, 3, 3, 3,
                                               3, 3, 3, 3, 3, 3, 3};

// The small and medium control circuits the compile server is asked for:
// the six heavier ones in two shuffle variants, the four lightest in 24.
const std::vector<std::string> kServed = {"ctrl",     "router", "cavlc",
                                          "int2float", "dec",   "priority",
                                          "adder",    "i2c",    "bar", "max"};
const std::vector<unsigned> kServedVariants = {24, 24, 24, 24, 2,
                                               2,  2,  2,  2,  2};

std::vector<std::string> all_epfl() {
  std::vector<std::string> names;
  for (const auto& spec : plim::circuits::epfl_suite()) {
    names.push_back(spec.name);
  }
  return names;
}

const std::vector<Workload>& workloads() {
  using plim::sched::ExecutionModel;
  static const auto epfl = all_epfl();
  static const std::vector<Workload> table = {
      {"serial-epfl", epfl, std::vector<unsigned>(epfl.size(), 1), 0,
       ExecutionModel::lockstep, 0, false},
      {"lockstep-4b", kBanked, kBankedVariants, 4, ExecutionModel::lockstep,
       0, false},
      {"decoupled-4b-bus1", kBanked, kBankedVariants, 4,
       ExecutionModel::decoupled, 1, false},
      {"serve-zipf", kServed, kServedVariants, 4, ExecutionModel::lockstep, 0,
       true},
  };
  return table;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

plim::Options Workload::options() const {
  plim::Options options;  // rewrite effort 4, verification on, 20 passes
  options.banks = banks;
  options.schedule.execution = execution;
  options.schedule.cost.bus_width = bus_width;
  return options;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return splitmix(splitmix(splitmix(seed) ^ a) ^ b);
}

std::vector<Input> generate_inputs(const Workload& w, std::uint64_t seed,
                                   const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto& circuits = w.circuits;
  std::vector<Input> inputs;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const auto base = plim::circuits::build_benchmark(circuits[c]);
    for (unsigned v = 0; v < w.variants[c]; ++v) {
      Input in;
      in.circuit = circuits[c];
      in.variant = v;
      in.path = dir + "/" + circuits[c] + "-" + std::to_string(v) + ".blif";
      in.network = plim::mig::shuffle_topological(
          base, derive_seed(seed, fnv1a(circuits[c]), v));
      std::ofstream out(in.path);
      plim::io::write_blif(in.network, out, circuits[c]);
      if (!out.flush()) {
        throw std::runtime_error("cannot write " + in.path);
      }
      inputs.push_back(std::move(in));
    }
  }
  plim::util::Rng rng(derive_seed(seed, kOrderStream));
  for (std::size_t i = inputs.size(); i > 1; --i) {
    std::swap(inputs[i - 1], inputs[rng.next() % i]);
  }
  return inputs;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb_self() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::cout << "FAILED: " << why << '\n';
}

std::string Result::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::uint64_t Spans::next_request() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return requests_++;
}

std::size_t Spans::open(std::string name, std::uint64_t request,
                        std::size_t parent) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = parent;
  const auto self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  span.thread = static_cast<std::size_t>(
      std::find(threads_.begin(), threads_.end(), self) - threads_.begin());
  if (span.thread == threads_.size()) {
    threads_.push_back(self);
  }
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Spans::close(std::size_t id) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = now;
}

double Spans::duration_ms(std::size_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ms_between(spans_[id].start, spans_[id].end);
}

double Spans::child_coverage(std::size_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double covered = 0.0;
  for (std::size_t i = id + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) {
      covered += ms_between(spans_[i].start, spans_[i].end);
    }
  }
  const double total = ms_between(spans_[id].start, spans_[id].end);
  return total > 0.0 ? covered / total : 1.0;
}

bool Spans::write(const std::string& path, const Args& args) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread + 1
        << ",\"ts\":" << us(s.start)
        << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":" << i
        << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n],\"otherData\":{\"workload\":\"" << args.workload
      << "\",\"seed\":" << args.seed << "}}\n";
  return static_cast<bool>(out.flush());
}

std::string check_outputs(const plim::mig::Mig& generated,
                          const plim::arch::Program& serial,
                          const plim::sched::ParallelProgram* parallel,
                          bool decoupled, std::uint64_t seed,
                          std::uint64_t* serial_cycles) {
  if (serial.num_inputs() != generated.num_pis() ||
      serial.num_outputs() != generated.num_pos()) {
    return "interface differs from the generated network";
  }
  constexpr unsigned kRounds = 4;  // x 64 vectors
  plim::util::Rng rng(seed);
  const auto random_words = [&](std::size_t n) {
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) {
      w = rng.next();
    }
    return words;
  };
  for (unsigned round = 0; round < kRounds; ++round) {
    const auto inputs = random_words(generated.num_pis());
    const auto expected = plim::mig::simulate_words(generated, inputs);
    plim::arch::Machine machine;
    if (machine.run_words(serial, inputs, random_words(serial.num_rrams())) !=
        expected) {
      return "serial program differs from the generated network";
    }
    if (serial_cycles != nullptr && round == 0) {
      *serial_cycles = machine.cycles();
    }
    if (parallel == nullptr) {
      continue;
    }
    const auto initial = random_words(parallel->num_rrams());
    if (machine.run_parallel_words(*parallel, inputs, initial) != expected) {
      return "lockstep schedule differs from the generated network";
    }
    if (decoupled &&
        machine.run_decoupled_words(*parallel, inputs, initial) != expected) {
      return "decoupled schedule differs from the generated network";
    }
  }
  return {};
}

}  // namespace perfbench
