/// Google-benchmark microbenchmarks of the core operations: network
/// construction with structural hashing, BLIF reading and writing,
/// rewriting passes, compilation (through the plim::Driver facade),
/// bit-parallel simulation, and machine execution throughput.

#include <benchmark/benchmark.h>

#include <sstream>

#include "arch/machine.hpp"
#include "circuits/epfl.hpp"
#include "driver/driver.hpp"
#include "io/blif.hpp"
#include "mig/random.hpp"
#include "mig/rewriting.hpp"
#include "mig/simulation.hpp"
#include "util/rng.hpp"

namespace {

/// Compile-only driver: rewriting off (inputs are pre-rewritten so the
/// benchmark isolates Algorithm 2), verification off.
plim::Driver compile_driver() {
  plim::Options options;
  options.rewrite.effort = 0;
  options.verify.enabled = false;
  return plim::Driver(options);
}

void BM_CreateMajStrash(benchmark::State& state) {
  for (auto _ : state) {
    plim::mig::Mig m;
    std::vector<plim::mig::Signal> pool;
    for (int i = 0; i < 16; ++i) {
      pool.push_back(m.create_pi());
    }
    plim::util::Rng rng(1);
    for (int i = 0; i < 4096; ++i) {
      const auto a = pool[rng.below(pool.size())] ^ rng.flip();
      const auto b = pool[rng.below(pool.size())] ^ rng.flip();
      const auto c = pool[rng.below(pool.size())] ^ rng.flip();
      pool.push_back(m.create_maj(a, b, c));
    }
    benchmark::DoNotOptimize(m.num_gates());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_CreateMajStrash);

void BM_BuildAdder(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto m = plim::circuits::make_adder(bits);
    benchmark::DoNotOptimize(m.num_gates());
  }
}
BENCHMARK(BM_BuildAdder)->Arg(32)->Arg(128);

void BM_RewriteAdder(benchmark::State& state) {
  const auto m = plim::circuits::make_adder(64);
  for (auto _ : state) {
    const auto r = plim::mig::rewrite_for_plim(m);
    benchmark::DoNotOptimize(r.num_gates());
  }
  state.SetItemsProcessed(state.iterations() * m.num_gates());
}
BENCHMARK(BM_RewriteAdder);

/// An EPFL circuit in a shuffled topological order.
plim::mig::Mig shuffled(const char* name) {
  return plim::mig::shuffle_topological(
      plim::circuits::build_benchmark(name), 1);
}

/// BLIF text of the EPFL `sin` circuit in a shuffled topological order —
/// the form in which the compile workloads receive their inputs.
const std::string& shuffled_sin_blif() {
  static const std::string text = plim::io::to_blif(shuffled("sin"), "sin");
  return text;
}

/// Writing the network BM_ReadBlif reads, as the compile workloads'
/// set-up writes their inputs.
void BM_WriteBlif(benchmark::State& state) {
  const auto m = shuffled("sin");
  std::int64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    plim::io::write_blif(m, os, "sin");
    bytes += static_cast<std::int64_t>(os.tellp());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_WriteBlif)->Unit(benchmark::kMillisecond);

void BM_ReadBlif(benchmark::State& state) {
  const auto& text = shuffled_sin_blif();
  for (auto _ : state) {
    const auto m = plim::io::read_blif_text(text);
    benchmark::DoNotOptimize(m.num_gates());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadBlif)->Unit(benchmark::kMillisecond);

/// Algorithm 1 at the default effort on the network BM_ReadBlif reads.
void BM_RewriteSin(benchmark::State& state) {
  const auto m = plim::io::read_blif_text(shuffled_sin_blif());
  for (auto _ : state) {
    const auto r = plim::mig::rewrite_for_plim(m);
    benchmark::DoNotOptimize(r.num_gates());
  }
  state.SetItemsProcessed(state.iterations() * m.num_gates());
}
BENCHMARK(BM_RewriteSin)->Unit(benchmark::kMillisecond);

/// Algorithm 1 on `sqrt` read from its shuffled BLIF: the rewrite whose
/// rules fire most (46,180 → 34,084 gates).
void BM_RewriteSqrt(benchmark::State& state) {
  const auto m = plim::io::read_blif_text(plim::io::to_blif(shuffled("sqrt")));
  for (auto _ : state) {
    const auto r = plim::mig::rewrite_for_plim(m);
    benchmark::DoNotOptimize(r.num_gates());
  }
  state.SetItemsProcessed(state.iterations() * m.num_gates());
}
BENCHMARK(BM_RewriteSqrt)->Unit(benchmark::kMillisecond);

void BM_CompileAdder(benchmark::State& state) {
  const auto m = plim::mig::rewrite_for_plim(plim::circuits::make_adder(64));
  const auto driver = compile_driver();
  const auto request = plim::CompileRequest::from_mig(m, "adder64");
  for (auto _ : state) {
    const auto r = driver.run(request);
    benchmark::DoNotOptimize(r.stats.compile.num_instructions);
  }
  state.SetItemsProcessed(state.iterations() * m.num_gates());
}
BENCHMARK(BM_CompileAdder);

void BM_SimulateWords(benchmark::State& state) {
  const auto m = plim::circuits::make_adder(64);
  std::vector<std::uint64_t> in(m.num_pis());
  plim::util::Rng rng(2);
  for (auto& w : in) {
    w = rng.next();
  }
  for (auto _ : state) {
    const auto out = plim::mig::simulate_words(m, in);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * m.num_gates() * 64);
}
BENCHMARK(BM_SimulateWords);

void BM_MachineRun(benchmark::State& state) {
  const auto m = plim::mig::rewrite_for_plim(plim::circuits::make_adder(64));
  const auto r =
      compile_driver().run(plim::CompileRequest::from_mig(m, "adder64"));
  plim::arch::Machine machine;
  std::vector<std::uint64_t> in(m.num_pis());
  plim::util::Rng rng(3);
  for (auto& w : in) {
    w = rng.next();
  }
  for (auto _ : state) {
    const auto out = machine.run_words(r.program, in);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * r.program.num_instructions() *
                          64);
}
BENCHMARK(BM_MachineRun);

}  // namespace
