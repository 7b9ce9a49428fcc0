#include "sched/verify.hpp"

#include <optional>
#include <vector>

#include "arch/machine.hpp"
#include "sched/decoupled.hpp"
#include "util/rng.hpp"

namespace plim::sched {

bool equivalent_to_serial(const arch::Program& serial,
                          const ParallelProgram& parallel, unsigned rounds,
                          std::uint64_t seed, ExecutionModel model) {
  util::Rng rng(seed);
  // The decoupled static timing is input-independent; analyse (and
  // thereby sync-check) the program once instead of every round.
  std::optional<DecoupledTiming> timing;
  if (model == ExecutionModel::decoupled) {
    timing = decoupled_timing(parallel);
  }
  for (unsigned round = 0; round < rounds; ++round) {
    std::vector<std::uint64_t> in(serial.num_inputs());
    for (auto& w : in) {
      w = rng.next();
    }
    std::vector<std::uint64_t> init_serial(serial.num_rrams());
    for (auto& w : init_serial) {
      w = rng.next();
    }
    std::vector<std::uint64_t> init_parallel(parallel.num_rrams());
    for (auto& w : init_parallel) {
      w = rng.next();
    }
    arch::Machine serial_machine;
    arch::Machine parallel_machine;
    const auto parallel_out =
        model == ExecutionModel::decoupled
            ? parallel_machine.run_decoupled_words(parallel, in, init_parallel,
                                                   &*timing)
            : parallel_machine.run_parallel_words(parallel, in, init_parallel);
    if (serial_machine.run_words(serial, in, init_serial) != parallel_out) {
      return false;
    }
  }
  return true;
}

}  // namespace plim::sched
