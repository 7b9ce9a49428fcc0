#pragma once

#include <cstdint>
#include <string>

#include "sched/decoupled.hpp"
#include "sched/parallel_program.hpp"

namespace plim::sched {

/// Renders one decoupled execution (`timing` = decoupled_timing of
/// `program`, whose tokens it checked) as a cycle-accurate timeline in the
/// global tracer: a fresh trace process (pid) named after `label`, one
/// track per bank, and on each track busy / wait-sync / wait-bus slices
/// per op (timestamps are machine cycles, not wall-clock) plus a
/// trailing idle slice up to the makespan. Sync tokens are drawn as flow
/// arrows from the signalling op's retirement to the waiting op's issue,
/// so bus transfers and cross-bank stalls show up as arrows between bank
/// tracks in Perfetto. No-op when the tracer is disabled. Returns the
/// reserved pid (0 when disabled).
std::uint32_t trace_decoupled_timeline(const ParallelProgram& program,
                                       const DecoupledTiming& timing,
                                       const std::string& label);

}  // namespace plim::sched
