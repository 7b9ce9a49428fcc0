#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "sched/parallel_program.hpp"

namespace plim::sched {

/// The decoupled projection of a multi-bank program: every bank runs its
/// own serial instruction stream behind its own controller, and the only
/// cross-bank ordering comes from explicit sync tokens (SyncEdge) and
/// the shared inter-bank bus. The lockstep step view stays the canonical
/// storage (ParallelProgram); everything here is derived from it, and
/// the machine model lives here once: the stream view below, the issue
/// clock the timer and both planners run on, and the per-cell hazard
/// walk the sync tokens and the stream reorder are derived from.
///
/// Tokens point forward by rule: a token's wait sits in a strictly later
/// lockstep step than its signal (check_sync rejects anything else).
/// Stream order is step order too, so lockstep (step, bank) program
/// order is a topological order of streams, tokens and bus grants —
/// one sweep in that order times every op, and no token set can
/// deadlock.

/// The per-bank streams of a program, flat and in lockstep program
/// order (step, then bank): op `i` is `slot[i]`, packed into step
/// `step[i]` and issued at position `pos[i]` of its bank's stream.
/// Malformed slots (no such bank) are left out; validate() reports them.
struct StreamView {
  explicit StreamView(const ParallelProgram& program);

  std::uint32_t banks = 0;
  std::vector<Slot> slot;
  std::vector<std::uint32_t> step;
  std::vector<std::uint32_t> pos;
  /// The op reads a cell outside its own bank: a bus copy
  /// (ParallelProgram::reads_remote).
  std::vector<bool> remote;
  /// Op ids bank-major in stream order: bank b's stream is
  /// by_bank[bank_off[b], bank_off[b + 1]).
  std::vector<std::uint32_t> bank_off;
  std::vector<std::uint32_t> by_bank;

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(slot.size());
  }
  [[nodiscard]] std::uint32_t len(std::uint32_t bank) const {
    return bank_off[bank + 1] - bank_off[bank];
  }
  /// Program-order id of bank `bank`'s `pos`-th stream op.
  [[nodiscard]] std::uint32_t id(std::uint32_t bank, std::uint32_t pos) const {
    return by_bank[bank_off[bank] + pos];
  }
};

/// One ordering requirement between two ops of a StreamView: phase
/// `to_phase` of op `to` may begin only once phase `from_phase` of op
/// `from` has completed (the SyncEdge contract, over op ids).
struct Hazard {
  std::uint32_t from;
  std::uint32_t to;
  std::uint32_t from_phase;
  std::uint32_t to_phase;
};

/// Visits every hazard over the program's RRAM cells, from one walk in
/// program order: a read follows the cell's last write (RAW) and
/// precedes its next one (WAR), and a write follows the previous one
/// (WAW). Operand A is read in phase 1, operand B in phase 2, and the
/// destination joins the majority in the write phase. derive_sync and
/// check_sync keep the cross-bank pairs; reorder_streams schedules on
/// all of them. The hazards are never stored as one list: a program
/// that reuses its cells densely has several per op.
void for_each_hazard(const StreamView& view, std::uint32_t cells,
                     const std::function<void(const Hazard&)>& visit);

/// The decoupled machine's clock, written once for decoupled_timing, the
/// scheduler's projected makespan, reorder_streams and the refinement
/// screen's span model:
///  - a bank controller owns its stream, so it prefetches the next
///    instruction during the current write phase and issues
///    back-to-back ops every kCadence = phases − 1 cycles (the next read
///    phase lands exactly when the previous write commits —
///    array-port-limited and RM3-hazard-free);
///  - a token (or hazard) from phase f to phase t lets its waiter start
///    token_latency(f, t) = max(0, f + 1 − t) cycles after its signaller
///    starts: the waiting phase begins the cycle after the watched phase
///    completes, clamped so a consumer never launches before its
///    producer;
///  - copies pass the bus arbiter: on a bounded bus each copy holds one
///    of `bus_width` servers for all `phases` cycles, and grants are in
///    order — a copy starts no earlier than the copy granted before it.
///    An unbounded bus (width 0) has no arbiter, so copies there wait
///    for nothing but their own dependences and bank.
class IssueClock {
 public:
  static constexpr std::uint64_t kPhases =
      arch::Machine::phases_per_instruction;
  static constexpr std::uint32_t kWritePhase = kPhases - 1;
  static constexpr std::uint64_t kCadence = kPhases - 1;

  [[nodiscard]] static constexpr std::uint64_t token_latency(
      std::uint32_t from_phase, std::uint32_t to_phase) noexcept {
    return from_phase + 1 > to_phase ? from_phase + 1 - to_phase : 0;
  }
  /// Dense pipelined span of a stream of `ops` back-to-back ops.
  [[nodiscard]] static constexpr std::uint64_t stream_span(
      std::uint64_t ops) noexcept {
    return ops > 0 ? (ops - 1) * kCadence + kPhases : 0;
  }

  IssueClock(std::uint32_t banks, std::uint32_t bus_width)
      : bus_width_(bus_width), bank_ready_(banks, 0) {}

  /// Earliest cycle bank `bank` can issue its next op by its own stream.
  [[nodiscard]] std::uint64_t bank_ready(std::uint32_t bank) const {
    return bank_ready_[bank];
  }

  /// Issues bank `bank`'s next op, whose dependences allow it to start at
  /// `ready`; a `copy` passes the bus arbiter. Returns the start cycle.
  std::uint64_t issue(std::uint32_t bank, std::uint64_t ready, bool copy);

 private:
  std::uint32_t bus_width_;
  std::vector<std::uint64_t> bank_ready_;
  std::uint64_t last_grant_ = 0;
  /// Cycles the busy bus servers free up.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      servers_;
};

/// Derives and stores the minimal sync-token set for `program`,
/// replacing any existing tokens. One ordering requirement exists per
/// cross-bank hazard of for_each_hazard: a remote read (transfer copy) must
/// happen after the last earlier write of the cell it reads (RAW) and
/// before the cell's next overwrite (WAR). Requirements carry
/// phase-level endpoints (see SyncEdge): a RAW token signals at the
/// producer's write-phase completion and stalls only the consumer phase
/// that reads the operand (read A or read B), a WAR token signals when
/// the remote read's operand phase completes and stalls only the
/// overwriter's write phase. Requirements between the same ordered bank
/// pair are reduced to their Pareto frontier — a requirement is dropped
/// when another one signals later *and* waits earlier (folding its phase
/// bounds into the survivor when the positions tie), so consecutive
/// transfers between one bank pair coalesce into a single signal/wait —
/// and each surviving requirement becomes one token with the signal
/// placed as early and the wait as late as the hazard allows
/// (slack-aware placement). A hazard's two ops sit in different steps
/// (validate() forbids same-step read/write pairs), so every derived
/// token points forward.
void derive_sync(ParallelProgram& program);

/// Checks the stored sync tokens: both endpoints name existing, distinct
/// banks at in-range stream positions with in-range phase offsets
/// (< arch::Machine::phases_per_instruction); every wait sits in a
/// strictly later step than its signal (this rules out deadlock: any
/// cycle of stream order and tokens contains a token that does not point
/// forward); and every cross-bank hazard is covered by a token between
/// the same bank pair that signals at least as late and waits at least
/// as early as the hazard requires — at equal stream positions the
/// token's phases must be at least as strict (signal phase ≥, wait phase
/// ≤) as the hazard's; at strictly later signal / earlier wait positions
/// the stream's own `phases − 1` issue cadence covers any phase offset.
/// Returns an empty string when the tokens are sound, otherwise a
/// description of the first violation. Called by
/// ParallelProgram::validate() whenever tokens are present.
[[nodiscard]] std::string check_sync(const ParallelProgram& program);

/// Cycle accounting of one decoupled execution (see decoupled_timing).
struct DecoupledTiming {
  std::uint64_t makespan_cycles = 0;  ///< max over banks of finish time
  std::uint64_t bus_stall_cycles = 0;  ///< cycles ops waited for the bus
  /// Honest lower bound on makespan_cycles: the same sweep with bus
  /// *contention* relaxed (streams, tokens and the bounded bus's
  /// in-order grant chain kept, the width-limited server pool dropped),
  /// maxed with the aggregate bus-throughput floor ⌈bus ops × phases /
  /// width⌉. Always ≤ makespan_cycles — dropping constraints can only
  /// shorten the critical path, and the throughput floor undercounts by
  /// ignoring when bus ops become ready.
  std::uint64_t makespan_lower_bound = 0;
  /// Dense pipelined span of each bank's own stream
  /// (IssueClock::stream_span).
  std::vector<std::uint64_t> bank_busy_cycles;
  /// Wait cycles each bank's controller actually burned (finish − busy);
  /// a decoupled controller halts after its last op instead of ticking
  /// the global clock to the end of the program.
  std::vector<std::uint64_t> bank_idle_cycles;
  std::vector<std::uint64_t> bank_finish_cycles;  ///< bank's last op done
  /// Global (bank, stream position) execution order consistent with the
  /// op start times — the order a functional simulator must apply
  /// instructions in so every read sees exactly the values the sync
  /// tokens guarantee.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  /// Per-op cycle accounting, aligned index-for-index with `order`: the
  /// cycle the op issued, and how its pre-issue wait splits between
  /// sync-token stalls (dependency ready beyond the bank's own pipelined
  /// stream) and bus stalls (arbiter order + server contention). These
  /// feed the cycle-level per-bank trace timelines
  /// (sched::trace_decoupled_timeline); the aggregate counters above are
  /// their sums.
  std::vector<std::uint64_t> start_cycles;
  std::vector<std::uint64_t> sync_wait_cycles;
  std::vector<std::uint64_t> bus_wait_cycles;
};

/// Timing of the decoupled execution on the program's declared bus: one
/// IssueClock sweep over the ops in program order. A wait blocks only
/// the consumer phase its token names until the producer phase it
/// watches completes; tokens themselves are free — they ride the
/// controller handshake. Copies arbitrate in program (lockstep step)
/// order — a FIFO bus queue, which keeps the decoupled makespan at or
/// below the lockstep `steps × phases` bound for any schedule that
/// honours its declared bus width. The lockstep machine cannot pipeline
/// its streams: its fetch follows the global step commit, which is what
/// makes a lockstep step cost the full `phases` for every bank, busy or
/// not.
///
/// Throws std::logic_error when the program has cross-bank reads but no
/// sync tokens (call derive_sync first) or when check_sync rejects its
/// tokens.
[[nodiscard]] DecoupledTiming decoupled_timing(const ParallelProgram& program);

}  // namespace plim::sched
