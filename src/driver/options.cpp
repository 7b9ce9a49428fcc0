#include "driver/options.hpp"

#include <string>

namespace plim {

namespace {

constexpr std::uint32_t kMaxBanks = 1024;

}  // namespace

Options Options::textbook_naive() {
  Options opts;
  opts.rewrite.effort = 0;
  opts.compile.smart_candidates = false;
  opts.compile.cache_complements = false;
  opts.compile.textbook_slots = true;
  opts.compile.allocation = core::AllocationPolicy::fresh;
  return opts;
}

std::vector<Diagnostic> Options::validate() const {
  std::vector<Diagnostic> diags;

  if (banks > kMaxBanks) {
    diags.push_back(Diagnostic::error(
        "banks-out-of-range",
        "banks = " + std::to_string(banks) + " exceeds the supported maximum "
            "of " + std::to_string(kMaxBanks)));
  }
  if (schedule.execution == sched::ExecutionModel::decoupled && banks == 0) {
    diags.push_back(Diagnostic::error(
        "execution-needs-banks",
        "decoupled execution times per-bank instruction streams, but "
        "banks = 0 requests a serial program — set Options::banks (plimc: "
        "--banks N)"));
  }
  if (compile.textbook_slots && compile.smart_candidates) {
    diags.push_back(Diagnostic::error(
        "textbook-conflicts-smart",
        "textbook_slots fixes RM3 slots left-to-right for the §3 "
        "exposition and contradicts smart candidate selection — disable "
        "compile.smart_candidates (or use Options::textbook_naive())"));
  }
  if (compile.rram_cap && *compile.rram_cap == 0) {
    diags.push_back(Diagnostic::error(
        "rram-cap-zero",
        "rram_cap = 0 admits no work cells at all — use std::nullopt for "
        "an unbounded array or a positive capacity"));
  }
  if (compile.degradation.enabled && !compile.rram_cap) {
    diags.push_back(Diagnostic::warning(
        "degradation-without-cap",
        "degradation only engages when a compile hits compile.rram_cap; "
        "without a cap it is inert — set rram_cap (plimc: --cap N) "
        "or drop --degrade"));
  }
  if (verify.enabled && verify.rounds == 0) {
    diags.push_back(Diagnostic::error(
        "verify-rounds-zero",
        "verification is enabled with 0 rounds, which checks nothing — "
        "set verify.rounds > 0 or disable verification"));
  }
  if (banks == 0 && schedule.cost.bus_width > 0) {
    diags.push_back(Diagnostic::warning(
        "bus-width-without-banks",
        "a bounded bus (bus_width = " +
            std::to_string(schedule.cost.bus_width) +
            ") only constrains multi-bank schedules; with banks = 0 it is "
            "inert"));
  }
  return diags;
}

}  // namespace plim
