/// Refinement-evaluator throughput micro-bench, driven entirely through
/// the plim::Driver facade: prices the same KL refinement under the
/// exact (full re-schedule per trial move) and the incremental
/// (O(window) delta estimate, exact confirmation) evaluators and
/// reports what each trial move costs.
///
/// Two sweeps per benchmark, 4 banks:
///
///   evaluators  full vs incremental (resync every accept) vs
///               incremental with deferred resync (every 4th accept) at
///               the default pass budget — trial moves priced, refine
///               wall-clock, cost per trial move, trial moves per
///               second, and the schedule quality each lands on;
///   budget      steps vs refine wall-clock at passes in {2, 8, 20}
///               under the default (incremental) evaluator — the
///               steps-per-millisecond trajectory the 10x pass budget
///               buys.
///
/// The whole run is emitted as JSON next to BENCH_sched.json (every
/// quality block is one plim::StatsReport, the schema plimc --json and
/// tools/diff_bench.py share) so evaluator throughput is tracked across
/// PRs.
///
/// Usage: refine_throughput [--benchmark <name>] [--effort N]
///                          [--json <file|->] [--smoke]
///
/// --smoke restricts the sweep to `bar` (the config with the starkest
/// screening leverage) and exits non-zero unless the incremental
/// evaluator with deferred resync prices trial moves at least 5x
/// cheaper than the full evaluator — the CI gate that keeps the
/// screening architecture from silently rotting back into
/// one-re-schedule-per-trial.
///
/// Verification is off throughout (schedule well-formedness is still
/// validated by the driver); equivalence coverage lives in the test
/// suite and sched_speedup.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "circuits/epfl.hpp"
#include "driver/driver.hpp"
#include "mig/cleanup.hpp"
#include "mig/rewriting.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

constexpr std::uint32_t kBanks = 4;
constexpr std::uint32_t kBudgetPasses[] = {2, 8, 20};
constexpr const char* kDefaultSet[] = {"ctrl", "router", "cavlc",
                                       "dec",  "bar",    "max"};
constexpr const char* kSmokeSet[] = {"bar"};
constexpr double kSmokeSpeedupBar = 5.0;

std::string fixed(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

/// One evaluator configuration of the comparison sweep.
struct EvalConfig {
  const char* label;
  bool incremental;
  std::uint32_t resync;
};

constexpr EvalConfig kEvalConfigs[] = {
    {"full", false, 1},
    {"incremental", true, 1},
    {"incremental-k4", true, 4},
};

struct EvalResult {
  plim::StatsReport report;
  double per_trial_ms = 0.0;
  double moves_per_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  std::string json_path;
  unsigned effort = 2;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--effort") == 0 && i + 1 < argc) {
      effort = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: refine_throughput [--benchmark <name>] "
                   "[--effort N] [--json <file|->] [--smoke]\n";
      return 2;
    }
  }
  if (smoke) {
    effort = std::min(effort, 1u);
  }
  const auto in_set = [&](const std::string& name) {
    if (!only.empty()) {
      return name == only;
    }
    const auto* set = smoke ? kSmokeSet : kDefaultSet;
    const auto count = smoke ? std::size(kSmokeSet) : std::size(kDefaultSet);
    for (std::size_t i = 0; i < count; ++i) {
      if (name == set[i]) {
        return true;
      }
    }
    return false;
  };

  plim::mig::RewriteOptions ropts;
  ropts.effort = effort;

  const auto config_options = [&](bool incremental, std::uint32_t resync,
                                  std::uint32_t passes) {
    plim::Options options;
    options.rewrite.effort = 0;  // the network below is pre-rewritten
    options.banks = kBanks;
    options.schedule.refine_incremental = incremental;
    options.schedule.refine_resync = resync;
    options.schedule.refine_passes = passes;
    options.verify.enabled = false;
    return options;
  };

  plim::util::JsonWriter json;
  json.begin_object();
  json.field("bench", "refine_throughput");
  json.field("effort", std::uint64_t{effort});
  json.field("smoke", smoke);
  json.field("banks", kBanks);
  json.begin_array("benchmarks");

  plim::util::TablePrinter eval_table(
      {"Benchmark", "Evaluator", "Steps", "Tried", "Exact", "Refine ms",
       "us/trial", "Trials/s"});
  plim::util::TablePrinter budget_table(
      {"Benchmark", "Passes", "Steps", "Transfers", "Refine ms"});

  bool smoke_gate_ok = true;
  std::string smoke_gate_report;
  for (const auto& spec : plim::circuits::epfl_suite()) {
    if (!in_set(spec.name)) {
      continue;
    }
    const auto network = spec.build();
    const auto optimized =
        effort > 0 ? plim::mig::rewrite_for_plim(network, ropts)
                   : plim::mig::cleanup_dangling(network);
    const auto request = plim::CompileRequest::from_mig(optimized, spec.name);

    json.begin_object();
    json.field("benchmark", spec.name);

    // ---- evaluator comparison at the default pass budget ----------------
    std::vector<EvalResult> results;
    json.begin_array("evaluators");
    for (const auto& cfg : kEvalConfigs) {
      const auto options = config_options(
          cfg.incremental, cfg.resync,
          plim::Options{}.schedule.refine_passes);
      const auto outcome = plim::Driver(options).run(request);
      if (!outcome.ok()) {
        std::cerr << spec.name << " (" << cfg.label
                  << "): " << outcome.error_summary() << '\n';
        return 1;
      }
      EvalResult r;
      r.report = outcome.stats;
      const auto& s = *r.report.schedule;
      if (s.refine_moves_tried > 0 && s.refine_ms > 0.0) {
        r.per_trial_ms = s.refine_ms / s.refine_moves_tried;
        r.moves_per_s = 1000.0 * s.refine_moves_tried / s.refine_ms;
      }
      json.begin_object();
      json.field("evaluator", cfg.label);
      json.field("resync", cfg.resync);
      json.field("per_trial_ms", r.per_trial_ms);
      json.field("trial_moves_per_s", r.moves_per_s);
      json.begin_object("report");
      r.report.write_json_fields(json);
      json.end_object();
      json.end_object();
      eval_table.add_row(
          {spec.name, cfg.label, std::to_string(s.steps),
           std::to_string(s.refine_moves_tried),
           std::to_string(s.refine_full_evals), fixed(s.refine_ms, 1),
           fixed(1000.0 * r.per_trial_ms, 1), fixed(r.moves_per_s, 0)});
      results.push_back(std::move(r));
    }
    json.end_array();
    eval_table.add_separator();

    // Speedup per trial move of the deferred-resync incremental
    // evaluator over the full evaluator — the screening-architecture
    // headline (deferred resync isolates estimate throughput; at the
    // default resync-every-accept most of the remaining cost is exact
    // confirmations of accepted moves).
    const auto& full = results[0];
    const auto& deferred = results[2];
    double speedup = 0.0;
    if (full.per_trial_ms > 0.0 && deferred.per_trial_ms > 0.0) {
      speedup = full.per_trial_ms / deferred.per_trial_ms;
    }
    json.field("per_trial_speedup_deferred", speedup);
    std::cout << spec.name << ": incremental (deferred resync) prices "
              << "trial moves " << fixed(speedup, 1)
              << "x cheaper than the full evaluator\n";
    if (smoke) {
      smoke_gate_report += spec.name + ": " + fixed(speedup, 1) + "x; ";
      if (speedup < kSmokeSpeedupBar) {
        smoke_gate_ok = false;
      }
    }

    // ---- steps vs wall-clock across the pass budget ----------------------
    json.begin_array("budget_curve");
    for (const auto passes : kBudgetPasses) {
      const auto options = config_options(true, 1, passes);
      const auto outcome = plim::Driver(options).run(request);
      if (!outcome.ok()) {
        std::cerr << spec.name << " (passes " << passes
                  << "): " << outcome.error_summary() << '\n';
        return 1;
      }
      const auto& s = *outcome.stats.schedule;
      json.begin_object();
      json.field("passes", passes);
      json.field("steps", s.steps);
      json.field("transfers", s.transfers);
      json.field("refine_ms", s.refine_ms);
      json.end_object();
      budget_table.add_row({spec.name, std::to_string(passes),
                            std::to_string(s.steps),
                            std::to_string(s.transfers),
                            fixed(s.refine_ms, 1)});
    }
    json.end_array();
    budget_table.add_separator();
    json.end_object();
  }
  json.end_array();
  json.field("smoke_gate_ok", smoke_gate_ok);
  json.end_object();

  std::cout << '\n';
  eval_table.print(std::cout);
  std::cout << '\n';
  budget_table.print(std::cout);

  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << json.str() << '\n';
    } else {
      std::ofstream out(json_path);
      out << json.str() << '\n';
      std::cout << "\nwrote " << json_path << '\n';
    }
  }

  if (smoke && !smoke_gate_ok) {
    std::cerr << "\nsmoke gate FAILED: incremental evaluator must price "
                 "trial moves at least "
              << fixed(kSmokeSpeedupBar, 0)
              << "x cheaper than the full evaluator (" << smoke_gate_report
              << ")\n";
    return 1;
  }
  return 0;
}
