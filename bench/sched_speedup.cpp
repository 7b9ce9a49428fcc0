/// Multi-bank scheduling sweep over the EPFL benchmarks, driven entirely
/// through the plim::Driver facade: compiles every circuit with the full
/// DAC'16 pipeline and schedules it onto 1/2/4/8 PLiM banks — the
/// serial program is re-partitioned after the fact (heavy-edge
/// clustering + cost-model bank assignment; the "post" block of the
/// JSON) — plus a bounded-bus sweep (widths 1, 2, unbounded) at 4 banks
/// and the un-clustered, unrefined 4-bank baseline. Every schedule is
/// cross-checked against its serial program on random 64-lane patterns
/// — under the lockstep machine *and* under decoupled execution — by the
/// driver's built-in verification, and the whole trajectory is emitted
/// as JSON (BENCH_sched.json in CI) so scheduler performance is tracked
/// across PRs. Every JSON block is one plim::StatsReport — the same
/// schema `plimc --json` emits and `tools/diff_bench.py` consumes.
///
/// Exits non-zero when any schedule diverges from its serial program or
/// when a regression bar breaks:
///   - average 4-bank speedup must stay above 1.2x,
///   - voter at 8 banks must take fewer steps than at 4 banks (the
///     majority-subtree clustering guarantee),
///   - clustered, refined bank assignment must need fewer total 4-bank
///     transfers than the un-clustered, unrefined baseline,
///   - decoupled makespan must never exceed the lockstep steps × phases
///     bound on any configuration (the step barrier only ever
///     over-synchronizes), and
///   - (full sweep) decoupling must cut cycles by at least 10% on at
///     least one benchmark configuration.
///
/// Usage: sched_speedup [--benchmark <name>] [--effort N] [--rounds N]
///                      [--json <file|->] [--no-verify] [--smoke]
///
/// --smoke restricts the sweep to the six small control circuits at
/// effort 1 with one verification round — the CI-friendly mode that
/// still exercises every code path.

#include <chrono>
#include <cstdio>
#include <cstring>
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

constexpr std::uint32_t kBankCounts[] = {1, 2, 4, 8};
constexpr std::uint32_t kBusWidths[] = {1, 2, 0};  // 0 = unbounded
constexpr const char* kSmokeSet[] = {"ctrl",      "cavlc", "int2float",
                                     "router",    "dec",   "priority"};

std::string fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  std::string json_path;
  unsigned effort = 4;
  unsigned rounds = 2;
  bool verify = true;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--effort") == 0 && i + 1 < argc) {
      effort = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      verify = false;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: sched_speedup [--benchmark <name>] [--effort N] "
                   "[--rounds N] [--json <file|->] [--no-verify] [--smoke]\n";
      return 2;
    }
  }
  if (smoke) {
    effort = std::min(effort, 1u);
    rounds = 1;
  }
  const auto in_smoke_set = [&](const std::string& name) {
    for (const auto* s : kSmokeSet) {
      if (name == s) {
        return true;
      }
    }
    return false;
  };

  plim::mig::RewriteOptions ropts;
  ropts.effort = effort;

  // Every configuration of the sweep is one driver run over the
  // pre-rewritten network (rewriting runs once per benchmark, outside
  // the bank/bus sweeps, so the trajectory isolates scheduling effects).
  const auto config_options = [&](std::uint32_t banks, std::uint64_t seed) {
    plim::Options options;
    options.rewrite.effort = 0;
    options.banks = banks;
    // Default refinement budget (incremental evaluator, 20 passes):
    // passes stop early once a pass finds nothing new, so small circuits
    // pay almost nothing.
    // Report cycle figures (makespan_cycles, bank idle) under the
    // decoupled model; lockstep_cycles rides along in the same JSON.
    // This also makes the driver verify the schedule under *both*
    // execution models.
    options.schedule.execution = plim::sched::ExecutionModel::decoupled;
    options.verify.enabled = verify;
    options.verify.rounds = rounds;
    options.verify.seed = seed;
    return options;
  };

  // #I@4: instruction count of the serial program the schedules run on.
  std::vector<std::string> header = {"Benchmark", "#I@4"};
  for (const auto banks : kBankCounts) {
    const auto b = std::to_string(banks);
    header.push_back("steps@" + b);
    header.push_back("xfer@" + b);
    header.push_back("speedup@" + b);
  }
  header.push_back("steps@4/bus1");
  header.push_back("dec@4");  // cycle speedup of decoupled over lockstep
  plim::util::TablePrinter table(std::move(header));

  plim::util::JsonWriter json;
  json.begin_object();
  json.field("bench", "sched_speedup");
  json.field("effort", std::uint64_t{effort});
  json.field("smoke", smoke);
  json.begin_array("benchmarks");

  double speedup4_sum = 0.0;
  double decoupled4_sum = 0.0;
  std::uint64_t transfers4 = 0;
  std::uint64_t unclustered_transfers4 = 0;
  std::uint32_t voter_steps4 = 0;
  std::uint32_t voter_steps8 = 0;
  double best_decoupling = 0.0;  // max cycle reduction of decoupling
  std::string best_decoupling_config;
  bool decoupled_bound_ok = true;
  unsigned circuits = 0;
  const auto t0 = std::chrono::steady_clock::now();

  // Model invariant, checked on every scheduled configuration: the step
  // barrier only ever over-synchronizes, so decoupled execution must
  // never be slower than the lockstep clock.
  const auto check_decoupled = [&](const plim::sched::ScheduleStats& s,
                                   const std::string& where) {
    if (s.decoupled_cycles > s.lockstep_cycles) {
      std::cerr << where << ": decoupled makespan " << s.decoupled_cycles
                << " exceeds the lockstep bound " << s.lockstep_cycles
                << " cycles\n";
      decoupled_bound_ok = false;
    }
    // The event-driven lower bound (critical path without bus-server
    // contention, maxed with the bus-throughput floor) must hold: a
    // makespan below it means the timing model dropped a dependency.
    if (s.makespan_lower_bound > s.decoupled_cycles) {
      std::cerr << where << ": decoupled makespan " << s.decoupled_cycles
                << " undercuts its own lower bound "
                << s.makespan_lower_bound << " cycles\n";
      decoupled_bound_ok = false;
    }
    // Headline reduction only over multi-bank configs — a single bank
    // gains from pipelined fetch alone, which is not the point here.
    if (s.banks > 1 && s.lockstep_cycles > 0) {
      const auto reduction =
          1.0 - static_cast<double>(s.decoupled_cycles) /
                    static_cast<double>(s.lockstep_cycles);
      if (reduction > best_decoupling) {
        best_decoupling = reduction;
        best_decoupling_config = where;
      }
    }
  };

  for (const auto& spec : plim::circuits::epfl_suite()) {
    if (!only.empty() && spec.name != only) {
      continue;
    }
    if (smoke && only.empty() && !in_smoke_set(spec.name)) {
      continue;
    }
    const auto network = spec.build();
    const auto optimized =
        effort > 0 ? plim::mig::rewrite_for_plim(network, ropts)
                   : plim::mig::cleanup_dangling(network);
    const auto request =
        plim::CompileRequest::from_mig(optimized, spec.name);

    json.begin_object();
    json.field("benchmark", spec.name);

    // The in-tree baseline: per-segment cost assignment without
    // clustering or refinement, 4 banks.
    {
      auto options = config_options(4, 4001 + circuits);
      options.schedule.cluster = false;
      options.schedule.refine_passes = 0;
      const auto outcome = plim::Driver(options).run(request);
      if (!outcome.ok()) {
        std::cerr << spec.name << " (unclustered @ 4 banks): "
                  << outcome.error_summary() << '\n';
        return 1;
      }
      unclustered_transfers4 += outcome.stats.schedule->transfers;
      json.begin_object("unclustered_4banks");
      outcome.stats.write_json_fields(json);
      json.end_object();
    }

    {
      json.begin_object("post");
      std::vector<std::string> row = {spec.name};
      std::string bus1_cell = "-";

      // The 4-bank report is reused by the bus sweep below.
      plim::StatsReport report4;

      json.begin_array("banks");
      for (const auto banks : kBankCounts) {
        const auto options = config_options(banks, banks * 7919 + circuits);
        const auto outcome = plim::Driver(options).run(request);
        if (!outcome.ok()) {
          std::cerr << spec.name << " @ " << banks
                    << " banks: " << outcome.error_summary() << '\n';
          return 1;
        }
        const auto& s = *outcome.stats.schedule;
        check_decoupled(s, spec.name + " (post) @ " + std::to_string(banks) +
                               " banks");
        row.push_back(std::to_string(s.steps));
        row.push_back(std::to_string(s.transfers));
        row.push_back(fixed2(s.speedup) + "x");
        json.begin_object();
        outcome.stats.write_json_fields(json);
        json.end_object();
        if (banks == 4) {
          speedup4_sum += s.speedup;
          decoupled4_sum += s.decoupled_speedup;
          transfers4 += s.transfers;
          row.insert(row.begin() + 1,
                     std::to_string(outcome.program.num_instructions()));
          report4 = outcome.stats;
        }
        if (spec.name == "voter") {
          if (banks == 4) {
            voter_steps4 = s.steps;
          } else if (banks == 8) {
            voter_steps8 = s.steps;
          }
        }
      }
      json.end_array();  // banks

      // Bounded-bus sweep at 4 banks: how much does a narrow bus cost?
      json.begin_array("bus_4banks");
      for (const auto width : kBusWidths) {
        if (width == 0) {
          // Identical to the banks==4 run above (deterministic
          // scheduler) — reuse its report instead of re-scheduling and
          // re-verifying the largest circuits twice.
          json.begin_object();
          report4.write_json_fields(json);
          json.end_object();
          continue;
        }
        auto options = config_options(4, width * 131 + circuits);
        options.schedule.cost.bus_width = width;
        const auto bounded = plim::Driver(options).run(request);
        if (!bounded.ok()) {
          std::cerr << spec.name << " bus " << width << ": "
                    << bounded.error_summary() << '\n';
          return 1;
        }
        check_decoupled(*bounded.stats.schedule,
                        spec.name + " (post) bus " + std::to_string(width));
        json.begin_object();
        bounded.stats.write_json_fields(json);
        json.end_object();
        if (width == 1) {
          bus1_cell = std::to_string(bounded.stats.schedule->steps);
        }
      }
      json.end_array();  // bus_4banks
      json.end_object();  // post
      row.push_back(bus1_cell);
      row.push_back(fixed2(report4.schedule->decoupled_speedup) + "x");
      table.add_row(std::move(row));
    }
    json.end_object();  // benchmark
    ++circuits;
  }

  if (circuits == 0) {
    std::cerr << "sched_speedup: no benchmark matched\n";
    return 1;
  }

  const auto avg4_post = speedup4_sum / circuits;
  const auto avg4_dec_post = decoupled4_sum / circuits;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  json.end_array();
  json.field("average_speedup_4_banks", avg4_post);
  json.field("average_decoupled_speedup_4_banks", avg4_dec_post);
  json.field("max_decoupling_cycle_reduction", best_decoupling);
  json.field("max_decoupling_config", best_decoupling_config);
  json.field("total_transfers_4_banks_post", transfers4);
  json.field("total_transfers_4_banks_unclustered", unclustered_transfers4);
  if (voter_steps4 > 0) {
    json.field("voter_steps_4_banks", voter_steps4);
    json.field("voter_steps_8_banks", voter_steps8);
  }
  json.field("verified", verify);
  json.end_object();

  std::cout << "Multi-bank scheduling sweep (rewriting effort " << effort
            << (verify ? ", schedules verified against serial execution"
                       : "")
            << (smoke ? ", smoke set" : "") << ")\n\n";
  table.print(std::cout);
  std::cout << "\naverage 4-bank speedup: " << fixed2(avg4_post) << "x over "
            << circuits << " circuits\n"
            << "decoupled execution at 4 banks: " << fixed2(avg4_dec_post)
            << "x cycle speedup over lockstep (best single config "
            << fixed2(100.0 * best_decoupling) << "% at "
            << (best_decoupling_config.empty() ? "-" : best_decoupling_config)
            << ")\n"
            << "total 4-bank transfers: unclustered "
            << unclustered_transfers4 << ", clustered and refined "
            << transfers4 << "\n"
            << "total time " << elapsed << " ms\n";

  if (!json_path.empty() &&
      !plim::util::emit_json(json, json_path, "sched_speedup")) {
    return 1;
  }

  bool ok = true;
  if (only.empty() && avg4_post <= 1.2) {
    std::cerr << "sched_speedup: average 4-bank speedup "
              << fixed2(avg4_post) << "x is below the 1.2x regression bar\n";
    ok = false;
  }
  if (only.empty() && transfers4 >= unclustered_transfers4) {
    std::cerr << "sched_speedup: clustered assignment needs " << transfers4
              << " transfers at 4 banks, not below the un-clustered "
                 "baseline of "
              << unclustered_transfers4 << "\n";
    ok = false;
  }
  if (voter_steps4 > 0 && voter_steps8 >= voter_steps4) {
    std::cerr << "sched_speedup: voter takes " << voter_steps8
              << " steps at 8 banks vs " << voter_steps4
              << " at 4 — subtree clustering regressed\n";
    ok = false;
  }
  if (!decoupled_bound_ok) {
    std::cerr << "sched_speedup: decoupled makespan exceeded the lockstep "
                 "bound (see above)\n";
    ok = false;
  }
  if (!smoke && only.empty() && best_decoupling < 0.10) {
    std::cerr << "sched_speedup: best decoupling cycle reduction "
              << fixed2(100.0 * best_decoupling)
              << "% is below the 10% bar\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
