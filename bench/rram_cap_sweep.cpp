/// Extension (paper's future work): compilation under a hard RRAM
/// capacity, now with recompute-on-evict degradation. For each benchmark
/// the sweep
///
///   1. compiles unconstrained (the baseline Pareto point: full #R,
///      minimum instructions),
///   2. binary-searches the smallest capacity at which *plain*
///      compilation succeeds — the pre-degradation "min feasible cap"
///      (the FIFO allocator throws below its peak live set), and
///   3. probes capacities at fixed fractions (90/75/60/50%) of that
///      plain minimum with the Driver's degradation ladder enabled.
///      Every degraded program is verified against the MIG on random
///      patterns; each feasible point is one steps-vs-cells Pareto
///      sample (capacity bought with recomputation latency).
///
/// Every JSON block is one plim::StatsReport — the schema `plimc --json`
/// emits and `tools/diff_bench.py` consumes — so the emitted
/// BENCH_cap.json Pareto curve is CI-diffable against the committed one.
/// Block keys are stable fraction names ("uncapped", "cap90", ...): the
/// diff matches on them even when the underlying absolute caps drift.
///
/// Exits non-zero when
///   - any unconstrained compile or verification fails,
///   - a benchmark cannot compile+verify at 75% of its plain minimum
///     (degradation must buy at least a 25% capacity cut), or
///   - a probe fails for any reason other than a structured
///     "rram-cap-exceeded" diagnostic.
/// Deeper fractions are exploratory: the first infeasible one ends the
/// descent for that benchmark (the algorithmic floor — pinned operands
/// plus unevictable output cells — sits above the live-set lower bound).
/// The descent also stops once recomputation inflates the instruction
/// stream past 40x the unconstrained count: points beyond that trade at
/// a rate nobody would pay, and (for the big circuits) they keep the
/// sweep's runtime bounded.
///
/// Usage: rram_cap_sweep [--benchmark <name>] [--json <file|->] [--smoke]

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "circuits/epfl.hpp"
#include "driver/driver.hpp"
#include "mig/rewriting.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

constexpr unsigned kFractions[] = {90, 75, 60, 50};
constexpr std::uint64_t kBlowupLimit = 40;  // stop descending past 40x #I

/// Benchmarks where capacity pressure falls on recomputable
/// intermediates. PO-dominated circuits (ctrl, dec, adder, bar, ...) are
/// deliberately absent: their peak live set is mostly the distinct output
/// values that must coexist at program end, which no eviction strategy
/// can touch — their floor sits within a few cells of the plain minimum,
/// so a 25% cut is information-theoretically impossible there (compare
/// `bound` to `min cap plain` in the table).
constexpr const char* kFullSet[] = {"int2float", "max", "voter"};
constexpr const char* kSmokeSet[] = {"int2float", "voter"};

/// Rewriting runs once per benchmark (outside the searches); probes and
/// Pareto points only re-compile. Pareto points are serial programs: the
/// cap bounds a scheduled program too, and renaming onto a bank changes
/// its cell count, so each point is the degraded serial compile itself
/// (the bench diff reads its instruction count as its step count).
plim::Options point_options() {
  plim::Options options;
  options.rewrite.effort = 0;
  options.verify.enabled = true;
  options.verify.rounds = 1;
  return options;
}

/// Feasibility probes for the plain minimum: no degradation, no
/// verification, no scheduling — the question is only "does the FIFO
/// allocator fit".
plim::Options probe_options() {
  plim::Options options;
  options.rewrite.effort = 0;
  options.verify.enabled = false;
  return options;
}

bool cap_exceeded(const plim::CompileOutcome& outcome) {
  for (const auto& d : outcome.diagnostics) {
    if (d.code == "rram-cap-exceeded") {
      return true;
    }
  }
  return false;
}

/// Smallest capacity at which plain (non-degraded) compilation succeeds
/// — the pre-degradation feasibility frontier the Pareto fractions are
/// measured against.
std::uint32_t min_feasible_cap_plain(const plim::CompileRequest& request,
                                     std::uint32_t unconstrained_rrams) {
  std::uint32_t hi = unconstrained_rrams;
  std::uint32_t lo = 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    auto options = probe_options();
    options.compile.rram_cap = mid;
    const auto probe = plim::Driver(options).run(request);
    if (probe.ok()) {
      hi = mid;
    } else if (cap_exceeded(probe)) {
      lo = mid + 1;
    } else {
      std::cerr << request.label() << ": " << probe.error_summary() << '\n';
      std::exit(1);
    }
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: rram_cap_sweep [--benchmark <name>] "
                   "[--json <file|->] [--smoke]\n";
      return 2;
    }
  }

  plim::mig::RewriteOptions ropts;
  ropts.effort = smoke ? 1 : 2;

  std::vector<std::string> names;
  if (!only.empty()) {
    names.push_back(only);
  } else if (smoke) {
    names.assign(std::begin(kSmokeSet), std::end(kSmokeSet));
  } else {
    names.assign(std::begin(kFullSet), std::end(kFullSet));
  }

  plim::util::TablePrinter table({"benchmark", "#R", "min cap plain", "bound",
                                  "min cap degraded", "#I uncapped",
                                  "#I @ min", "evicted @ min"});

  plim::util::JsonWriter json;
  json.begin_object();
  json.field("bench", "rram_cap_sweep");
  json.field("smoke", smoke);
  json.begin_array("benchmarks");

  bool ok = true;
  for (const auto& name : names) {
    const auto request = plim::CompileRequest::from_mig(
        plim::mig::rewrite_for_plim(plim::circuits::build_benchmark(name),
                                    ropts),
        name);

    const auto uncapped = plim::Driver(point_options()).run(request);
    if (!uncapped.ok()) {
      std::cerr << name << " (uncapped): " << uncapped.error_summary()
                << '\n';
      return 1;
    }
    const auto rrams = uncapped.stats.compile.num_rrams;
    const auto bound = uncapped.stats.compile.live_lower_bound;
    const auto instructions_uncapped =
        uncapped.stats.compile.num_instructions;
    const auto min_plain = min_feasible_cap_plain(request, rrams);

    json.begin_object();
    json.field("benchmark", name);
    json.begin_object("uncapped");
    uncapped.stats.write_json_fields(json);
    json.end_object();

    std::uint32_t min_degraded = min_plain;
    std::uint64_t instructions_min = instructions_uncapped;
    std::uint32_t evicted_min = 0;
    for (const auto frac : kFractions) {
      const std::uint32_t cap =
          std::max<std::uint32_t>(min_plain * frac / 100, 1);
      if (cap >= min_plain || cap < bound) {
        continue;  // tiny circuits: the fraction is not a real cut
      }
      auto options = point_options();
      options.compile.rram_cap = cap;
      options.compile.degradation.enabled = true;
      const auto point = plim::Driver(options).run(request);
      if (!point.ok()) {
        if (!cap_exceeded(point)) {
          std::cerr << name << " @ cap " << cap << ": "
                    << point.error_summary() << '\n';
          ok = false;
        } else if (frac >= 75) {
          std::cerr << name << " @ cap " << cap << " (" << frac
                    << "% of plain min " << min_plain
                    << "): infeasible — degradation must buy at least a "
                       "25% capacity cut\n"
                    << point.error_summary() << '\n';
          ok = false;
        }
        break;  // the algorithmic floor ends this benchmark's descent
      }
      json.begin_object("cap" + std::to_string(frac));
      point.stats.write_json_fields(json);
      json.end_object();
      min_degraded = cap;
      instructions_min = point.stats.compile.num_instructions;
      evicted_min = point.stats.compile.cells_evicted;
      if (instructions_min > kBlowupLimit * instructions_uncapped) {
        break;  // latency trade past 40x: stop descending
      }
    }
    json.field("min_cap_plain", min_plain);
    json.field("min_cap_degraded", min_degraded);
    json.end_object();  // benchmark

    table.add_row({name, std::to_string(rrams), std::to_string(min_plain),
                   std::to_string(bound), std::to_string(min_degraded),
                   std::to_string(instructions_uncapped),
                   std::to_string(instructions_min),
                   std::to_string(evicted_min)});
  }

  json.end_array();
  json.end_object();

  std::cout << "Extension: RRAM capacity sweep with recompute-on-evict "
               "degradation (Pareto: capacity vs recomputation latency"
            << (smoke ? ", smoke set" : "") << ")\n\n";
  table.print(std::cout);

  if (!json_path.empty() &&
      !plim::util::emit_json(json, json_path, "rram_cap_sweep")) {
    return 1;
  }
  return ok ? 0 : 1;
}
