// The three compile workloads (one client, one request at a time, the
// in-process plim::Driver) and the traced layer-by-layer pipeline run
// that every workload's traced mode uses.

#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "core/compiler.hpp"
#include "core/verify.hpp"
#include "driver/driver.hpp"
#include "io/blif.hpp"
#include "mig/rewriting.hpp"
#include "sched/scheduler.hpp"
#include "sched/verify.hpp"
#include "serve/structural_hash.hpp"

namespace perfbench {

namespace {

/// The program-quality figures of one request.
struct Quality {
  double instructions = 0;
  double cells = 0;
  double steps = 0;
  double makespan = 0;
  double transfers = 0;

  friend bool operator==(const Quality&, const Quality&) = default;
};

Quality quality_of(const plim::CompileOutcome& outcome) {
  Quality q;
  if (const auto& s = outcome.stats.schedule) {
    q.instructions = s->parallel_instructions;
    q.cells = s->parallel_rrams;
    q.steps = s->steps;
    q.makespan = static_cast<double>(s->makespan_cycles);
    q.transfers = s->transfers;
  } else {
    q.instructions = outcome.stats.compile.num_instructions;
    q.cells = outcome.stats.compile.num_rrams;
  }
  return q;
}

/// Per-layer totals of the traced run, summed over requests.
struct LayerTotals {
  double read_ms = 0, rewrite_ms = 0, compile_ms = 0, verify_ms = 0;
  double schedule_ms = 0, refine_ms = 0, sync_ms = 0, validate_ms = 0;
  double sched_verify_ms = 0, unattributed_ms = 0;
  double gates_before = 0, gates_after = 0, instructions = 0;
  double moves_tried = 0, moves_kept = 0, full_evals = 0, steps_saved = 0;
  double transfers = 0, bus_stalls = 0, reorder_saved = 0;
  double parallel_instructions = 0, bank_steps = 0;
};

void print_rows_header() {
  std::printf("%-12s %9s %9s %9s %9s %9s %9s %9s %8s %8s %10s %8s\n",
              "circuit", "load_ms", "rewr_ms", "comp_ms", "verif_ms",
              "sched_ms", "svfy_ms", "#I", "#R", "steps", "makespan",
              "xfers");
}

void print_row(const std::string& label, double load, double rewrite,
               double compile, double verify, double schedule,
               double sverify, const Quality& q) {
  std::printf(
      "%-12s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.0f %8.0f %8.0f %10.0f "
      "%8.0f\n",
      label.c_str(), load, rewrite, compile, verify, schedule, sverify,
      q.instructions, q.cells, q.steps, q.makespan, q.transfers);
}

/// Generates the inputs kSetupReps times; setup_s is the median.
std::vector<Input> timed_setup(const Workload& w, const Args& args,
                               Result& result) {
  std::vector<double> setup_s;
  std::vector<Input> inputs;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    inputs = generate_inputs(w, args.seed, args.work_dir + "/inputs");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  if (!args.trace) {
    result.add("setup_s", median(setup_s), "s");
  }
  return inputs;
}

}  // namespace

void traced_pipeline(const Workload& w, const std::vector<Input>& inputs,
                     Spans& spans, Result& result) {
  const auto options = w.options();
  // The option plumbing of Driver::run_impl, field for field.
  plim::core::CompileOptions copts;
  copts.smart_candidates = options.compile.smart_candidates;
  copts.cache_complements = options.compile.cache_complements;
  copts.textbook_slots = options.compile.textbook_slots;
  copts.allocation = options.compile.allocation;
  copts.rram_cap = options.compile.rram_cap;
  copts.cost = options.schedule.cost;
  plim::sched::ScheduleOptions sopts;
  sopts.banks = options.banks;
  sopts.cost = options.schedule.cost;
  sopts.cluster = options.schedule.cluster;
  sopts.refine_passes = options.schedule.refine_passes;
  sopts.refine_incremental = options.schedule.refine_incremental;
  sopts.refine_resync = options.schedule.refine_resync;
  sopts.lookahead = options.schedule.lookahead;
  sopts.execution = options.schedule.execution;
  sopts.objective = options.schedule.objective;
  const auto& verify = options.verify;
  const bool decoupled =
      options.schedule.execution == plim::sched::ExecutionModel::decoupled;

  LayerTotals t;
  std::vector<Quality> layered(inputs.size());
  std::vector<plim::mig::Mig> networks(inputs.size());
  std::printf("traced layer-by-layer pass (ms per layer)\n");
  std::printf("%-12s %9s %9s %9s %9s %9s %9s %9s %9s\n", "circuit", "read",
              "rewrite", "compile", "verify", "schedule", "refine",
              "validate", "sverify");
  const auto traced0 = Clock::now();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto request_id = spans.next_request();
    const auto request = spans.open("request", request_id, Spans::kNoParent);
    const auto layer = [&](const char* name, auto&& call) {
      const auto id = spans.open(name, request_id, request);
      call();
      spans.close(id);
      return spans.duration_ms(id);
    };
    double read = 0, rewrite = 0, compile = 0, verify_ms = 0;
    double schedule = 0, validate = 0, sverify = 0, refine = 0;
    std::string error;
    try {
      read = layer("io.read_blif", [&] {
        std::ifstream in(inputs[i].path);
        networks[i] = plim::io::read_blif(in);
      });
      plim::mig::RewriteStats rstats;
      plim::mig::Mig optimized;
      rewrite = layer("mig.rewrite_for_plim", [&] {
        optimized =
            plim::mig::rewrite_for_plim(networks[i], options.rewrite, &rstats);
      });
      plim::core::CompileResult compiled;
      compile = layer("core.compile", [&] {
        compiled = plim::core::compile(optimized, copts);
      });
      verify_ms = layer("core.verify_program", [&] {
        const auto v = plim::core::verify_program(
            networks[i], compiled.program, verify.rounds, verify.seed);
        if (!v.ok) {
          error = "core::verify_program: " + v.message;
        }
      });
      t.gates_before += rstats.gates_before;
      t.gates_after += rstats.gates_after;
      t.instructions += compiled.stats.num_instructions;
      layered[i].instructions = compiled.stats.num_instructions;
      layered[i].cells = compiled.stats.num_rrams;
      if (options.banks > 0) {
        plim::sched::ScheduleResult scheduled;
        sopts.trace_label = inputs[i].circuit;
        schedule = layer("sched.schedule", [&] {
          scheduled = plim::sched::schedule(compiled.program, sopts);
        });
        validate = layer("sched.validate", [&] {
          if (const auto err = scheduled.program.validate(); !err.empty()) {
            error = "validate: " + err;
          }
        });
        sverify = layer("sched.equivalent_to_serial", [&] {
          const bool same =
              plim::sched::equivalent_to_serial(
                  compiled.program, scheduled.program, verify.rounds,
                  verify.seed) &&
              (!decoupled || plim::sched::equivalent_to_serial(
                                 compiled.program, scheduled.program,
                                 verify.rounds, verify.seed,
                                 plim::sched::ExecutionModel::decoupled));
          if (!same) {
            error = "schedule diverges from the serial program";
          }
        });
        const auto& s = scheduled.stats;
        refine = s.refine_ms;
        t.refine_ms += s.refine_ms;
        t.sync_ms += s.sync_ms;
        t.moves_tried += s.refine_moves_tried;
        t.moves_kept += s.refine_moves_kept;
        t.full_evals += s.refine_full_evals;
        t.steps_saved += s.refine_steps_saved;
        t.transfers += s.transfers;
        t.bus_stalls += s.bus_stalls;
        t.reorder_saved += static_cast<double>(s.stream_reorder_saved_cycles);
        t.parallel_instructions += s.parallel_instructions;
        t.bank_steps += static_cast<double>(s.steps) * s.banks;
        layered[i].instructions = s.parallel_instructions;
        layered[i].cells = s.parallel_rrams;
        layered[i].steps = s.steps;
        layered[i].makespan = static_cast<double>(s.makespan_cycles);
        layered[i].transfers = s.transfers;
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    spans.close(request);
    ++result.attempted;
    if (!error.empty()) {
      result.fail(inputs[i].path + ": " + error);
    } else if (spans.child_coverage(request) < 0.95) {
      result.fail(inputs[i].path + ": layer spans cover only " +
                  std::to_string(spans.child_coverage(request)) +
                  " of the request span");
    }
    t.read_ms += read;
    t.rewrite_ms += rewrite;
    t.compile_ms += compile;
    t.verify_ms += verify_ms;
    t.schedule_ms += schedule;
    t.validate_ms += validate;
    t.sched_verify_ms += sverify;
    std::printf("%-12s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
                inputs[i].circuit.c_str(), read, rewrite, compile, verify_ms,
                schedule, refine, validate, sverify);
  }
  const double traced_ms = ms_between(traced0, Clock::now());

  // Mirror guard: the real pipeline on the same files must produce the
  // same programs, or the per-layer numbers describe something else.
  const plim::Driver driver(options);
  const auto untraced0 = Clock::now();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto outcome = driver.run(
        plim::CompileRequest::from_blif(inputs[i].path, inputs[i].circuit));
    const auto& m = outcome.stats.metrics;
    t.unattributed_ms += m.total_ms - m.load_ms - m.rewrite_ms -
                         m.compile_ms - m.verify_ms - m.schedule_ms -
                         m.schedule_verify_ms;
    if (!outcome.ok()) {
      result.fail(inputs[i].path + ": " + outcome.error_summary());
    } else if (quality_of(outcome) != layered[i]) {
      result.fail(inputs[i].path +
                  ": layer-by-layer results differ from Driver::run");
    }
  }
  const double untraced_ms = ms_between(untraced0, Clock::now());

  std::vector<double> hash_ms;
  for (const auto& network : networks) {
    const auto h0 = Clock::now();
    const auto key = plim::serve::structural_key(network, options);
    hash_ms.push_back(ms_between(h0, Clock::now()));
    static_cast<void>(key);
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  result.add("io.read_blif_ms", t.read_ms, "ms");
  result.add("mig.rewrite_ms", t.rewrite_ms, "ms");
  result.add("mig.gates_ratio", ratio(t.gates_after, t.gates_before), "ratio");
  result.add("core.compile_ms", t.compile_ms, "ms");
  result.add("core.instructions_per_gate",
             ratio(t.instructions, t.gates_after), "ratio");
  result.add("core.verify_ms", t.verify_ms, "ms");
  result.add("sched.schedule_ms", t.schedule_ms, "ms");
  result.add("sched.refine_ms", t.refine_ms, "ms");
  result.add("sched.sync_ms", t.sync_ms, "ms");
  result.add("sched.rest_ms", t.schedule_ms - t.refine_ms - t.sync_ms, "ms");
  result.add("sched.validate_ms", t.validate_ms, "ms");
  result.add("sched.verify_ms", t.sched_verify_ms, "ms");
  result.add("sched.refine_moves_tried", t.moves_tried, "count");
  result.add("sched.refine_full_evals", t.full_evals, "count");
  result.add("sched.refine_keep_ratio", ratio(t.moves_kept, t.moves_tried),
             "ratio");
  result.add("sched.refine_steps_saved", t.steps_saved, "steps");
  result.add("sched.transfers", t.transfers, "count");
  result.add("sched.bus_stalls", t.bus_stalls, "count");
  result.add("sched.utilization", ratio(t.parallel_instructions, t.bank_steps),
             "ratio");
  result.add("sched.stream_reorder_saved_cycles", t.reorder_saved, "cycles");
  result.add("driver.unattributed_ms", t.unattributed_ms, "ms");
  result.add("serve.hash_ms", median(hash_ms), "ms");
  result.add("trace.overhead_ratio", ratio(traced_ms, untraced_ms), "ratio");
  std::printf("traced pass %.1f ms, Driver::run pass %.1f ms\n", traced_ms,
              untraced_ms);
}

void run_compile_workload(const Workload& w, const Args& args,
                          Result& result) {
  const auto inputs = timed_setup(w, args, result);
  if (args.trace) {
    Spans spans;
    traced_pipeline(w, inputs, spans, result);
    for (const char* name : {"serve.hit_p50_ms", "serve.miss_p50_ms",
                             "serve.queue_p99_ms"}) {
      result.add(name, 0.0, "ms");  // no compile server on this workload
    }
    result.add("serve.hit_ratio", 0.0, "ratio");
    result.add("serve.evictions", 0.0, "count");
    if (!spans.write(args.trace_path, args)) {
      result.fail("cannot write " + args.trace_path);
    }
    return;
  }

  const plim::Driver driver(w.options());
  const bool decoupled =
      w.execution == plim::sched::ExecutionModel::decoupled;
  std::vector<plim::CompileOutcome> outcomes(inputs.size());
  std::vector<Quality> first_pass(inputs.size());
  std::vector<double> latencies;
  std::vector<double> pass_s;
  std::vector<bool> failed(inputs.size(), false);
  const auto start = Clock::now();
  do {
    const auto pass0 = Clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto r0 = Clock::now();
      outcomes[i] = driver.run(
          plim::CompileRequest::from_blif(inputs[i].path, inputs[i].circuit));
      latencies.push_back(ms_between(r0, Clock::now()));
    }
    pass_s.push_back(ms_between(pass0, Clock::now()) / 1000.0);
    // Outside the pass timing: every pass must emit the same programs.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ++result.attempted;
      if (failed[i]) {
        continue;
      }
      if (!outcomes[i].ok()) {
        failed[i] = true;
        result.fail(inputs[i].path + ": " + outcomes[i].error_summary());
      } else if (pass_s.size() == 1) {
        first_pass[i] = quality_of(outcomes[i]);
      } else if (quality_of(outcomes[i]) != first_pass[i]) {
        failed[i] = true;
        result.fail(inputs[i].path + ": program changed between passes");
      }
    }
  } while (ms_between(start, Clock::now()) < 1000.0 * args.seconds);
  const double peak_rss = peak_rss_mb_self();

  // Independent output check of the last pass, outside the timed region.
  std::vector<double> instructions, cells, cycles;
  std::printf("workload %s seed %llu: %zu passes over %zu requests\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              pass_s.size(), inputs.size());
  print_rows_header();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (failed[i]) {
      continue;
    }
    const auto& o = outcomes[i];
    std::uint64_t serial_cycles = 0;
    const auto error = check_outputs(
        inputs[i].network, o.program, o.parallel ? &*o.parallel : nullptr,
        decoupled, derive_seed(args.seed, kCheckStream, i), &serial_cycles);
    if (!error.empty()) {
      result.fail(inputs[i].path + ": " + error);
      continue;
    }
    auto q = quality_of(o);
    if (!o.stats.schedule) {
      q.makespan = static_cast<double>(serial_cycles);
    }
    instructions.push_back(q.instructions);
    cells.push_back(q.cells);
    cycles.push_back(q.makespan);
    const auto& m = o.stats.metrics;
    print_row(inputs[i].circuit, m.load_ms, m.rewrite_ms, m.compile_ms,
              m.verify_ms, m.schedule_ms, m.schedule_verify_ms, q);
  }
  std::printf("pass seconds:");
  for (const double p : pass_s) {
    std::printf(" %.3f", p);
  }
  std::printf(
      "\nper-request latency over %zu requests: p50 %.2f ms, p99 %.2f ms; "
      "failed_fraction %.6f\n",
      latencies.size(), quantile(latencies, 0.5), quantile(latencies, 0.99),
      static_cast<double>(result.failed) /
          static_cast<double>(result.attempted));

  // The client submits the request list as one batch and waits for all of
  // it (what a `plimc --batch` user sees), so its latency samples are the
  // passes. Percentiles over single requests mix circuits 1000x apart in
  // cost and swing with the shuffle of whichever circuit sits at the rank.
  std::vector<double> pass_ms;
  double total_s = 0;
  for (const double s : pass_s) {
    pass_ms.push_back(1000.0 * s);
    total_s += s;
  }
  result.add("compile_s", median(pass_s), "s");
  result.add("peak_rss_mb", peak_rss, "MiB");
  result.add("instructions_geomean", geomean(instructions), "instructions");
  result.add("cells_geomean", geomean(cells), "cells");
  result.add("cycles_geomean", geomean(cycles), "cycles");
  result.add("serve_p50_ms", quantile(pass_ms, 0.5), "ms");
  result.add("serve_p99_ms", quantile(pass_ms, 0.99), "ms");
  result.add("serve_rps", static_cast<double>(latencies.size()) / total_s,
             "1/s");
}

}  // namespace perfbench
