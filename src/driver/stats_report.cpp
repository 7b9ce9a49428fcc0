#include "driver/stats_report.hpp"

#include "util/stats.hpp"

namespace plim {

void StatsReport::normalize_timing() {
  metrics.total_ms = 0.0;
  metrics.load_ms = 0.0;
  metrics.rewrite_ms = 0.0;
  metrics.compile_ms = 0.0;
  metrics.verify_ms = 0.0;
  metrics.schedule_ms = 0.0;
  metrics.schedule_verify_ms = 0.0;
  if (schedule) {
    schedule->schedule_ms = 0.0;
    schedule->assign_ms = 0.0;
    schedule->refine_ms = 0.0;
    schedule->pack_ms = 0.0;
    schedule->alloc_ms = 0.0;
    schedule->sync_ms = 0.0;
  }
}

void StatsReport::write_json_fields(util::JsonWriter& json) const {
  json.field("benchmark", benchmark);
  json.field("initial_gates", initial_gates);
  json.field("gates", gates);
  json.field("instructions", compile.num_instructions);
  json.field("rrams", compile.num_rrams);
  json.field("peak_live_rrams", compile.peak_live_rrams);
  json.field("complement_materializations",
             compile.complement_materializations);
  json.field("rram_cap", compile.rram_cap);
  json.field("live_lower_bound", compile.live_lower_bound);
  json.field("cells_evicted", compile.cells_evicted);
  json.field("ops_recomputed", compile.ops_recomputed);
  json.field("replay_max_depth", compile.replay_max_depth);
  json.field("verified", verified);
  json.begin_object("rewrite");
  json.field("gates_before", rewrite.gates_before);
  json.field("gates_after", rewrite.gates_after);
  json.field("depth_before", rewrite.depth_before);
  json.field("depth_after", rewrite.depth_after);
  json.field("multi_complement_before", rewrite.multi_complement_before);
  json.field("multi_complement_after", rewrite.multi_complement_after);
  json.field("cycles", rewrite.cycles);
  json.field("passes_rebuilt", rewrite.passes_rebuilt);
  json.end_object();
  json.begin_object("metrics");
  json.field("total_ms", metrics.total_ms);
  json.field("load_ms", metrics.load_ms);
  json.field("rewrite_ms", metrics.rewrite_ms);
  json.field("compile_ms", metrics.compile_ms);
  json.field("verify_ms", metrics.verify_ms);
  json.field("schedule_ms", metrics.schedule_ms);
  json.field("schedule_verify_ms", metrics.schedule_verify_ms);
  json.end_object();
  if (schedule) {
    json.begin_object("schedule");
    sched::write_json_fields(*schedule, json);
    json.end_object();
  }
}

std::string StatsReport::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  write_json_fields(json);
  json.end_object();
  return json.str();
}

}  // namespace plim
