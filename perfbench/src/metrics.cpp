#include <algorithm>

#include "workloads.h"

namespace perfbench {
namespace {

/// Names and units of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        // synth_1k
        {"cdfg.generate_s", "s"},
        {"synth.prospect_s", "s"},
        {"sched.windows_s", "s"},
        {"synth.partition_alu_s", "s"},
        {"synth.partition_mixed_s", "s"},
        {"synth.verify_s", "s"},
        {"rtl.netlist_s", "s"},
        {"battery.eval_s", "s"},
        {"flow.other_s", "s"},
        {"synth.partition_peak_mb", "MB"},
        {"synth.merges", "count"},
        {"synth.rejected", "count"},
        {"synth.window_recomputes", "count"},
        {"synth.accept_ratio", "ratio"},
        // sweep_plane
        {"flow.power_grid_s", "s"},
        {"dse.session_build_s", "s"},
        {"dse.point_p50_ms", "ms"},
        {"dse.cpu_ms_per_point", "ms"},
        {"dse.explore_s", "s"},
        {"flow.pareto_fold_s", "s"},
        {"flow.cache.prospect_hit_ratio", "ratio"},
        {"flow.cache.committed_hit_ratio", "ratio"},
        {"flow.cache.report_hit_ratio", "ratio"},
        {"dse.feasible_ratio", "ratio"},
        {"dse.save_s", "s"},
        {"dse.load_s", "s"},
        {"dse.cache_file_mb", "MB"},
        {"dse.warm_points_per_s", "1/s"},
        {"dse.guided_s", "s"},
        {"dse.guided_computed_ratio", "ratio"},
        {"dse.guided_rounds", "count"},
        // serve_jobs
        {"serve.connect_ms", "ms"},
        {"serve.job_p50_ms", "ms"},
        {"serve.cold_job_p50_ms", "ms"},
        {"serve.warm_job_p50_ms", "ms"},
        {"serve.job_tail_ms", "ms"},
        {"serve.job_tail_percentile", "%"},
        {"serve.job_samples", "count"},
        {"serve.encode_us_per_frame", "us"},
        {"serve.decode_us_per_frame", "us"},
        {"serve.frames", "count"},
        {"serve.wire_mb", "MB"},
        {"serve.metric_served_ratio", "ratio"},
        {"serve.committed_hit_ratio", "ratio"},
        {"serve.sessions_created", "count"},
        // tasks_mix
        {"task.parse_s", "s"},
        {"task.candidates_s", "s"},
        {"task.pack_edf_s", "s"},
        {"task.pack_battery_s", "s"},
        {"task.viable_impls", "count"},
        {"task.preemption_gaps", "count"},
        {"task.pool_sessions", "count"},
        // every workload
        {"trace.round_wall_s", "s"},
    };
    return names;
}

double mean(const std::vector<double>& v)
{
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

} // namespace

void fill_end_to_end(run_result& r, const round_stats& s)
{
    const double wall = mean(s.round_wall);
    const double round_ops =
        s.ops / static_cast<double>(std::max<std::size_t>(1, s.round_wall.size()));
    r.set("setup_s", median(s.setup), "s");
    r.set("peak_rss_mb", median(s.round_rss_mb), "MB");
    r.set("wall_s", wall, "s");
    r.set("cpu_s", mean(s.round_cpu), "s");
    r.set("ops_per_s", wall > 0 ? round_ops / wall : 0.0, "1/s");
    r.set("design_area", s.design_area, "area");
    r.set("lifetime_s", s.lifetime_s, "s");
}

void fill_per_layer(run_result& r, std::map<std::string, double> values, const round_stats& s)
{
    values["trace.round_wall_s"] = mean(s.round_wall);
    for (const auto& [name, unit] : per_layer_metrics()) {
        const auto it = values.find(name);
        r.set(name, it == values.end() ? 0.0 : it->second, unit);
    }
}

} // namespace perfbench
