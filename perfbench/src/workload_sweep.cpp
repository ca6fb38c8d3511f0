// sweep_plane: every built-in graph on three (T x Pmax) planes, each plane
// explored cold by a fresh session (the eager pass the end-to-end metrics
// time), then saved, loaded into a fresh session and explored warm, then
// walked by explore_guided in a fresh session.
#include <cstdio>
#include <sys/stat.h>

#include "cdfg/benchmarks.h"
#include "checker.h"
#include "dse/session.h"
#include "flow/pareto_stream.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int sweep_threads = 4;

struct plane_input {
    std::string graph;
    phls::graph g;
    plane_shape shape;
    std::vector<int> latencies;
    std::vector<double> caps; ///< flow::power_grid at the longest latency
};

std::string plane_label(const plane_input& p)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s T%d..%d/%d x%d", p.graph.c_str(), p.latencies.front(),
                  p.latencies.back(), p.shape.step, p.shape.caps);
    return buf;
}

/// The planes: graphs, latency axes, and the caps flow::power_grid gives
/// at each plane's longest latency.
std::vector<plane_input> make_planes(std::uint64_t seed, const phls::module_library& lib,
                                     const phls::lifetime_spec& ls, tracer& tr)
{
    std::vector<plane_input> out;
    for (const std::string& name : sweep_graph_order(seed)) {
        phls::graph g = phls::benchmark_by_name(name);
        g.validate();
        const int cp = fastest_critical_path(g, lib);
        for (const plane_shape& shape : plane_shapes()) {
            std::vector<int> T;
            for (int i = 0; i < shape.rows; ++i) T.push_back(cp + i * shape.step);
            tracer::span s(tr, "flow.power_grid", name);
            std::vector<double> caps = phls::flow::on(g)
                                           .with_library(lib)
                                           .estimate_lifetime(ls)
                                           .latency(T.back())
                                           .power_grid(shape.caps);
            out.push_back({name, g, shape, std::move(T), std::move(caps)});
        }
    }
    return out;
}

/// Points delivered through a sink, by space index.
struct collected {
    std::vector<phls::flow_report> reports;
    std::vector<check::point> points;
    phls::dse::sink sink()
    {
        return {[this](std::size_t i, const phls::flow_report& r) {
                    points.push_back(check::of(i, r));
                    reports.push_back(r);
                },
                {}};
    }
};

double ratio(long hits, long misses)
{
    return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                             : 0.0;
}

} // namespace

run_result run_sweep_plane(const run_options& opts, tracer& tr)
{
    const phls::module_library lib = phls::table1_library();
    const phls::lifetime_spec ls; // alpha derived per design
    round_stats st;
    std::vector<plane_input> planes;
    for (int i = 0; i < 5; ++i) {
        const double t0 = now_s();
        planes = make_planes(opts.seed, lib, ls, tr);
        st.setup.push_back(now_s() - t0);
    }

    run_result r;
    std::map<std::string, double> layer;
    phls::explore_cache::counters cold_counters{};
    double evaluated = 0.0;
    double feasible = 0.0;
    double warm_points = 0.0;
    double guided_computed = 0.0;
    double guided_space = 0.0;
    double guided_rounds = 0.0;
    double cache_bytes = 0.0;
    std::vector<double> point_ms;
    int rounds = 0;
    rss_sampler rss;
    const double started = now_s();
    do {
        rss.take();
        ++rounds;
        double round_wall = 0.0;
        double round_cpu = 0.0;
        double area = 0.0;
        double life = 0.0;
        for (std::size_t pi = 0; pi < planes.size(); ++pi) {
            const plane_input& p = planes[pi];
            const std::string label = plane_label(p);
            const phls::flow proto = phls::flow::on(p.g).with_library(lib).estimate_lifetime(ls);

            // Eager pass: a fresh session explores the plane.
            collected cold;
            const phls::dse::space space = phls::dse::cross(p.latencies, p.caps);
            const double w0 = now_s();
            const double c0 = cpu_s();
            phls::dse::explore_summary sum;
            std::unique_ptr<phls::dse::session> session;
            {
                tracer::span s(tr, "dse.session_build", label);
                session = std::make_unique<phls::dse::session>(proto);
            }
            {
                tracer::span s(tr, "dse.explore", label);
                sum = session->explore(space, cold.sink(), sweep_threads);
            }
            round_wall += now_s() - w0;
            round_cpu += cpu_s() - c0;
            for (const phls::flow_report& rep : cold.reports) point_ms.push_back(rep.wall_ms);
            st.ops += static_cast<double>(cold.reports.size());
            if (tr.enabled()) {
                tracer::span s(tr, "flow.pareto_fold", label);
                phls::pareto_stream fold;
                for (std::size_t k = 0; k < cold.reports.size(); ++k)
                    fold.add(cold.points[k].index, cold.reports[k]);
            }
            const phls::explore_cache::counters c = session->cache()->stats();
            cold_counters.hits += c.hits;
            cold_counters.misses += c.misses;
            cold_counters.committed_hits += c.committed_hits;
            cold_counters.committed_misses += c.committed_misses;
            cold_counters.report_hits += c.report_hits;
            cold_counters.report_misses += c.report_misses;
            evaluated += static_cast<double>(sum.evaluated);
            feasible += static_cast<double>(sum.feasible);

            op_checks eager;
            if (sum.evaluated != space.size() || cold.points.size() != space.size())
                eager.fail("complete", "the eager pass delivered " +
                                           std::to_string(cold.points.size()) + " of " +
                                           std::to_string(space.size()) + " points");
            for (const phls::flow_report& rep : cold.reports)
                if (rep.st.ok())
                    eager.add("design", check::design(p.g, lib, rep.dp, rep.constraints, rep.peak));
            eager.add("front", check::front(sum.front, cold.points));
            r.record(label + " eager", eager.failed());
            for (const phls::front_point& f : sum.front) {
                area += f.area;
                life += f.lifetime_seconds;
            }

            // Warm pass: save, load into a fresh session, explore again.
            op_checks warm_ck;
            const std::string file = opts.work_dir + "/plane" + std::to_string(pi) + ".phlscache";
            {
                tracer::span s(tr, "dse.save", label);
                session->save(file);
            }
            struct stat sb{};
            if (::stat(file.c_str(), &sb) == 0) cache_bytes += static_cast<double>(sb.st_size);
            collected warm;
            phls::dse::session warm_session(proto);
            {
                tracer::span s(tr, "dse.load", label);
                warm_session.load(file);
            }
            phls::dse::explore_summary wsum;
            {
                tracer::span s(tr, "dse.warm_explore", label);
                wsum = warm_session.explore(space, warm.sink(), sweep_threads);
            }
            std::remove(file.c_str());
            warm_points += static_cast<double>(wsum.evaluated);
            warm_ck.add("warm_equals_cold", check::same_points(cold.points, warm.points, "warm"));
            warm_ck.add("front", check::front(wsum.front, warm.points));
            r.record(label + " warm", warm_ck.failed());

            // Guided walk in a fresh session: its front must equal the
            // eager front (guided-prune breaks this on some planes).
            op_checks guided_ck;
            collected walk;
            phls::dse::session guided_session(proto);
            phls::dse::guided_summary gsum;
            {
                tracer::span s(tr, "dse.guided", label);
                gsum = guided_session.explore_guided(space, {}, walk.sink(), sweep_threads);
            }
            guided_computed += static_cast<double>(gsum.computed);
            guided_space += static_cast<double>(space.size());
            guided_rounds += static_cast<double>(gsum.rounds);
            guided_ck.add("front", check::front(gsum.front, walk.points));
            guided_ck.add("guided_front_equal", check::same_front(sum.front, gsum.front));
            r.record(label + " guided", guided_ck.failed());
        }
        st.round_wall.push_back(round_wall);
        st.round_cpu.push_back(round_cpu);
        st.round_rss_mb.push_back(rss.take());
        st.design_area = area;
        st.lifetime_s = life;
    } while (rounds < 2 || now_s() - started < opts.seconds);

    if (!tr.enabled()) {
        fill_end_to_end(r, st);
        return r;
    }
    const double n = rounds;
    layer["flow.power_grid_s"] = tr.total("flow.power_grid") / 5.0; // per set-up
    for (const char* name : {"dse.session_build", "dse.explore", "flow.pareto_fold", "dse.save",
                             "dse.load", "dse.guided"})
        layer[std::string(name) + "_s"] = tr.total(name) / n;
    layer["flow.cache.prospect_hit_ratio"] = ratio(cold_counters.hits, cold_counters.misses);
    layer["flow.cache.committed_hit_ratio"] =
        ratio(cold_counters.committed_hits, cold_counters.committed_misses);
    layer["flow.cache.report_hit_ratio"] =
        ratio(cold_counters.report_hits, cold_counters.report_misses);
    double cpu = 0.0;
    for (double c : st.round_cpu) cpu += c;
    layer["dse.point_p50_ms"] = median(point_ms);
    layer["dse.cpu_ms_per_point"] = st.ops > 0 ? cpu * 1e3 / st.ops : 0.0;
    layer["dse.feasible_ratio"] = evaluated > 0 ? feasible / evaluated : 0.0;
    layer["dse.cache_file_mb"] = cache_bytes / n / (1024.0 * 1024.0);
    layer["dse.warm_points_per_s"] = warm_points / std::max(1e-9, tr.total("dse.warm_explore"));
    layer["dse.guided_computed_ratio"] = guided_space > 0 ? guided_computed / guided_space : 0.0;
    layer["dse.guided_rounds"] = guided_rounds / n;
    fill_per_layer(r, layer, st);
    return r;
}

} // namespace perfbench
