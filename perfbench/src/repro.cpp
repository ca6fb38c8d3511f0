// The fault reproducer: every guided-prune and operand-order case on the
// workloads' fixed inputs, with its expected and observed result.
#include <cstdio>
#include <fstream>

#include "cdfg/benchmarks.h"
#include "checker.h"
#include "dse/session.h"
#include "inputs.h"
#include "serve/wire.h"
#include "task/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string describe_front(const std::vector<phls::front_point>& front)
{
    std::string out = std::to_string(front.size()) + " point(s)";
    for (const phls::front_point& f : front) {
        char buf[96];
        std::snprintf(buf, sizeof buf, " [T%d P%.4g: area %.6g peak %.4g]", f.latency_bound,
                      f.cap, f.area, f.peak);
        out += buf;
    }
    return out;
}

std::vector<check::point> explore_points(const phls::flow& proto, const phls::dse::space& s)
{
    std::vector<check::point> pts;
    phls::dse::session session(proto);
    session.explore(s, {[&](std::size_t i, const phls::flow_report& r) { pts.push_back(check::of(i, r)); }, {}}, 1);
    return pts;
}

} // namespace

int print_fault_cases(const std::string& work_dir)
{
    const phls::module_library lib = phls::table1_library();
    int cases = 0;

    std::printf("# guided-prune: explore_guided's front against explore()'s, fresh sessions\n");
    for (const std::string& name : phls::benchmark_names()) {
        const phls::graph g = phls::benchmark_by_name(name);
        const int cp = fastest_critical_path(g, lib);
        for (const plane_shape& shape : plane_shapes()) {
            std::vector<int> T;
            for (int i = 0; i < shape.rows; ++i) T.push_back(cp + i * shape.step);
            const phls::flow proto = phls::flow::on(g).with_library(lib).estimate_lifetime({});
            const std::vector<double> caps =
                phls::flow(proto).latency(T.back()).power_grid(shape.caps);
            const phls::dse::space space = phls::dse::cross(T, caps);
            phls::dse::session eager(proto);
            const phls::dse::explore_summary e = eager.explore(space, {}, 4);
            phls::dse::session walk(proto);
            const phls::dse::guided_summary w = walk.explore_guided(space, {}, {}, 4);
            if (check::same_front(e.front, w.front).empty()) continue;
            ++cases;
            std::printf("guided-prune %s T %d..%d step %d x %d caps: expected %s; observed %s "
                        "(%zu computed, %zu skipped)\n",
                        name.c_str(), T.front(), T.back(), shape.step, shape.caps,
                        describe_front(e.front).c_str(), describe_front(w.front).c_str(),
                        w.computed, w.skipped);
        }
    }

    std::printf("\n# operand-order: a job shipped as text against the original graph\n");
    for (const serve_job& j : serve_jobs(1, 0, lib)) {
        if (!j.probe || j.first >= 0) continue;
        const phls::flow proto =
            phls::flow::on(phls::benchmark_by_name(j.graph)).with_library(lib).estimate_lifetime({});
        const std::vector<double> caps = phls::flow(proto).latency(j.latency).power_grid(j.caps);
        const phls::dse::space space = phls::dse::cross({j.latency}, caps);
        // What a server evaluates: the job decoded from its wire encoding.
        const phls::serve::job_request shipped =
            phls::serve::decode_job(phls::serve::encode_job(phls::serve::make_job(proto, space)));
        const check::violations diff = check::same_points(
            explore_points(proto, space), explore_points(phls::serve::job_flow(shipped), space),
            "served");
        if (diff.empty()) continue;
        ++cases;
        std::printf("operand-order serve %s T %d x %d caps: %zu point(s) differ; first: %s\n",
                    j.graph.c_str(), j.latency, j.caps, diff.size(), diff.front().c_str());
    }
    for (const task_set_file& f : write_task_sets(1, work_dir, lib)) {
        if (!f.probe) continue;
        std::ifstream is(f.path);
        const phls::task::task_set set = phls::task::parse_task_set(is);
        for (const phls::task::policy p : {phls::task::policy::edf, phls::task::policy::battery}) {
            const phls::task::task_schedule s = phls::task::schedule(set, p, {});
            std::vector<check::local_impl> locals;
            for (std::size_t i = 0; i < s.tasks.size(); ++i) {
                const phls::flow_report r = phls::flow::on(set.tasks[i].g)
                                                .with_library(set.tasks[i].lib)
                                                .constraints(s.tasks[i].impl.point)
                                                .run();
                locals.push_back({r.latency, r.peak, r.area,
                                  phls::power_profile(check::cycle_power(
                                      set.tasks[i].g, set.tasks[i].lib, r.dp.sched))});
            }
            for (const std::string& v : check::task_matches_local(s, locals)) {
                ++cases;
                std::printf("operand-order tasks %s/%s: %s\n", f.name.c_str(),
                            phls::task::policy_name(p), v.c_str());
            }
        }
    }
    std::printf("\n%d case(s)\n", cases);
    return cases;
}

} // namespace perfbench
