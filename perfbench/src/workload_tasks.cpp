// tasks_mix: task sets scheduled under `edf` and under `battery`, each with
// a fresh session pool, as one `phls tasks` call does.
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "checker.h"
#include "inputs.h"
#include "task/candidates.h"
#include "task/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int task_threads = 4;

struct parsed_set {
    task_set_file file;
    phls::task::task_set set;
};

std::vector<parsed_set> parse_sets(const std::vector<task_set_file>& files, tracer& tr)
{
    std::vector<parsed_set> out;
    for (const task_set_file& f : files) {
        tracer::span s(tr, "task.parse", f.name);
        std::ifstream is(f.path);
        if (!is) throw std::runtime_error("cannot open " + f.path);
        out.push_back({f, phls::task::parse_task_set(is)});
    }
    return out;
}

/// A local flow::run of a task's own graph at a chosen point.
check::local_impl run_locally(const phls::task::task_spec& t,
                              const phls::synthesis_constraints& point)
{
    const phls::flow_report r = phls::flow::on(t.g)
                                    .with_library(t.lib)
                                    .synthesizer(t.synthesizer)
                                    .scheduler(t.scheduler)
                                    .options(t.options)
                                    .constraints(point)
                                    .run();
    check::local_impl l;
    if (!r.st.ok() || !r.has_design) return l;
    l.latency = r.latency;
    l.peak = r.peak;
    l.area = r.area;
    l.profile = phls::power_profile(check::cycle_power(t.g, t.lib, r.dp.sched));
    return l;
}

std::string point_key(const phls::graph& g, const phls::synthesis_constraints& c)
{
    std::ostringstream os;
    os.precision(17);
    os << g.name() << '/' << c.latency << '/' << c.max_power;
    return os.str();
}

} // namespace

run_result run_tasks_mix(const run_options& opts, tracer& tr)
{
    const phls::module_library lib = phls::table1_library();
    round_stats st;
    // Set-up: parsing the first round's task-set files (21 times; writing
    // them is input generation, not the program's set-up).
    const std::vector<task_set_file> files =
        write_task_sets(opts.seed * 1000003ULL, opts.work_dir, lib);
    std::vector<parsed_set> sets;
    for (int i = 0; i < 21; ++i) {
        const double t0 = now_s();
        sets = parse_sets(files, tr);
        st.setup.push_back(now_s() - t0);
    }

    run_result r;
    std::map<std::string, double> layer;
    std::map<std::string, check::local_impl> local; // memo of local runs
    std::map<std::string, std::string> first;      // round-1 probe schedules
    double viable = 0.0;
    double gaps = 0.0;
    double pool_sessions = 0.0;
    int rounds = 0;
    phls::task::schedule_options so;
    so.threads = task_threads;
    rss_sampler rss;
    const double started = now_s();
    do {
        // Each round deals its own seeded sets, so a run averages over
        // several arrangements.
        if (rounds > 0)
            sets = parse_sets(write_task_sets(opts.seed * 1000003ULL +
                                                  static_cast<std::uint64_t>(rounds),
                                              opts.work_dir, lib),
                              tr);
        ++rounds;
        double round_wall = 0.0;
        double round_cpu = 0.0;
        double area = 0.0;
        double life = 0.0;
        for (const parsed_set& ps : sets) {
            const phls::task::task_set& set = ps.set;
            phls::task::task_schedule sched[2];
            const phls::task::policy policies[2] = {phls::task::policy::edf,
                                                    phls::task::policy::battery};
            std::string error[2];
            for (int k = 0; k < 2; ++k) {
                const double w0 = now_s();
                const double c0 = cpu_s();
                try {
                    sched[k] = phls::task::schedule(set, policies[k], so);
                } catch (const std::exception& e) {
                    error[k] = e.what();
                }
                st.ops += 1.0;
                round_wall += now_s() - w0;
                round_cpu += cpu_s() - c0;
            }
            if (tr.enabled()) {
                // The candidate sweep on a fresh pool, then packing on the
                // warmed pool.
                phls::serve::session_pool pool;
                std::vector<phls::task::task_candidates> cands;
                {
                    tracer::span s(tr, "task.candidates", ps.file.name);
                    cands = phls::task::explore_candidates(set, pool, 0, task_threads);
                }
                {
                    tracer::span s(tr, "task.pack_edf", ps.file.name);
                    phls::task::schedule(set, phls::task::policy::edf, pool, so);
                }
                {
                    tracer::span s(tr, "task.pack_battery", ps.file.name);
                    const phls::task::task_schedule b =
                        phls::task::schedule(set, phls::task::policy::battery, pool, so);
                    gaps += b.preemption_gaps;
                }
                for (const phls::task::task_candidates& c : cands)
                    viable += static_cast<double>(c.viable.size());
                pool_sessions += static_cast<double>(pool.sessions_created());
            }

            for (int k = 0; k < 2; ++k) {
                const phls::task::task_schedule& s = sched[k];
                const std::string label = ps.file.name + " " + phls::task::policy_name(policies[k]);
                op_checks ck;
                if (!error[k].empty()) {
                    ck.fail("scheduled", error[k]);
                    r.record(label, ck.failed());
                    continue;
                }
                ck.add("task_schedule", check::task_schedule(set, s));
                ck.add("lifetime", check::lifetime(s.profile, set.battery, s.battery_alpha,
                                                   s.lifetime_seconds));
                std::vector<check::local_impl> locals;
                for (std::size_t i = 0; i < s.tasks.size() && i < set.tasks.size(); ++i) {
                    const std::string key = point_key(set.tasks[i].g, s.tasks[i].impl.point);
                    auto it = local.find(key);
                    if (it == local.end())
                        it = local.emplace(key, run_locally(set.tasks[i], s.tasks[i].impl.point)).first;
                    locals.push_back(it->second);
                }
                ck.add("task_matches_local", check::task_matches_local(s, locals));
                if (k == 1 && error[0].empty())
                    ck.add("battery_ge_edf", check::battery_vs_edf(s, sched[0]));
                if (ps.file.probe) {
                    const std::string rendered = s.to_string();
                    const auto [at, inserted] = first.emplace(label, rendered);
                    if (!inserted && at->second != rendered)
                        ck.fail("deterministic", "a later round scheduled differently");
                }
                r.record(label, ck.failed());
                if (k == 1) {
                    for (const phls::task::task_result& t : s.tasks) area += t.impl.area;
                    life += s.lifetime_seconds;
                }
            }
        }
        st.round_wall.push_back(round_wall);
        st.round_cpu.push_back(round_cpu);
        st.round_rss_mb.push_back(rss.take());
        st.design_area += area;
        st.lifetime_s += life;
    } while (rounds < 2 || now_s() - started < opts.seconds);

    // Rounds deal different sets: report the mean round.
    st.design_area /= rounds;
    st.lifetime_s /= rounds;
    if (!tr.enabled()) {
        fill_end_to_end(r, st);
        return r;
    }
    const double n = rounds;
    layer["task.parse_s"] = tr.total("task.parse") / (n + 20.0); // per parse of a round
    for (const char* name : {"task.candidates", "task.pack_edf", "task.pack_battery"})
        layer[std::string(name) + "_s"] = tr.total(name) / n;
    layer["task.viable_impls"] = viable / n;
    layer["task.preemption_gaps"] = gaps / n;
    layer["task.pool_sessions"] = pool_sessions / n;
    fill_per_layer(r, layer, st);
    return r;
}

} // namespace perfbench
