// Acceptance gates of the multi-task scheduling engine over mixes of
// the paper's benchmark kernels (hal, cosine, elliptic):
//
//   * dominance — for every mix, the battery-aware policy meets at
//     least as many deadlines AND reaches at least the composed-profile
//     lifetime of the non-preemptive EDF baseline (hard gate; the
//     engine keeps the baseline in its portfolio, so a regression here
//     means the portfolio logic broke);
//   * determinism — the battery schedule's to_string() is byte-identical
//     at 1, 2 and 8 worker threads for every mix (hard gate);
//   * the per-mix schedules and timings are reported and written to
//     BENCH_tasks.json so the trajectory is comparable across PRs.  The
//     cold per-task candidate sweep is timed once on the shared pool
//     (`sweep_ms`); each policy's `pack_ms` is then its packing on the
//     warm pool, so neither policy is charged for the sweep.
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "support/strings.h"
#include "support/table.h"
#include "task/candidates.h"
#include "task/engine.h"

namespace {

double run_ms(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// The benchmark mixes, in the task-set text format the CLI accepts.
const struct mix {
    const char* name;
    const char* text;
} kMixes[] = {
    {"trio",
     "taskset trio\n"
     "envelope 10.0\n"
     "battery beta 0.1 cycle 0.5 idle 4\n"
     "task hal      hal      deadline 60\n"
     "task cosine   cosine   deadline 120 release 10\n"
     "task elliptic elliptic deadline 200 release 20\n"},
    {"radio6",
     "taskset radio6\n"
     "envelope 12.0\n"
     "battery beta 0.1 cycle 0.5 idle 8\n"
     "task rx1 hal      deadline 70\n"
     "task rx2 hal      deadline 140 release 40\n"
     "task eq1 cosine   deadline 180 release 10\n"
     "task eq2 cosine   deadline 320 release 120 iterations 2\n"
     "task f1  elliptic deadline 260 release 30\n"
     "task f2  elliptic deadline 480 release 200\n"},
    {"bursty",
     "taskset bursty\n"
     "envelope 8.0\n"
     "battery beta 0.1 cycle 0.5 idle 4\n"
     "task burst hal deadline 400 iterations 4\n"
     "task bg    hal deadline 600 release 100 iterations 2\n"},
};

} // namespace

int main()
{
    using namespace phls;

    std::cout << "=== multi-task scheduling: dominance / determinism gates ===\n\n";

    ascii_table table({"mix", "tasks", "sweep (ms)", "policy", "met", "makespan",
                       "gaps", "peak", "lifetime (s)", "pack (ms)"});
    bool dominance_ok = true;
    bool determinism_ok = true;

    struct row {
        std::string name;
        std::size_t tasks = 0;
        task::task_schedule edf;
        task::task_schedule bat;
        double ms_sweep = 0.0;
        double ms_edf = 0.0;
        double ms_bat = 0.0;
        bool dominated = false;
        bool deterministic = false;
    };
    std::vector<row> rows;

    for (const mix& m : kMixes) {
        const task::task_set set = task::parse_task_set_string(m.text);
        serve::session_pool pool; // both policies share warm sessions

        row r;
        r.name = m.name;
        r.tasks = set.tasks.size();
        const task::schedule_options defaults;
        r.ms_sweep = run_ms([&] {
            task::explore_candidates(set, pool, defaults.memo_limit, defaults.threads);
        });
        r.ms_edf =
            run_ms([&] { r.edf = task::schedule(set, task::policy::edf, pool); });
        r.ms_bat = run_ms(
            [&] { r.bat = task::schedule(set, task::policy::battery, pool); });

        r.dominated = r.bat.met >= r.edf.met &&
                      r.bat.lifetime_seconds >= r.edf.lifetime_seconds;
        dominance_ok = dominance_ok && r.dominated;

        // Byte-identity across worker thread counts (fresh pools: the
        // gate covers the cold path, not a warm replay).
        r.deterministic = true;
        std::string want;
        for (const int threads : {1, 2, 8}) {
            task::schedule_options opts;
            opts.threads = threads;
            const std::string got =
                task::schedule(set, task::policy::battery, opts).to_string();
            if (threads == 1)
                want = got;
            else
                r.deterministic = r.deterministic && got == want;
        }
        determinism_ok = determinism_ok && r.deterministic;

        for (const task::task_schedule* s : {&r.edf, &r.bat})
            table.add_row({r.name, strf("%zu", r.tasks), strf("%.1f", r.ms_sweep), s->policy,
                           strf("%d/%zu", s->met, r.tasks),
                           strf("%d", s->makespan), strf("%d", s->preemption_gaps),
                           strf("%.3f", s->peak),
                           strf("%.3f", s->lifetime_seconds),
                           strf("%.1f", s == &r.edf ? r.ms_edf : r.ms_bat)});
        rows.push_back(std::move(r));
    }

    std::cout << table.to_string() << '\n';
    std::cout << "battery >= edf on met deadlines AND lifetime (all mixes): "
              << (dominance_ok ? "YES" : "NO") << '\n';
    std::cout << "battery schedule byte-identical at 1/2/8 threads:         "
              << (determinism_ok ? "YES" : "NO") << '\n';
    const bool ok = dominance_ok && determinism_ok;

    {
        std::ofstream json("BENCH_tasks.json");
        json << "{\n  \"mixes\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const row& r = rows[i];
            json << strf("    {\"name\": \"%s\", \"tasks\": %zu, \"sweep_ms\": %.3f,\n",
                         r.name.c_str(), r.tasks, r.ms_sweep);
            json << strf("     \"edf\": {\"met\": %d, \"makespan\": %d, "
                         "\"peak\": %.6f, \"lifetime_s\": %.6f, \"pack_ms\": %.3f},\n",
                         r.edf.met, r.edf.makespan, r.edf.peak,
                         r.edf.lifetime_seconds, r.ms_edf);
            json << strf("     \"battery\": {\"met\": %d, \"makespan\": %d, "
                         "\"gaps\": %d, \"peak\": %.6f, \"lifetime_s\": %.6f, "
                         "\"pack_ms\": %.3f},\n",
                         r.bat.met, r.bat.makespan, r.bat.preemption_gaps,
                         r.bat.peak, r.bat.lifetime_seconds, r.ms_bat);
            json << strf("     \"dominated\": %s, \"deterministic\": %s}%s\n",
                         r.dominated ? "true" : "false",
                         r.deterministic ? "true" : "false",
                         i + 1 < rows.size() ? "," : "");
        }
        json << "  ],\n";
        json << strf("  \"gates_passed\": %s\n", ok ? "true" : "false");
        json << "}\n";
        std::cout << "wrote BENCH_tasks.json\n";
    }

    return ok ? 0 : 1;
}
