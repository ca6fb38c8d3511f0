// perfbench: the phls end-to-end benchmark.
//
//   perfbench <workload> --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-file PATH]
//   perfbench repro --work-dir DIR
//
// Prints the operations attempted and failed (tallied by check) and, as
// the last line, one JSON object with the run's metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <sys/stat.h>

#include "workloads.h"

namespace {

using namespace perfbench;

/// Wall-time and peak-RSS ceilings per workload, enforced on the
/// workload's own processes (for serve_jobs, the server too).
struct ceilings {
    double wall_s;
    double rss_mb;
};

ceilings ceilings_for(const std::string& workload)
{
    if (workload == "synth_1k") return {170.0, 1024.0};
    return {170.0, 512.0};
}

int usage()
{
    std::fprintf(stderr,
                 "usage: perfbench <synth_1k|sweep_plane|serve_jobs|tasks_mix> --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-file PATH]\n"
                 "       perfbench repro --work-dir DIR\n");
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) return usage();
    run_options opts;
    opts.workload = argv[1];
    std::string trace_file;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--seed") opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds") opts.seconds = std::atof(value.c_str());
        else if (key == "--trace") opts.trace = value == "1";
        else if (key == "--work-dir") opts.work_dir = value;
        else if (key == "--trace-file") trace_file = value;
        else return usage();
    }
    if (opts.work_dir.empty()) return usage();
    ::mkdir(opts.work_dir.c_str(), 0755);

    try {
        if (opts.workload == "repro") {
            print_fault_cases(opts.work_dir);
            return 0;
        }
        const ceilings c = ceilings_for(opts.workload);
        ceiling_guard guard(c.wall_s, c.rss_mb);
        tracer tr(opts.trace);
        run_result r;
        if (opts.workload == "synth_1k") r = run_synth_1k(opts, tr);
        else if (opts.workload == "sweep_plane") r = run_sweep_plane(opts, tr);
        else if (opts.workload == "serve_jobs") r = run_serve_jobs(opts, tr, guard);
        else if (opts.workload == "tasks_mix") r = run_tasks_mix(opts, tr);
        else return usage();
        if (tr.enabled() && !trace_file.empty()) tr.write(trace_file);

        std::printf("workload %s seed %llu: %ld operation(s) attempted, %ld failed\n",
                    opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                    r.attempted, r.failed);
        for (const auto& [check, count] : r.failures)
            std::printf("  failed check %-22s %6ld op(s)%s\n", check.c_str(), count,
                        is_known_fault_check(check) ? "  (known fault)" : "");
        for (const std::string& m : r.first_messages) std::printf("  e.g. %s\n", m.c_str());
        std::printf("%s\n", result_json(r).c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
