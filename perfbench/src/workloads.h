// The four workloads.  Each runs whole rounds of the same operations until
// `opts.seconds` have passed (at least two rounds), checks every
// operation's outputs, and fills in every end-to-end metric (untraced run)
// or every per-layer metric (traced run; layers a workload does not
// exercise read 0).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace perfbench {

run_result run_synth_1k(const run_options& opts, tracer& tr);
run_result run_sweep_plane(const run_options& opts, tracer& tr);
run_result run_serve_jobs(const run_options& opts, tracer& tr, ceiling_guard& guard);
run_result run_tasks_mix(const run_options& opts, tracer& tr);

/// Prints every guided-prune and operand-order case of the workloads'
/// fixed inputs with its expected and observed result; returns the
/// number of cases found.
int print_fault_cases(const std::string& work_dir);

/// Fills the end-to-end metrics shared by every workload from one run's
/// rounds: `setup` holds the set-up repetitions, `round_wall` and
/// `round_cpu` one entry per measured round, `ops` the operations the
/// measured rounds completed, the quality sums one round's outputs, and
/// `round_rss_mb` each round's peak resident set.
struct round_stats {
    std::vector<double> setup;
    std::vector<double> round_wall;
    std::vector<double> round_cpu;
    double ops = 0.0;
    double design_area = 0.0;
    double lifetime_s = 0.0;
    std::vector<double> round_rss_mb; ///< peak resident set of each round
};
void fill_end_to_end(run_result& r, const round_stats& s);

/// Fills every per-layer metric: the `values` given, 0 for the rest, and
/// `trace.round_wall_s`, the traced run's mean round time over the same
/// timed sections as `wall_s` (the difference is the tracing overhead).
void fill_per_layer(run_result& r, std::map<std::string, double> values,
                    const round_stats& s);

} // namespace perfbench
