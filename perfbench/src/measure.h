// Clocks, resource usage, small statistics and the result record every
// workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();
/// CPU time (user + system) of this process, all threads, seconds.
double cpu_s();
/// Current resident set of process `pid` (0 = this process), MB; 0 when
/// the process is gone.
double current_rss_mb(pid_t pid = 0);

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v`.
double quantile(std::vector<double> v, double q);
/// The highest percentile (in whole percent) that leaves at least ten
/// samples above it, and its value; {0, 0} with fewer than 40 samples.
struct tail_value {
    int percentile = 0;
    double value = 0.0;
};
tail_value tail(std::vector<double> v);

/// Workload configuration from the command line.
struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir; ///< working directory for generated files, inside the checkout
};

/// One named metric value.
struct metric {
    double value = 0.0;
    std::string unit;
};

/// What a workload run reports.  An operation that fails a check still
/// runs its other checks; it counts once in `failed`, and every check it
/// failed counts once in `failures`.  `correct` turns false only when a
/// check outside `known_fault_checks` fails: the known faults are counted,
/// not hidden, and do not make the run incorrect.
struct run_result {
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    std::map<std::string, long> failures; ///< check name -> failed ops
    std::vector<std::string> first_messages; ///< a few diagnostics
    std::map<std::string, metric> metrics;

    /// Records one operation and the checks it failed (check name ->
    /// diagnostic).  Returns true when it passed every check.
    bool record(const std::string& op, const std::map<std::string, std::string>& failed);
    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics[name] = {value, unit};
    }
};

/// Checks whose failures are known program faults (see README.md):
/// `guided_front_equal` (guided-prune) and `served_equals_local` /
/// `task_matches_local` (operand-order).
bool is_known_fault_check(const std::string& check);

/// Per-operation check sink: collects check name -> first diagnostic.
class op_checks {
public:
    /// Records `violations` under `check` (no-op when empty).
    void add(const std::string& check, const std::vector<std::string>& violations);
    void fail(const std::string& check, const std::string& message);
    const std::map<std::string, std::string>& failed() const { return failed_; }

private:
    std::map<std::string, std::string> failed_;
};

/// Samples this process's resident set every 5 ms from a background
/// thread; take() returns the largest sample since the previous take().
class rss_sampler {
public:
    rss_sampler();
    ~rss_sampler();
    rss_sampler(const rss_sampler&) = delete;
    rss_sampler& operator=(const rss_sampler&) = delete;
    double take();

private:
    struct state;
    std::unique_ptr<state> state_;
};

/// Watches this process (and optionally a child) against a workload's
/// wall-time and peak-RSS ceilings from a background thread; on a breach
/// it prints a diagnostic, kills the child and ends the process with exit
/// code 3, so a runaway regression is a reported failure instead of an
/// OOM kill of the whole host.
class ceiling_guard {
public:
    ceiling_guard(double wall_s, double rss_mb);
    ~ceiling_guard();
    ceiling_guard(const ceiling_guard&) = delete;
    ceiling_guard& operator=(const ceiling_guard&) = delete;
    /// Also watches child process `pid` (0 = none) against the RSS ceiling.
    void watch_child(pid_t pid);

private:
    struct state;
    std::unique_ptr<state> state_;
};

/// Renders the result JSON line (the benchmark's last output line).
std::string result_json(const run_result& r);

} // namespace perfbench
