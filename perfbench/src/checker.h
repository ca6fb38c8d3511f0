// Output checks made apart from the program.
//
// Nothing here calls the program's own verifier (verify_datapath), its
// Pareto code or its battery models: each check recomputes what it needs
// from the raw outputs (schedule, binding, library, reported metrics) or
// tests a property the method must have.  Each function returns the
// violations it found; an empty vector means the output passed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "power/profile.h"
#include "task/schedule.h"
#include "task/set.h"

namespace perfbench::check {

using violations = std::vector<std::string>;

/// Relative tolerance for sums the checker adds up in another order than
/// the program does.
constexpr double rel_tol = 1e-9;

/// True when a and b agree within rel_tol (relative to the larger).
bool close(double a, double b);

/// Per-cycle power of a complete schedule, recomputed from the start
/// times and the library (every operation draws its module's power over
/// its execution cycles).
std::vector<double> cycle_power(const phls::graph& g, const phls::module_library& lib,
                                const phls::schedule& s);

/// One design of one (T, Pmax) point: precedence, latency <= T, no
/// overlap on any functional-unit instance, every module supports its
/// operations, per-cycle power <= cap, and the reported peak and FU area
/// equal the ones recomputed from schedule, binding and library.
violations design(const phls::graph& g, const phls::module_library& lib,
                  const phls::datapath& dp, const phls::synthesis_constraints& c,
                  double reported_peak);

/// The metrics of one delivered point, as the checks compare them.
struct point {
    std::size_t index = 0;
    bool feasible = false;
    double area = 0.0;
    double peak = 0.0;
    int latency = 0;
    bool has_lifetime = false;
    double lifetime = 0.0;
};
point of(std::size_t index, const phls::flow_report& r);

/// A front over `delivered`: every front point is a delivered feasible
/// point, no front point is strictly dominated by a delivered point, and
/// every delivered feasible point is on the front or weakly dominated by
/// a front point.  Objectives: peak and area lower, lifetime higher when
/// present.
violations front(const std::vector<phls::front_point>& front,
                 const std::vector<point>& delivered);

/// Two fronts hold the same points (index, area, peak, latency,
/// lifetime), in any order.
violations same_front(const std::vector<phls::front_point>& expected,
                      const std::vector<phls::front_point>& observed);

/// Point-by-point equality of two result sets keyed by index (status,
/// area, peak, latency, lifetime); `what` names the comparison.
violations same_points(const std::vector<point>& expected,
                       const std::vector<point>& observed, const std::string& what);

/// Battery lifetime plausibility: the charge the periodic load built from
/// `profile` (power / voltage per cycle of cycle_seconds, idle_cycles of
/// sleep per period) draws until `lifetime_s` must not exceed `alpha` --
/// a diffusion cell dies no later than an ideal bucket of the same
/// capacity.  The lifetime must also be positive.
violations lifetime(const phls::power_profile& profile, const phls::lifetime_spec& spec,
                    double alpha, double lifetime_s);

/// Structure of a task schedule: one result per task, iterations run
/// inside [release, deadline] without overlapping, each as long as its
/// implementation's latency, every deadline met, the composed profile
/// peak within the envelope and equal to the reported peak.
violations task_schedule(const phls::task::task_set& set,
                         const phls::task::task_schedule& s);

/// What a local flow::run on a task's own graph gives at the point the
/// schedule chose.
struct local_impl {
    int latency = 0;
    double peak = 0.0;
    double area = 0.0;
    phls::power_profile profile; ///< one iteration's per-cycle power
};

/// The chosen implementations and the composed device profile match the
/// local runs: each task's (latency, peak, area) equals its local run,
/// and the schedule's profile equals the sum of the local iteration
/// profiles placed at every run's start.
violations task_matches_local(const phls::task::task_schedule& s,
                              const std::vector<local_impl>& local);

/// The battery policy is at least as good as EDF on both axes: no fewer
/// deadlines met and no shorter lifetime.
violations battery_vs_edf(const phls::task::task_schedule& battery,
                          const phls::task::task_schedule& edf);

} // namespace perfbench::check
