#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench::check {
namespace {

using phls::node_id;

std::string fmt(const char* format, double a, double b)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, format, a, b);
    return buf;
}

/// `limit` with room for rounding.
double with_tol(double limit) { return limit + rel_tol * std::max(1.0, std::abs(limit)); }

/// a weakly dominates b: no worse on every objective.
bool weakly_dominates(const point& a, const point& b)
{
    if (a.peak > b.peak || a.area > b.area) return false;
    if (a.has_lifetime && b.has_lifetime && a.lifetime < b.lifetime) return false;
    return true;
}

bool strictly_dominates(const point& a, const point& b)
{
    if (!weakly_dominates(a, b)) return false;
    return a.peak < b.peak || a.area < b.area ||
           (a.has_lifetime && b.has_lifetime && a.lifetime > b.lifetime);
}

point of_front(const phls::front_point& f)
{
    return {f.index, true, f.area, f.peak, f.latency, f.has_lifetime, f.lifetime_seconds};
}

bool same(const point& a, const point& b)
{
    if (a.feasible != b.feasible) return false;
    if (!a.feasible) return true;
    return a.area == b.area && a.peak == b.peak && a.latency == b.latency &&
           a.has_lifetime == b.has_lifetime && a.lifetime == b.lifetime;
}

std::string describe(const point& p)
{
    if (!p.feasible) return "infeasible";
    char buf[160];
    std::snprintf(buf, sizeof buf, "area %.6g peak %.6g latency %d lifetime %.6g", p.area,
                  p.peak, p.latency, p.lifetime);
    return buf;
}

} // namespace

bool close(double a, double b)
{
    return std::abs(a - b) <= rel_tol * std::max({1.0, std::abs(a), std::abs(b)});
}

std::vector<double> cycle_power(const phls::graph& g, const phls::module_library& lib,
                                const phls::schedule& s)
{
    std::vector<double> power;
    for (node_id v : g.node_ids()) {
        const phls::fu_module& m = lib.module(s.module_of(v));
        const std::size_t end = static_cast<std::size_t>(s.start(v) + m.latency);
        if (power.size() < end) power.resize(end, 0.0);
        for (std::size_t t = static_cast<std::size_t>(s.start(v)); t < end; ++t)
            power[t] += m.power;
    }
    return power;
}

violations design(const phls::graph& g, const phls::module_library& lib,
                  const phls::datapath& dp, const phls::synthesis_constraints& c,
                  double reported_peak)
{
    violations bad;
    const int n = g.node_count();
    if (dp.sched.node_count() != n || static_cast<int>(dp.instance_of.size()) != n)
        return {"schedule or binding does not cover the graph"};

    // Modules and binding.
    for (node_id v : g.node_ids()) {
        const phls::module_id m = dp.sched.module_of(v);
        if (!m.valid() || m.value() >= lib.size()) {
            bad.push_back("operation '" + g.label(v) + "' has no library module");
            continue;
        }
        if (!lib.module(m).supports(g.kind(v)))
            bad.push_back("module '" + lib.module(m).name + "' cannot execute '" +
                          g.label(v) + "'");
        if (dp.sched.start(v) < 0) bad.push_back("operation '" + g.label(v) + "' unscheduled");
        const int inst = dp.instance_of[v.index()];
        if (inst < 0 || inst >= static_cast<int>(dp.instances.size())) {
            bad.push_back("operation '" + g.label(v) + "' is unbound");
            continue;
        }
        if (dp.instances[static_cast<std::size_t>(inst)].module != m)
            bad.push_back("operation '" + g.label(v) + "' runs on another module than its instance");
    }
    if (!bad.empty()) return bad;
    const auto delay = [&](node_id v) { return lib.module(dp.sched.module_of(v)).latency; };
    const auto finish = [&](node_id v) { return dp.sched.start(v) + delay(v); };

    // Precedence and latency.
    int latency = 0;
    for (node_id v : g.node_ids()) {
        latency = std::max(latency, finish(v));
        for (node_id p : g.preds(v))
            if (dp.sched.start(v) < finish(p))
                bad.push_back("'" + g.label(v) + "' starts at " +
                              std::to_string(dp.sched.start(v)) + " before its operand '" +
                              g.label(p) + "' finishes at " + std::to_string(finish(p)));
    }
    if (latency > c.latency)
        bad.push_back("latency " + std::to_string(latency) + " exceeds T " +
                      std::to_string(c.latency));

    // No two operations overlap on one instance; the instance lists agree
    // with the per-node binding.
    std::vector<std::vector<node_id>> on(dp.instances.size());
    for (node_id v : g.node_ids()) on[static_cast<std::size_t>(dp.instance_of[v.index()])].push_back(v);
    for (std::size_t i = 0; i < on.size(); ++i) {
        std::vector<node_id> listed = dp.instances[i].ops;
        std::vector<node_id> bound = on[i];
        std::sort(listed.begin(), listed.end());
        std::sort(bound.begin(), bound.end());
        if (listed != bound)
            bad.push_back("instance " + std::to_string(i) + " op list disagrees with the binding");
        std::sort(bound.begin(), bound.end(), [&](node_id a, node_id b) {
            return dp.sched.start(a) < dp.sched.start(b);
        });
        for (std::size_t k = 1; k < bound.size(); ++k)
            if (dp.sched.start(bound[k]) < finish(bound[k - 1]))
                bad.push_back("instance " + std::to_string(i) + " runs '" +
                              g.label(bound[k - 1]) + "' and '" + g.label(bound[k]) +
                              "' at once");
    }

    // Per-cycle power under the cap, and the reported peak.
    const std::vector<double> power = cycle_power(g, lib, dp.sched);
    double peak = 0.0;
    for (std::size_t t = 0; t < power.size(); ++t) {
        peak = std::max(peak, power[t]);
        if (power[t] > with_tol(c.max_power))
            bad.push_back(fmt("cycle power %.6g exceeds the cap %.6g", power[t], c.max_power));
    }
    if (!close(peak, reported_peak))
        bad.push_back(fmt("reported peak %.9g but the schedule draws %.9g", reported_peak, peak));

    // Functional-unit area.
    double fu_area = 0.0;
    for (const phls::fu_instance& inst : dp.instances) fu_area += lib.module(inst.module).area;
    if (!close(fu_area, dp.area.fu))
        bad.push_back(fmt("reported FU area %.9g but the instances sum to %.9g", dp.area.fu,
                          fu_area));
    return bad;
}

point of(std::size_t index, const phls::flow_report& r)
{
    return {index, r.st.ok(), r.area, r.peak, r.latency, r.has_lifetime, r.lifetime_seconds};
}

violations front(const std::vector<phls::front_point>& front_points,
                 const std::vector<point>& delivered)
{
    violations bad;
    std::map<std::size_t, const point*> by_index;
    for (const point& p : delivered) by_index[p.index] = &p;
    std::vector<point> f;
    for (const phls::front_point& fp : front_points) {
        const point p = of_front(fp);
        const auto it = by_index.find(p.index);
        if (it == by_index.end() || !it->second->feasible ||
            it->second->area != p.area || it->second->peak != p.peak)
            bad.push_back("front point " + std::to_string(p.index) +
                          " is not a delivered feasible point");
        f.push_back(p);
    }
    for (const point& q : delivered) {
        if (!q.feasible) continue;
        bool covered = false;
        for (const point& p : f) {
            if (strictly_dominates(q, p))
                bad.push_back("front point " + std::to_string(p.index) +
                              " is dominated by point " + std::to_string(q.index));
            covered = covered || weakly_dominates(p, q);
        }
        if (!covered)
            bad.push_back("point " + std::to_string(q.index) + " (" + describe(q) +
                          ") is neither on nor behind the front");
    }
    return bad;
}

violations same_front(const std::vector<phls::front_point>& expected,
                      const std::vector<phls::front_point>& observed)
{
    const auto key = [](const phls::front_point& f) { return f.index; };
    std::map<std::size_t, point> a;
    std::map<std::size_t, point> b;
    for (const phls::front_point& f : expected) a[key(f)] = of_front(f);
    for (const phls::front_point& f : observed) b[key(f)] = of_front(f);
    violations bad;
    if (a.size() != b.size())
        bad.push_back("front has " + std::to_string(b.size()) + " points, expected " +
                      std::to_string(a.size()));
    for (const auto& [index, p] : a) {
        const auto it = b.find(index);
        if (it == b.end()) bad.push_back("front misses point " + std::to_string(index));
        else if (!same(p, it->second))
            bad.push_back("front point " + std::to_string(index) + " differs");
    }
    for (const auto& [index, p] : b)
        if (a.find(index) == a.end())
            bad.push_back("front has unexpected point " + std::to_string(index));
    return bad;
}

violations same_points(const std::vector<point>& expected,
                       const std::vector<point>& observed, const std::string& what)
{
    std::map<std::size_t, const point*> b;
    for (const point& p : observed) b[p.index] = &p;
    violations bad;
    if (expected.size() != observed.size())
        bad.push_back(what + ": " + std::to_string(observed.size()) + " points, expected " +
                      std::to_string(expected.size()));
    for (const point& p : expected) {
        const auto it = b.find(p.index);
        if (it == b.end()) bad.push_back(what + ": point " + std::to_string(p.index) + " missing");
        else if (!same(p, *it->second))
            bad.push_back(what + ": point " + std::to_string(p.index) + " expected " +
                          describe(p) + ", got " + describe(*it->second));
    }
    return bad;
}

violations lifetime(const phls::power_profile& profile, const phls::lifetime_spec& spec,
                    double alpha, double lifetime_s)
{
    violations bad;
    if (!(lifetime_s > 0.0)) return {fmt("lifetime %.6g s (alpha %.6g) is not positive", lifetime_s, alpha)};
    const std::vector<double>& p = profile.values();
    const std::size_t cycles = p.size() + static_cast<std::size_t>(std::max(0, spec.idle_cycles));
    const double period = static_cast<double>(cycles) * spec.cycle_seconds;
    double per_period = 0.0;
    for (double w : p) per_period += w / spec.voltage * spec.cycle_seconds;
    // Whole periods, then the partial one cycle by cycle.
    const double whole = std::floor(lifetime_s / period);
    double charge = whole * per_period;
    double t = whole * period;
    for (std::size_t c = 0; c < p.size() && t < lifetime_s; ++c) {
        const double step = std::min(spec.cycle_seconds, lifetime_s - t);
        charge += p[c] / spec.voltage * step;
        t += spec.cycle_seconds;
    }
    if (charge > with_tol(alpha))
        bad.push_back(fmt("charge drawn until the reported lifetime %.9g exceeds alpha %.9g",
                          charge, alpha));
    return bad;
}

violations task_schedule(const phls::task::task_set& set, const phls::task::task_schedule& s)
{
    violations bad;
    if (s.tasks.size() != set.tasks.size())
        return {"schedule has " + std::to_string(s.tasks.size()) + " tasks, the set " +
                std::to_string(set.tasks.size())};
    int met = 0;
    for (std::size_t i = 0; i < s.tasks.size(); ++i) {
        const phls::task::task_result& r = s.tasks[i];
        const phls::task::task_spec& t = set.tasks[i];
        const std::string who = "task '" + t.name + "'";
        if (static_cast<int>(r.runs.size()) != t.iterations)
            bad.push_back(who + " runs " + std::to_string(r.runs.size()) + " of " +
                          std::to_string(t.iterations) + " iterations");
        int prev_finish = t.release;
        for (const phls::task::activation& a : r.runs) {
            if (a.start < prev_finish)
                bad.push_back(who + " iteration " + std::to_string(a.iteration) +
                              " starts before the release or the previous iteration");
            if (a.finish - a.start != r.impl.latency)
                bad.push_back(who + " iteration " + std::to_string(a.iteration) +
                              " is not as long as its implementation");
            if (a.finish > t.deadline)
                bad.push_back(who + " iteration " + std::to_string(a.iteration) +
                              " ends at " + std::to_string(a.finish) + " after the deadline " +
                              std::to_string(t.deadline));
            prev_finish = a.finish;
        }
        if (r.impl.peak > with_tol(set.envelope))
            bad.push_back(fmt((who + " implementation peak %.6g exceeds the envelope %.6g").c_str(),
                              r.impl.peak, set.envelope));
        const bool in_time = !r.runs.empty() && r.runs.back().finish <= t.deadline;
        if (!in_time) bad.push_back(who + " misses its deadline");
        met += in_time ? 1 : 0;
    }
    if (met != s.met) bad.push_back("reported met count differs from the runs");
    const double peak = s.profile.values().empty()
                            ? 0.0
                            : *std::max_element(s.profile.values().begin(),
                                                s.profile.values().end());
    if (peak > with_tol(set.envelope))
        bad.push_back(fmt("composed peak %.6g exceeds the envelope %.6g", peak, set.envelope));
    if (!close(peak, s.peak))
        bad.push_back(fmt("reported peak %.9g but the profile peaks at %.9g", s.peak, peak));
    return bad;
}

violations task_matches_local(const phls::task::task_schedule& s,
                              const std::vector<local_impl>& local)
{
    violations bad;
    if (local.size() != s.tasks.size()) return {"local runs do not cover the schedule"};
    std::vector<double> composed;
    for (std::size_t i = 0; i < s.tasks.size(); ++i) {
        const phls::task::task_result& r = s.tasks[i];
        const local_impl& l = local[i];
        if (r.impl.latency != l.latency || r.impl.peak != l.peak || r.impl.area != l.area) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "task '%s' at (T %d, P %.6g): scheduled latency %d peak %.6g area "
                          "%.6g, local run latency %d peak %.6g area %.6g",
                          r.name.c_str(), r.impl.point.latency, r.impl.point.max_power,
                          r.impl.latency, r.impl.peak, r.impl.area, l.latency, l.peak, l.area);
            bad.push_back(buf);
        }
        for (const phls::task::activation& a : r.runs) {
            const std::vector<double>& p = l.profile.values();
            for (std::size_t c = 0; c < p.size(); ++c) {
                const std::size_t at = static_cast<std::size_t>(a.start) + c;
                if (composed.size() <= at) composed.resize(at + 1, 0.0);
                composed[at] += p[c];
            }
        }
    }
    const std::vector<double>& observed = s.profile.values();
    const std::size_t n = std::max(composed.size(), observed.size());
    for (std::size_t c = 0; c < n; ++c) {
        const double want = c < composed.size() ? composed[c] : 0.0;
        const double got = c < observed.size() ? observed[c] : 0.0;
        if (!close(want, got)) {
            bad.push_back(fmt(("composed profile at cycle " + std::to_string(c) +
                               " is %.9g, the local designs sum to %.9g")
                                  .c_str(),
                              got, want));
            break;
        }
    }
    return bad;
}

violations battery_vs_edf(const phls::task::task_schedule& battery,
                          const phls::task::task_schedule& edf)
{
    violations bad;
    if (battery.met < edf.met)
        bad.push_back("battery meets " + std::to_string(battery.met) + " deadlines, edf " +
                      std::to_string(edf.met));
    if (battery.lifetime_seconds < edf.lifetime_seconds * (1.0 - rel_tol))
        bad.push_back(fmt("battery lifetime %.9g is shorter than edf %.9g",
                          battery.lifetime_seconds, edf.lifetime_seconds));
    return bad;
}

} // namespace perfbench::check
