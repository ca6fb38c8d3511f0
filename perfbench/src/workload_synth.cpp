// synth_1k: one full flow::run per design on a 1000-op ALU-family DAG and
// a 300-op DAG with 30% multipliers.  The traced run also replays the
// pipeline stage by stage to time each layer.
#include <algorithm>

#include "battery/battery.h"
#include "battery/lifetime.h"
#include "checker.h"
#include "flow/flow.h"
#include "inputs.h"
#include "rtl/netlist.h"
#include "sched/mobility.h"
#include "synth/clique.h"
#include "synth/prospect.h"
#include "synth/verify.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Battery capacity of the lifetime stage: fixed, so lifetimes compare
/// across designs and commits.
constexpr double battery_alpha = 1.0e5;

/// The greedy pipeline, stage by stage, each stage in its own span.
/// Returns the summed duration of the disjoint stages (partitioning,
/// verification, netlist, battery) so flow.other_s can be derived.
double replay_stages(const synth_design& d, const phls::module_library& lib,
                     const phls::lifetime_spec& ls, tracer& tr, bool alu)
{
    using namespace phls;
    const double cap = d.c.max_power;
    prospect_result pf;
    prospect_result pc;
    {
        tracer::span s(tr, "synth.prospect", d.name);
        pf = make_prospect(d.g, lib, prospect_policy::fastest_fit, cap);
        pc = make_prospect(d.g, lib, prospect_policy::cheapest_fit, cap);
    }
    const bool same = pf.assignment == pc.assignment;
    {
        tracer::span s(tr, "sched.windows", d.name);
        power_windows(d.g, lib, pf.assignment, cap, d.c.latency);
        if (!same) power_windows(d.g, lib, pc.assignment, cap, d.c.latency);
    }
    synthesis_options fast;
    fast.try_both_prospects = false;
    fast.policy = prospect_policy::fastest_fit;
    synthesis_options cheap = fast;
    cheap.policy = prospect_policy::cheapest_fit;

    double disjoint = 0.0;
    synthesis_result best;
    {
        tracer::span s(tr, alu ? "synth.partition_alu" : "synth.partition_mixed", d.name);
        rss_sampler rss;
        rss.take();
        synthesis_result a = run_clique_partitioning(d.g, lib, d.c, fast);
        if (a.feasible) a.dp.compute_area(d.g, lib, fast.costs);
        best = std::move(a);
        if (!same) {
            synthesis_result b = run_clique_partitioning(d.g, lib, d.c, cheap);
            if (b.feasible) {
                b.dp.compute_area(d.g, lib, cheap.costs);
                if (!best.feasible || b.dp.area.total() < best.dp.area.total()) best = std::move(b);
            }
        }
        tr.count_max("synth.partition_peak_mb", rss.take());
        disjoint += s.close();
    }
    if (!best.feasible) return disjoint;
    {
        tracer::span s(tr, "synth.verify", d.name);
        verify_datapath(d.g, lib, best.dp, d.c, fast.costs);
        disjoint += s.close();
    }
    {
        tracer::span s(tr, "rtl.netlist", d.name);
        build_netlist(best.dp.name, d.g, lib, best.dp.sched, best.dp.instance_of,
                      best.dp.instance_modules());
        disjoint += s.close();
    }
    {
        tracer::span s(tr, "battery.eval", d.name);
        const load_profile load =
            to_load(best.dp.sched.profile(lib), ls.voltage, ls.cycle_seconds, ls.idle_cycles);
        make_rakhmatov_battery(ls.alpha, ls.beta)->lifetime(load, ls.max_seconds);
        disjoint += s.close();
    }
    return disjoint;
}

} // namespace

run_result run_synth_1k(const run_options& opts, tracer& tr)
{
    const phls::module_library lib = phls::table1_library();
    round_stats st;
    std::vector<synth_design> designs;
    for (int i = 0; i < 9; ++i) {
        tracer::span s(tr, "cdfg.generate");
        const double t0 = now_s();
        designs = synth_designs(opts.seed, lib);
        st.setup.push_back(now_s() - t0);
    }

    phls::lifetime_spec ls;
    ls.alpha = battery_alpha;
    run_result r;
    std::map<std::string, double> layer;
    std::vector<double> design_s; // every flow::run, seconds
    double flow_total = 0.0;
    double stage_total = 0.0;
    int rounds = 0;
    rss_sampler rss;
    const double started = now_s();
    do {
        rss.take();
        // Each round synthesises its own pair of designs, so a run
        // averages over several graphs.
        if (rounds > 0)
            designs = synth_designs(opts.seed * 1000003ULL + static_cast<std::uint64_t>(rounds), lib);
        ++rounds;
        std::vector<phls::flow_report> reports;
        const double w0 = now_s();
        const double c0 = cpu_s();
        for (const synth_design& d : designs) {
            const double t0 = now_s();
            reports.push_back(phls::flow::on(d.g)
                                  .with_library(lib)
                                  .constraints(d.c)
                                  .emit_netlist()
                                  .estimate_lifetime(ls)
                                  .run());
            design_s.push_back(now_s() - t0);
        }
        st.round_wall.push_back(now_s() - w0);
        st.round_cpu.push_back(cpu_s() - c0);
        st.round_rss_mb.push_back(rss.take());
        if (tr.enabled()) {
            for (std::size_t i = 0; i < designs.size(); ++i) {
                flow_total += design_s[design_s.size() - designs.size() + i];
                stage_total += replay_stages(designs[i], lib, ls, tr, i == 0);
            }
        }

        double area = 0.0;
        double life = 0.0;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const synth_design& d = designs[i];
            const phls::flow_report& rep = reports[i];
            op_checks ck;
            if (!rep.st.ok() || !rep.has_design) {
                ck.fail("status_ok", rep.st.to_string());
            } else {
                ck.add("design", check::design(d.g, lib, rep.dp, d.c, rep.peak));
                if (!check::close(rep.area, rep.dp.area.total()))
                    ck.fail("design", "reported area differs from its breakdown");
                if (!rep.has_netlist || rep.nl.fus.size() != rep.dp.instances.size())
                    ck.fail("netlist", "netlist does not hold one FU per instance");
                if (!rep.has_lifetime)
                    ck.fail("lifetime", "lifetime stage did not run");
                else
                    ck.add("lifetime",
                           check::lifetime(phls::power_profile(
                                               check::cycle_power(d.g, lib, rep.dp.sched)),
                                           ls, rep.battery_alpha, rep.lifetime_seconds));
                area += rep.area;
                life += rep.lifetime_seconds;
            }
            r.record(d.name, ck.failed());
            if (tr.enabled() && i == 0) {
                layer["synth.merges"] = rep.stats.merges;
                layer["synth.rejected"] = rep.stats.rejected;
                layer["synth.window_recomputes"] = rep.stats.window_recomputes;
                layer["synth.accept_ratio"] =
                    rep.stats.merges + rep.stats.rejected > 0
                        ? static_cast<double>(rep.stats.merges) /
                              (rep.stats.merges + rep.stats.rejected)
                        : 0.0;
            }
        }
        st.design_area += area;
        st.lifetime_s += life;
    } while (rounds < 2 || now_s() - started < opts.seconds);

    st.ops = static_cast<double>(design_s.size());
    st.design_area /= rounds;
    st.lifetime_s /= rounds;
    if (!tr.enabled()) {
        fill_end_to_end(r, st);
        return r;
    }
    const double n = rounds;
    layer["cdfg.generate_s"] = median(st.setup);
    for (const char* name : {"synth.prospect", "sched.windows", "synth.partition_alu",
                             "synth.partition_mixed", "synth.verify", "rtl.netlist",
                             "battery.eval"})
        layer[std::string(name) + "_s"] = tr.total(name) / n;
    layer["flow.other_s"] = (flow_total - stage_total) / n;
    layer["synth.partition_peak_mb"] = tr.counter("synth.partition_peak_mb");
    fill_per_layer(r, layer, st);
    return r;
}

} // namespace perfbench
