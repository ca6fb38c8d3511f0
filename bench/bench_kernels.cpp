// Per-kernel micro-benchmarks for the synthesis inner loops: each fast
// kernel against the reference oracle (synthesis_options::
// reference_kernels).
//
// Three kernels are timed in isolation:
//
//   * probe    -- power-feasibility probing: a pasap-style placement
//     sweep over a contended ledger, power_tracker::next_fit (skip-ahead
//     via the headroom tree) vs the seed-era linear `++offset` scan;
//   * cands    -- candidate maintenance across merge-loop iterations:
//     the incremental candidate_store vs full enumerate_candidates()
//     per iteration, measured by the synthesis_stats::candidates_ns
//     region inside run_clique_partitioning over an identical
//     attempt-bounded prefix;
//   * rollback -- merge-attempt state capture + restore: the O(changes)
//     undo log vs the full partition_state deep copy, same region-timer
//     isolation (synthesis_stats::rollback_ns).
//
// Workloads: the paper benchmarks (trajectory rows) and a scaled
// synthetic random-DAG family (100..1000 operations), plus a 10k-op
// row timing the fast candidate path (SoA arena + flat sorted store)
// against the reference oracle.  Gates:
//
//   * identity (always hard): both paths must produce bit-identical
//     placements / partitioning results -- including the 10k-op row at
//     1/2/8 intra-point threads -- and the full 120-point
//     duplicate-heavy (T, Pmax) grid must yield byte-identical
//     flow_reports on the fast path vs the reference oracle, at 1/2/8
//     threads, cached and uncached;
//   * memory (always hard): the bench process's peak RSS stays within
//     8 GiB, so the 10k-op row runs on a 16 GB host;
//   * speedup (>= 2x per kernel on the 1000-op synthetic graph, >= 2x
//     for the candidates kernel on the 10k-op row): hard only when a
//     steady, repeatable clock is detected (and PHLS_BENCH_SOFT is
//     unset) -- on noisy CI hardware the speedups are reported as WARN
//     instead of failing the job.
//
// The machine-readable summary goes to BENCH_kernels.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "flow/flow.h"
#include "power/tracker.h"
#include "sched/schedule.h"
#include "support/strings.h"
#include "support/table.h"
#include "synth/clique.h"

namespace {

using namespace phls;

double run_ms(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Best of three repetitions (the usual micro-bench noise guard).
double best_ms(const std::function<void()>& fn)
{
    double best = run_ms(fn);
    for (int i = 0; i < 2; ++i) best = std::min(best, run_ms(fn));
    return best;
}

synthesis_options kernels(bool reference, int intra_threads = 1)
{
    synthesis_options o;
    o.reference_kernels = reference;
    o.intra_threads = intra_threads;
    return o;
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

// ------------------------------------------------------------ probe kernel

struct probe_workload {
    graph g;
    std::vector<node_id> topo;
    std::vector<int> delay;
    std::vector<double> power;
    double cap = 0.0;
};

probe_workload make_probe_workload(const graph& g, const module_library& lib)
{
    probe_workload w{g, g.topo_order(), {}, {}, 0.0};
    const module_assignment fast = fastest_assignment(w.g, lib, unbounded_power);
    double pmax = 0.0;
    for (node_id v : w.g.nodes()) {
        const fu_module& m = lib.module(fast[v.index()]);
        w.delay.push_back(m.latency);
        w.power.push_back(m.power);
        pmax = std::max(pmax, m.power);
    }
    // A cap just above the hungriest module: heavy contention, long
    // skips -- the regime the skip-ahead probe exists for.
    w.cap = 1.2 * pmax;
    return w;
}

/// One pasap-style placement sweep; the reference path probes one offset
/// at a time, the optimised one calls next_fit.  Returns the placement.
std::vector<int> place_all(const probe_workload& w, bool optimised)
{
    power_tracker t(w.cap);
    std::vector<int> start(static_cast<std::size_t>(w.g.node_count()), 0);
    for (node_id v : w.topo) {
        int ready = 0;
        for (node_id p : w.g.preds(v))
            ready = std::max(ready, start[p.index()] + w.delay[p.index()]);
        int s;
        if (optimised) {
            s = t.next_fit(ready, w.delay[v.index()], w.power[v.index()]);
        } else {
            s = ready;
            while (!t.fits(s, w.delay[v.index()], w.power[v.index()])) ++s;
        }
        t.reserve(s, w.delay[v.index()], w.power[v.index()]);
        start[v.index()] = s;
    }
    return start;
}

// --------------------------------------- candidates and rollback kernels

/// Canonical rendering of a partitioning result (binding + counters).
std::string render_partition(const graph& g, const synthesis_result& r)
{
    std::string out = r.feasible ? "ok" : "fail: " + r.reason;
    if (r.feasible)
        for (node_id v : g.nodes())
            out += strf(" %d@%d:m%d/u%d", v.value(), r.dp.sched.start(v),
                        r.dp.sched.module_of(v).value(), r.dp.instance_of[v.index()]);
    out += strf(" | merges=%d pair=%d join=%d rejected=%d recomputes=%d locked=%d "
                "rebinds=%d fallbacks=%d",
                r.stats.merges, r.stats.pair_merges, r.stats.join_merges,
                r.stats.rejected, r.stats.window_recomputes, r.stats.locked ? 1 : 0,
                r.stats.finalize_rebinds, r.stats.finalize_fallbacks);
    return out;
}

struct clique_sample {
    std::string render;
    double candidates_ms = 0.0;
    double rollback_ms = 0.0;
    double wall_ms = 0.0;
};

/// One partitioning run; `o` selects the kernel path and carries the
/// case's loop bounds.  The region timers come back in r.stats.
clique_sample run_clique(const graph& g, const module_library& lib,
                         const synthesis_constraints& c, const synthesis_options& o)
{
    clique_sample s;
    synthesis_result r;
    s.wall_ms = run_ms([&] { r = run_clique_partitioning(g, lib, c, o); });
    s.candidates_ms = static_cast<double>(r.stats.candidates_ns) / 1e6;
    s.rollback_ms = static_cast<double>(r.stats.rollback_ns) / 1e6;
    s.render = render_partition(g, r);
    return s;
}

bool identical_reports(const std::vector<flow_report>& a, const std::vector<flow_report>& b)
{
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].to_string() != b[i].to_string()) return false;
    return true;
}

} // namespace

int main()
{
    const module_library lib = table1_library();
    bool identity_ok = true;

    // ---------------------------------------------------- steady clock?
    // The speedup gates are only hard when the host can time a fixed
    // workload repeatably (and the escape hatch is unset): three runs of
    // a mid-size probe sweep must agree within 25%.
    bool steady = std::chrono::steady_clock::is_steady;
    {
        const probe_workload calib =
            make_probe_workload(random_dag({250, 8, 10, 0.3, 0.05, 0.8}, 99), lib);
        double lo = 1e300, hi = 0.0;
        for (int i = 0; i < 3; ++i) {
            const double ms = run_ms([&] { place_all(calib, false); });
            lo = std::min(lo, ms);
            hi = std::max(hi, ms);
        }
        if (lo <= 0.0 || (hi - lo) / lo > 0.25) steady = false;
    }
    if (std::getenv("PHLS_BENCH_SOFT") != nullptr) steady = false;
    std::cout << "steady clock: " << (steady ? "yes (speedup gates hard)"
                                            : "no (speedup gates soft-warn)")
              << "\n\n";

    // ------------------------------------------------------ probe kernel
    std::cout << "=== kernel: power probing (linear scan vs next_fit) ===\n";
    ascii_table probe_table({"workload", "ops", "linear (ms)", "next_fit (ms)",
                             "speedup", "identical"});
    double probe_speedup_1000 = 0.0;
    double probe_ref_1000 = 0.0, probe_opt_1000 = 0.0;
    std::vector<std::pair<std::string, graph>> probe_graphs;
    for (const char* name : {"hal", "cosine", "elliptic"})
        probe_graphs.emplace_back(name, benchmark_by_name(name));
    for (const int n : {100, 250, 500, 1000})
        probe_graphs.emplace_back(strf("synthetic-%d", n),
                                  random_dag({n, std::max(4, n / 12), 10, 0.3, 0.05, 0.8},
                                             20260730 + static_cast<std::uint64_t>(n)));
    for (const auto& [name, g] : probe_graphs) {
        const probe_workload w = make_probe_workload(g, lib);
        std::vector<int> ref_starts, opt_starts;
        const double ref_ms = best_ms([&] { ref_starts = place_all(w, false); });
        const double opt_ms = best_ms([&] { opt_starts = place_all(w, true); });
        const bool same = ref_starts == opt_starts;
        identity_ok = identity_ok && same;
        const double speedup = opt_ms > 0.0 ? ref_ms / opt_ms : 0.0;
        if (name == "synthetic-1000") {
            probe_speedup_1000 = speedup;
            probe_ref_1000 = ref_ms;
            probe_opt_1000 = opt_ms;
        }
        probe_table.add_row({name, std::to_string(g.node_count()), strf("%.3f", ref_ms),
                             strf("%.3f", opt_ms), strf("%.2fx", speedup),
                             same ? "yes" : "NO"});
    }
    probe_table.print(std::cout);
    std::cout << '\n';

    // ------------------------------- candidates and rollback kernels
    //
    // Region timers inside run_clique_partitioning isolate (a) candidate
    // maintenance + pick and (b) rollback capture + restore from the
    // window recomputes both paths share.  Large synthetic runs are
    // bounded to an identical attempt prefix (max_merge_attempts) so the
    // reference full re-enumeration stays affordable; the prefix itself
    // is asserted bit-identical.
    //
    // The incremental store's win scales with merge locality.  The gated
    // synthetic family is an ALU-sharing workload (add/sub/comp ops, no
    // multiplies) under the locked schedule-then-bind regime -- the same
    // pinned-times state the paper's backtrack-and-lock leaves every
    // tight run in, where an accepted merge perturbs only the merged
    // ops' neighbourhood and the reference still re-enumerates
    // everything.  The mult-heavy free-window row is reported (not
    // gated) to show the degradation when every commit re-packs pasap
    // windows globally: there the store approaches one reference
    // enumeration per accept.
    std::cout << "=== kernels: candidate maintenance and rollback ===\n";
    ascii_table clique_table({"workload", "ops", "attempts", "cands ref/opt (ms)",
                              "speedup", "rollback ref/opt (ms)", "speedup",
                              "identical"});
    double cand_speedup_1000 = 0.0, roll_speedup_1000 = 0.0;
    double cand_ref_1000 = 0.0, cand_opt_1000 = 0.0;
    double roll_ref_1000 = 0.0, roll_opt_1000 = 0.0;

    struct clique_case {
        std::string name;
        graph g;
        synthesis_constraints c;
        int attempts; // -1 = run to completion
        bool locked = false;
    };
    double pmax = 0.0;
    for (const fu_module& m : lib.modules()) pmax = std::max(pmax, m.power);
    std::vector<clique_case> cases;
    cases.push_back({"hal", make_hal(), {17, 7.1}, -1, false});
    cases.push_back({"cosine", make_cosine(), {15, 25.0}, -1, false});
    cases.push_back({"elliptic", make_elliptic(), {22, 20.0}, -1, false});
    for (const int n : {100, 250, 1000}) {
        // ALU-sharing family: add/sub/comp only, locked times, a cap of
        // ~2.5 hungriest modules, latency = pasap length + slack.
        graph g = random_dag({n, std::max(4, n / 12), 10, 0.0, 0.05, 0.8},
                             777 + static_cast<std::uint64_t>(n));
        const double cap = 2.5 * pmax;
        const pasap_result lo = pasap(g, lib,
                                      fastest_assignment(g, lib, cap), cap, {});
        if (!lo.feasible) continue;
        const int T = lo.sched.latency(lib) + 4;
        const int attempts = n >= 1000 ? 15 : (n >= 250 ? 30 : 60);
        cases.push_back(
            {strf("synthetic-%d", n), std::move(g), {T, cap}, attempts, true});
    }
    {
        // Ungated degradation row: multiplier-heavy, free windows.
        graph g = random_dag({1000, 83, 10, 0.3, 0.05, 0.8}, 1777);
        const double cap = 2.5 * pmax;
        const pasap_result lo = pasap(g, lib,
                                      fastest_assignment(g, lib, cap), cap, {});
        if (lo.feasible)
            cases.push_back({"synthetic-1000-free-windows", std::move(g),
                             {lo.sched.latency(lib) + 4, cap}, 8, false});
    }

    for (const clique_case& cc : cases) {
        synthesis_options fast = kernels(false);
        fast.try_both_prospects = false;
        fast.verify_result = false;
        fast.max_merge_attempts = cc.attempts;
        fast.lock_from_start = cc.locked;
        fast.allow_cheapest_rebind = cc.attempts < 0; // skip the O(n) finalise
                                                      // rebinds on the big runs
        synthesis_options reference = fast;
        reference.reference_kernels = true;

        const clique_sample opt = run_clique(cc.g, lib, cc.c, fast);
        const clique_sample ref = run_clique(cc.g, lib, cc.c, reference);

        const bool same = opt.render == ref.render;
        identity_ok = identity_ok && same;
        const double cand_speedup =
            opt.candidates_ms > 0.0 ? ref.candidates_ms / opt.candidates_ms : 0.0;
        const double roll_speedup =
            opt.rollback_ms > 0.0 ? ref.rollback_ms / opt.rollback_ms : 0.0;
        if (cc.name == "synthetic-1000") {
            cand_speedup_1000 = cand_speedup;
            roll_speedup_1000 = roll_speedup;
            cand_ref_1000 = ref.candidates_ms;
            cand_opt_1000 = opt.candidates_ms;
            roll_ref_1000 = ref.rollback_ms;
            roll_opt_1000 = opt.rollback_ms;
        }
        clique_table.add_row(
            {cc.name, std::to_string(cc.g.node_count()),
             cc.attempts < 0 ? "full" : std::to_string(cc.attempts),
             strf("%.2f / %.2f", ref.candidates_ms, opt.candidates_ms),
             strf("%.2fx", cand_speedup),
             strf("%.3f / %.3f", ref.rollback_ms, opt.rollback_ms),
             strf("%.2fx", roll_speedup), same ? "yes" : "NO"});
    }
    clique_table.print(std::cout);
    std::cout << '\n';

    // ------------------------------------------- 10k-op candidates row
    //
    // The data-oriented core's target scale: one 10k-operation ALU
    // workload from the same family, attempt-bounded, timing the fast
    // candidate path against the reference oracle.  The render must be
    // byte-identical across the oracle and the fast path at 1/2/8
    // intra-point threads; the candidates-kernel speedup gates >= 2x on
    // a steady clock.
    std::cout << "=== kernel: 10k-op candidates row (fast path vs reference) ===\n";
    double cand_speedup_10k = 0.0;
    double cand_ref_10k = 0.0, cand_opt_10k = 0.0;
    bool identical_10k = true;
    {
        graph g = random_dag({10000, 833, 10, 0.0, 0.05, 0.8}, 777 + 10000);
        const double cap = 2.5 * pmax;
        const pasap_result lo =
            pasap(g, lib, fastest_assignment(g, lib, cap), cap, {});
        if (lo.feasible) {
            const synthesis_constraints c{lo.sched.latency(lib) + 4, cap};
            const auto bounded = [](synthesis_options o) {
                o.try_both_prospects = false;
                o.verify_result = false;
                o.max_merge_attempts = 2; // bounded so the reference rerun stays affordable
                o.lock_from_start = true;
                return o;
            };

            const clique_sample opt = run_clique(g, lib, c, bounded(kernels(false)));
            const clique_sample ref = run_clique(g, lib, c, bounded(kernels(true)));
            identical_10k = opt.render == ref.render;
            for (const int threads : {2, 8}) {
                const clique_sample t =
                    run_clique(g, lib, c, bounded(kernels(false, threads)));
                identical_10k = identical_10k && t.render == opt.render;
            }
            identity_ok = identity_ok && identical_10k;
            cand_ref_10k = ref.candidates_ms;
            cand_opt_10k = opt.candidates_ms;
            cand_speedup_10k =
                opt.candidates_ms > 0.0 ? ref.candidates_ms / opt.candidates_ms : 0.0;
            ascii_table t10({"workload", "ops", "attempts", "cands ref/opt (ms)",
                             "speedup", "identical"});
            t10.add_row({"synthetic-10000", std::to_string(g.node_count()), "2",
                         strf("%.1f / %.1f", cand_ref_10k, cand_opt_10k),
                         strf("%.2fx", cand_speedup_10k),
                         identical_10k ? "yes" : "NO"});
            t10.print(std::cout);
        } else {
            std::cout << "  (10k-op pasap infeasible under the cap; row skipped)\n";
        }
    }
    std::cout << '\n';

    // ----------------- byte-identity on the full 120-point bench grid
    //
    // The same duplicate-heavy 2-D (T, Pmax) grid bench_batch_sweep
    // gates its cache levels on: every kernel optimised vs every kernel
    // on the reference path, 1/2/8 threads, cached and uncached, must
    // serialise identically report for report.
    std::cout << "=== byte-identity: 120-point grid, optimised vs reference ===\n";
    const graph hal = make_hal();
    const flow base = flow::on(hal).with_library(lib).latency(17);
    std::vector<synthesis_constraints> grid;
    for (const int T : {17, 19, 21})
        for (const double cap : base.power_grid(20)) grid.push_back({T, cap});
    {
        const std::vector<synthesis_constraints> once = grid;
        grid.insert(grid.end(), once.begin(), once.end());
    }

    const std::vector<flow_report> reference =
        flow::on(hal).with_library(lib).options(kernels(true)).caching(false).run_batch(grid,
                                                                                          1);
    bool grid_identical = true;
    for (const bool cached : {false, true}) {
        for (const int threads : {1, 2, 8}) {
            const std::vector<flow_report> reports =
                flow::on(hal).with_library(lib).caching(cached).run_batch(grid, threads);
            const bool same = identical_reports(reports, reference);
            grid_identical = grid_identical && same;
            std::cout << strf("  threads %d, cache %-3s: %s\n", threads,
                              cached ? "on" : "off", same ? "identical" : "DIVERGED");
        }
    }
    identity_ok = identity_ok && grid_identical;
    std::cout << '\n';

    // ------------------------------------------------------------ gates
    constexpr double rss_budget_mb = 8.0 * 1024.0;
    const double rss_mb = peak_rss_mb();
    const bool rss_ok = rss_mb <= rss_budget_mb;
    const bool probe_gate = probe_speedup_1000 >= 2.0;
    const bool cand_gate = cand_speedup_1000 >= 2.0;
    const bool roll_gate = roll_speedup_1000 >= 2.0;
    const bool cand_gate_10k = cand_speedup_10k >= 2.0;
    const bool speedups_ok = probe_gate && cand_gate && roll_gate && cand_gate_10k;

    std::cout << "identity gates (placements, partitioning prefix, 10k row, "
                 "120-point grid): "
              << (identity_ok ? "PASS" : "FAIL") << '\n';
    std::cout << strf("peak RSS: %.0f MB (gate <= %.0f MB): %s\n", rss_mb, rss_budget_mb,
                      rss_ok ? "PASS" : "FAIL");
    std::cout << strf("probe speedup on synthetic-1000:     %.2fx (gate >= 2x)\n",
                      probe_speedup_1000);
    std::cout << strf("candidate speedup on synthetic-1000: %.2fx (gate >= 2x)\n",
                      cand_speedup_1000);
    std::cout << strf("rollback speedup on synthetic-1000:  %.2fx (gate >= 2x)\n",
                      roll_speedup_1000);
    std::cout << strf("candidate speedup on synthetic-10000 (vs reference): "
                      "%.2fx (gate >= 2x)\n",
                      cand_speedup_10k);
    if (!speedups_ok && !steady)
        std::cout << "WARN: speedup gate missed, soft-warning only (no steady clock)\n";

    {
        std::ofstream json("BENCH_kernels.json");
        json << "{\n";
        json << strf("  \"steady_clock\": %s,\n", steady ? "true" : "false");
        json << strf("  \"probe_ref_ms_1000\": %.4f,\n", probe_ref_1000);
        json << strf("  \"probe_opt_ms_1000\": %.4f,\n", probe_opt_1000);
        json << strf("  \"probe_speedup_1000\": %.3f,\n", probe_speedup_1000);
        json << strf("  \"candidates_ref_ms_1000\": %.4f,\n", cand_ref_1000);
        json << strf("  \"candidates_opt_ms_1000\": %.4f,\n", cand_opt_1000);
        json << strf("  \"candidates_speedup_1000\": %.3f,\n", cand_speedup_1000);
        json << strf("  \"rollback_ref_ms_1000\": %.4f,\n", roll_ref_1000);
        json << strf("  \"rollback_opt_ms_1000\": %.4f,\n", roll_opt_1000);
        json << strf("  \"rollback_speedup_1000\": %.3f,\n", roll_speedup_1000);
        json << strf("  \"candidates_ref_ms_10000\": %.4f,\n", cand_ref_10k);
        json << strf("  \"candidates_opt_ms_10000\": %.4f,\n", cand_opt_10k);
        json << strf("  \"candidates_speedup_10000\": %.3f,\n", cand_speedup_10k);
        json << strf("  \"identical_10000\": %s,\n", identical_10k ? "true" : "false");
        json << strf("  \"peak_rss_mb\": %.1f,\n", rss_mb);
        json << strf("  \"grid_points\": %zu,\n", grid.size());
        json << strf("  \"grid_identical\": %s,\n", grid_identical ? "true" : "false");
        json << strf("  \"identity_gates_passed\": %s,\n", identity_ok ? "true" : "false");
        json << strf("  \"speedup_gates_passed\": %s,\n", speedups_ok ? "true" : "false");
        json << strf("  \"speedup_gates_hard\": %s\n", steady ? "true" : "false");
        json << "}\n";
        std::cout << "wrote BENCH_kernels.json\n";
    }

    if (!identity_ok || !rss_ok) return 1;
    if (steady && !speedups_ok) return 1;
    return 0;
}
