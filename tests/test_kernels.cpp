// Byte-identity of the optimised synthesis kernels against the
// retained reference implementations, across the kernel_knobs()
// ablation matrix: skip-ahead power probing, incremental candidate
// maintenance, undo-log rollback, the SoA synthesis arena, dense
// power probing and intra-point parallel scoring must change wall
// time only -- never a schedule, a datapath, a counter or a
// diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "flow/flow.h"
#include "sched/pasap.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "synth/synthesizer.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// Restores the global knobs on scope exit so tests cannot leak state.
struct knob_guard {
    kernel_tuning saved = kernel_knobs();
    ~knob_guard() { kernel_knobs() = saved; }
};

kernel_tuning all_reference()
{
    kernel_tuning k;
    k.skip_probe = false;
    k.incremental_candidates = false;
    k.undo_log = false;
    k.soa_arena = false;
    k.dense_power = false;
    k.intra_threads = 1;
    return k;
}

/// Canonical rendering of a synthesis result: the full datapath report
/// (instances, binding, times, area) plus every heuristic counter.
std::string render(const graph& g, const synthesis_result& r)
{
    std::string out = r.feasible ? "feasible\n" : "infeasible: " + r.reason + '\n';
    if (r.feasible) out += r.dp.report(g, lib());
    out += strf("merges=%d pair=%d join=%d rejected=%d recomputes=%d locked=%d "
                "lock_at=%d rebinds=%d fallbacks=%d\n",
                r.stats.merges, r.stats.pair_merges, r.stats.join_merges,
                r.stats.rejected, r.stats.window_recomputes, r.stats.locked ? 1 : 0,
                r.stats.merges_before_lock, r.stats.finalize_rebinds,
                r.stats.finalize_fallbacks);
    return out;
}

std::string run_with(const kernel_tuning& knobs, const graph& g,
                     const synthesis_constraints& c, const synthesis_options& o = {})
{
    const knob_guard guard;
    kernel_knobs() = knobs;
    return render(g, synthesize(g, lib(), c, o));
}

TEST(kernels, paper_benchmarks_identical_across_every_knob)
{
    for (const auto& [name, T] : {std::pair<const char*, int>{"hal", 17},
                                  {"cosine", 15}, {"elliptic", 22}}) {
        const graph g = benchmark_by_name(name);
        // From generous to infeasibly tight, crossing the backtrack-lock
        // and rejection regimes.
        for (const double cap : {unbounded_power, 40.0, 12.0, 7.1, 5.0, 2.3}) {
            const synthesis_constraints c{T, cap};
            const std::string reference = run_with(all_reference(), g, c);
            EXPECT_EQ(run_with(kernel_tuning{}, g, c), reference)
                << name << " cap " << cap << ": all-optimised diverges";
            for (int knob = 0; knob < 6; ++knob) {
                kernel_tuning k; // one optimisation toggled at a time
                if (knob == 0) k.skip_probe = false;
                if (knob == 1) k.incremental_candidates = false;
                if (knob == 2) k.undo_log = false;
                if (knob == 3) k.soa_arena = false;
                if (knob == 4) k.dense_power = false;
                if (knob == 5) k.intra_threads = 8;
                EXPECT_EQ(run_with(k, g, c), reference)
                    << name << " cap " << cap << ": knob " << knob << " diverges";
            }
        }
    }
}

TEST(kernels, option_variants_identical_across_knobs)
{
    const graph g = make_cosine();
    std::vector<synthesis_options> variants(4);
    variants[1].lock_from_start = true;
    variants[2].enable_backtrack_lock = false;
    variants[3].allow_cheapest_rebind = false;
    variants[3].order = pasap_order::topological;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        for (const double cap : {9.0, 5.5, 3.0}) {
            const synthesis_constraints c{16, cap};
            EXPECT_EQ(run_with(kernel_tuning{}, g, c, variants[i]),
                      run_with(all_reference(), g, c, variants[i]))
                << "variant " << i << " cap " << cap;
        }
    }
}

TEST(kernels, cross_check_validates_incremental_store_on_random_dags)
{
    // cross_check makes the merge loop run BOTH candidate paths and
    // throw on any divergence, decision for decision -- a much finer
    // probe than comparing final outputs.
    const knob_guard guard;
    kernel_knobs() = kernel_tuning{};
    kernel_knobs().cross_check = true;

    for (const std::uint64_t seed : {1ull, 7ull, 23ull, 101ull}) {
        random_dag_params params;
        params.operations = 26;
        params.inputs = 4;
        const graph g = random_dag(params, seed);
        const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });

        const synthesis_result probe = synthesize(g, lib(), {cp + 6, unbounded_power});
        ASSERT_TRUE(probe.feasible) << probe.reason;
        int checked_merges = 0; // decisions both paths agreed on
        for (const double scale : {1.0, 0.7, 0.45}) {
            const double cap = scale * probe.dp.peak_power(lib());
            checked_merges += synthesize(g, lib(), {cp + 6, cap}).stats.merges;
        }
        EXPECT_GT(checked_merges, 0) << "seed " << seed;
    }
}

TEST(kernels, random_dags_identical_across_knobs)
{
    for (const std::uint64_t seed : {3ull, 12ull, 64ull}) {
        random_dag_params params;
        params.operations = 32;
        params.inputs = 5;
        params.layers = 6;
        const graph g = random_dag(params, seed);
        const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
        for (const double cap : {30.0, 11.0, 6.0}) {
            const synthesis_constraints c{cp + 5, cap};
            EXPECT_EQ(run_with(kernel_tuning{}, g, c), run_with(all_reference(), g, c))
                << "seed " << seed << " cap " << cap;
        }
    }
}

TEST(kernels, truncated_merge_loop_identical_across_knobs)
{
    // bench_kernels compares the kernels over an attempt-bounded prefix;
    // that prefix must itself be byte-identical between the paths.
    const graph g = make_elliptic();
    synthesis_options o;
    o.verify_result = false; // a truncated loop may miss the area target
    for (const int attempts : {0, 1, 4, 9}) {
        o.max_merge_attempts = attempts;
        EXPECT_EQ(run_with(kernel_tuning{}, g, {22, 20.0}, o),
                  run_with(all_reference(), g, {22, 20.0}, o))
            << "attempt cap " << attempts;
    }
}

TEST(kernels, thousand_op_dag_identical_across_every_knob)
{
    // Mid-scale anchor for the large-graph path: a 1000-op DAG from the
    // bench_kernels synthetic family, attempt-bounded, compared against
    // the seed-era reference for the all-optimised default, each
    // optimisation toggled alone, and the PR-5 kernel set (incremental
    // store without the SoA arena).
    random_dag_params params;
    params.operations = 1000;
    params.inputs = 83; // the bench family's n/12 input ratio
    params.layers = 10;
    params.mult_fraction = 0.0;
    const graph g = random_dag(params, 777 + 1000);
    const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
    const int cp = critical_path_length(
        g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });

    synthesis_options o;
    o.lock_from_start = true;
    o.try_both_prospects = false;
    o.verify_result = false; // a truncated loop may miss the area target
    o.max_merge_attempts = 2;
    const synthesis_constraints c{cp + 4, unbounded_power};

    const std::string reference = run_with(all_reference(), g, c, o);
    EXPECT_EQ(run_with(kernel_tuning{}, g, c, o), reference) << "all-optimised";
    for (int knob = 0; knob < 6; ++knob) {
        kernel_tuning k;
        if (knob == 0) k.skip_probe = false;
        if (knob == 1) k.incremental_candidates = false;
        if (knob == 2) k.undo_log = false;
        if (knob == 3) { // the PR-5 kernel set
            k.soa_arena = false;
            k.dense_power = false;
        }
        if (knob == 4) k.dense_power = false;
        if (knob == 5) k.intra_threads = 8;
        EXPECT_EQ(run_with(k, g, c, o), reference) << "knob " << knob;
    }
}

TEST(kernels, ten_k_op_dag_identical_across_threads)
{
    // The data-oriented rewrite targets graphs two orders of magnitude
    // beyond the paper benchmarks.  Run an attempt-bounded prefix of the
    // merge loop on a 10k-operation DAG and demand byte-identity between
    // the seed-era reference kernels and the SoA arena path at 1, 2 and
    // 8 intra-point threads.  (The PR-5 kernel set is compared against
    // the arena path at this scale by bench_kernels' 10k-op row; the
    // mid-scale anchor above covers it in-suite.)
    random_dag_params params;
    params.operations = 10000;
    params.inputs = 833; // the bench family's n/12 input ratio
    params.layers = 10;
    params.mult_fraction = 0.0;
    const graph g = random_dag(params, 777 + 10000);
    const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
    const int cp = critical_path_length(
        g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });

    synthesis_options o;
    o.lock_from_start = true;
    o.try_both_prospects = false;
    o.verify_result = false; // a truncated loop may miss the area target
    o.max_merge_attempts = 2;
    const synthesis_constraints c{cp + 4, unbounded_power};

    const std::string reference = run_with(all_reference(), g, c, o);
    for (const int threads : {1, 2, 8}) {
        kernel_tuning k;
        k.intra_threads = threads;
        EXPECT_EQ(run_with(k, g, c, o), reference)
            << threads << " intra-point threads diverge on the 10k-op DAG";
    }
}

TEST(kernels, cross_check_validates_arena_scoring_on_random_dags)
{
    // Like the incremental-store fuzz above, but aimed at the SoA arena
    // and the parallel scorer: cross_check re-runs the reference
    // enumeration (arena detached) after every rebuild and accept, so a
    // single mis-scored combo anywhere in a run aborts the synthesis.
    const knob_guard guard;
    for (const int threads : {1, 8}) {
        kernel_knobs() = kernel_tuning{};
        kernel_knobs().cross_check = true;
        kernel_knobs().intra_threads = threads;
        for (const std::uint64_t seed : {5ull, 41ull, 97ull}) {
            random_dag_params params;
            params.operations = 30;
            params.inputs = 5;
            params.mult_fraction = seed % 2 == 0 ? 0.3 : 0.0;
            const graph g = random_dag(params, seed);
            const module_assignment fast =
                fastest_assignment(g, lib(), unbounded_power);
            const int cp = critical_path_length(
                g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });

            const synthesis_result probe =
                synthesize(g, lib(), {cp + 5, unbounded_power});
            ASSERT_TRUE(probe.feasible) << probe.reason;
            int checked_merges = 0; // decisions both paths agreed on
            for (const double scale : {1.0, 0.55}) {
                const double cap = scale * probe.dp.peak_power(lib());
                checked_merges += synthesize(g, lib(), {cp + 5, cap}).stats.merges;
            }
            EXPECT_GT(checked_merges, 0) << "seed " << seed << " threads " << threads;
        }
    }
}

/// Turns the kernel counters on for one scope and restores them after.
struct timer_guard {
    kernel_timers saved = kernel_timing();
    timer_guard()
    {
        kernel_timing().collect = true;
        kernel_timing().reset();
    }
    ~timer_guard() { kernel_timing() = saved; }
};

TEST(kernels, cross_check_covers_broken_slot_revalidation)
{
    // Free windows under a finite cap: later reservations land on slots
    // the store cached earlier.  The flat store finds broken slots
    // through its (start cycle, module) buckets, the classic store by
    // sweeping every entry; both must re-score exactly the same entries,
    // and cross_check must agree with the reference decision for
    // decision.  On the first DAG a store that skipped the revalidation
    // would pick a stale slot; a zero count would leave the path untested.
    struct dag_case {
        int operations;
        std::uint64_t seed;
        double mult_fraction;
        double cap_scale;
    };
    const knob_guard guard;
    for (const dag_case& dc : {dag_case{40, 8, 0.0, 0.6}, dag_case{60, 27, 0.3, 0.8}}) {
        random_dag_params params;
        params.operations = dc.operations;
        params.inputs = dc.operations / 8 + 2;
        params.mult_fraction = dc.mult_fraction;
        const graph g = random_dag(params, dc.seed);
        const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
        kernel_knobs() = kernel_tuning{};
        const synthesis_result probe = synthesize(g, lib(), {cp + 4, unbounded_power});
        ASSERT_TRUE(probe.feasible) << probe.reason;
        const synthesis_constraints c{cp + 4, dc.cap_scale * probe.dp.peak_power(lib())};
        synthesis_options o;
        o.lock_from_start = false;

        const auto broken_slots = [&](bool flat, int threads) {
            const timer_guard timers;
            kernel_knobs() = kernel_tuning{};
            kernel_knobs().soa_arena = flat;
            kernel_knobs().cross_check = true;
            kernel_knobs().intra_threads = threads;
            const synthesis_result r = synthesize(g, lib(), c, o);
            EXPECT_TRUE(r.feasible) << r.reason;
            EXPECT_FALSE(r.stats.locked);
            return kernel_timing().broken_slots;
        };
        const long long swept = broken_slots(false, 1);
        EXPECT_GT(swept, 0) << "seed " << dc.seed;
        for (const int threads : {1, 8})
            EXPECT_EQ(broken_slots(true, threads), swept)
                << "seed " << dc.seed << ", " << threads << " threads";
    }
}

TEST(kernels, flat_store_pool_stays_within_twice_its_live_entries)
{
    // A full merge loop on the 1000-op ALU family at a finite cap: dead
    // slots pile up with every accept, and compaction must fold them
    // away before they outnumber the live entries.
    random_dag_params params;
    params.operations = 1000;
    params.inputs = 83;
    params.layers = 10;
    params.mult_fraction = 0.0;
    const graph g = random_dag(params, 1);
    double hungriest = 0.0;
    for (int m = 0; m < lib().size(); ++m)
        hungriest = std::max(hungriest, lib().module(module_id(m)).power);
    const double cap = 2.5 * hungriest;
    const pasap_result tight = pasap(g, lib(), fastest_assignment(g, lib(), cap), cap, {});
    ASSERT_TRUE(tight.feasible) << tight.reason;
    synthesis_options o;
    o.try_both_prospects = false;

    const knob_guard guard;
    kernel_knobs() = kernel_tuning{};
    const timer_guard timers;
    const synthesis_result r =
        synthesize(g, lib(), {tight.sched.latency(lib()) + 4, cap}, o);
    ASSERT_TRUE(r.feasible) << r.reason;
    EXPECT_GT(r.stats.merges, 500);
    EXPECT_GT(kernel_timing().store_compactions, 0);
    EXPECT_GT(kernel_timing().store_peak_pool_ratio, 1.0);
    EXPECT_LE(kernel_timing().store_peak_pool_ratio, 2.0);
}

TEST(kernels, eight_thread_batch_identical_across_knobs)
{
    const graph g = make_hal();
    const flow f = flow::on(g).with_library(lib()).latency(17);
    std::vector<synthesis_constraints> grid;
    for (const double cap : f.power_grid(16)) grid.push_back({17, cap});

    const knob_guard guard;
    kernel_knobs() = all_reference();
    const std::vector<flow_report> reference = f.run_batch(grid, 1);

    for (const bool cached : {true, false}) {
        for (const int threads : {1, 8}) {
            kernel_knobs() = kernel_tuning{};
            const flow fo =
                flow::on(g).with_library(lib()).latency(17).caching(cached);
            const std::vector<flow_report> reports = fo.run_batch(grid, threads);
            ASSERT_EQ(reports.size(), reference.size());
            for (std::size_t i = 0; i < reports.size(); ++i)
                EXPECT_EQ(reports[i].to_string(), reference[i].to_string())
                    << "cached " << cached << " threads " << threads << " point " << i;
        }
    }
}

TEST(kernels, two_step_strategy_identical_across_knobs)
{
    const graph g = make_cosine();
    const knob_guard guard;
    std::vector<std::string> outputs;
    for (const bool optimised : {false, true}) {
        kernel_knobs() = optimised ? kernel_tuning{} : all_reference();
        outputs.push_back(flow::on(g)
                              .with_library(lib())
                              .latency(15)
                              .power_cap(20.0)
                              .synthesizer("two_step")
                              .run()
                              .to_string());
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

} // namespace
} // namespace phls
