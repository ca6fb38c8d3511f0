// Byte-identity of the fast synthesis kernels against the reference
// oracle (synthesis_options::reference_kernels): the candidate store
// over the SoA arena, skip-ahead power probing, the undo-log rollback
// and intra-point parallel scoring must change wall time only -- never
// a schedule, a datapath, a counter or a diagnostic.  Every identity
// test compares three kernel sets: the reference oracle, the fast path,
// and the fast path at 8 intra-point threads.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "sched/pasap.h"
#include "support/strings.h"
#include "synth/synthesizer.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

synthesis_options reference_kernels(synthesis_options o = {})
{
    o.reference_kernels = true;
    return o;
}

synthesis_options fast_kernels(synthesis_options o = {}, int intra_threads = 1)
{
    o.reference_kernels = false;
    o.intra_threads = intra_threads;
    return o;
}

/// Peak resident set of this process so far, in bytes.
long long peak_rss_bytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<long long>(ru.ru_maxrss) * 1024; // Linux: KiB
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

std::string run_with(const synthesis_options& o, const graph& g,
                     const synthesis_constraints& c)
{
    return render(g, synthesize(g, lib(), c, o));
}

/// Runs `o` under the reference oracle, the fast path and the fast path
/// at 8 intra-point threads, and expects all three renders to agree.
void expect_identical_kernels(const graph& g, const synthesis_constraints& c,
                              const synthesis_options& o, const std::string& what)
{
    const std::string reference = run_with(reference_kernels(o), g, c);
    EXPECT_EQ(run_with(fast_kernels(o), g, c), reference) << what << ": fast path diverges";
    EXPECT_EQ(run_with(fast_kernels(o, 8), g, c), reference)
        << what << ": fast path at 8 intra-point threads diverges";
}

TEST(kernels, paper_benchmarks_identical_across_every_knob)
{
    for (const auto& [name, T] : {std::pair<const char*, int>{"hal", 17},
                                  {"cosine", 15}, {"elliptic", 22}}) {
        const graph g = benchmark_by_name(name);
        // From generous to infeasibly tight, crossing the backtrack-lock
        // and rejection regimes.
        for (const double cap : {unbounded_power, 40.0, 12.0, 7.1, 5.0, 2.3})
            expect_identical_kernels(g, {T, cap}, {}, strf("%s cap %g", name, cap));
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
    for (std::size_t i = 0; i < variants.size(); ++i)
        for (const double cap : {9.0, 5.5, 3.0})
            expect_identical_kernels(g, {16, cap}, variants[i],
                                     strf("variant %zu cap %g", i, cap));
}

TEST(kernels, cross_check_validates_incremental_store_on_random_dags)
{
    // cross_check makes the merge loop run BOTH candidate paths and
    // throw on any divergence, decision for decision -- a much finer
    // probe than comparing final outputs.
    synthesis_options checked;
    checked.cross_check = true;

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
            checked_merges += synthesize(g, lib(), {cp + 6, cap}, checked).stats.merges;
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
        for (const double cap : {30.0, 11.0, 6.0})
            expect_identical_kernels(g, {cp + 5, cap}, {},
                                     strf("seed %llu cap %g",
                                          static_cast<unsigned long long>(seed), cap));
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
        expect_identical_kernels(g, {22, 20.0}, o, strf("attempt cap %d", attempts));
    }
}

/// The bench_kernels synthetic ALU family at `n` operations, with the
/// attempt-bounded, locked options its identity anchors use.
struct synthetic_case {
    graph g;
    synthesis_constraints c;
    synthesis_options o;
};

synthetic_case synthetic_alu(int n, int inputs)
{
    random_dag_params params;
    params.operations = n;
    params.inputs = inputs; // the bench family's n/12 input ratio
    params.layers = 10;
    params.mult_fraction = 0.0;
    synthetic_case sc{random_dag(params, 777 + static_cast<std::uint64_t>(n)), {}, {}};
    const module_assignment fast = fastest_assignment(sc.g, lib(), unbounded_power);
    const int cp = critical_path_length(
        sc.g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
    sc.o.lock_from_start = true;
    sc.o.try_both_prospects = false;
    sc.o.verify_result = false; // a truncated loop may miss the area target
    sc.o.max_merge_attempts = 2;
    sc.c = {cp + 4, unbounded_power};
    return sc;
}

TEST(kernels, thousand_op_dag_identical_across_every_knob)
{
    // Mid-scale anchor for the large-graph path: a 1000-op DAG from the
    // bench_kernels synthetic family, attempt-bounded.
    const synthetic_case sc = synthetic_alu(1000, 83);
    expect_identical_kernels(sc.g, sc.c, sc.o, "1000-op DAG");
}

TEST(kernels, ten_k_op_dag_identical_across_threads)
{
    // The data-oriented core targets graphs two orders of magnitude
    // beyond the paper benchmarks.  Run an attempt-bounded prefix of the
    // merge loop on a 10k-operation DAG and demand byte-identity between
    // the reference oracle and the fast path at 1, 2 and 8 intra-point
    // threads, inside a peak-RSS budget (an O(n^2) regression must fail
    // here, not get the suite OOM-killed).
    const synthetic_case sc = synthetic_alu(10000, 833);
    const std::string reference = run_with(reference_kernels(sc.o), sc.g, sc.c);
    for (const int threads : {1, 2, 8})
        EXPECT_EQ(run_with(fast_kernels(sc.o, threads), sc.g, sc.c), reference)
            << threads << " intra-point threads diverge on the 10k-op DAG";
    constexpr long long budget = 8ll << 30;
    EXPECT_LE(peak_rss_bytes(), budget) << "10k-op anchor exceeds its 8 GiB peak-RSS budget";
}

TEST(kernels, cross_check_validates_arena_scoring_on_random_dags)
{
    // Like the incremental-store fuzz above, but aimed at the SoA arena
    // and the parallel scorer: cross_check re-runs the reference
    // enumeration (arena detached) every iteration, so a single
    // mis-scored combo anywhere in a run aborts the synthesis.
    for (const int threads : {1, 8}) {
        synthesis_options checked = fast_kernels({}, threads);
        checked.cross_check = true;
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
                checked_merges +=
                    synthesize(g, lib(), {cp + 5, cap}, checked).stats.merges;
            }
            EXPECT_GT(checked_merges, 0) << "seed " << seed << " threads " << threads;
        }
    }
}

TEST(kernels, cross_check_covers_broken_slot_revalidation)
{
    // Free windows under a finite cap: later reservations land on slots
    // the store cached earlier, and the store finds the broken ones
    // through its (start cycle, module) buckets.  cross_check must agree
    // with the reference decision for decision, the broken-slot count
    // must not depend on the thread count, and a zero count would leave
    // the revalidation path untested.  On the first DAG a store that
    // skipped the revalidation would pick a stale slot.
    struct dag_case {
        int operations;
        std::uint64_t seed;
        double mult_fraction;
        double cap_scale;
    };
    for (const dag_case& dc : {dag_case{40, 8, 0.0, 0.6}, dag_case{60, 27, 0.3, 0.8}}) {
        random_dag_params params;
        params.operations = dc.operations;
        params.inputs = dc.operations / 8 + 2;
        params.mult_fraction = dc.mult_fraction;
        const graph g = random_dag(params, dc.seed);
        const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
        const synthesis_result probe = synthesize(g, lib(), {cp + 4, unbounded_power});
        ASSERT_TRUE(probe.feasible) << probe.reason;
        const synthesis_constraints c{cp + 4, dc.cap_scale * probe.dp.peak_power(lib())};

        const auto broken_slots = [&](int threads) {
            synthesis_options o = fast_kernels({}, threads);
            o.lock_from_start = false;
            o.cross_check = true;
            const synthesis_result r = synthesize(g, lib(), c, o);
            EXPECT_TRUE(r.feasible) << r.reason;
            EXPECT_FALSE(r.stats.locked);
            return r.stats.broken_slots;
        };
        const long long sequential = broken_slots(1);
        EXPECT_GT(sequential, 0) << "seed " << dc.seed;
        EXPECT_EQ(broken_slots(8), sequential) << "seed " << dc.seed << ", 8 threads";
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

    const synthesis_result r =
        synthesize(g, lib(), {tight.sched.latency(lib()) + 4, cap}, o);
    ASSERT_TRUE(r.feasible) << r.reason;
    EXPECT_GT(r.stats.merges, 500);
    EXPECT_GT(r.stats.store_compactions, 0);
    EXPECT_GT(r.stats.store_peak_pool_ratio, 1.0);
    EXPECT_LE(r.stats.store_peak_pool_ratio, 2.0);
}

TEST(kernels, eight_thread_batch_identical_across_knobs)
{
    const graph g = make_hal();
    const flow base = flow::on(g).with_library(lib()).latency(17);
    std::vector<synthesis_constraints> grid;
    for (const double cap : base.power_grid(16)) grid.push_back({17, cap});

    const std::vector<flow_report> reference =
        flow::on(g).with_library(lib()).latency(17).options(reference_kernels()).run_batch(
            grid, 1);

    for (const bool cached : {true, false}) {
        for (const int threads : {1, 8}) {
            const flow fo = flow::on(g)
                                .with_library(lib())
                                .latency(17)
                                .options(fast_kernels({}, threads))
                                .caching(cached);
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
    std::vector<std::string> outputs;
    for (const synthesis_options& o :
         {reference_kernels(), fast_kernels(), fast_kernels({}, 8)})
        outputs.push_back(flow::on(g)
                              .with_library(lib())
                              .latency(15)
                              .power_cap(20.0)
                              .synthesizer("two_step")
                              .options(o)
                              .run()
                              .to_string());
    EXPECT_EQ(outputs[1], outputs[0]);
    EXPECT_EQ(outputs[2], outputs[0]);
}

TEST(kernels, fingerprint_separates_oracle_runs_only)
{
    // An oracle or cross-checked run must never be served a fast run's
    // memoised report, while the default fingerprint -- and with it every
    // saved cache file -- keeps its bytes; intra_threads is not a key.
    const graph g = make_hal();
    const auto key = [&](const synthesis_options& o) {
        return flow::on(g).with_library(lib()).options(o).fingerprint({17, 7.1});
    };
    const std::string fast = key({});
    EXPECT_EQ(key(fast_kernels({}, 8)), fast);
    synthesis_options checked;
    checked.cross_check = true;
    for (const synthesis_options& o : {reference_kernels(), checked}) {
        const std::string k = key(o);
        EXPECT_NE(k, fast);
        EXPECT_EQ(k.compare(0, fast.size(), fast), 0) << "flag must extend the default key";
    }
    EXPECT_NE(key(reference_kernels()), key(checked));

    // On a shared cache the oracle computes its point instead of reading
    // the fast run's report, and reports the same bytes.
    const flow fast_flow = flow::on(g).with_library(lib()).latency(17).power_cap(7.1);
    const std::shared_ptr<explore_cache> cache = fast_flow.build_cache();
    const flow_report served = flow(fast_flow).reuse(cache).run();
    const flow_report oracle =
        flow(fast_flow).options(reference_kernels()).reuse(cache).run();
    EXPECT_EQ(oracle.to_string(), served.to_string());
    EXPECT_EQ(cache->stats().report_hits, 0) << "oracle report was served from the memo";
    EXPECT_EQ(cache->stats().report_misses, 2);
}

} // namespace
} // namespace phls
