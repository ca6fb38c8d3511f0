// Tests for the exact branch-and-bound synthesiser, including
// cross-checks against the greedy heuristic (the optimality-gap anchor).
#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/builder.h"
#include "cdfg/random_dag.h"
#include "library/library.h"
#include "support/errors.h"
#include "synth/exact.h"
#include "synth/verify.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

graph two_adds_two_mults()
{
    graph_builder b("tiny");
    const node_id x = b.input("x");
    const node_id y = b.input("y");
    const node_id a1 = b.add("a1", x, y);
    const node_id a2 = b.add("a2", x, y);
    const node_id m1 = b.mul("m1", a1);
    const node_id m2 = b.mul("m2", a2);
    b.output("o1", m1);
    b.output("o2", m2);
    return b.build();
}

TEST(exact, solves_a_tiny_graph_optimally)
{
    const graph g = two_adds_two_mults();
    const exact_result r = exact_synthesize(g, lib(), {14, unbounded_power});
    ASSERT_TRUE(r.solved);
    ASSERT_TRUE(r.feasible) << r.reason;
    EXPECT_TRUE(verify_datapath(g, lib(), r.dp, {14, unbounded_power}, cost_model{})
                    .empty());
    // With 14 cycles everything can share: one adder, one serial
    // multiplier, one input, one output + registers/muxes.
    double fu = 0;
    for (const fu_instance& inst : r.dp.instances) fu += lib().module(inst.module).area;
    EXPECT_DOUBLE_EQ(fu, 87 + 103 + 16 + 16);
}

TEST(exact, respects_the_power_cap)
{
    const graph g = two_adds_two_mults();
    // Cap below two concurrent serial multipliers.
    const exact_result r = exact_synthesize(g, lib(), {16, 5.0});
    ASSERT_TRUE(r.solved);
    ASSERT_TRUE(r.feasible) << r.reason;
    EXPECT_LE(r.dp.peak_power(lib()), 5.0 + power_tracker::tolerance);
}

TEST(exact, detects_infeasibility)
{
    const graph g = two_adds_two_mults();
    const exact_result tight_power = exact_synthesize(g, lib(), {16, 1.0});
    EXPECT_TRUE(tight_power.solved);
    EXPECT_FALSE(tight_power.feasible);
    const exact_result tight_time = exact_synthesize(g, lib(), {3, unbounded_power});
    EXPECT_TRUE(tight_time.solved);
    EXPECT_FALSE(tight_time.feasible);
}

TEST(exact, tight_latency_forces_the_parallel_multiplier)
{
    graph_builder b("chainmul");
    const node_id x = b.input("x");
    const node_id m1 = b.mul("m1", x);
    const node_id m2 = b.mul("m2", m1);
    b.output("o", m2);
    const graph g = b.build();
    // input(1) + 2 mults + output(1) in 6 cycles: only 2-cycle mults fit.
    const exact_result r = exact_synthesize(g, lib(), {6, unbounded_power});
    ASSERT_TRUE(r.feasible) << r.reason;
    for (const fu_instance& inst : r.dp.instances) {
        if (lib().module(inst.module).supports(op_kind::mult)) {
            EXPECT_EQ(lib().module(inst.module).name, "mult_par");
        }
    }
}

TEST(exact, refuses_oversized_graphs)
{
    random_dag_params params;
    params.operations = 40;
    const graph g = random_dag(params, 1);
    EXPECT_THROW(exact_synthesize(g, lib(), {40, unbounded_power}), error);
}

TEST(exact, node_limit_is_reported_honestly)
{
    random_dag_params params;
    params.operations = 10;
    const graph g = random_dag(params, 2);
    exact_options opts;
    opts.node_limit = 50; // absurdly small
    const exact_result r = exact_synthesize(g, lib(), {30, unbounded_power}, opts);
    EXPECT_FALSE(r.solved);
    EXPECT_FALSE(r.reason.empty());
}

class exact_vs_greedy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(exact_vs_greedy, greedy_is_never_better_than_the_optimum)
{
    random_dag_params params;
    params.operations = 6;
    params.inputs = 2;
    params.layers = 3;
    const graph g = random_dag(params, GetParam());
    const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
    const int cp = critical_path_length(
        g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
    const synthesis_constraints constraints{cp + 4, 12.0};

    const exact_result exact = exact_synthesize(g, lib(), constraints);
    const synthesis_result greedy = synthesize(g, lib(), constraints);
    // Six ops fit the default search budget, and the cap admits every
    // kind, so both must deliver a datapath to compare.
    ASSERT_TRUE(exact.solved) << exact.reason;
    ASSERT_TRUE(exact.feasible) << exact.reason;
    ASSERT_TRUE(greedy.feasible) << greedy.reason;
    EXPECT_LE(exact.dp.area.total(), greedy.dp.area.total() + 1e-9) << g.name();
}

INSTANTIATE_TEST_SUITE_P(seeds, exact_vs_greedy,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace phls
