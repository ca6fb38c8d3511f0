// Tests for CDFG analyses (longest paths, reachability) and the DOT and
// text front-ends.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/dot.h"
#include "cdfg/random_dag.h"
#include "cdfg/textio.h"
#include "support/errors.h"

namespace phls {
namespace {

graph chain()
{
    // in -> a -> b -> out
    graph g("chain");
    const node_id in = g.add_node(op_kind::input, "in");
    const node_id a = g.add_node(op_kind::add, "a");
    const node_id b = g.add_node(op_kind::mult, "b");
    const node_id out = g.add_node(op_kind::output, "out");
    g.add_edge(in, a);
    g.add_edge(a, b);
    g.add_edge(b, out);
    return g;
}

int unit_delay(node_id) { return 1; }

TEST(analysis, earliest_starts_accumulate_delays)
{
    const graph g = chain();
    const std::vector<int> s = earliest_starts(g, unit_delay);
    EXPECT_EQ(s[0], 0);
    EXPECT_EQ(s[1], 1);
    EXPECT_EQ(s[2], 2);
    EXPECT_EQ(s[3], 3);
}

TEST(analysis, earliest_starts_with_non_unit_delays)
{
    const graph g = chain();
    const auto delay = [&](node_id v) { return g.kind(v) == op_kind::mult ? 4 : 1; };
    const std::vector<int> s = earliest_starts(g, delay);
    EXPECT_EQ(s[3], 6); // 1 + 1 + 4
    EXPECT_EQ(critical_path_length(g, delay), 7);
}

TEST(analysis, critical_path_of_chain_is_sum_of_delays)
{
    EXPECT_EQ(critical_path_length(chain(), unit_delay), 4);
}

TEST(analysis, latest_starts_anchor_at_latency)
{
    const graph g = chain();
    const std::vector<int> s = latest_starts(g, unit_delay, 6);
    ASSERT_FALSE(s.empty());
    EXPECT_EQ(s[3], 5);
    EXPECT_EQ(s[2], 4);
    EXPECT_EQ(s[0], 2);
}

TEST(analysis, latest_starts_infeasible_below_critical_path)
{
    EXPECT_TRUE(latest_starts(chain(), unit_delay, 3).empty());
}

TEST(analysis, asap_is_never_after_alap)
{
    const graph g = make_elliptic();
    const std::vector<int> lo = earliest_starts(g, unit_delay);
    const std::vector<int> hi = latest_starts(g, unit_delay, 30);
    ASSERT_FALSE(hi.empty());
    for (node_id v : g.nodes()) EXPECT_LE(lo[v.index()], hi[v.index()]);
}

TEST(analysis, op_histogram_counts_kinds)
{
    const std::map<op_kind, int> h = op_histogram(make_hal());
    EXPECT_EQ(h.at(op_kind::mult), 6);
    EXPECT_EQ(h.at(op_kind::add), 2);
    EXPECT_EQ(h.at(op_kind::sub), 2);
    EXPECT_EQ(h.at(op_kind::comp), 1);
    EXPECT_EQ(h.at(op_kind::input), 5);
    EXPECT_EQ(h.at(op_kind::output), 4);
}

TEST(analysis, reachability_follows_paths_only_forward)
{
    const graph g = chain();
    const reachability r(g);
    EXPECT_TRUE(r.reaches(node_id(0), node_id(3)));
    EXPECT_TRUE(r.reaches(node_id(1), node_id(2)));
    EXPECT_FALSE(r.reaches(node_id(3), node_id(0)));
    EXPECT_FALSE(r.reaches(node_id(2), node_id(1)));
    EXPECT_FALSE(r.reaches(node_id(1), node_id(1)));
}

TEST(analysis, independence_is_symmetric_absence_of_paths)
{
    graph g("t");
    const node_id x = g.add_node(op_kind::input, "x");
    const node_id a = g.add_node(op_kind::add, "a");
    const node_id b = g.add_node(op_kind::add, "b");
    g.add_edge(x, a);
    g.add_edge(x, b);
    const reachability r(g);
    EXPECT_TRUE(r.independent(a, b));
    EXPECT_FALSE(r.independent(x, a));
}

TEST(analysis, reachability_matches_bruteforce_on_random_dags)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const graph g = random_dag({}, seed);
        const reachability r(g);
        // Brute force: DFS from each node.
        for (node_id s : g.nodes()) {
            std::vector<char> seen(static_cast<std::size_t>(g.node_count()), 0);
            std::vector<node_id> stack{s};
            while (!stack.empty()) {
                const node_id v = stack.back();
                stack.pop_back();
                for (node_id n : g.succs(v)) {
                    if (!seen[n.index()]) {
                        seen[n.index()] = 1;
                        stack.push_back(n);
                    }
                }
            }
            for (node_id t : g.nodes())
                EXPECT_EQ(r.reaches(s, t), static_cast<bool>(seen[t.index()]))
                    << "seed " << seed << " " << g.label(s) << "->" << g.label(t);
        }
    }
}

TEST(dot, contains_every_node_and_edge)
{
    const graph g = chain();
    const std::string dot = to_dot(g);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("\"in"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
}

TEST(dot, annotations_appear_when_provided)
{
    const graph g = chain();
    dot_options opts;
    opts.start_times = {0, 1, 2, 3};
    opts.clusters = {"u0", "u0", "u1", "u2"};
    const std::string dot = to_dot(g, opts);
    EXPECT_NE(dot.find("t=2"), std::string::npos);
    EXPECT_NE(dot.find("u1"), std::string::npos);
}

TEST(textio, roundtrip_preserves_structure)
{
    const graph g = make_hal();
    const graph g2 = parse_cdfg_string(write_cdfg_string(g));
    EXPECT_EQ(g2.name(), g.name());
    EXPECT_EQ(g2.node_count(), g.node_count());
    EXPECT_EQ(g2.edge_count(), g.edge_count());
    for (node_id v : g.nodes()) {
        const auto v2 = g2.find(g.label(v));
        ASSERT_TRUE(v2.has_value());
        EXPECT_EQ(g2.kind(*v2), g.kind(v));
        EXPECT_EQ(g2.preds(*v2).size(), g.preds(v).size());
    }
}

/// Every node's predecessor list, by label, in order.
std::vector<std::vector<std::string>> operand_lists(const graph& g)
{
    std::vector<std::vector<std::string>> out;
    for (node_id v : g.nodes()) {
        std::vector<std::string> labels{g.label(v)};
        for (node_id p : g.preds(v)) labels.push_back(g.label(p));
        out.push_back(labels);
    }
    return out;
}

TEST(textio, roundtrip_preserves_operand_order)
{
    // Two-input operands must not swap through the text format: served
    // jobs and task candidates synthesise the parsed copy.
    std::vector<graph> graphs;
    for (const std::string& name : benchmark_names()) graphs.push_back(benchmark_by_name(name));
    for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
        random_dag_params params;
        params.operations = 60;
        params.inputs = 6;
        params.mult_fraction = 0.3;
        graphs.push_back(random_dag(params, seed));
    }
    for (const graph& g : graphs) {
        const graph g2 = parse_cdfg_string(write_cdfg_string(g));
        EXPECT_EQ(operand_lists(g2), operand_lists(g)) << g.name();
        EXPECT_EQ(write_cdfg_string(g2), write_cdfg_string(g)) << g.name();
    }
}

TEST(textio, parses_comments_and_blanks)
{
    const graph g = parse_cdfg_string("# header\n\ncdfg tiny\nnode x input\n"
                                      "node o output\n  # mid comment\nedge x o\n");
    EXPECT_EQ(g.name(), "tiny");
    EXPECT_EQ(g.node_count(), 2);
}

TEST(textio, missing_header_is_an_error)
{
    EXPECT_THROW(parse_cdfg_string("node x input\n"), error);
}

TEST(textio, unknown_directive_reports_line)
{
    try {
        parse_cdfg_string("cdfg t\nfrobnicate x\n");
        FAIL();
    } catch (const parse_error& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(textio, edge_to_unknown_node_reports_line)
{
    try {
        parse_cdfg_string("cdfg t\nnode x input\nedge x ghost\n");
        FAIL();
    } catch (const parse_error& e) {
        EXPECT_EQ(e.line(), 3);
    }
}

TEST(textio, bad_node_kind_is_an_error)
{
    EXPECT_THROW(parse_cdfg_string("cdfg t\nnode x wizard\n"), parse_error);
}

TEST(textio, parsed_graph_is_validated)
{
    // output with no predecessor
    EXPECT_THROW(parse_cdfg_string("cdfg t\nnode o output\n"), error);
}

} // namespace
} // namespace phls
