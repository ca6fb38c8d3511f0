// The checker must reject corrupted outputs: each test takes a valid
// output, breaks one property, and expects the matching check to fire.
#include <gtest/gtest.h>

#include "cdfg/benchmarks.h"
#include "checker.h"
#include "flow/flow.h"
#include "library/library.h"

namespace {

using namespace perfbench;

struct hal_design {
    phls::graph g = phls::make_hal();
    phls::module_library lib = phls::table1_library();
    phls::synthesis_constraints c{17, 7.1};
    phls::flow_report r = phls::flow::on(g).with_library(lib).constraints(c).run();
};

bool mentions(const check::violations& v, const std::string& text)
{
    for (const std::string& s : v)
        if (s.find(text) != std::string::npos) return true;
    return false;
}

TEST(checker, valid_design_passes)
{
    hal_design d;
    ASSERT_TRUE(d.r.st.ok());
    EXPECT_TRUE(check::design(d.g, d.lib, d.r.dp, d.c, d.r.peak).empty());
}

TEST(checker, op_started_before_its_producer_finishes)
{
    hal_design d;
    ASSERT_TRUE(d.r.st.ok());
    // Move the first operation with a non-input producer to its
    // producer's start cycle.
    phls::datapath dp = d.r.dp;
    bool moved = false;
    for (phls::node_id v : d.g.node_ids()) {
        for (phls::node_id p : d.g.preds(v))
            if (d.g.kind(p) != phls::op_kind::input) {
                dp.sched.set_start(v, dp.sched.start(p));
                moved = true;
                break;
            }
        if (moved) break;
    }
    ASSERT_TRUE(moved);
    EXPECT_TRUE(mentions(check::design(d.g, d.lib, dp, d.c, d.r.peak), "before its operand"));
}

TEST(checker, cycle_over_the_cap)
{
    hal_design d;
    ASSERT_TRUE(d.r.st.ok());
    // The same design claimed under a cap below what it draws.
    phls::synthesis_constraints tight = d.c;
    tight.max_power = d.r.peak - 1.0;
    EXPECT_TRUE(mentions(check::design(d.g, d.lib, d.r.dp, tight, d.r.peak), "exceeds the cap"));
}

TEST(checker, misreported_peak_and_area)
{
    hal_design d;
    ASSERT_TRUE(d.r.st.ok());
    EXPECT_TRUE(mentions(check::design(d.g, d.lib, d.r.dp, d.c, d.r.peak * 0.5), "reported peak"));
    phls::datapath dp = d.r.dp;
    dp.area.fu += 1.0;
    EXPECT_TRUE(mentions(check::design(d.g, d.lib, dp, d.c, d.r.peak), "reported FU area"));
}

TEST(checker, overlap_on_one_instance)
{
    hal_design d;
    ASSERT_TRUE(d.r.st.ok());
    phls::datapath dp = d.r.dp;
    // Find an instance running two operations and start both together.
    bool shared = false;
    for (const phls::fu_instance& inst : dp.instances)
        if (inst.ops.size() >= 2) {
            dp.sched.set_start(inst.ops[1], dp.sched.start(inst.ops[0]));
            shared = true;
            break;
        }
    ASSERT_TRUE(shared);
    EXPECT_TRUE(mentions(check::design(d.g, d.lib, dp, d.c, d.r.peak), "at once"));
}

check::point pt(std::size_t index, double area, double peak)
{
    return {index, true, area, peak, 10, false, 0.0};
}

phls::front_point fp(const check::point& p)
{
    phls::front_point f;
    f.index = p.index;
    f.area = p.area;
    f.peak = p.peak;
    f.latency = p.latency;
    return f;
}

TEST(checker, front_with_a_dominated_point)
{
    const std::vector<check::point> delivered = {pt(0, 100, 5), pt(1, 90, 4), pt(2, 80, 6)};
    // Point 0 is dominated by point 1.
    EXPECT_TRUE(check::front({fp(delivered[1]), fp(delivered[2])}, delivered).empty());
    EXPECT_TRUE(mentions(check::front({fp(delivered[0]), fp(delivered[1]), fp(delivered[2])},
                                      delivered),
                         "dominated"));
    // A front that leaves out a non-dominated point.
    EXPECT_TRUE(mentions(check::front({fp(delivered[1])}, delivered), "neither on nor behind"));
}

TEST(checker, fronts_and_points_that_differ)
{
    const check::point a = pt(0, 100, 5);
    const check::point b = pt(1, 90, 6);
    EXPECT_TRUE(check::same_front({fp(a), fp(b)}, {fp(b), fp(a)}).empty());
    EXPECT_FALSE(check::same_front({fp(a), fp(b)}, {}).empty());
    check::point warm = a;
    warm.area = 101;
    EXPECT_FALSE(check::same_points({a}, {warm}, "warm").empty());
    EXPECT_TRUE(check::same_points({a}, {a}, "warm").empty());
}

TEST(checker, lifetime_longer_than_the_charge_allows)
{
    const phls::power_profile profile(std::vector<double>{2.0, 2.0, 2.0, 2.0});
    phls::lifetime_spec spec; // 1 V, 0.5 s cycles, no idle
    // 4 cycles draw 4 A*s per period of 2 s: alpha 100 lasts at most 50 s.
    EXPECT_TRUE(check::lifetime(profile, spec, 100.0, 49.0).empty());
    EXPECT_FALSE(check::lifetime(profile, spec, 100.0, 60.0).empty());
    EXPECT_FALSE(check::lifetime(profile, spec, 100.0, 0.0).empty());
}

phls::task::task_set one_task_set()
{
    phls::task::task_set set;
    set.name = "one_task_set";
    set.envelope = 10.0;
    phls::task::task_spec t;
    t.name = "alpha";
    t.g = phls::make_hal();
    t.lib = phls::table1_library();
    t.release = 0;
    t.deadline = 20;
    t.iterations = 2;
    set.tasks.push_back(t);
    return set;
}

phls::task::task_schedule one_task_schedule(int second_start)
{
    phls::task::task_schedule s;
    phls::task::task_result r;
    r.name = "alpha";
    r.iterations = 2;
    r.impl.latency = 8;
    r.impl.peak = 4.0;
    r.runs = {{0, 0, 8}, {1, second_start, second_start + 8}};
    r.completion = r.runs.back().finish;
    r.met = r.completion <= 20;
    s.tasks.push_back(r);
    s.met = r.met ? 1 : 0;
    s.profile = phls::power_profile(std::vector<double>(static_cast<std::size_t>(r.completion), 4.0));
    s.peak = 4.0;
    return s;
}

TEST(checker, iteration_past_its_deadline)
{
    const phls::task::task_set set = one_task_set();
    EXPECT_TRUE(check::task_schedule(set, one_task_schedule(10)).empty());
    EXPECT_TRUE(mentions(check::task_schedule(set, one_task_schedule(15)), "after the deadline"));
}

TEST(checker, iterations_that_overlap)
{
    EXPECT_TRUE(mentions(check::task_schedule(one_task_set(), one_task_schedule(4)),
                         "previous iteration"));
}

TEST(checker, task_differs_from_its_local_run)
{
    const phls::task::task_schedule s = one_task_schedule(10);
    check::local_impl l;
    l.latency = 8;
    l.peak = 4.0;
    l.area = 0.0;
    l.profile = phls::power_profile(std::vector<double>(8, 4.0));
    // Runs [0, 8) and [10, 18) leave cycles 8 and 9 idle.
    phls::task::task_schedule gaps = s;
    std::vector<double> composed(18, 4.0);
    composed[8] = composed[9] = 0.0;
    gaps.profile = phls::power_profile(composed);
    EXPECT_TRUE(check::task_matches_local(gaps, {l}).empty());
    l.area = 5.0;
    EXPECT_FALSE(check::task_matches_local(gaps, {l}).empty());
}

TEST(checker, battery_worse_than_edf)
{
    phls::task::task_schedule edf;
    edf.met = 3;
    edf.lifetime_seconds = 100.0;
    phls::task::task_schedule battery = edf;
    EXPECT_TRUE(check::battery_vs_edf(battery, edf).empty());
    battery.lifetime_seconds = 99.0;
    EXPECT_FALSE(check::battery_vs_edf(battery, edf).empty());
    battery.lifetime_seconds = 100.0;
    battery.met = 2;
    EXPECT_FALSE(check::battery_vs_edf(battery, edf).empty());
}

} // namespace
