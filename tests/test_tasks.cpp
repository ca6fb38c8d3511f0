// Tests for the multi-task scheduling subsystem: the task-set text
// format, the candidate stage and its infeasibility taxonomy, the two
// packing policies, determinism across thread counts, session-pool
// reuse and the streaming sink.
#include <gtest/gtest.h>

#include <fstream>
#include <vector>

#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "power/tracker.h"
#include "task/engine.h"

namespace phls::task {
namespace {

/// A scratch file path unique to the test, cleaned up by the caller.
std::string scratch(const char* name)
{
    return std::string(::testing::TempDir()) + name;
}

task_spec hal_task(const std::string& name, int deadline)
{
    task_spec t;
    t.name = name;
    t.g = make_hal();
    t.lib = table1_library();
    t.deadline = deadline;
    return t;
}

task_set small_set()
{
    task_set s;
    s.name = "small";
    s.envelope = 9.0;
    s.tasks.push_back(hal_task("rx", 60));
    s.tasks.push_back(hal_task("dsp", 200));
    s.tasks.back().release = 10;
    s.tasks.back().iterations = 2;
    return s;
}

// ------------------------------------------------------------ text I/O

TEST(taskset_io, parses_the_documented_format)
{
    const task_set s = parse_task_set_string(R"(# a comment
taskset radio
envelope 9.5
battery beta 0.2 cycle 0.25 idle 4 voltage 1.5 alpha 500

task rx  hal    deadline 60
task dsp cosine deadline 200 release 10 iterations 2 caps 8
task ctl hal    deadline 90  latency 10..17..3 synth greedy sched pasap
)");
    EXPECT_EQ(s.name, "radio");
    EXPECT_DOUBLE_EQ(s.envelope, 9.5);
    EXPECT_DOUBLE_EQ(s.battery.beta, 0.2);
    EXPECT_DOUBLE_EQ(s.battery.cycle_seconds, 0.25);
    EXPECT_DOUBLE_EQ(s.battery.voltage, 1.5);
    EXPECT_DOUBLE_EQ(s.battery.alpha, 500.0);
    EXPECT_EQ(s.battery.idle_cycles, 4);
    ASSERT_EQ(s.tasks.size(), 3u);
    EXPECT_EQ(s.tasks[0].name, "rx");
    EXPECT_EQ(s.tasks[0].g.name(), "hal");
    EXPECT_EQ(s.tasks[0].deadline, 60);
    EXPECT_EQ(s.tasks[0].iterations, 1);
    EXPECT_EQ(s.tasks[1].g.name(), "cosine");
    EXPECT_EQ(s.tasks[1].release, 10);
    EXPECT_EQ(s.tasks[1].iterations, 2);
    EXPECT_EQ(s.tasks[1].caps, 8);
    EXPECT_EQ(s.tasks[2].latencies, (std::vector<int>{10, 13, 16}));
}

TEST(taskset_io, envelope_defaults_to_unbounded)
{
    const task_set s = parse_task_set_string("taskset t\ntask a hal deadline 40\n");
    EXPECT_EQ(s.envelope, unbounded_power);
}

TEST(taskset_io, round_trips_through_the_writer)
{
    task_set s = small_set();
    s.tasks[1].latencies = {12, 15, 18};
    s.tasks[1].caps = 3;
    const std::string text = write_task_set_string(s);
    const task_set back = parse_task_set_string(text);
    EXPECT_EQ(write_task_set_string(back), text);
    EXPECT_EQ(back.tasks[1].latencies, s.tasks[1].latencies);
    EXPECT_EQ(back.tasks[1].caps, 3);
}

TEST(taskset_io, parse_errors_carry_line_numbers)
{
    try {
        parse_task_set_string("taskset t\nbogus directive\n");
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        EXPECT_EQ(e.line(), 2);
    }
    EXPECT_THROW(parse_task_set_string("task a hal deadline 40\n"), error);
    EXPECT_THROW(parse_task_set_string("taskset t\ntask a hal\n"), parse_error);
    EXPECT_THROW(parse_task_set_string("taskset t\ntask a hal deadline\n"),
                 parse_error);
    EXPECT_THROW(
        parse_task_set_string("taskset t\ntask a hal deadline 40 shiny yes\n"),
        parse_error);
    EXPECT_THROW(
        parse_task_set_string("taskset t\ntask a no_such_bench deadline 40\n"),
        parse_error);
    EXPECT_THROW(parse_task_set_string("taskset t\nbattery beta zero\n"),
                 parse_error);
}

TEST(taskset_io, validation_rejects_broken_sets)
{
    // Duplicate names.
    EXPECT_THROW(parse_task_set_string(
                     "taskset t\ntask a hal deadline 40\ntask a hal deadline 50\n"),
                 error);
    // Deadline not after release.
    EXPECT_THROW(
        parse_task_set_string("taskset t\ntask a hal deadline 10 release 10\n"),
        error);
    // No tasks at all.
    EXPECT_THROW(parse_task_set_string("taskset t\n"), error);
    // Programmatic validation: same checks without the parser.
    task_set s = small_set();
    s.tasks[0].iterations = 0;
    EXPECT_THROW(check_task_set(s), error);
    s = small_set();
    s.tasks[0].name = "two words";
    EXPECT_THROW(check_task_set(s), error);
    s = small_set();
    s.envelope = 0.0;
    EXPECT_THROW(check_task_set(s), error);
}

TEST(taskset_io, loads_cdfg_graphs_from_disk)
{
    const std::string path = scratch("taskset_graph.cdfg");
    {
        std::ofstream os(path);
        os << write_cdfg_string(make_hal());
    }
    task_set s = parse_task_set_string("taskset t\ntask a " + path +
                                       " deadline 40\n");
    EXPECT_EQ(s.tasks[0].g.node_count(), make_hal().node_count());
    // The file kept the benchmark name, so it still writes by name; a
    // graph whose name is no benchmark has no stable token to emit.
    EXPECT_NO_THROW(write_task_set_string(s));
    s.tasks[0].g.set_name("custom_kernel");
    EXPECT_THROW(write_task_set_string(s), error);
    std::remove(path.c_str());
}

// --------------------------------------------------------- candidates

TEST(candidates, derived_latency_axis_spans_cp_to_deadline_budget)
{
    task_spec t = hal_task("a", 60);
    const std::vector<int> axis = candidate_latencies(t);
    ASSERT_FALSE(axis.empty());
    EXPECT_EQ(axis.front(), 8); // hal's critical path, parallel multipliers
    EXPECT_EQ(axis.back(), 60);
    EXPECT_LE(axis.size(), 4u);

    t.iterations = 3; // budget per iteration shrinks to 20
    EXPECT_EQ(candidate_latencies(t).back(), 20);

    t.latencies = {11, 9, 11}; // explicit axis: sorted, deduplicated
    EXPECT_EQ(candidate_latencies(t), (std::vector<int>{9, 11}));
}

TEST(candidates, impossible_deadline_throws_deadline_unmeetable)
{
    const task_spec t = hal_task("tight", 5); // below the critical path
    try {
        candidate_latencies(t);
        FAIL() << "expected task_error";
    } catch (const task_error& e) {
        EXPECT_EQ(e.kind(), task_error_kind::deadline_unmeetable);
        EXPECT_EQ(e.task(), "tight");
        EXPECT_NE(std::string(e.what()).find("deadline_unmeetable"),
                  std::string::npos);
    }
}

TEST(candidates, caps_axis_respects_the_envelope)
{
    task_spec t = hal_task("a", 60);
    const std::vector<double> caps = candidate_caps(t, 9.0);
    ASSERT_FALSE(caps.empty());
    for (double c : caps) EXPECT_LE(c, 9.0);
    EXPECT_DOUBLE_EQ(caps.back(), 9.0); // envelope itself is explored

    t.caps = 1; // no probe: the envelope alone
    EXPECT_EQ(candidate_caps(t, 9.0), std::vector<double>{9.0});
    EXPECT_EQ(candidate_caps(t, unbounded_power),
              std::vector<double>{unbounded_power});
}

TEST(candidates, envelope_below_the_power_floor_throws_envelope_exceeded)
{
    task_set s;
    s.name = "t";
    s.envelope = 1.0; // below the multiplier's minimum power (2.7)
    s.tasks.push_back(hal_task("a", 200));
    serve::session_pool pool;
    try {
        explore_candidates(s, pool, 0, 1);
        FAIL() << "expected task_error";
    } catch (const task_error& e) {
        EXPECT_EQ(e.kind(), task_error_kind::envelope_exceeded);
        EXPECT_EQ(e.task(), "a");
    }
}

TEST(candidates, latency_too_small_everywhere_throws_no_feasible_impl)
{
    task_set s;
    s.name = "t";
    s.tasks.push_back(hal_task("a", 200));
    s.tasks[0].latencies = {5}; // below hal's critical path: nothing feasible
    serve::session_pool pool;
    try {
        explore_candidates(s, pool, 0, 1);
        FAIL() << "expected task_error";
    } catch (const task_error& e) {
        EXPECT_EQ(e.kind(), task_error_kind::no_feasible_impl);
    }
}

TEST(candidates, viable_impls_fit_envelope_and_deadline)
{
    const task_set s = small_set();
    serve::session_pool pool;
    const std::vector<task_candidates> cands = explore_candidates(s, pool, 0, 1);
    ASSERT_EQ(cands.size(), 2u);
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const task_spec& t = s.tasks[i];
        ASSERT_FALSE(cands[i].viable.empty());
        int prev_latency = 0;
        for (const task_impl& impl : cands[i].viable) {
            EXPECT_LE(impl.peak, s.envelope + power_tracker::tolerance);
            EXPECT_LE(t.release + impl.latency * t.iterations, t.deadline);
            EXPECT_GE(impl.latency, prev_latency); // sorted fastest-first
            prev_latency = impl.latency;
        }
        const task_impl& flat = flattest_impl(cands[i]);
        for (const task_impl& impl : cands[i].viable)
            EXPECT_LE(flat.peak, impl.peak);
    }
}

TEST(candidates, duplicate_tasks_share_one_pooled_session)
{
    task_set s;
    s.name = "twins";
    s.envelope = 9.0;
    s.tasks.push_back(hal_task("a", 60));
    s.tasks.push_back(hal_task("b", 60)); // same problem, different name
    s.tasks.push_back(hal_task("c", 90)); // same problem, different space
    serve::session_pool pool;
    explore_candidates(s, pool, 0, 2);
    // The pool keys by the serve job encoding minus the space, so all
    // three hal tasks (deadlines only change the space) share a session.
    EXPECT_EQ(pool.sessions_created(), 1u);

    task_set mixed = s;
    mixed.tasks.push_back(hal_task("d", 60));
    mixed.tasks.back().g = make_fir16();
    serve::session_pool pool2;
    explore_candidates(mixed, pool2, 0, 2);
    EXPECT_EQ(pool2.sessions_created(), 2u); // one per distinct problem
}

// ------------------------------------------------------------- engine

TEST(engine, policy_registry_round_trips)
{
    EXPECT_EQ(policy_names(), (std::vector<std::string>{"edf", "battery"}));
    for (const std::string& name : policy_names()) {
        const policy p = policy_by_name(name);
        EXPECT_EQ(policy_name(p), name);
        EXPECT_NE(std::string(policy_description(p)), "");
    }
    EXPECT_THROW(policy_by_name("rate-monotonic"), error);
}

TEST(engine, edf_schedules_the_small_set)
{
    const task_schedule s = schedule(small_set(), policy::edf);
    EXPECT_EQ(s.policy, "edf");
    EXPECT_EQ(s.set_name, "small");
    ASSERT_EQ(s.tasks.size(), 2u);
    EXPECT_EQ(s.met, 2);
    for (const task_result& r : s.tasks) {
        EXPECT_TRUE(r.met);
        ASSERT_EQ(r.runs.size(), static_cast<std::size_t>(r.iterations));
        // Runs are contiguous (non-preemptive), in order, within the window.
        EXPECT_GE(r.runs.front().start, r.release);
        for (std::size_t i = 0; i < r.runs.size(); ++i) {
            EXPECT_EQ(r.runs[i].finish - r.runs[i].start, r.impl.latency);
            if (i > 0) {
                EXPECT_EQ(r.runs[i].start, r.runs[i - 1].finish);
            }
        }
        EXPECT_EQ(r.completion, r.runs.back().finish);
        EXPECT_EQ(r.slack, r.deadline - r.completion);
    }
    // The composed profile respects the envelope and drives the battery.
    EXPECT_LE(s.peak, s.envelope + power_tracker::tolerance);
    EXPECT_GT(s.energy, 0.0);
    EXPECT_GT(s.lifetime_seconds, 0.0);
    EXPECT_GT(s.battery_alpha, 0.0);
    EXPECT_EQ(s.profile.cycle_count(), s.makespan);
}

TEST(engine, battery_policy_dominates_edf_baseline)
{
    const task_set s = small_set();
    const task_schedule edf = schedule(s, policy::edf);
    const task_schedule bat = schedule(s, policy::battery);
    EXPECT_GE(bat.met, edf.met);
    EXPECT_GE(bat.lifetime_seconds, edf.lifetime_seconds);
    // Both policies are scored on the same derived battery capacity.
    EXPECT_DOUBLE_EQ(bat.battery_alpha, edf.battery_alpha);
}

TEST(engine, schedules_are_byte_identical_across_thread_counts)
{
    const task_set s = small_set();
    for (const policy p : {policy::edf, policy::battery}) {
        schedule_options o1;
        o1.threads = 1;
        const std::string base = schedule(s, p, o1).to_string();
        for (const int threads : {2, 8}) {
            schedule_options on;
            on.threads = threads;
            EXPECT_EQ(schedule(s, p, on).to_string(), base)
                << policy_name(p) << " with " << threads << " threads";
        }
    }
}

TEST(engine, sink_streams_winning_tasks_in_set_order)
{
    std::vector<std::string> seen;
    sink sk;
    sk.on_task = [&](const task_result& r) { seen.push_back(r.name); };
    const task_schedule s = schedule(small_set(), policy::battery, {}, sk);
    EXPECT_EQ(seen, (std::vector<std::string>{"rx", "dsp"}));
    EXPECT_EQ(s.tasks[0].name, "rx");
}

TEST(engine, reuses_a_caller_provided_pool_across_calls)
{
    serve::session_pool pool;
    const task_set s = small_set();
    const std::string first = schedule(s, policy::battery, pool).to_string();
    const std::size_t created = pool.sessions_created();
    EXPECT_GE(created, 1u);
    // A repeated schedule on the same pool warm-starts: no new sessions,
    // identical result.
    EXPECT_EQ(schedule(s, policy::battery, pool).to_string(), first);
    EXPECT_EQ(pool.sessions_created(), created);
}

TEST(engine, overloaded_envelope_reports_missed_deadlines)
{
    // Two identical tasks whose windows only fit one at a time: under
    // an 8.0 envelope hal's fastest viable implementation is T=16 at
    // peak 7.5, so two cannot overlap -- EDF serialises them and the
    // second finishes at cycle 32, past its deadline of 20.
    task_set s;
    s.name = "contended";
    s.envelope = 8.0;
    s.tasks.push_back(hal_task("a", 20));
    s.tasks.push_back(hal_task("b", 20));
    const task_schedule r = schedule(s, policy::edf);
    EXPECT_EQ(r.met, 1);
    EXPECT_EQ(r.tasks[0].met + r.tasks[1].met, 1);
    // The battery policy may never do worse on met deadlines.
    EXPECT_GE(schedule(s, policy::battery).met, 1);
}

TEST(engine, rejects_bad_options)
{
    schedule_options o;
    o.burst_fraction = 0.0;
    EXPECT_THROW(schedule(small_set(), policy::battery, o), error);
    o.burst_fraction = 1.5;
    EXPECT_THROW(schedule(small_set(), policy::battery, o), error);
}

TEST(engine, recovery_gaps_appear_on_bursty_sets_with_slack)
{
    // One task, many iterations, generous deadline, tight envelope: the
    // flattest implementation still peaks above half the envelope, so
    // the gap variant inserts recovery idle between iterations -- and
    // must only win if that does not cost lifetime or deadlines.
    task_set s;
    s.name = "bursty";
    s.envelope = 3.0;
    s.tasks.push_back(hal_task("burst", 400));
    s.tasks[0].iterations = 4;
    const task_schedule edf = schedule(s, policy::edf);
    const task_schedule bat = schedule(s, policy::battery);
    EXPECT_GE(bat.met, edf.met);
    // The recovery idle buys lifetime here (about 11.5k s vs EDF's 6.5k s).
    EXPECT_GT(bat.lifetime_seconds, edf.lifetime_seconds);
    EXPECT_GT(bat.preemption_gaps, 0);
    // Gaps really show up as idle between consecutive runs.
    ASSERT_EQ(bat.tasks.size(), 1u);
    const task_result& r = bat.tasks[0];
    bool idle_between_runs = false;
    for (std::size_t i = 1; i < r.runs.size(); ++i)
        idle_between_runs |= r.runs[i].start > r.runs[i - 1].finish;
    EXPECT_TRUE(idle_between_runs);
}

} // namespace
} // namespace phls::task
