#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <stdexcept>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "cdfg/textio.h"
#include "sched/pasap.h"

namespace perfbench {

std::uint64_t rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int rng::between(int lo, int hi)
{
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
}

double hungriest_power(const phls::module_library& lib)
{
    double p = 0.0;
    for (const phls::fu_module& m : lib.modules()) p = std::max(p, m.power);
    return p;
}

int fastest_critical_path(const phls::graph& g, const phls::module_library& lib)
{
    return phls::critical_path_length(g, [&](phls::node_id v) {
        return lib.module(*lib.fastest_for(g.kind(v), phls::unbounded_power)).latency;
    });
}

int pasap_length(const phls::graph& g, const phls::module_library& lib, double cap)
{
    const phls::pasap_result r =
        phls::pasap(g, lib, phls::fastest_assignment(g, lib, cap), cap, {});
    if (!r.feasible) throw std::runtime_error("pasap infeasible on " + g.name());
    return r.sched.latency(lib);
}

bool text_round_trip_exact(const phls::graph& g)
{
    const phls::graph back = phls::parse_cdfg_string(phls::write_cdfg_string(g));
    if (back.node_count() != g.node_count()) return false;
    for (phls::node_id v : g.node_ids())
        if (back.preds(v) != g.preds(v)) return false;
    return true;
}

std::vector<synth_design> synth_designs(std::uint64_t seed, const phls::module_library& lib)
{
    const double cap = 2.5 * hungriest_power(lib);
    std::vector<synth_design> out;
    // {operations, multiplier fraction}: the ALU-sharing family with locked
    // windows, and a multiplier mix with free windows.
    const std::pair<int, double> shapes[] = {{1000, 0.0}, {300, 0.3}};
    for (const auto& [n, mult] : shapes) {
        phls::graph g = phls::random_dag({n, std::max(4, n / 12), 10, mult, 0.05, 0.8},
                                         seed * 1000003ULL + static_cast<std::uint64_t>(n));
        const int T = pasap_length(g, lib, cap) + 4;
        out.push_back({"dag" + std::to_string(n), std::move(g), {T, cap}});
    }
    return out;
}

std::vector<plane_shape> plane_shapes() { return {{8, 1, 80}, {12, 1, 40}, {8, 2, 40}}; }

std::vector<std::string> sweep_graph_order(std::uint64_t seed)
{
    std::vector<std::string> names = phls::benchmark_names();
    rng r(seed);
    shuffle(names, r);
    return names;
}

std::vector<serve_job> serve_jobs(std::uint64_t seed, int round,
                                  const phls::module_library& lib)
{
    std::vector<serve_job> distinct = {
        // Fixed probe jobs over the graphs a text round trip reorders.
        {"hal", 10, 24, true, -1},      {"hal", 17, 32, true, -1},
        {"cosine", 15, 30, true, -1},   {"cosine", 19, 24, true, -1},
        {"elliptic", 22, 40, true, -1}, {"elliptic", 18, 28, true, -1},
        {"iir_biquad", 17, 30, true, -1}, {"iir_biquad", 26, 22, true, -1},
    };
    // Seeded jobs: per graph, every latency offset 0..11 twice, with grid
    // sizes c and 60 - c for a seeded c in 20..40, so each seed brings the
    // same number of points in another arrangement.  Every probe job and
    // two of three seeded jobs, drawn by the seed, are submitted twice.
    rng r(seed);
    for (const char* name : {"fir16", "ar_lattice", "fft8"}) {
        const int cp = fastest_critical_path(phls::benchmark_by_name(name), lib);
        for (int offset = 0; offset < 12; ++offset) {
            const int c = r.between(20, 40);
            distinct.push_back({name, cp + offset, c, false, -1});
            distinct.push_back({name, cp + offset, 60 - c, false, -1});
        }
    }
    std::vector<char> repeated; // per seeded job
    for (std::size_t i = 8; i < distinct.size(); ++i) repeated.push_back(i % 3 != 2);
    shuffle(repeated, r);
    repeated.insert(repeated.begin(), 8, 1); // the probe jobs
    // The order and the repeats' places change every round, so a run
    // averages over several orders; every round holds the same jobs.
    r = rng(seed * 1000003ULL + static_cast<std::uint64_t>(round));
    std::vector<std::size_t> order(distinct.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, r);
    std::vector<serve_job> jobs;
    std::vector<std::size_t> id; // distinct index of each entry
    for (std::size_t i : order) {
        jobs.push_back(distinct[i]);
        id.push_back(i);
    }
    for (std::size_t i : order) {
        if (!repeated[i]) continue;
        const std::size_t pos = static_cast<std::size_t>(
            std::find(id.begin(), id.end(), i) - id.begin());
        const std::size_t at = pos + 1 + r.next() % (jobs.size() - pos);
        serve_job repeat = distinct[i];
        repeat.first = 0; // resolved below
        jobs.insert(jobs.begin() + static_cast<std::ptrdiff_t>(at), repeat);
        id.insert(id.begin() + static_cast<std::ptrdiff_t>(at), i);
    }
    for (std::size_t k = 0; k < jobs.size(); ++k)
        if (jobs[k].first >= 0)
            jobs[k].first = static_cast<int>(std::find(id.begin(), id.end(), id[k]) - id.begin());
    return jobs;
}

namespace {

struct task_line {
    std::string name;
    std::string graph; ///< built-in name or .cdfg path
    const phls::graph* g = nullptr;
    int iterations = 1;
    int release = 0;
    int latency = 0; ///< the shortest explored latency
};

/// Writes one task-set file.  Every task explores two latencies, two and
/// six cycles above its pasap length at the envelope, at the envelope
/// itself (`caps 1`), so every task has a design and every task the same
/// number of candidates; deadlines leave room for all tasks to run one
/// after another on their slowest candidates, with a quarter of slack on
/// top.
std::string write_set(const std::string& dir, const std::string& name,
                      std::vector<task_line> tasks, double envelope,
                      const phls::module_library& lib)
{
    int serial = 0;
    for (task_line& t : tasks) {
        t.latency = pasap_length(*t.g, lib, envelope) + 2;
        serial += t.iterations * (t.latency + 4);
    }
    std::string text = "taskset " + name + "\n";
    char line[256];
    std::snprintf(line, sizeof line, "envelope %.17g\n", envelope);
    text += line;
    text += "battery beta 0.1 cycle 0.5 idle 4\n";
    for (const task_line& t : tasks) {
        const int deadline = t.release + serial + serial / 4 + 25;
        std::snprintf(line, sizeof line,
                      "task %s %s deadline %d release %d iterations %d caps 1 "
                      "latency %d..%d..4\n",
                      t.name.c_str(), t.graph.c_str(), deadline, t.release, t.iterations,
                      t.latency, t.latency + 4);
        text += line;
    }
    const std::string path = dir + "/" + name + ".tasks";
    std::ofstream os(path);
    os << text;
    if (!os) throw std::runtime_error("cannot write " + path);
    return path;
}

} // namespace

std::vector<task_set_file> write_task_sets(std::uint64_t seed, const std::string& dir,
                                           const phls::module_library& lib)
{
    const double envelope = 2.5 * hungriest_power(lib);
    std::vector<task_set_file> out;
    std::deque<phls::graph> keep; // graphs the task lines point at

    // The fixed probe set: the four built-in kernels a text round trip
    // reorders, with fixed contracts.
    {
        std::vector<task_line> tasks;
        const std::pair<const char*, int> probe[] = {
            {"hal", 2}, {"cosine", 1}, {"elliptic", 2}, {"iir_biquad", 3}};
        int release = 0;
        for (const auto& [name, iterations] : probe) {
            keep.push_back(phls::benchmark_by_name(name));
            tasks.push_back({name, name, &keep.back(), iterations, release, 0});
            release += 5;
        }
        out.push_back({"probe", write_set(dir, "probe", tasks, envelope, lib), true});
    }

    // Seeded sets: a fixed library of twelve kernels of 40..120 operations
    // (30% multipliers, generated once from fixed seeds) and four each of
    // the round-trip-exact built-ins, dealt by the seed into five sets of
    // 3..6 tasks, with seeded iteration counts and releases.  A kernel's
    // synthesis time varies by +-20% with its random structure, which a
    // dozen seeded kernels would not average out, so every seed brings the
    // same synthesis work in another arrangement.  The deal goes largest
    // first, one task per open set per pass, so each set's slowest task
    // (its candidate sweeps run in parallel) is one of the five largest.
    std::vector<std::string> pool; // largest first
    for (int k = 11; k >= 0; --k) {
        const int n = 40 + k * 80 / 11;
        const phls::graph g = phls::random_dag({n, std::max(4, n / 12), 6, 0.3, 0.05, 0.8},
                                               1000 + static_cast<std::uint64_t>(k));
        const std::string path = dir + "/kernel" + std::to_string(n) + ".cdfg";
        std::ofstream os(path);
        os << phls::write_cdfg_string(g);
        if (!os) throw std::runtime_error("cannot write " + path);
        pool.push_back(path);
    }
    for (const char* name : {"fft8", "ar_lattice", "fir16"}) pool.insert(pool.end(), 4, name);
    rng r(seed);
    std::vector<int> set_sizes = {3, 4, 5, 6, 6};
    shuffle(set_sizes, r);
    std::vector<int> iterations;
    for (std::size_t i = 0; i < pool.size(); ++i) iterations.push_back(1 + static_cast<int>(i % 4));
    shuffle(iterations, r);
    std::vector<std::vector<std::string>> dealt(set_sizes.size());
    std::size_t next = 0;
    for (int pass = 0; next < pool.size(); ++pass) {
        std::vector<std::size_t> open;
        for (std::size_t s = 0; s < set_sizes.size(); ++s)
            if (set_sizes[s] > pass) open.push_back(s);
        shuffle(open, r);
        for (std::size_t s : open) dealt[s].push_back(pool[next++]);
    }
    next = 0;
    for (std::size_t s = 0; s < dealt.size(); ++s) {
        const std::string set_name = "set" + std::to_string(s);
        std::vector<task_line> tasks;
        for (const std::string& graph : dealt[s]) {
            if (graph.size() > 5 && graph.compare(graph.size() - 5, 5, ".cdfg") == 0) {
                // The task's graph is what the file parses to.
                std::ifstream is(graph);
                keep.push_back(phls::parse_cdfg(is));
            } else {
                keep.push_back(phls::benchmark_by_name(graph));
            }
            if (!text_round_trip_exact(keep.back()))
                throw std::runtime_error("seeded task graph " + graph +
                                         " does not survive a text round trip");
            tasks.push_back({std::string("t").append(std::to_string(tasks.size())), graph,
                             &keep.back(), iterations[next++], r.between(0, 20), 0});
        }
        out.push_back({set_name, write_set(dir, set_name, tasks, envelope, lib), false});
    }
    return out;
}

} // namespace perfbench
