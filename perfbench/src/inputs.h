// Workload inputs, made only from the seed.  The program sees the
// generated graphs, jobs and task-set files and nothing else.
//
// Serve jobs and task sets come in two parts.  The probe part is fixed
// (the same for every seed) and runs the built-in graphs whose
// predecessor order a text round trip changes -- where the operand-order
// fault shows.  The seeded part uses graphs whose text round trip is
// exact (fir16, ar_lattice, fft8, and kernels read from .cdfg files), so
// the number of failed operations per round is the same for every seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "library/library.h"
#include "synth/synthesizer.h"

namespace perfbench {

/// SplitMix64: small, fast and fully specified, so inputs do not depend
/// on the standard library's distributions.
class rng {
public:
    explicit rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform integer in [lo, hi].
    int between(int lo, int hi);

private:
    std::uint64_t state_;
};

/// Fisher-Yates shuffle driven by `r`.
template <typename T>
void shuffle(std::vector<T>& v, rng& r)
{
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[r.next() % i]);
}

/// The per-cycle power of the library's hungriest module.
double hungriest_power(const phls::module_library& lib);

/// Critical path when every operation runs on its fastest module.
int fastest_critical_path(const phls::graph& g, const phls::module_library& lib);

/// Latency of the power-constrained ASAP schedule at `cap` on the fastest
/// modules that fit under it.
int pasap_length(const phls::graph& g, const phls::module_library& lib, double cap);

/// Graphs whose CDFG text round trip (write then parse) keeps every
/// node's operand order.
bool text_round_trip_exact(const phls::graph& g);

// ------------------------------------------------------------ synth_1k

struct synth_design {
    std::string name;
    phls::graph g;
    phls::synthesis_constraints c;
};

/// The 1000-op ALU-family DAG and the 300-op DAG with 30% multipliers,
/// both at cap 2.5 x the hungriest module and T = pasap length + 4.
std::vector<synth_design> synth_designs(std::uint64_t seed, const phls::module_library& lib);

// ---------------------------------------------------------- sweep_plane

/// One (T x Pmax) plane shape: `rows` latencies from the all-parallel
/// critical path in steps of `step`, `caps` power-grid caps.
struct plane_shape {
    int rows = 0;
    int step = 1;
    int caps = 0;
};
std::vector<plane_shape> plane_shapes();

/// Every built-in graph, in an order drawn from the seed.
std::vector<std::string> sweep_graph_order(std::uint64_t seed);

// ----------------------------------------------------------- serve_jobs

struct serve_job {
    std::string graph;  ///< built-in graph name
    int latency = 0;    ///< the job's single latency
    int caps = 0;       ///< power-grid size
    bool probe = false; ///< fixed part (operand-order probe)
    int first = -1;     ///< index of the job this one repeats (-1: none)
};

/// The job list of round `round`: the fixed probe jobs and the seeded
/// jobs, in an order drawn from the seed and the round; every probe job
/// and two of three seeded jobs are submitted a second time.  Every round
/// holds the same jobs.
std::vector<serve_job> serve_jobs(std::uint64_t seed, int round,
                                  const phls::module_library& lib);

// ------------------------------------------------------------ tasks_mix

struct task_set_file {
    std::string name;
    std::string path; ///< the task-set file, relative to the working directory
    bool probe = false;
};

/// Writes the kernel library (.cdfg) and every task-set file of one round
/// under `dir`, and returns the task-set files: one fixed probe set over
/// the built-in kernels the operand-order fault affects, then the seeded
/// sets.  Deadlines leave room for every task to run one after another,
/// and the envelope admits every task's designs.
std::vector<task_set_file> write_task_sets(std::uint64_t seed, const std::string& dir,
                                           const phls::module_library& lib);

} // namespace perfbench
