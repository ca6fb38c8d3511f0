// serve_jobs: a `phls serve` process on a unix socket serves four
// closed-loop client connections that submit a seeded list of sweep jobs.
// Each round starts a fresh server, so every round sees the same cold and
// warm jobs; starting it and connecting the clients is the set-up.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "cdfg/benchmarks.h"
#include "checker.h"
#include "dse/session.h"
#include "inputs.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int client_count = 4;

/// The `phls` CLI built next to this binary.
std::string phls_path()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) throw std::runtime_error("cannot locate the benchmark binary");
    std::string self(buf, static_cast<std::size_t>(n));
    return self.substr(0, self.rfind('/')) + "/phls";
}

/// One `phls serve` child process.  The destructor stops and reaps it.
class server_process {
public:
    server_process(const std::string& socket_path, ceiling_guard& guard) : guard_(guard)
    {
        int out[2];
        if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
        const std::string exe = phls_path();
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::dup2(out[1], 1);
            ::close(out[0]);
            ::close(out[1]);
            const char* argv[] = {exe.c_str(), "serve",          "--socket",
                                  socket_path.c_str(), "--threads", "1",
                                  "--max-clients", "8", nullptr};
            ::execv(exe.c_str(), const_cast<char* const*>(argv));
            std::_Exit(127);
        }
        ::close(out[1]);
        out_ = out[0];
        guard_.watch_child(pid_);
        // The "serving on" line is the readiness signal.
        if (read_line().rfind("serving on", 0) != 0) {
            stop();
            throw std::runtime_error("phls serve did not start");
        }
    }
    ~server_process() { stop(); }
    server_process(const server_process&) = delete;
    server_process& operator=(const server_process&) = delete;

    /// Stops the server (SIGTERM), reads its summary line and reaps it.
    void stop()
    {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGTERM);
        std::string line;
        while (!(line = read_line()).empty())
            if (line.rfind("served", 0) == 0) summary_ = line;
        int status = 0;
        rusage ru{};
        while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
        }
        guard_.watch_child(0);
        cpu_s_ = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
        peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
        ::close(out_);
        pid_ = -1;
    }

    double cpu_s() const { return cpu_s_; }
    double peak_rss_mb() const { return peak_rss_mb_; }
    /// Sessions the server's pool created, from its exit summary.
    double sessions() const
    {
        const std::size_t at = summary_.rfind(", ");
        return at == std::string::npos ? 0.0 : std::atof(summary_.c_str() + at + 2);
    }

private:
    std::string read_line()
    {
        std::string line;
        char c = 0;
        while (true) {
            const ssize_t n = ::read(out_, &c, 1);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0 || c == '\n') break;
            line += c;
        }
        return line;
    }

    ceiling_guard& guard_;
    pid_t pid_ = -1;
    int out_ = -1;
    std::string summary_;
    double cpu_s_ = 0.0;
    double peak_rss_mb_ = 0.0;
};

/// What one job returned.
struct job_result {
    std::vector<check::point> points;
    std::vector<phls::metric_record> metrics; ///< as delivered, for re-encoding
    std::vector<phls::front_delta> deltas;
    phls::serve::done_frame done;
    double ms = 0.0;
    std::string error;
};

std::string job_label(const serve_job& j)
{
    return j.graph + " T" + std::to_string(j.latency) + " x" + std::to_string(j.caps);
}

/// Replays front deltas into the front they describe.
std::vector<phls::front_point> replay(const std::vector<phls::front_delta>& deltas)
{
    std::vector<phls::front_point> front;
    for (const phls::front_delta& d : deltas) {
        for (const phls::front_point& gone : d.left)
            front.erase(std::remove(front.begin(), front.end(), gone), front.end());
        for (const phls::front_point& in : d.entered) front.push_back(in);
    }
    return front;
}

} // namespace

run_result run_serve_jobs(const run_options& opts, tracer& tr, ceiling_guard& guard)
{
    const phls::module_library lib = phls::table1_library();
    phls::lifetime_spec ls;
    // The job requests, built once per distinct job from the original
    // graphs.
    struct request {
        phls::flow proto;
        phls::serve::job_request job;
    };
    std::map<std::string, request> requests;
    std::map<std::string, phls::graph> graphs;
    for (const serve_job& j : serve_jobs(opts.seed, 0, lib)) {
        if (requests.count(job_label(j))) continue;
        if (!graphs.count(j.graph)) graphs.emplace(j.graph, phls::benchmark_by_name(j.graph));
        const phls::flow proto =
            phls::flow::on(graphs.at(j.graph)).with_library(lib).estimate_lifetime(ls);
        const std::vector<double> caps = phls::flow(proto).latency(j.latency).power_grid(j.caps);
        phls::serve::job_request req = phls::serve::make_job(proto, phls::dse::cross({j.latency}, caps));
        req.threads = 1;
        requests.emplace(job_label(j), request{proto, std::move(req)});
    }

    round_stats st;
    run_result r;
    std::map<std::string, double> layer;
    std::map<std::string, std::vector<check::point>> local; // reference per job label
    std::vector<double> job_ms;
    std::vector<double> cold_ms;
    std::vector<double> warm_ms;
    std::vector<double> connect_ms;
    double sessions = 0.0;
    double metric_served = 0.0;
    double evaluated = 0.0;
    std::map<std::string, phls::explore_cache::counters> session_counters; // last round
    double frames = 0.0;
    double wire_bytes = 0.0;
    double encode_s = 0.0;
    double decode_s = 0.0;
    int rounds = 0;
    const std::string socket_path = opts.work_dir + "/serve.sock";
    const double started = now_s();
    do {
        const std::vector<serve_job> jobs = serve_jobs(opts.seed, rounds, lib);
        ++rounds;
        session_counters.clear();
        std::vector<job_result> results(jobs.size());
        double round_wall = 0.0;
        double client_cpu = 0.0;
        double server_cpu = 0.0;
        {
            // Set-up: a fresh server and four connected clients.
            const double s0 = now_s();
            server_process server(socket_path, guard);
            const double c0 = now_s();
            std::vector<std::unique_ptr<phls::serve::client>> clients;
            for (int i = 0; i < client_count; ++i)
                clients.push_back(std::make_unique<phls::serve::client>(
                    phls::serve::connect_unix(socket_path)));
            connect_ms.push_back((now_s() - c0) * 1e3);
            st.setup.push_back(now_s() - s0);

            // Closed loop: each client submits its next job when the last
            // one is done.
            std::atomic<std::size_t> next{0};
            const double w0 = now_s();
            const double cpu0 = cpu_s();
            std::vector<std::thread> threads;
            for (int i = 0; i < client_count; ++i)
                threads.emplace_back([&, i] {
                    while (true) {
                        const std::size_t k = next.fetch_add(1);
                        if (k >= jobs.size()) break;
                        job_result& out = results[k];
                        phls::dse::sink sk;
                        sk.on_result = [&](std::size_t index, const phls::flow_report& rep) {
                            out.points.push_back(check::of(index, rep));
                            out.metrics.push_back(phls::metric_of(rep));
                        };
                        sk.on_front = [&](const phls::front_delta& d) { out.deltas.push_back(d); };
                        tracer::span s(tr, "serve.job", job_label(jobs[k]));
                        const double t0 = now_s();
                        try {
                            out.done = clients[static_cast<std::size_t>(i)]->explore(
                                requests.at(job_label(jobs[k])).job, sk);
                        } catch (const std::exception& e) {
                            out.error = e.what();
                        }
                        out.ms = (now_s() - t0) * 1e3;
                    }
                });
            for (std::thread& t : threads) t.join();
            round_wall = now_s() - w0;
            client_cpu = cpu_s() - cpu0;
            for (auto& c : clients) c->bye();
            clients.clear();
            server.stop();
            server_cpu = server.cpu_s();
            st.round_rss_mb.push_back(server.peak_rss_mb());
            sessions = server.sessions();
        }
        st.round_wall.push_back(round_wall);
        st.round_cpu.push_back(client_cpu + server_cpu);

        double area = 0.0;
        double life = 0.0;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            const serve_job& j = jobs[k];
            const job_result& out = results[k];
            const std::string label = job_label(j);
            job_ms.push_back(out.ms);
            (j.first >= 0 ? warm_ms : cold_ms).push_back(out.ms);
            op_checks ck;
            if (!out.error.empty()) {
                ck.fail("job_ran", out.error);
                r.record(label, ck.failed());
                continue;
            }
            const request& req = requests.at(label);
            const phls::dse::space& space = req.job.space;
            if (out.points.size() != space.size() || out.done.evaluated != space.size())
                ck.fail("complete", "served " + std::to_string(out.points.size()) + " of " +
                                        std::to_string(space.size()) + " points");
            ck.add("front", check::front(out.done.front, out.points));
            ck.add("front_deltas", check::same_front(out.done.front, replay(out.deltas)));
            for (const check::point& p : out.points) {
                const phls::synthesis_constraints c = space.at(p.index);
                if (p.feasible && (p.peak > c.max_power * (1.0 + check::rel_tol) ||
                                   p.latency > c.latency))
                    ck.fail("served_constraints", "point " + std::to_string(p.index) +
                                                      " breaks its (T, Pmax)");
            }
            // Served results equal a local session's on the original graph.
            auto ref = local.find(label);
            if (ref == local.end()) {
                std::vector<check::point> pts;
                phls::dse::session s(req.proto);
                s.explore(space,
                          {[&](std::size_t i, const phls::flow_report& rep) {
                               pts.push_back(check::of(i, rep));
                           },
                           {}},
                          1);
                ref = local.emplace(label, std::move(pts)).first;
            }
            ck.add("served_equals_local", check::same_points(ref->second, out.points, "served"));
            if (j.first >= 0)
                ck.add("warm_equals_cold",
                       check::same_points(results[static_cast<std::size_t>(j.first)].points,
                                          out.points, "repeat"));
            r.record(label, ck.failed());
            metric_served += static_cast<double>(out.done.metric_served);
            evaluated += static_cast<double>(out.done.evaluated);
            // Counters are cumulative per pooled session: keep the latest.
            phls::explore_cache::counters& sc = session_counters[j.graph];
            if (out.done.counters.committed_hits + out.done.counters.committed_misses >=
                sc.committed_hits + sc.committed_misses)
                sc = out.done.counters;
            for (const phls::front_point& f : out.done.front) {
                area += f.area;
                life += f.lifetime_seconds;
            }
        }
        st.design_area = area;
        st.lifetime_s = life;

        if (tr.enabled()) {
            // Every frame of the round, encoded and decoded again apart
            // from the run.
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                const job_result& out = results[k];
                std::vector<std::pair<phls::serve::frame_type, std::string>> payloads;
                const double e0 = now_s();
                const phls::serve::job_request& req = requests.at(job_label(jobs[k])).job;
                payloads.emplace_back(phls::serve::frame_type::job, phls::serve::encode_job(req));
                for (std::size_t i = 0; i < out.points.size(); ++i)
                    payloads.emplace_back(
                        phls::serve::frame_type::report,
                        phls::serve::encode_report(out.points[i].index, out.metrics[i]));
                for (const phls::front_delta& d : out.deltas)
                    payloads.emplace_back(phls::serve::frame_type::front,
                                          phls::serve::encode_front(d));
                payloads.emplace_back(phls::serve::frame_type::done,
                                      phls::serve::encode_done(out.done));
                for (const auto& [type, payload] : payloads)
                    wire_bytes += static_cast<double>(phls::serve::encode_frame(type, payload).size());
                encode_s += now_s() - e0;
                const double d0 = now_s();
                for (const auto& [type, payload] : payloads) {
                    switch (type) {
                    case phls::serve::frame_type::job: phls::serve::decode_job(payload); break;
                    case phls::serve::frame_type::report: phls::serve::decode_report(payload); break;
                    case phls::serve::frame_type::front: phls::serve::decode_front(payload); break;
                    default: phls::serve::decode_done(payload); break;
                    }
                }
                decode_s += now_s() - d0;
                frames += static_cast<double>(payloads.size());
            }
        }
    } while (rounds < 2 || now_s() - started < opts.seconds);

    st.ops = static_cast<double>(job_ms.size());
    if (!tr.enabled()) {
        fill_end_to_end(r, st);
        return r;
    }
    const double n = rounds;
    const tail_value t = tail(job_ms);
    layer["serve.connect_ms"] = median(connect_ms);
    layer["serve.job_p50_ms"] = median(job_ms);
    layer["serve.cold_job_p50_ms"] = median(cold_ms);
    layer["serve.warm_job_p50_ms"] = median(warm_ms);
    layer["serve.job_tail_ms"] = t.value;
    layer["serve.job_tail_percentile"] = t.percentile;
    layer["serve.job_samples"] = static_cast<double>(job_ms.size());
    layer["serve.encode_us_per_frame"] = frames > 0 ? encode_s / frames * 1e6 : 0.0;
    layer["serve.decode_us_per_frame"] = frames > 0 ? decode_s / frames * 1e6 : 0.0;
    layer["serve.frames"] = frames / n;
    layer["serve.wire_mb"] = wire_bytes / n / (1024.0 * 1024.0);
    layer["serve.metric_served_ratio"] = evaluated > 0 ? metric_served / evaluated : 0.0;
    double hits = 0.0;
    double lookups = 0.0;
    for (const auto& [graph, sc] : session_counters) {
        hits += static_cast<double>(sc.committed_hits);
        lookups += static_cast<double>(sc.committed_hits + sc.committed_misses);
    }
    layer["serve.committed_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    layer["serve.sessions_created"] = sessions;
    fill_per_layer(r, layer, st);
    return r;
}

} // namespace perfbench
