#include "measure.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

double now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_s()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double current_rss_mb(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/statm" : "/proc/" + std::to_string(pid) + "/statm";
    std::ifstream is(path);
    long size = 0;
    long resident = 0;
    if (!(is >> size >> resident)) return 0.0;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

tail_value tail(std::vector<double> v)
{
    if (v.size() < 40) return {};
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Percentile p leaves n - ceil(p/100 * n) samples above it.
    for (int p = 99; p >= 50; --p) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
        if (rank >= 1 && n - rank >= 10) return {p, v[rank - 1]};
    }
    return {50, v[(n - 1) / 2]};
}

bool is_known_fault_check(const std::string& check)
{
    return check == "guided_front_equal" || check == "served_equals_local" ||
           check == "task_matches_local";
}

bool run_result::record(const std::string& op,
                        const std::map<std::string, std::string>& failed_checks)
{
    ++attempted;
    if (failed_checks.empty()) return true;
    ++failed;
    for (const auto& [check, message] : failed_checks) {
        ++failures[check];
        if (!is_known_fault_check(check)) correct = false;
        if (first_messages.size() < 12)
            first_messages.push_back(op + " [" + check + "]: " + message);
    }
    return false;
}

void op_checks::add(const std::string& check, const std::vector<std::string>& violations)
{
    if (!violations.empty()) fail(check, violations.front());
}

void op_checks::fail(const std::string& check, const std::string& message)
{
    failed_.emplace(check, message);
}

struct rss_sampler::state {
    std::atomic<bool> stop{false};
    std::atomic<double> max{0.0};
    std::thread thread;
};

rss_sampler::rss_sampler() : state_(new state)
{
    state* s = state_.get();
    s->thread = std::thread([s] {
        while (!s->stop.load()) {
            const double seen = current_rss_mb(0);
            double prev = s->max.load();
            while (seen > prev && !s->max.compare_exchange_weak(prev, seen)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });
}

rss_sampler::~rss_sampler()
{
    state_->stop.store(true);
    state_->thread.join();
}

double rss_sampler::take()
{
    const double now = current_rss_mb(0);
    return std::max(state_->max.exchange(now), now);
}

struct ceiling_guard::state {
    double wall_s;
    double rss_mb;
    double started;
    std::atomic<bool> stop{false};
    std::atomic<pid_t> child{0};
    std::thread watcher;
};

ceiling_guard::ceiling_guard(double wall_s, double rss_mb)
    : state_(new state{wall_s, rss_mb, now_s(), {}, {}, {}})
{
    state* s = state_.get();
    s->watcher = std::thread([s] {
        while (!s->stop.load()) {
            const pid_t child = s->child.load();
            const double elapsed = now_s() - s->started;
            const double rss = current_rss_mb(0);
            const double child_rss = child > 0 ? current_rss_mb(child) : 0.0;
            const char* what = nullptr;
            double seen = 0.0;
            double limit = 0.0;
            if (elapsed > s->wall_s) {
                what = "wall time";
                seen = elapsed;
                limit = s->wall_s;
            } else if (std::max(rss, child_rss) > s->rss_mb) {
                what = "peak RSS";
                seen = std::max(rss, child_rss);
                limit = s->rss_mb;
            }
            if (what != nullptr) {
                std::fprintf(stdout,
                             "ceiling exceeded: %s %.1f > %.1f; the workload is "
                             "stopped as failed\n",
                             what, seen, limit);
                std::fflush(stdout);
                if (child > 0) ::kill(child, SIGKILL);
                std::_Exit(3);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
}

ceiling_guard::~ceiling_guard()
{
    state_->stop.store(true);
    state_->watcher.join();
}

void ceiling_guard::watch_child(pid_t pid) { state_->child.store(pid); }

std::string result_json(const run_result& r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
