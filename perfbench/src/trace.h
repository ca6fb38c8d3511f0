// Spans and counters recorded by the benchmark's own code around its calls
// into the program's layers.  Spans live in memory and are written out
// once, when the run ends.  A disabled tracer records nothing, so the
// untraced run pays one branch per span.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class tracer {
public:
    explicit tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// One finished span: `parent` is the id of the span open on the
    /// same thread when this one began (0 = none); `op` names the
    /// operation the span belongs to, shared by all of its spans.
    struct span_record {
        std::size_t id = 0;
        std::size_t parent = 0;
        std::string op;
        std::string name;
        double start = 0.0;
        double end = 0.0;
    };

    /// RAII span: records [construction, destruction) under `name`.
    class span {
    public:
        span(tracer& t, std::string name, std::string op = {});
        ~span();
        span(const span&) = delete;
        span& operator=(const span&) = delete;
        /// Ends the span now and returns its duration in seconds.
        double close();

    private:
        tracer* t_;
        span_record rec_;
        bool open_ = false;
    };

    /// Raises counter `name` to at least `value`.
    void count_max(const std::string& name, double value);
    /// Sum of the durations of spans named `name`, seconds.
    double total(const std::string& name) const;
    /// Counter value (0 when never counted).
    double counter(const std::string& name) const;

    /// Writes every span and counter as JSON to `path`.
    void write(const std::string& path) const;

private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::size_t next_id_ = 1;
    std::vector<span_record> spans_;
    std::map<std::string, double> totals_;
    std::map<std::string, double> counters_;
};

} // namespace perfbench
