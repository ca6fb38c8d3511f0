#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "measure.h"

namespace perfbench {
namespace {

/// Id of the innermost open span on this thread.
thread_local std::size_t current_span = 0;

} // namespace

tracer::span::span(tracer& t, std::string name, std::string op) : t_(&t)
{
    if (!t.enabled_) return;
    {
        std::lock_guard<std::mutex> lock(t.mutex_);
        rec_.id = t.next_id_++;
    }
    rec_.parent = current_span;
    rec_.op = std::move(op);
    rec_.name = std::move(name);
    current_span = rec_.id;
    open_ = true;
    rec_.start = now_s();
}

tracer::span::~span() { close(); }

double tracer::span::close()
{
    if (!open_) return 0.0;
    rec_.end = now_s();
    open_ = false;
    current_span = rec_.parent;
    const double d = rec_.end - rec_.start;
    std::lock_guard<std::mutex> lock(t_->mutex_);
    t_->totals_[rec_.name] += d;
    t_->spans_.push_back(std::move(rec_));
    return d;
}

void tracer::count_max(const std::string& name, double value)
{
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    double& c = counters_[name];
    c = std::max(c, value);
}

double tracer::total(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
}

double tracer::counter(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

void tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span_record& s = spans_[i];
        char line[512];
        std::snprintf(line, sizeof line,
                      "  {\"id\": %zu, \"parent\": %zu, \"op\": \"%s\", \"name\": "
                      "\"%s\", \"start\": %.9f, \"end\": %.9f}%s\n",
                      s.id, s.parent, s.op.c_str(), s.name.c_str(), s.start, s.end,
                      i + 1 < spans_.size() ? "," : "");
        os << line;
    }
    os << "],\n\"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters_) {
        char line[256];
        std::snprintf(line, sizeof line, "%s\n  \"%s\": %.17g", first ? "" : ",",
                      name.c_str(), value);
        os << line;
        first = false;
    }
    os << "\n}}\n";
}

} // namespace perfbench
