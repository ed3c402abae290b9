#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "src/analysis/memo.h"
#include "src/cache/cache.h"
#include "src/cursor/accel.h"
#include "src/machine/cost_sim.h"

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
clear_engine_caches()
{
    exo2::clear_analysis_memo();
    exo2::clear_cursor_accel_caches();
    exo2::clear_cost_sim_cache();
}

void
print_row(const std::string& workload, const std::string& kernel,
          const std::map<std::string, double>& values)
{
    std::string line = "{\"row\": " + quote(workload) +
                       ", \"kernel\": " + quote(kernel);
    for (const auto& [k, v] : values)
        line += ", " + quote(k) + ": " + num(v);
    std::printf("%s}\n", line.c_str());
}

// -- EngineDelta -----------------------------------------------------------

namespace {

std::map<std::string, double>
engine_counters()
{
    exo2::AnalysisMemoStats a = exo2::analysis_memo_stats();
    exo2::CursorAccelStats c = exo2::cursor_accel_stats();
    exo2::CostSimCacheStats cs = exo2::cost_sim_cache_stats();
    exo2::cache::CacheStats k = exo2::cache::cache_stats();
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    return {
        {"memo.hits", d(a.affine_hits + a.linear_hits + a.effects_hits)},
        {"memo.misses",
         d(a.affine_misses + a.linear_misses + a.effects_misses)},
        {"fwd.hits", d(c.fwd_hits)},
        {"fwd.misses", d(c.fwd_misses)},
        {"cost_sim.hits", d(cs.hits)},
        {"cost_sim.misses", d(cs.misses)},
        {"cost_sim.calls", d(cs.hits + cs.misses)},
        {"cache.tune_hits", d(k.tune_hits)},
        {"cache.tune_misses", d(k.tune_misses)},
        {"cache.tune_stores", d(k.tune_stores)},
        {"cache.jit_hits", d(k.jit_hits)},
        {"cache.jit_misses", d(k.jit_misses)},
    };
}

}  // namespace

EngineDelta::EngineDelta() : at_start_(engine_counters()) {}

void
EngineDelta::add_to(Meter& m) const
{
    for (const auto& [k, v] : engine_counters())
        m.add(k, v - at_start_.at(k));
}

// -- Meter -----------------------------------------------------------------

void
Meter::fail(const std::string& what, const std::string& why)
{
    op_failed_ = true;
    counts_["failures"] += 1;
    // Keep the log bounded: a systematic failure repeats per pass.
    if (counts_["failures"] <= 20)
        std::cerr << "perfbench: FAILED " << what << ": " << why << "\n";
}

double
Meter::count(const std::string& key) const
{
    auto it = counts_.find(key);
    return it == counts_.end() ? 0.0 : it->second;
}

std::vector<double>
Meter::samples(const std::string& key) const
{
    auto it = samples_.find(key);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

void
Meter::record(double ms, bool ok)
{
    op_ms_.push_back(ms);
    attempted_++;
    if (!ok)
        failed_++;
}

// -- TraceFold -------------------------------------------------------------

namespace {

/** Minimal reader for the trace_json() document shape. */
class JsonReader
{
  public:
    explicit JsonReader(const std::string& s) : s_(s) {}

    void ws()
    {
        while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
            i_++;
    }
    bool peek(char c)
    {
        ws();
        return i_ < s_.size() && s_[i_] == c;
    }
    void expect(char c)
    {
        if (!peek(c))
            throw std::runtime_error(std::string("trace json: expected ") + c);
        i_++;
    }
    std::string str()
    {
        expect('"');
        std::string out;
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\' && i_ + 1 < s_.size()) {
                char e = s_[i_ + 1];
                if (e == 'u') {
                    out += '?';
                    i_ += 6;
                    continue;
                }
                out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
                i_ += 2;
                continue;
            }
            out += s_[i_++];
        }
        expect('"');
        return out;
    }
    double number()
    {
        ws();
        char* end = nullptr;
        double v = std::strtod(s_.c_str() + i_, &end);
        i_ = static_cast<size_t>(end - s_.c_str());
        return v;
    }
    void skip()
    {
        ws();
        if (peek('"')) {
            str();
        } else if (peek('{') || peek('[')) {
            char close = s_[i_] == '{' ? '}' : ']';
            i_++;
            bool first = true;
            while (!peek(close)) {
                if (!first)
                    expect(',');
                first = false;
                if (close == '}') {
                    str();
                    expect(':');
                }
                skip();
            }
            i_++;
        } else {
            while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
                   s_[i_] != ']')
                i_++;
        }
    }
    size_t pos() const { return i_; }
    void seek(size_t p) { i_ = p; }

  private:
    const std::string& s_;
    size_t i_ = 0;
};

struct Event
{
    std::string name;
    uint32_t tid = 0;
    double ts = 0, dur = 0;  ///< microseconds
};

}  // namespace

double
TraceFold::bench_covered_ms() const
{
    std::vector<std::pair<double, double>> spans = bench_spans_;
    std::sort(spans.begin(), spans.end());
    double covered_us = 0, start = 0, end = 0;
    bool open = false;
    for (const auto& [s, e] : spans) {
        if (open && s <= end) {
            end = std::max(end, e);
            continue;
        }
        if (open)
            covered_us += end - start;
        start = s;
        end = e;
        open = true;
    }
    if (open)
        covered_us += end - start;
    return covered_us / 1e3;
}

void
TraceFold::absorb(const std::string& json)
{
    size_t at = json.find("\"traceEvents\":[");
    if (at == std::string::npos)
        throw std::runtime_error("trace json: no traceEvents");
    JsonReader r(json);
    r.seek(at + std::string("\"traceEvents\":").size());
    r.expect('[');
    std::map<uint32_t, std::vector<Event>> per_tid;
    bool first = true;
    while (!r.peek(']')) {
        if (!first)
            r.expect(',');
        first = false;
        r.expect('{');
        Event e;
        bool efirst = true;
        while (!r.peek('}')) {
            if (!efirst)
                r.expect(',');
            efirst = false;
            std::string key = r.str();
            r.expect(':');
            if (key == "name")
                e.name = r.str();
            else if (key == "tid")
                e.tid = static_cast<uint32_t>(r.number());
            else if (key == "ts")
                e.ts = r.number();
            else if (key == "dur")
                e.dur = r.number();
            else
                r.skip();
        }
        r.expect('}');
        per_tid[e.tid].push_back(std::move(e));
    }

    // trace_json sorts by start time, parents before children, so one
    // stack per thread recovers the nesting.
    const double eps = 1e-3;  // the export's microsecond rounding
    for (const auto& thread : per_tid) {
        const std::vector<Event>& events = thread.second;
        std::vector<double> child_us(events.size(), 0.0);
        std::vector<size_t> stack;
        for (size_t i = 0; i < events.size(); i++) {
            const Event& e = events[i];
            while (!stack.empty()) {
                const Event& top = events[stack.back()];
                if (e.ts >= top.ts + top.dur - eps)
                    stack.pop_back();
                else
                    break;
            }
            if (!stack.empty()) {
                const Event& top = events[stack.back()];
                child_us[stack.back()] +=
                    std::min(e.ts + e.dur, top.ts + top.dur) - e.ts;
            } else if (e.name.rfind("bench.", 0) == 0) {
                bench_spans_.push_back({e.ts, e.ts + e.dur});
            }
            stack.push_back(i);
        }
        for (size_t i = 0; i < events.size(); i++) {
            Entry& en = by_name_[events[i].name];
            en.self_ms += std::max(0.0, events[i].dur - child_us[i]) / 1e3;
            en.count += 1;
        }
    }
}

}  // namespace perfbench
