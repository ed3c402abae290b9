/**
 * @file
 * perfbench: one seeded workload per run, measured end to end (untraced)
 * or layer by layer (traced).
 *
 *   perfbench --workload corpus|tune|native|serve --seed N --seconds S
 *             --trace 0|1 [--workdir DIR]
 *
 * Prints per-kernel rows, a `config` line (the effective configuration),
 * a `detail` line (workload aggregates) and, last, the result object
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end set; with --trace 1 the run measures once
 * untraced and once traced, and the metrics are the per-layer set of
 * the traced phase.
 * Normally started through perfbench/run.py, which builds this binary
 * and clears ambient EXO2_* configuration first.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>

#include "harness.h"
#include "src/cache/cache.h"
#include "src/verify/cjit.h"

using namespace perfbench;

namespace {

constexpr int kSetupReps = 9;
/** Per-thread span ring of the traced phase. A 10 s traced phase
 *  records well under 1e5 spans on any workload; `trace.dropped`
 *  reports it if a faster program ever wraps the ring. */
constexpr size_t kTraceRing = size_t{1} << 20;

double
peak_rss_mb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Phase
{
    double wall_s = 0;
    int passes = 0;
    /** Peak RSS once set-up and the first pass are done. Later passes
     *  can only raise it, and how many fit depends on speed, so the
     *  reading is taken where every run has done the same work. */
    double rss_mb = 0;
};

/** Whole passes until `seconds` are used; at least one. */
Phase
measure(Workload& w, Meter& m, double seconds)
{
    Phase ph;
    double t0 = now_s();
    do {
        double p0 = now_s();
        w.pass(m);
        if (ph.passes++ == 0)
            ph.rss_mb = peak_rss_mb();
        std::cerr << "perfbench: pass " << ph.passes << ": " << now_s() - p0
                  << " s\n";
    } while (now_s() - t0 < seconds);
    ph.wall_s = now_s() - t0;
    return ph;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

Metrics
end_to_end(const Meter& m, const Phase& ph, const std::vector<double>& setup_s)
{
    double ok = m.attempted() - m.failed();
    return {
        {"setup_s", {median(setup_s), "s"}},
        {"peak_rss_mb", {ph.rss_mb, "MB"}},
        {"ok_share", {ok / m.attempted(), "ok/op"}},
        {"op_ms_p50", {quantile(m.op_ms(), 0.5), "ms"}},
        {"ops_per_s", {m.attempted() / ph.wall_s, "1/s"}},
    };
}

/** How a per-layer metric is derived from a Meter. */
enum class How { PerOp, Ratio, P50, Geomean, Div };

struct LayerSpec
{
    const char* name;
    const char* unit;
    How how;
    const char* a;  ///< counter / sample key (Ratio: hits)
    const char* b;  ///< Ratio: misses; Div: denominator counter
};

// The per-layer metrics measured from outside (BENCHMARK.json
// per_layer, in order; the span folds follow them).
const LayerSpec kLayers[] = {
    {"frontend.parse_ms", "ms/op", How::PerOp, "frontend.parse_ms", nullptr},
    {"frontend.parse_calls", "count/op", How::PerOp, "frontend.parse_calls", nullptr},
    {"sched.ms", "ms/op", How::PerOp, "sched.ms", nullptr},
    {"sched.calls", "count/op", How::PerOp, "sched.calls", nullptr},
    {"analysis.memo_hit_ratio", "ratio", How::Ratio, "memo.hits", "memo.misses"},
    {"cursor.fwd_hit_ratio", "ratio", How::Ratio, "fwd.hits", "fwd.misses"},
    {"lint.ms", "ms/op", How::PerOp, "lint.ms", nullptr},
    {"lint.calls", "count/op", How::PerOp, "lint.calls", nullptr},
    {"lint.errors", "count/op", How::PerOp, "lint.errors", nullptr},
    {"codegen.ms", "ms/op", How::PerOp, "codegen.ms", nullptr},
    {"codegen.c_lines", "count/op", How::PerOp, "codegen.c_lines", nullptr},
    {"codegen.gflops_geomean", "GFLOP/s", How::Geomean, "gflops", nullptr},
    {"cost_sim.ms", "ms/op", How::PerOp, "cost_sim.ms", nullptr},
    {"cost_sim.calls", "count/op", How::PerOp, "cost_sim.calls", nullptr},
    {"cost_sim.ms_per_call", "ms", How::Div, "cost_sim.ms", "cost_sim.bench_calls"},
    {"cost_sim.hit_ratio", "ratio", How::Ratio, "cost_sim.hits", "cost_sim.misses"},
    {"tune.states_scored", "count/op", How::PerOp, "tune.states_scored", nullptr},
    {"tune.actions_enumerated", "count/op", How::PerOp, "tune.actions_enumerated", nullptr},
    {"tune.dedup_skips", "count/op", How::PerOp, "tune.dedup_skips", nullptr},
    {"tune.validate_rejects", "count/op", How::PerOp, "tune.validate_rejects", nullptr},
    {"tune.cost_ratio", "ratio", How::Geomean, "tune_cost_ratio", nullptr},
    {"cjit.build_ms", "ms/op", How::PerOp, "cjit.build_ms", nullptr},
    {"cjit.builds", "count/op", How::PerOp, "cjit.builds", nullptr},
    {"oracle.ms", "ms/op", How::PerOp, "oracle.ms", nullptr},
    {"oracle.failures", "count/op", How::PerOp, "oracle.failures", nullptr},
    {"interp.ms", "ms/op", How::PerOp, "interp.ms", nullptr},
    {"interp.calls", "count/op", How::PerOp, "interp.calls", nullptr},
    {"cache.tune_hit_ratio", "ratio", How::Ratio, "cache.tune_hits", "cache.tune_misses"},
    {"cache.jit_hit_ratio", "ratio", How::Ratio, "cache.jit_hits", "cache.jit_misses"},
    {"cache.tune_stores", "count/op", How::PerOp, "cache.tune_stores", nullptr},
    {"serve.queue_ms_p50", "ms", How::P50, "serve.queue_ms", nullptr},
    {"serve.search_ms", "ms/op", How::PerOp, "serve.search_ms", nullptr},
    {"serve.validate_ms", "ms/op", How::PerOp, "serve.validate_ms", nullptr},
    {"serve.rejected", "count/op", How::PerOp, "serve.rejected", nullptr},
    {"serve.degraded", "count/op", How::PerOp, "serve.degraded", nullptr},
};

// Program spans folded into span.<name>.self_ms / .count, then the
// harness's own spans around its layer calls.
const char* const kSpans[] = {
    "prim.apply",       "analysis.solve",   "lint.pass",
    "cost.simulate",    "tune.enumerate",   "cjit.codegen",
    "cjit.compile",     "cjit.dlopen",      "sandbox.run",
    "verify.tri_oracle", "cache.tune_probe", "cache.jit_probe",
    "serve.request",    "bench.parse",      "bench.sched",
    "bench.lint",       "bench.codegen",    "bench.cost_sim",
    "bench.tune",       "bench.build",      "bench.oracle",
    "bench.interp",     "bench.time",       "bench.request",
};

Metrics
per_layer(const Meter& m, const Phase& ph, const TraceFold& fold,
          double untraced_ms_per_op, uint64_t dropped)
{
    double ops = m.attempted();
    Metrics out;
    for (const LayerSpec& s : kLayers) {
        double v = 0;
        switch (s.how) {
          case How::PerOp:
            v = m.count(s.a) / ops;
            break;
          case How::Ratio: {
            double n = m.count(s.a) + m.count(s.b);
            v = n > 0 ? m.count(s.a) / n : 0;
            break;
          }
          case How::P50:
            v = median(m.samples(s.a));
            break;
          case How::Geomean:
            v = geomean(m.samples(s.a));
            break;
          case How::Div:
            v = m.count(s.b) > 0 ? m.count(s.a) / m.count(s.b) : 0;
            break;
        }
        out.push_back({s.name, {v, s.unit}});
    }
    for (const char* name : kSpans) {
        auto it = fold.by_name().find(name);
        TraceFold::Entry e = it == fold.by_name().end() ? TraceFold::Entry{}
                                                        : it->second;
        out.push_back({std::string("span.") + name + ".self_ms", {e.self_ms / ops, "ms/op"}});
        out.push_back({std::string("span.") + name + ".count", {e.count / ops, "count/op"}});
    }
    double wall_ms = ph.wall_s * 1e3;
    double traced_ms_per_op = wall_ms / ops;
    out.push_back({"trace.unattributed_ms",
                   {(wall_ms - fold.bench_covered_ms()) / ops, "ms/op"}});
    out.push_back({"trace.overhead_pct",
                   {(traced_ms_per_op / untraced_ms_per_op - 1) * 100, "%"}});
    out.push_back({"trace.dropped", {static_cast<double>(dropped), "count"}});
    return out;
}

std::string
metrics_json(const Metrics& ms)
{
    std::string s = "{";
    for (const auto& [name, vu] : ms) {
        if (s.size() > 1)
            s += ", ";
        s += quote(name) + ": {\"value\": " + num(vu.first) +
             ", \"unit\": " + quote(vu.second) + "}";
    }
    return s + "}";
}

[[noreturn]] void
usage(const char* why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload corpus|tune|native|serve "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n";
    std::exit(2);
}

Options
parse_args(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--workdir")
                o.workdir = v;
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.seconds <= 0)
        usage("--seconds must be positive");
    return o;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options o = parse_args(argc, argv);
    std::unique_ptr<Workload> w;
    if (o.workload == "corpus")
        w = make_corpus(o);
    else if (o.workload == "tune")
        w = make_tune(o);
    else if (o.workload == "native")
        w = make_native(o);
    else if (o.workload == "serve")
        w = make_serve(o);
    else
        usage("unknown workload");
    std::filesystem::create_directories(o.workdir);

    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; i++) {
        double t0 = now_s();
        w->setup();
        setup_s.push_back(now_s() - t0);
    }
    Meter m;
    Phase ph = measure(*w, m, o.seconds);
    int attempted = m.attempted();
    int failed = m.failed();

    Metrics metrics;
    if (o.trace) {
        w->setup();
        Meter tm;
        TraceFold fold;
        exo2::obs::trace_clear();
        exo2::obs::trace_start("", kTraceRing);
        Phase tph = measure(*w, tm, o.seconds);
        exo2::obs::trace_stop();
        fold.absorb(exo2::obs::trace_json());
        uint64_t dropped = exo2::obs::trace_dropped();
        exo2::obs::trace_clear();
        metrics = per_layer(tm, tph, fold, ph.wall_s * 1e3 / m.attempted(),
                            dropped);
        attempted += tm.attempted();
        failed += tm.failed();
    } else {
        metrics = end_to_end(m, ph, setup_s);
    }

    const char* cc = std::getenv("CC");
    std::map<std::string, std::string> cfg = {
        {"workload", o.workload},
        {"seed", std::to_string(o.seed)},
        {"seconds", num(o.seconds)},
        {"trace", o.trace ? "1" : "0"},
        {"passes", std::to_string(ph.passes)},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"cc", exo2::cache::compiler_identity(cc && *cc ? cc : "cc")},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"env_isa", exo2::verify::native_isa_name(exo2::verify::cjit_env_isa())},
    };
    for (const auto& [k, v] : w->config())
        cfg[k] = v;
    std::string line = "{\"config\": {";
    for (const auto& [k, v] : cfg)
        line += (line.back() == '{' ? "" : ", ") + quote(k) + ": " + quote(v);
    std::printf("%s}}\n", line.c_str());
    line = "{\"detail\": {";
    for (const auto& [k, v] : w->detail(m, ph.passes))
        line += (line.back() == '{' ? "" : ", ") + quote(k) + ": " + num(v);
    std::printf("%s}}\n", line.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metrics_json(metrics).c_str());
    std::fflush(stdout);
    return 0;
}
