#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/**
 * @file
 * Shared pieces of the benchmark harness: the per-run accounting
 * (`Meter`), the workload interface, the span folding of the traced
 * run, and small statistics / JSON helpers.
 *
 * Every layer is measured from outside: the harness times its own calls
 * into each module's public functions (and opens a `bench.*` span
 * around each call, so the traced run attributes them too), and reads
 * the modules' public stats accessors. It adds nothing to src/.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

/** Seconds on the steady clock. */
inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolation quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}
/** Geometric mean of positive values; 0 for no samples. */
double geomean(const std::vector<double>& v);

/** `%.17g` rendering: values are printed with all their digits. */
std::string num(double v);
/** JSON string literal (quotes included). */
std::string quote(const std::string& s);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory inside the checkout (serve caches, sockets). */
    std::string workdir = ".bench_build/run";
};

/** Folds Chrome trace-event JSON (obs::trace_json output) into
 *  self-time and count per span name. A span's self time is its
 *  duration minus the part of it its child spans on the same thread
 *  cover. */
class TraceFold
{
  public:
    struct Entry
    {
        double self_ms = 0;
        double count = 0;
    };

    /** Fold one trace_json() document. */
    void absorb(const std::string& json);

    const std::map<std::string, Entry>& by_name() const { return by_name_; }
    /** Wall time during which at least one top-level `bench.*` span (a
     *  layer call of the harness, on any thread) was open. */
    double bench_covered_ms() const;

  private:
    std::map<std::string, Entry> by_name_;
    /** [start, end) of every top-level `bench.*` span, microseconds. */
    std::vector<std::pair<double, double>> bench_spans_;
};

/**
 * Accounting for one measured phase: operation latencies, attempted
 * and failed operations, additive per-layer counters and samples.
 */
class Meter
{
  public:
    /** Run one operation: times it, counts it as attempted, and counts
     *  it as failed when it throws or reported a failure through
     *  fail(). Returns the operation's wall time in ms. */
    template <typename F>
    double op(const std::string& what, F&& body);

    /** Count an operation timed elsewhere (e.g. on a client thread). */
    void record(double ms, bool ok);

    /** Record a violated correctness check of the current operation
     *  (also usable outside op() for checks that span operations). */
    void fail(const std::string& what, const std::string& why);

    /** Time one call into a layer: adds its wall time to `ms_key`,
     *  one to `calls_key` (if non-null), and records a `span` in the
     *  traced phase. `span` must be a string literal. */
    template <typename F>
    auto layer(const char* ms_key, const char* calls_key, const char* span,
               F&& call) -> decltype(call());

    void add(const std::string& key, double v) { counts_[key] += v; }
    double count(const std::string& key) const;
    /** Per-event samples (quantiles and geometric means). */
    void sample(const std::string& key, double v) { samples_[key].push_back(v); }
    std::vector<double> samples(const std::string& key) const;

    const std::vector<double>& op_ms() const { return op_ms_; }
    int attempted() const { return attempted_; }
    int failed() const { return failed_; }

  private:
    std::vector<double> op_ms_;
    int attempted_ = 0;
    int failed_ = 0;
    bool op_failed_ = false;
    std::map<std::string, double> counts_;
    std::map<std::string, std::vector<double>> samples_;
};

/** A workload: repeatable set-up plus whole passes over its inputs. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the inputs from the seed. Timed and repeated; each call
     *  must leave the workload ready for a fresh measured phase. */
    virtual void setup() = 0;
    /** One full pass over the inputs. The harness repeats passes until
     *  the run's seconds are used (at least one pass). */
    virtual void pass(Meter& m) = 0;
    /** Workload-level aggregates under workload-specific names
     *  (sched_ms_p50, tune_s, gflops_geomean, ...). */
    virtual std::map<std::string, double> detail(const Meter& m,
                                                 int passes) const = 0;
    /** Effective configuration entries specific to the workload. */
    virtual std::map<std::string, std::string> config() const { return {}; }
};

std::unique_ptr<Workload> make_corpus(const Options& o);
std::unique_ptr<Workload> make_tune(const Options& o);
std::unique_ptr<Workload> make_native(const Options& o);
std::unique_ptr<Workload> make_serve(const Options& o);

/** Adds the engine's stats-accessor deltas since construction to a
 *  Meter: analysis memo, cursor forwarding, cost-simulation memo and
 *  the persistent caches (`memo.hits`, `cost_sim.calls`, ...). */
class EngineDelta
{
  public:
    EngineDelta();
    void add_to(Meter& m) const;

  private:
    std::map<std::string, double> at_start_;
};

/** Drop the engine's process-global memo caches (analysis, cursor
 *  acceleration, cost simulation) so an operation starts cold. */
void clear_engine_caches();

/** Print one per-kernel row (a JSON line on stdout). */
void print_row(const std::string& workload, const std::string& kernel,
               const std::map<std::string, double>& values);

// -- Template definitions ------------------------------------------------

template <typename F>
double
Meter::op(const std::string& what, F&& body)
{
    double t0 = now_s();
    op_failed_ = false;
    try {
        body();
    } catch (const std::exception& e) {
        fail(what, e.what());
    }
    double ms = (now_s() - t0) * 1e3;
    record(ms, !op_failed_);
    return ms;
}

template <typename F>
auto
Meter::layer(const char* ms_key, const char* calls_key, const char* span,
             F&& call) -> decltype(call())
{
    struct Charge
    {
        Meter* m;
        const char* ms_key;
        const char* calls_key;
        double t0 = now_s();
        ~Charge()
        {
            m->counts_[ms_key] += (now_s() - t0) * 1e3;
            if (calls_key)
                m->counts_[calls_key] += 1;
        }
    };
    exo2::obs::Span s;
    if (exo2::obs::trace_enabled())
        s.begin(span);
    Charge c{this, ms_key, calls_key};
    return call();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
