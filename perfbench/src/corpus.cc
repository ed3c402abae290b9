/**
 * @file
 * Workload `corpus`: parse, schedule, lint, emit C for and cost-simulate
 * every kernel of the paper's corpus with the user-level scheduling
 * libraries of src/sched/ — the paper's central use, one library over
 * about 80 kernels. One operation is one (kernel, machine) pair.
 */

#include <algorithm>

#include "harness.h"
#include "src/baselines/baselines.h"
#include "src/codegen/c_codegen.h"
#include "src/frontend/parser.h"
#include "src/ir/printer.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/lint/lint.h"
#include "src/machine/cost_sim.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/gemmini_lib.h"
#include "src/sched/halide.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace exo2;
using Sizes = std::map<std::string, int64_t>;

enum class Kind { Level1, Level2, Sgemm, Blur, Unsharp, Gemmini };

struct Entry
{
    std::string name;  ///< "<kernel>@<machine>"
    Kind kind;
    std::string text;  ///< printed source the operation parses
    ScalarType prec = ScalarType::F32;
    std::string main_loop;
    const Machine* machine = nullptr;
    CostConfig cost;
    Sizes small, large;  ///< the two cost-simulated size buckets
    double naive_small = 0;  ///< unscheduled kernel's cycles at `small`
};

/** What an operation produced, to check later passes reproduce it. */
struct Output
{
    uint64_t digest = 0;
    int c_lines = 0;
    double small_cycles = 0, large_cycles = 0;
};

// The Exo 2 parameters of the BLAS library (baselines::RefLib::Exo2).
constexpr int kInterleave = 4;
constexpr int kRowFactor = 2;
constexpr int kColFactor = 2;

Sizes
level2_sizes(const ProcPtr& p, int64_t n)
{
    Sizes s;
    for (const char* arg : {"M", "N"}) {
        if (p->find_arg(arg))
            s[arg] = n;
    }
    return s;
}

int
nonempty_lines(const std::string& src)
{
    int n = 0;
    bool blank = true;
    for (char c : src) {
        if (c == '\n') {
            n += blank ? 0 : 1;
            blank = true;
        } else if (c != ' ' && c != '\t') {
            blank = false;
        }
    }
    return n + (blank ? 0 : 1);
}

class Corpus : public Workload
{
  public:
    explicit Corpus(const Options& o) : opt_(o) {}

    void setup() override
    {
        // Set-up prints every kernel and simulates it unscheduled at its
        // small bucket: the baseline of the library's simulated speedup.
        clear_engine_caches();
        entries_.clear();
        CostConfig exo2_cost = baselines::cost_config_for(baselines::RefLib::Exo2);
        const Machine* machines[] = {&machine_avx2(), &machine_avx512()};
        auto add = [&](const std::string& name, Kind kind, const ProcPtr& p,
                       const Machine* m) {
            Entry e;
            e.name = name + "@" + (m ? m->name() : "gemmini");
            e.kind = kind;
            e.text = print_proc(p);
            e.machine = m;
            e.cost = exo2_cost;
            entries_.push_back(std::move(e));
            return &entries_.back();  // valid until the next add()
        };
        for (const Machine* m : machines) {
            for (const auto& k : kernels::blas_level1()) {
                Entry* e = add(k.name, Kind::Level1, k.proc, m);
                e->prec = k.prec;
                e->main_loop = k.main_loop;
                e->small = {{"n", 16}};
                e->large = {{"n", 4096}};
            }
            for (const auto& k : kernels::blas_level2()) {
                Entry* e = add(k.name, Kind::Level2, k.proc, m);
                e->prec = k.prec;
                e->main_loop = k.main_loop;
                e->small = level2_sizes(k.proc, 10);
                e->large = level2_sizes(k.proc, 100);
            }
            Entry* g = add("sgemm", Kind::Sgemm, kernels::sgemm(), m);
            g->small = {{"M", 32}, {"N", 32}, {"K", 32}};
            g->large = {{"M", 64}, {"N", 64}, {"K", 64}};
            for (Kind kind : {Kind::Blur, Kind::Unsharp}) {
                Entry* b = kind == Kind::Blur
                               ? add("blur", kind, kernels::blur(), m)
                               : add("unsharp", kind, kernels::unsharp(), m);
                b->small = {{"H", 32}, {"W", 256}};
                b->large = {{"H", 64}, {"W", 512}};
            }
        }
        Entry* gm = add("gemmini_matmul", Kind::Gemmini,
                        sched::gemmini_matmul_kernel(), nullptr);
        gm->cost.host_penalty = 8.0;  // the Gemmini host CPU
        gm->small = {{"N", 16}, {"M", 16}};
        gm->large = {{"N", 64}, {"M", 64}};
        for (Entry& e : entries_)
            e.naive_small =
                simulate_cost_named(parse_proc(e.text), e.small, e.cost).cycles;

        // The seed sets the corpus order.
        XorShiftRng rng(opt_.seed);
        for (size_t i = entries_.size(); i > 1; i--)
            std::swap(entries_[i - 1], entries_[rng.below(i)]);
        outputs_.assign(entries_.size(), Output{});
    }

    void pass(Meter& m) override
    {
        // One pass is one library run over the corpus: memo caches start
        // cold and warm up across the kernels of the pass.
        clear_engine_caches();
        EngineDelta delta;
        for (size_t i = 0; i < entries_.size(); i++)
            m.op(entries_[i].name, [&] { run_one(m, entries_[i], &outputs_[i]); });
        delta.add_to(m);
    }

    std::map<std::string, double> detail(const Meter& m, int) const override
    {
        std::vector<double> ms = m.samples("sched_ms");
        double total_s = 0;
        for (double x : m.op_ms())
            total_s += x / 1e3;
        return {{"corpus_kernels_per_s", m.attempted() / total_s},
                {"sched_ms_p50", quantile(ms, 0.5)},
                {"sched_ms_p90", quantile(ms, 0.9)},
                {"corpus_sim_speedup", geomean(m.samples("sim_speedup"))}};
    }

  private:
    ProcPtr schedule(const Entry& e, const ProcPtr& p) const
    {
        switch (e.kind) {
          case Kind::Level1:
            return sched::optimize_level_1(p, p->find_loop(e.main_loop), e.prec,
                                           *e.machine, kInterleave, true);
          case Kind::Level2:
            return sched::optimize_level_2_general(
                p, p->find_loop(e.main_loop), e.prec, *e.machine, kRowFactor,
                kColFactor, true);
          case Kind::Sgemm:
            return sched::schedule_sgemm(
                sched::sgemm_with_asserts(p, *e.machine), *e.machine);
          case Kind::Blur:
            return sched::schedule_blur_like_halide(p, *e.machine);
          case Kind::Unsharp:
            return sched::schedule_unsharp_like_halide(p, *e.machine);
          case Kind::Gemmini:
            return sched::schedule_gemmini_matmul(p);
        }
        return p;
    }

    void run_one(Meter& m, const Entry& e, Output* first) const
    {
        double t0 = now_s();
        ProcPtr p = m.layer("frontend.parse_ms", "frontend.parse_calls",
                            "bench.parse", [&] { return parse_proc(e.text); });
        if (print_proc(p) != e.text)
            m.fail(e.name, "parsed proc does not print back to its source");
        ProcPtr s = m.layer("sched.ms", "sched.calls", "bench.sched",
                            [&] { return schedule(e, p); });
        lint::LintReport rep = m.layer("lint.ms", "lint.calls", "bench.lint",
                                       [&] { return lint::lint_proc(s); });
        size_t errors = rep.count(lint::Severity::Error);
        m.add("lint.errors", static_cast<double>(errors));
        if (errors > 0)
            m.fail(e.name, "lint Error findings: " + rep.to_text());
        std::string c = m.layer("codegen.ms", nullptr, "bench.codegen",
                                [&] { return codegen_c_unit(s); });
        m.sample("sched_ms", (now_s() - t0) * 1e3);

        Output out;
        out.digest = proc_digest(s);
        out.c_lines = nonempty_lines(c);
        m.add("codegen.c_lines", out.c_lines);
        auto sim = [&](const Sizes& sz) {
            return m.layer("cost_sim.ms", "cost_sim.bench_calls",
                           "bench.cost_sim", [&] {
                               return simulate_cost_named(s, sz, e.cost).cycles;
                           });
        };
        out.small_cycles = sim(e.small);
        out.large_cycles = sim(e.large);
        m.sample("sim_speedup", e.naive_small / out.small_cycles);
        if (!(out.small_cycles > 0 && out.large_cycles >= out.small_cycles))
            m.fail(e.name, "implausible simulated cycles");
        // Scheduling is deterministic: every pass must reproduce the
        // first pass's schedule, C and cycle counts.
        if (first->digest == 0) {
            *first = out;
        } else if (first->digest != out.digest || first->c_lines != out.c_lines ||
                   first->small_cycles != out.small_cycles ||
                   first->large_cycles != out.large_cycles) {
            m.fail(e.name, "result differs from the first pass");
        }
    }

    Options opt_;
    std::vector<Entry> entries_;
    std::vector<Output> outputs_;
};

}  // namespace

std::unique_ptr<Workload>
make_corpus(const Options& o)
{
    return std::make_unique<Corpus>(o);
}

}  // namespace perfbench
