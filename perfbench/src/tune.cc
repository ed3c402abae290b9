/**
 * @file
 * Workload `tune`: autotune five kernels from their naive form with the
 * cost model only (no JIT re-ranking), tri-oracle validation on and the
 * persistent cache off. Search time is dominated by many short, distinct
 * cost simulations. One operation is one kernel's tune; one pass is the
 * five-kernel sweep.
 */

#include "harness.h"
#include "src/frontend/parser.h"
#include "src/ir/printer.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/cost_sim.h"
#include "src/machine/machine.h"
#include "src/tune/tune.h"

namespace perfbench {
namespace {

using namespace exo2;

struct Case
{
    std::string name;
    std::string text;  ///< naive kernel source
    ProcPtr naive;
    tune::TuneOpts opts;
    double naive_cycles = 0;  ///< the cost model's figure for `naive`
};

class Tune : public Workload
{
  public:
    explicit Tune(const Options& o) : opt_(o) {}

    void setup() override
    {
        // Set-up parses the naive kernels and simulates them at their tune
        // sizes: the baseline each winner's naive cost is checked against.
        clear_engine_caches();
        cases_.clear();
        auto add = [&](const std::string& name, const ProcPtr& p,
                       verify::SizeEnv sizes) {
            Case c;
            c.name = name;
            c.text = print_proc(p);
            c.naive = parse_proc(c.text);
            c.opts.tune_sizes = std::move(sizes);
            c.opts.jit_topk = 0;
            c.opts.validate = true;
            c.opts.use_cache = false;
            // The seed sets the oracle inputs of the winner's validation.
            // The sweep order stays fixed: heap growth, and so peak RSS,
            // depends on it.
            c.opts.validate_seed = opt_.seed * 7919 + cases_.size();
            c.naive_cycles = simulate_cost_named(c.naive, c.opts.tune_sizes,
                                                 c.opts.cost).cycles;
            cases_.push_back(std::move(c));
            return &cases_.back();  // valid until the next add()
        };
        add("saxpy", kernels::find_kernel("saxpy").proc, {{"n", 2048}});
        add("sdot", kernels::find_kernel("sdot").proc, {{"n", 2048}});
        add("sgemv_n", kernels::find_kernel("sgemv_n").proc,
            {{"M", 96}, {"N", 96}});
        add("sgemm", kernels::sgemm(), {{"M", 16}, {"N", 16}, {"K", 16}});
        Case* blur = add("blur", kernels::blur(), {{"H", 32}, {"W", 256}});
        blur->opts.beam_width = 3;
        blur->opts.max_rounds = 4;

        winners_.assign(cases_.size(), 0);
    }

    void pass(Meter& m) override
    {
        for (size_t i = 0; i < cases_.size(); i++) {
            const Case& c = cases_[i];
            tune::TuneResult r;
            double ms = m.op(c.name, [&] {
                // Each tune starts cold, as a one-kernel tuning run does.
                clear_engine_caches();
                EngineDelta delta;
                r = m.layer("tune.ms", nullptr, "bench.tune", [&] {
                    return tune::autotune(c.naive, machine_avx2(), c.opts);
                });
                delta.add_to(m);
                check(m, c, r, &winners_[i]);
            });
            const tune::TuneStats& st = r.stats;
            m.add("tune.states_scored", st.states_scored);
            m.add("tune.actions_enumerated", st.actions_enumerated);
            m.add("tune.dedup_skips", st.dedup_skips);
            m.add("tune.validate_rejects", st.validate_rejects);
            if (r.cost > 0)
                m.sample("tune_cost_ratio", r.naive_cost / r.cost);
            print_row("tune", c.name,
                      {{"tune_s", ms / 1e3},
                       {"naive_cycles", r.naive_cost},
                       {"winner_cycles", r.cost},
                       {"states_scored", static_cast<double>(st.states_scored)},
                       {"script_steps", static_cast<double>(r.script.size())}});
        }
    }

    std::map<std::string, double> detail(const Meter& m, int passes) const override
    {
        double total_ms = 0;
        for (double x : m.op_ms())
            total_ms += x;
        return {{"tune_s", total_ms / 1e3 / passes},
                {"tune_cost_ratio", geomean(m.samples("tune_cost_ratio"))}};
    }

  private:
    /** The winner must be validated, better than naive, replay from its
     *  script to the same proc, and be the same in every pass. */
    static void check(Meter& m, const Case& c, const tune::TuneResult& r,
                      uint64_t* first_digest)
    {
        if (!r.validated)
            m.fail(c.name, "winner not validated by the tri-oracle");
        if (r.degraded || r.from_cache)
            m.fail(c.name, "degraded or cached result from a cold full search");
        if (r.naive_cost != c.naive_cycles)
            m.fail(c.name, "naive cost differs from the set-up baseline");
        if (!(r.cost > 0 && r.cost <= r.naive_cost))
            m.fail(c.name, "winner costs more than the naive kernel");
        uint64_t digest = proc_digest(r.best);
        if (proc_digest(tune::replay_script(c.naive, r.script)) != digest)
            m.fail(c.name, "replaying the winner's script gives another proc");
        if (*first_digest == 0)
            *first_digest = digest;
        else if (*first_digest != digest)
            m.fail(c.name, "winner differs from the first pass");
    }

    Options opt_;
    std::vector<Case> cases_;
    std::vector<uint64_t> winners_;
};

}  // namespace

std::unique_ptr<Workload>
make_tune(const Options& o)
{
    return std::make_unique<Tune>(o);
}

}  // namespace perfbench
