/**
 * @file
 * Workload `native`: fourteen hand-scheduled kernels are built to native
 * code with the in-process JIT (`CompiledProc`, cold: no compile cache),
 * tri-oracle-checked at small sizes, checked once more against the
 * interpreter on the very binary that is timed, and then timed at bench
 * sizes. The C compiler, the interpreter and the generated code dominate;
 * scheduling happens in set-up and nothing is cost-simulated. One
 * operation is one kernel; one pass is all fourteen.
 */

#include <cmath>
#include <cstdlib>
#include <set>

#include "harness.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/machine.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/util/rng.h"
#include "src/verify/verify.h"

namespace perfbench {
namespace {

using namespace exo2;
using verify::CompiledProc;
using verify::NativeIsa;
using verify::OracleInputs;
using verify::SizeEnv;

/** Calibrated timings per kernel; the kernel's figure is their median. */
constexpr int kTimings = 5;
constexpr double kTimingSeconds = 0.02;

struct Kernel
{
    std::string name;
    ProcPtr naive, scheduled;
    SizeEnv check_env, bench_env;
    double flops = 0;  ///< useful floating-point operations per call
    std::unique_ptr<OracleInputs> bench_inputs;
    uint64_t seed = 0;
};

NativeIsa
best_isa()
{
    for (NativeIsa isa : {NativeIsa::Avx512, NativeIsa::Avx2})
        if (verify::cjit_cpu_supports(isa))
            return isa;
    return NativeIsa::Scalar;
}

/** Outputs of two runs agree within the oracle's float tolerance
 *  (schedules reassociate reductions; the interpreter computes f32 in
 *  double precision). */
bool
same_outputs(const OracleInputs& a, const OracleInputs& b, std::string* why)
{
    for (size_t i = 0; i < a.buffers.size(); i++) {
        const Buffer& x = *a.buffers[i];
        const Buffer& y = *b.buffers[i];
        for (int64_t j = 0; j < x.size(); j++) {
            double tol = 1e-3 * (1.0 + std::fabs(y.at(j)));
            if (!(std::fabs(x.at(j) - y.at(j)) <= tol)) {
                *why = "buffer " + std::to_string(i) + "[" + std::to_string(j) +
                       "]: native " + num(x.at(j)) + " vs interpreter " +
                       num(y.at(j));
                return false;
            }
        }
    }
    return true;
}

class Native : public Workload
{
  public:
    explicit Native(const Options& o)
        : opt_(o), isa_(best_isa()),
          machine_(isa_ == NativeIsa::Avx512 ? &machine_avx512() : &machine_avx2())
    {
        // The tri-oracle's own JIT build follows EXO2_NATIVE_ISA: make it
        // check the same instruction lowering that is timed.
        setenv("EXO2_NATIVE_ISA", verify::native_isa_name(isa_), 1);
    }

    void setup() override
    {
        kernels_.clear();
        const Machine& m = *machine_;
        const int64_t n = 1 << 16;
        for (const char* name : {"saxpy", "daxpy", "sdot", "ddot", "sasum",
                                 "dasum", "sscal", "dscal"}) {
            const auto& k = kernels::find_kernel(name);
            bool scal = std::string(name).find("scal") != std::string::npos;
            add(name, k.proc,
                sched::optimize_level_1(k.proc, k.proc->find_loop(k.main_loop),
                                        k.prec, m, 4),
                {{"n", 1003}}, {{"n", n}}, (scal ? 1.0 : 2.0) * n);
        }
        for (const char* name : {"sgemv_n", "sgemv_t", "sger"}) {
            const auto& k = kernels::find_kernel(name);
            add(name, k.proc,
                sched::optimize_level_2_general(
                    k.proc, k.proc->find_loop(k.main_loop), k.prec, m, 2, 2),
                {{"M", 45}, {"N", 45}}, {{"M", 512}, {"N", 512}},
                2.0 * 512 * 512);
        }
        ProcPtr gemm = sched::sgemm_with_asserts(kernels::sgemm(), m);
        add("sgemm", gemm, sched::schedule_sgemm(gemm, m),
            {{"M", 8}, {"N", 64}, {"K", 8}}, {{"M", 192}, {"N", 192}, {"K", 192}},
            2.0 * 192 * 192 * 192);
        const double H = 64, W = 512;
        add("blur", kernels::blur(),
            sched::schedule_blur_like_halide(kernels::blur(), m),
            {{"H", 32}, {"W", 256}}, {{"H", 64}, {"W", 512}},
            3.0 * ((H + 2) * W + H * W));
        add("unsharp", kernels::unsharp(),
            sched::schedule_unsharp_like_halide(kernels::unsharp(), m),
            {{"H", 32}, {"W", 256}}, {{"H", 64}, {"W", 512}},
            3.0 * ((H + 2) * W + H * W) + 2.0 * H * W);

        XorShiftRng rng(opt_.seed);  // the seed sets order and oracle inputs
        for (size_t i = kernels_.size(); i > 1; i--)
            std::swap(kernels_[i - 1], kernels_[rng.below(i)]);
        for (Kernel& k : kernels_)
            k.seed = rng.next() >> 1;
    }

    void pass(Meter& m) override
    {
        for (Kernel& k : kernels_) {
            double build_ms = 0, verify_ms = 0, gflops = 0;
            m.op(k.name, [&] { run_one(m, k, &build_ms, &verify_ms, &gflops); });
            print_row("native", k.name,
                      {{"gflops", gflops}, {"build_ms", build_ms},
                       {"verify_ms", verify_ms}});
        }
    }

    std::map<std::string, double> detail(const Meter& m, int) const override
    {
        return {{"compile_ms_p50", median(m.samples("compile_ms"))},
                {"verify_ms_p50", median(m.samples("verify_ms"))},
                {"gflops_geomean", geomean(m.samples("gflops"))}};
    }

    std::map<std::string, std::string> config() const override
    {
        std::string used;
        for (const std::string& isa : used_isas_)
            used += (used.empty() ? "" : ",") + isa;
        return {{"isa_requested", verify::native_isa_name(isa_)},
                {"isa_used", used.empty() ? "none" : used},
                {"machine", machine_->name()}};
    }

  private:
    void add(const std::string& name, const ProcPtr& naive, const ProcPtr& sched,
             SizeEnv check_env, SizeEnv bench_env, double flops)
    {
        Kernel k;
        k.name = name;
        k.naive = naive;
        k.scheduled = sched;
        k.check_env = std::move(check_env);
        k.bench_env = std::move(bench_env);
        k.flops = flops;
        k.bench_inputs = std::make_unique<OracleInputs>(
            verify::make_inputs(naive, k.bench_env, 4242));
        // Iterated in-place kernels (xscal: x *= a every call) would
        // drift into denormals with |a| < 1; pin scalars to 1.
        for (RunArg& a : k.bench_inputs->args)
            if (a.kind == RunArg::Kind::Scalar)
                a.scalar = 1.0;
        kernels_.push_back(std::move(k));
    }

    void run_one(Meter& m, const Kernel& k, double* build_ms, double* verify_ms,
                 double* gflops)
    {
        double t0 = now_s();
        auto cp = m.layer("cjit.build_ms", "cjit.builds", "bench.build", [&] {
            return std::make_unique<CompiledProc>(k.scheduled, isa_);
        });
        *build_ms = (now_s() - t0) * 1e3;
        used_isas_.insert(verify::native_isa_name(cp->isa()));
        m.sample("compile_ms", *build_ms);

        t0 = now_s();
        verify::TriOracleReport rep =
            m.layer("oracle.ms", nullptr, "bench.oracle", [&] {
                return verify::tri_oracle_check(k.naive, k.scheduled,
                                                k.check_env, k.seed);
            });
        *verify_ms = (now_s() - t0) * 1e3;
        m.sample("verify_ms", *verify_ms);
        if (!rep.ok) {
            m.add("oracle.failures", 1);
            m.fail(k.name, "tri-oracle: " + rep.detail);
            return;  // the in-process runs below trust the kernel
        }

        // The binary that is timed must itself agree with the reference
        // interpreter on the unscheduled kernel.
        OracleInputs native_in = verify::make_inputs(k.naive, k.check_env, k.seed + 1);
        OracleInputs ref_in = verify::make_inputs(k.naive, k.check_env, k.seed + 1);
        cp->run(native_in.args);
        m.layer("interp.ms", "interp.calls", "bench.interp", [&] {
            interp_run(k.naive, ref_in.args);
            return 0;
        });
        std::string why;
        if (!same_outputs(native_in, ref_in, &why))
            m.fail(k.name, "native vs interpreter: " + why);

        std::vector<double> g;
        m.layer("time.ms", nullptr, "bench.time", [&] {
            for (int r = 0; r < kTimings; r++) {
                double s = cp->time_per_call(k.bench_inputs->args, kTimingSeconds);
                g.push_back(k.flops / s / 1e9);
            }
            return 0;
        });
        *gflops = median(g);
        m.sample("gflops", *gflops);
    }

    Options opt_;
    NativeIsa isa_;
    const Machine* machine_;
    std::vector<Kernel> kernels_;
    std::set<std::string> used_isas_;  ///< after any downgrade
};

}  // namespace

std::unique_ptr<Workload>
make_native(const Options& o)
{
    return std::make_unique<Native>(o);
}

}  // namespace perfbench
