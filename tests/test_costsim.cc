/**
 * @file
 * Cost-simulator tests: cycle accounting, cache behaviour (locality is
 * rewarded), instruction costs, and the relative-performance
 * properties the benchmark figures rely on.
 */

#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/interp/interp.h"
#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/machine/cost_sim.h"
#include "src/machine/machine.h"
#include "src/sched/blas.h"

namespace exo2 {
namespace {

/** `p` with its last statement, a call, passing `nargs` arguments
 *  (cycling through the original ones): a call the parser rejects. */
ProcPtr
with_call_arity(const ProcPtr& p, size_t nargs)
{
    std::vector<StmtPtr> body = p->body_stmts();
    const StmtPtr call = body.back();
    std::vector<ExprPtr> args;
    for (size_t i = 0; i < nargs; i++)
        args.push_back(call->args()[i % call->args().size()]);
    body.back() = call->with_args(std::move(args));
    return Proc::make(p->name(), p->args(), p->preds(), std::move(body));
}

TEST(CostSim, CallArityMismatchIsAnInternalErrorInBothDomains)
{
    ProcPtr g = parse_proc(R"(
def g(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = 0.0
)");
    ProcPtr f = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    g(n, x)
)",
                           {g});
    // An instruction callee takes the simulator's pricing path.
    ProcPtr ld = machine_avx2().instrs(ScalarType::F32).load;
    ProcPtr h = parse_proc(R"(
def h(x: f32[8] @ DRAM):
    v: f32[8] @ AVX2
    )" + ld->name() + R"((v[0:8], x[0:8]))",
                           {ld});
    for (size_t nargs : {size_t{1}, size_t{3}}) {
        ProcPtr bad_f = with_call_arity(f, nargs);
        ProcPtr bad_h = with_call_arity(h, nargs);
        EXPECT_THROW(simulate_cost_named(bad_f, {{"n", 8}}), InternalError);
        EXPECT_THROW(simulate_cost_named(bad_h, {}), InternalError);
        Buffer x(ScalarType::F32, {8});
        EXPECT_THROW(interp_run(bad_f, {RunArg::make_size(8),
                                        RunArg::make_buffer(&x)}),
                     InternalError);
    }
}

TEST(CostSim, CountsLoopWork)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
)");
    CostConfig cfg;
    cfg.warm = false;
    CostResult r = simulate_cost_named(p, {{"n", 100}}, cfg);
    EXPECT_EQ(r.dram_accesses, 100);
    EXPECT_GE(r.cycles, 200.0);  // 100 iters * (loop + op)
    // Cycles scale linearly.
    CostResult r2 = simulate_cost_named(p, {{"n", 200}}, cfg);
    EXPECT_NEAR(r2.cycles / r.cycles, 2.0, 0.3);
}

TEST(CostSim, CacheRewardsLocality)
{
    // Strided column walk misses far more than a row walk.
    ProcPtr rowwise = parse_proc(R"(
def f(n: size, A: f32[n, n] @ DRAM, x: f32[1] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[0] += A[i, j]
)");
    ProcPtr colwise = parse_proc(R"(
def f(n: size, A: f32[n, n] @ DRAM, x: f32[1] @ DRAM):
    for j in seq(0, n):
        for i in seq(0, n):
            x[0] += A[i, j]
)");
    CostConfig cfg;
    cfg.warm = false;
    CostResult row = simulate_cost_named(rowwise, {{"n", 512}}, cfg);
    CostResult col = simulate_cost_named(colwise, {{"n", 512}}, cfg);
    EXPECT_GT(col.l1_misses, row.l1_misses * 4);
    EXPECT_GT(col.cycles, row.cycles);
}

TEST(CostSim, WarmRunsFasterThanCold)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[1] @ DRAM):
    for i in seq(0, n):
        y[0] += x[i]
)");
    CostConfig cold;
    cold.warm = false;
    CostConfig warm;
    warm.warm = true;
    double c = simulate_cost_named(p, {{"n", 1024}}, cold).cycles;
    double w = simulate_cost_named(p, {{"n", 1024}}, warm).cycles;
    EXPECT_LT(w, c);
}

TEST(CostSim, VectorizationPaysOff)
{
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 4);
    double naive = simulate_cost_named(k.proc, {{"n", 4096}}).cycles;
    double fast = simulate_cost_named(opt, {{"n", 4096}}).cycles;
    // AVX2 f32: 8 lanes; expect a healthy speedup (amortized by memory).
    EXPECT_GT(naive / fast, 3.0);
    EXPECT_LT(naive / fast, 32.0);
}

TEST(CostSim, MaskedArithmeticPricedByPredicationSupport)
{
    // AVX2 has no predicated ALU: masked arithmetic is emulated by
    // blending and must cost more than the unmasked form. AVX-512
    // executes masked arithmetic natively, so only the two-sided
    // (range) masks pay — one extra mask-register compare, which AVX2
    // pays on top of the blend.
    for (ScalarType t : {ScalarType::F32, ScalarType::F64}) {
        const VecInstrSet& a2 = machine_avx2().instrs(t);
        const VecInstrSet& a5 = machine_avx512().instrs(t);
        EXPECT_FALSE(machine_avx2().has_predicated_alu());
        EXPECT_TRUE(machine_avx512().has_predicated_alu());

        EXPECT_GT(a2.m_add->instr()->cycles, a2.add->instr()->cycles);
        EXPECT_GT(a2.m_fma->instr()->cycles, a2.fma->instr()->cycles);
        EXPECT_GT(a2.r_add->instr()->cycles, a2.m_add->instr()->cycles);

        EXPECT_EQ(a5.m_add->instr()->cycles, a5.add->instr()->cycles);
        EXPECT_EQ(a5.m_fma->instr()->cycles, a5.fma->instr()->cycles);
        EXPECT_GT(a5.r_add->instr()->cycles, a5.m_add->instr()->cycles);

        // The emulation penalty is what separates the two machines.
        EXPECT_GT(a2.m_mul->instr()->cycles, a5.m_mul->instr()->cycles);

        // Masked loads/stores are native on both (vmaskmov / k-masks):
        // no blend penalty, range forms still pay the extra compare.
        EXPECT_EQ(a2.load_pred->instr()->cycles,
                  a5.load_pred->instr()->cycles);
        EXPECT_GT(a2.r_load->instr()->cycles,
                  a2.load_pred->instr()->cycles);
    }
}

TEST(CostSim, MaskedTailCheaperOnPredicatedAluMachine)
{
    // End-to-end: a ragged saxpy tail runs masked instructions every
    // iteration; with identical cache behaviour the blend-emulating
    // machine must simulate slower per masked op. Compare the masked
    // instruction cost contribution directly via a tiny all-masked
    // schedule (n < vector width forces the masked path to do all the
    // work).
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr a2 = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 1);
    ProcPtr a5 = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx512(), 1);
    CostConfig cfg;
    cfg.warm = false;
    double c2 = simulate_cost_named(a2, {{"n", 5}}, cfg).cycles;
    double c5 = simulate_cost_named(a5, {{"n", 5}}, cfg).cycles;
    EXPECT_GT(c2, c5);
}

TEST(CostSim, DispatchOverheadOnlyMattersWhenSmall)
{
    const auto& k = kernels::find_kernel("scopy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 4);
    CostConfig with;
    with.dispatch_cycles = 30;
    CostConfig without;
    double small_ratio =
        simulate_cost_named(opt, {{"n", 4}}, with).cycles /
        simulate_cost_named(opt, {{"n", 4}}, without).cycles;
    double big_ratio =
        simulate_cost_named(opt, {{"n", 100000}}, with).cycles /
        simulate_cost_named(opt, {{"n", 100000}}, without).cycles;
    EXPECT_GT(small_ratio, 1.5);
    EXPECT_LT(big_ratio, 1.01);
}

}  // namespace
}  // namespace exo2
