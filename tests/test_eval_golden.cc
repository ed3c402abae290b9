/**
 * @file
 * Golden differential check for the two consumers of the IR evaluator:
 * the cost simulator and the reference interpreter.
 *
 * Every row pins, for one procedure at one small size, all six
 * CostResult fields of a warm and a cold simulation (exact `==`, also
 * on doubles) and a 64-bit digest of the interpreter's output bit
 * patterns on seeded inputs. The table was recorded before the two
 * tree walkers were merged into one, so any change in pricing, cache
 * traffic order, f32 rounding or control flow shows up as a mismatch.
 *
 * The procedures are the naive and sched/-scheduled forms of every
 * level-1 and level-2 BLAS kernel, SGEMM, blur, unsharp and the
 * Gemmini matmul, under the RefLib::Exo2 cost configuration on the
 * AVX2 and AVX512 machines (Gemmini with its 8x host penalty).
 *
 * To regenerate the table (only together with a kCostModelVersion bump
 * or an intended interpreter change):
 *   test_eval_golden --gtest_also_run_disabled_tests \
 *       --gtest_filter='EvalGolden.DISABLED_PrintTable'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/interp/interp.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/cost_sim.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/gemmini_lib.h"
#include "src/sched/halide.h"
#include "tests/test_support.h"

namespace exo2 {
namespace {

using Sizes = std::map<std::string, int64_t>;

struct Case
{
    std::string name;
    ProcPtr proc;
    Sizes sizes;
    CostConfig cost;
};

Sizes
level2_sizes(const ProcPtr& p)
{
    Sizes s;
    if (p->find_arg("M"))
        s["M"] = 13;
    if (p->find_arg("N"))
        s["N"] = 9;
    return s;
}

std::vector<Case>
golden_cases()
{
    const CostConfig exo2 =
        baselines::cost_config_for(baselines::RefLib::Exo2);
    const Machine* machines[] = {&machine_avx2(), &machine_avx512()};
    std::vector<Case> out;
    auto add = [&](std::string name, ProcPtr p, Sizes sizes) {
        out.push_back({std::move(name), std::move(p), std::move(sizes), exo2});
    };
    for (const auto& k : kernels::blas_level1()) {
        add(k.name, k.proc, {{"n", 37}});
        for (const Machine* m : machines) {
            add(k.name + "@" + m->name(),
                sched::optimize_level_1(k.proc, k.proc->find_loop(k.main_loop),
                                        k.prec, *m, 4, true),
                {{"n", 37}});
        }
    }
    for (const auto& k : kernels::blas_level2()) {
        add(k.name, k.proc, level2_sizes(k.proc));
        for (const Machine* m : machines) {
            add(k.name + "@" + m->name(),
                sched::optimize_level_2_general(
                    k.proc, k.proc->find_loop(k.main_loop), k.prec, *m, 2, 2,
                    true),
                level2_sizes(k.proc));
        }
    }
    const Sizes gemm = {{"M", 8}, {"N", 32}, {"K", 5}};
    const Sizes image = {{"H", 32}, {"W", 256}};
    add("sgemm", kernels::sgemm(), gemm);
    add("blur", kernels::blur(), image);
    add("unsharp", kernels::unsharp(), image);
    for (const Machine* m : machines) {
        add("sgemm@" + m->name(),
            sched::schedule_sgemm(
                sched::sgemm_with_asserts(kernels::sgemm(), *m), *m),
            gemm);
        add("blur@" + m->name(),
            sched::schedule_blur_like_halide(kernels::blur(), *m), image);
        add("unsharp@" + m->name(),
            sched::schedule_unsharp_like_halide(kernels::unsharp(), *m),
            image);
    }
    const Sizes gemmini = {{"N", 16}, {"M", 16}};
    ProcPtr mm = sched::gemmini_matmul_kernel();
    add("gemmini_matmul", mm, gemmini);
    add("gemmini_matmul@gemmini", sched::schedule_gemmini_matmul(mm), gemmini);
    for (Case& c : out) {
        if (c.name.rfind("gemmini", 0) == 0)
            c.cost.host_penalty = 8.0;
    }
    return out;
}

/** FNV-1a over the bit patterns of every element of every buffer. */
uint64_t
output_digest(const testing_support::ArgSet& a)
{
    uint64_t h = 1469598103934665603ull;
    for (const auto& buf : a.buffers) {
        for (int64_t i = 0; i < buf->size(); i++) {
            double v = buf->at(i);
            uint64_t bits;
            memcpy(&bits, &v, sizeof(bits));
            for (int byte = 0; byte < 8; byte++) {
                h ^= (bits >> (8 * byte)) & 0xFF;
                h *= 1099511628211ull;
            }
        }
    }
    return h;
}

struct Observed
{
    CostResult warm, cold;
    uint64_t digest = 0;
};

Observed
observe(const Case& c)
{
    Observed o;
    CostConfig cfg = c.cost;
    cfg.warm = true;
    o.warm = simulate_cost_named(c.proc, c.sizes, cfg);
    cfg.warm = false;
    o.cold = simulate_cost_named(c.proc, c.sizes, cfg);
    testing_support::ArgSet args =
        testing_support::make_args(c.proc, c.sizes, 42);
    interp_run(c.proc, args.args);
    o.digest = output_digest(args);
    return o;
}

struct GoldenCost
{
    double cycles;
    int64_t instr_calls, config_writes, dram_accesses, l1_misses, l2_misses;
};

struct GoldenRow
{
    const char* name;
    GoldenCost warm, cold;
    uint64_t digest;
};

// clang-format off
const GoldenRow kGolden[] = {
#include "tests/eval_golden_table.inc"
};
// clang-format on

void
expect_cost(const std::string& what, const CostResult& got,
            const GoldenCost& want)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.instr_calls, want.instr_calls) << what;
    EXPECT_EQ(got.config_writes, want.config_writes) << what;
    EXPECT_EQ(got.dram_accesses, want.dram_accesses) << what;
    EXPECT_EQ(got.l1_misses, want.l1_misses) << what;
    EXPECT_EQ(got.l2_misses, want.l2_misses) << what;
}

TEST(EvalGolden, MatchesRecordedTable)
{
    std::vector<Case> cases = golden_cases();
    ASSERT_EQ(cases.size(), sizeof(kGolden) / sizeof(kGolden[0]));
    for (size_t i = 0; i < cases.size(); i++) {
        const Case& c = cases[i];
        const GoldenRow& g = kGolden[i];
        ASSERT_EQ(c.name, g.name);
        Observed o = observe(c);
        expect_cost(c.name + " warm", o.warm, g.warm);
        expect_cost(c.name + " cold", o.cold, g.cold);
        EXPECT_EQ(o.digest, g.digest) << c.name << " interpreter output";
    }
}

void
print_cost(const CostResult& r)
{
    printf("{%a, %lld, %lld, %lld, %lld, %lld}", r.cycles,
           static_cast<long long>(r.instr_calls),
           static_cast<long long>(r.config_writes),
           static_cast<long long>(r.dram_accesses),
           static_cast<long long>(r.l1_misses),
           static_cast<long long>(r.l2_misses));
}

TEST(EvalGolden, DISABLED_PrintTable)
{
    for (const Case& c : golden_cases()) {
        Observed o = observe(c);
        printf("{\"%s\", ", c.name.c_str());
        print_cost(o.warm);
        printf(", ");
        print_cost(o.cold);
        printf(", 0x%016llxull},\n", static_cast<unsigned long long>(o.digest));
    }
}

}  // namespace
}  // namespace exo2
