/**
 * @file
 * Unit tests for the object IR: construction, printing, parsing
 * round-trips, structural equality, and substitution.
 */

#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"

namespace exo2 {
namespace {

const char* kGemv = R"(
def gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]
)";

TEST(IrParse, GemvStructure)
{
    ProcPtr p = parse_proc(kGemv);
    EXPECT_EQ(p->name(), "gemv");
    ASSERT_EQ(p->args().size(), 5u);
    EXPECT_TRUE(p->args()[0].is_size);
    EXPECT_EQ(p->args()[2].name, "A");
    ASSERT_EQ(p->args()[2].dims.size(), 2u);
    EXPECT_EQ(p->preds().size(), 2u);
    ASSERT_EQ(p->body_stmts().size(), 1u);
    const StmtPtr& loop_i = p->body_stmts()[0];
    EXPECT_EQ(loop_i->kind(), StmtKind::For);
    EXPECT_EQ(loop_i->iter(), "i");
    ASSERT_EQ(loop_i->body().size(), 1u);
    const StmtPtr& loop_j = loop_i->body()[0];
    EXPECT_EQ(loop_j->iter(), "j");
    const StmtPtr& red = loop_j->body()[0];
    EXPECT_EQ(red->kind(), StmtKind::Reduce);
    EXPECT_EQ(red->name(), "y");
    EXPECT_EQ(red->rhs()->kind(), ExprKind::BinOp);
}

TEST(IrParse, RoundTrip)
{
    ProcPtr p = parse_proc(kGemv);
    std::string printed = print_proc(p);
    ProcPtr p2 = parse_proc(printed);
    EXPECT_EQ(printed, print_proc(p2));
    EXPECT_TRUE(block_equal(p->body_stmts(), p2->body_stmts()));
}

TEST(IrParse, AllocAndIf)
{
    const char* src = R"(
def foo(n: size, x: f32[n] @ DRAM):
    tmp: f32[8] @ AVX2
    for i in seq(0, n):
        if i < 8:
            tmp[i] = x[i]
        else:
            pass
)";
    ProcPtr p = parse_proc(src);
    const StmtPtr& alloc = p->body_stmts()[0];
    EXPECT_EQ(alloc->kind(), StmtKind::Alloc);
    EXPECT_EQ(alloc->mem()->name(), "AVX2");
    const StmtPtr& iff = p->body_stmts()[1]->body()[0];
    EXPECT_EQ(iff->kind(), StmtKind::If);
    EXPECT_EQ(iff->orelse().size(), 1u);
    // Round trip.
    ProcPtr p2 = parse_proc(print_proc(p));
    EXPECT_TRUE(block_equal(p->body_stmts(), p2->body_stmts()));
}

TEST(IrParse, WindowExprAndCall)
{
    const char* instr_src = R"(
def ld8(dst: [f32][8] @ AVX2, src: [f32][8] @ DRAM):
    for i in seq(0, 8):
        dst[i] = src[i]
)";
    ProcPtr ld8 = parse_proc(instr_src);
    const char* src = R"(
def foo(x: f32[64] @ DRAM):
    v: f32[8] @ AVX2
    for i in seq(0, 8):
        ld8(v[0:8], x[8 * i:8 * i + 8])
)";
    ProcPtr p = parse_proc(src, {ld8});
    const StmtPtr& call = p->body_stmts()[1]->body()[0];
    ASSERT_EQ(call->kind(), StmtKind::Call);
    EXPECT_EQ(call->callee()->name(), "ld8");
    ASSERT_EQ(call->args().size(), 2u);
    EXPECT_EQ(call->args()[0]->kind(), ExprKind::Window);
    EXPECT_EQ(call->args()[1]->kind(), ExprKind::Window);
}

TEST(IrParse, CallArityMustMatchCallee)
{
    ProcPtr g = parse_proc(R"(
def g(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = 0.0
)");
    // Too few and too many arguments are scoping errors of the caller.
    EXPECT_THROW(parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    g(n)
)",
                            {g}),
                 SchedulingError);
    EXPECT_THROW(parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    g(n, x, n)
)",
                            {g}),
                 SchedulingError);
    EXPECT_NO_THROW(parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    g(n, x)
)",
                               {g}));
}

TEST(IrExpr, SubstAndEquality)
{
    ExprPtr e = parse_expr_str("8 * io + ii + 1");
    ExprPtr e2 = expr_subst(e, "ii", idx_const(3));
    EXPECT_EQ(print_expr(e2), "8 * io + 3 + 1");
    EXPECT_TRUE(expr_equal(e, parse_expr_str("8 * io + ii + 1")));
    EXPECT_FALSE(expr_equal(e, parse_expr_str("8 * io + ii + 2")));
}

TEST(IrExpr, Uses)
{
    ExprPtr e = parse_expr_str("A[i, j] + x[j]");
    EXPECT_TRUE(expr_uses(e, "A"));
    EXPECT_TRUE(expr_uses(e, "j"));
    EXPECT_FALSE(expr_uses(e, "y"));
}

TEST(IrStmt, Equality)
{
    ProcPtr a = parse_proc(kGemv);
    ProcPtr b = parse_proc(kGemv);
    EXPECT_TRUE(block_equal(a->body_stmts(), b->body_stmts()));
    EXPECT_FALSE(procs_equivalent(a, b));  // distinct roots
    ProcPtr c = a->renamed("gemv2");
    EXPECT_TRUE(procs_equivalent(a, c));
}

TEST(IrProc, ConfigWrite)
{
    const char* src = R"(
def foo(n: size):
    cfg.stride = n
    cfg.stride = n + 1
)";
    ProcPtr p = parse_proc(src);
    EXPECT_EQ(p->body_stmts()[0]->kind(), StmtKind::WriteConfig);
    EXPECT_EQ(p->body_stmts()[0]->name(), "cfg");
    EXPECT_EQ(p->body_stmts()[0]->field(), "stride");
    ProcPtr p2 = parse_proc(print_proc(p));
    EXPECT_TRUE(block_equal(p->body_stmts(), p2->body_stmts()));
}

}  // namespace
}  // namespace exo2
