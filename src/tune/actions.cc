#include "src/tune/actions.h"

#include <algorithm>
#include <functional>

#include "src/analysis/affine.h"
#include "src/cursor/cursor.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/machine/cost_sim.h"
#include "src/obs/trace.h"
#include "src/primitives/primitives.h"
#include "src/sched/blas.h"
#include "src/sched/combinators.h"
#include "src/sched/vectorize.h"
#include "src/tune/tune.h"

namespace exo2 {
namespace tune {

namespace {

/** Pre-order site walk (the ordinal space of tuner steps). */
struct Sites
{
    std::vector<Cursor> loops;
    std::vector<Cursor> allocs;
};

void
walk_block(const ProcPtr& p, const std::vector<StmtPtr>& block,
           const Path& prefix, PathLabel label, Sites* out)
{
    for (size_t i = 0; i < block.size(); i++) {
        const StmtPtr& s = block[i];
        Path here = prefix;
        here.push_back({label, static_cast<int>(i)});
        CursorLoc loc;
        loc.kind = CursorKind::Node;
        loc.path = here;
        Cursor c(p, loc);
        if (s->kind() == StmtKind::For)
            out->loops.push_back(c);
        if (s->kind() == StmtKind::Alloc)
            out->allocs.push_back(c);
        if (!s->body().empty())
            walk_block(p, s->body(), here, PathLabel::Body, out);
        if (!s->orelse().empty())
            walk_block(p, s->orelse(), here, PathLabel::Orelse, out);
    }
}

Sites
walk(const ProcPtr& p)
{
    Sites s;
    walk_block(p, p->body_stmts(), {}, PathLabel::Body, &s);
    return s;
}

const Cursor&
site(const std::vector<Cursor>& v, int64_t ordinal, const char* what)
{
    // Strict bounds (unlike the fuzzer's modulo-wrap `pick`): tuner
    // steps record exact ordinals, so an out-of-range index means the
    // script is being replayed against the wrong proc — fail loudly
    // rather than silently applying a different action.
    if (ordinal < 0 || static_cast<size_t>(ordinal) >= v.size()) {
        throw SchedulingError(
            "tune: step references " + std::string(what) + " #" +
            std::to_string(ordinal) + " but the proc has " +
            std::to_string(v.size()) +
            " (replaying against the wrong proc?)");
    }
    return v[static_cast<size_t>(ordinal)];
}

int64_t
ni(const FuzzStep& st, size_t i)
{
    return i < st.n.size() ? st.n[i] : 0;
}

std::string
si(const FuzzStep& st, size_t i)
{
    if (i >= st.s.size())
        throw SchedulingError("tune: step '" + st.op +
                              "' missing name operand");
    return st.s[i];
}

TailStrategy
divide_tail(int64_t code)
{
    switch (static_cast<uint64_t>(code) % 3) {
      case 0: return TailStrategy::Cut;
      case 1: return TailStrategy::Guard;
      default: return TailStrategy::Perfect;
    }
}

/** Structural facts about one loop subtree, for cheap prefilters. */
struct LoopShape
{
    bool has_inner_for = false;
    bool has_call = false;
    bool has_write = false;  ///< Assign / Reduce anywhere beneath
    size_t stmt_count = 0;   ///< statements in the whole subtree
};

void
scan_shape(const std::vector<StmtPtr>& block, LoopShape* sh)
{
    for (const StmtPtr& s : block) {
        sh->stmt_count++;
        switch (s->kind()) {
          case StmtKind::For:
            sh->has_inner_for = true;
            break;
          case StmtKind::Call:
            sh->has_call = true;
            break;
          case StmtKind::Assign:
          case StmtKind::Reduce:
            sh->has_write = true;
            break;
          default:
            break;
        }
        scan_shape(s->body(), sh);
        scan_shape(s->orelse(), sh);
    }
}

LoopShape
shape_of(const StmtPtr& loop)
{
    LoopShape sh;
    scan_shape(loop->body(), &sh);
    return sh;
}

/** Constant trip count of a loop, or -1 when not constant. */
int64_t
const_trip(const StmtPtr& loop)
{
    Affine lo = to_affine(loop->lo());
    Affine hi = to_affine(loop->hi());
    if (!lo.is_const() || !hi.is_const())
        return -1;
    return hi.constant - lo.constant;
}

}  // namespace

TuneSpace
default_space(const Machine& machine, ScalarType precision,
              const CostConfig& cfg)
{
    TileHints hints = tile_hints(machine, precision, cfg);
    TuneSpace sp;
    sp.divide_factors = hints.split_factors;
    for (int64_t t : hints.cache_tiles) {
        if (std::find(sp.divide_factors.begin(), sp.divide_factors.end(),
                      t) == sp.divide_factors.end())
            sp.divide_factors.push_back(t);
    }
    return sp;
}

namespace {

/** `t_interleave` / `t_uaj` factors. */
constexpr int kBatchFactors[] = {2, 4};
/** `t_unroll` only fires on constant trip counts <= this. */
constexpr int64_t kUnrollMaxTrip = 8;
/** `t_interleave` only fires on loops with at most this many direct
 *  body statements (stops interleave-stacking: the cost model prices
 *  saved loop overhead but not code footprint). */
constexpr size_t kMaxInterleaveBody = 16;
/** `t_uaj` only fires on nests of at most this many statements (stops
 *  jam-stacking and the register pressure it hides). */
constexpr size_t kMaxUajStmts = 8;

/** Dispatch one tuner op against a precomputed site walk of `p` —
 *  enumeration validates hundreds of candidates per state, and they
 *  all share the same walk. */
ProcPtr
apply_with_sites(const ProcPtr& p, const Sites& w, const FuzzStep& st)
{
    const std::string& op = st.op;
    if (op == "t_divide") {
        return divide_loop(p, site(w.loops, ni(st, 0), "loop"), ni(st, 1),
                           {si(st, 0), si(st, 1)}, divide_tail(ni(st, 2)));
    }
    if (op == "t_reorder")
        return reorder_loops(p, site(w.loops, ni(st, 0), "loop"));
    if (op == "t_unroll")
        return unroll_loop(p, site(w.loops, ni(st, 0), "loop"));
    if (op == "t_vectorize") {
        const Machine& m = find_machine(si(st, 0));
        ScalarType prec = type_from_name(si(st, 1));
        sched::VectorizeOpts opts;
        opts.tail = (ni(st, 1) == 1) ? TailStrategy::CutAndGuard
                                     : TailStrategy::Cut;
        return sched::vectorize(p, site(w.loops, ni(st, 0), "loop"), m,
                                prec, opts);
    }
    if (op == "t_interleave") {
        return sched::interleave_loop(
            p, site(w.loops, ni(st, 0), "loop"),
            static_cast<int>(ni(st, 1)));
    }
    if (op == "t_cse")
        return sched::cse_reads(p, site(w.loops, ni(st, 0), "loop"));
    if (op == "t_licm")
        return sched::hoist_from_loop(p, site(w.loops, ni(st, 0), "loop"));
    if (op == "t_uaj") {
        return sched::unroll_and_jam(p, site(w.loops, ni(st, 0), "loop"),
                                     static_cast<int>(ni(st, 1)));
    }
    if (op == "t_lift_alloc") {
        return lift_alloc(p, site(w.allocs, ni(st, 0), "alloc"),
                          static_cast<int>(ni(st, 1)));
    }
    throw SchedulingError("tune: unknown op '" + op + "'");
}

}  // namespace

ProcPtr
apply_tune_step(const ProcPtr& p, const FuzzStep& st)
{
    if (st.op.rfind("t_", 0) != 0)
        return verify::apply_fuzz_step(p, st);
    return apply_with_sites(p, walk(p), st);
}

ProcPtr
replay_script(const ProcPtr& p, const std::vector<FuzzStep>& script)
{
    ProcPtr cur = p;
    for (const FuzzStep& st : script)
        cur = apply_tune_step(cur, st);
    return cur;
}

std::vector<TuneAction>
enumerate_actions(const ProcPtr& p, const Machine& machine,
                  ScalarType precision, const TuneSpace& space)
{
    EXO2_SPAN("tune.enumerate", {{"proc", p->name()}});
    Sites w = walk(p);
    uint64_t base_digest = proc_digest(p);
    std::vector<TuneAction> out;

    // Try one candidate: apply, drop inapplicable (SchedulingError /
    // InvalidCursorError) and no-op results. Anything else escapes —
    // a primitive reporting inapplicability with the wrong exception
    // type is an engine bug the legality tests must see.
    auto consider = [&](FuzzStep st) {
        ProcPtr res;
        try {
            res = apply_with_sites(p, w, st);
        } catch (const SchedulingError&) {
            return;
        } catch (const InvalidCursorError&) {
            return;
        }
        if (!res || proc_digest(res) == base_digest)
            return;
        out.push_back({std::move(st), std::move(res)});
    };

    for (size_t li = 0; li < w.loops.size(); li++) {
        int64_t l = static_cast<int64_t>(li);
        StmtPtr loop = w.loops[li].stmt();
        LoopShape sh = shape_of(loop);
        int64_t trip = const_trip(loop);

        // Vectorize innermost compute loops (the combinator internally
        // re-bases, divides by the vector width, stages, fissions, and
        // replaces with machine instructions).
        if (!sh.has_inner_for && !sh.has_call && sh.has_write) {
            consider({"t_vectorize",
                      {l, 0},
                      {machine.name(), type_name(precision)}});
            if (machine.supports_predication()) {
                consider({"t_vectorize",
                          {l, 1},
                          {machine.name(), type_name(precision)}});
            }
        }

        // Tile: divide by register multiples and cache-tile sides.
        for (int64_t f : space.divide_factors) {
            if (f < 2 || (trip >= 0 && trip <= f))
                continue;
            std::string io = fresh_in(p, loop->iter() + "o");
            std::string ii = fresh_in(p, loop->iter() + "i");
            consider({"t_divide", {l, f, 0}, {io, ii}});
        }

        if (loop->body().size() == 1 &&
            loop->body()[0]->kind() == StmtKind::For) {
            consider({"t_reorder", {l}, {}});
        }

        if (trip >= 2 && trip <= kUnrollMaxTrip)
            consider({"t_unroll", {l}, {}});

        // Interleave vectorized (instruction-calling) loops for ILP.
        // The body-size cap stops the search from stacking interleaves
        // into unbounded unrolling (the cost model prices the saved
        // loop overhead but not the instruction-cache footprint).
        if (sh.has_call && !sh.has_inner_for &&
            loop->body().size() <= kMaxInterleaveBody) {
            for (int f : kBatchFactors) {
                if (trip >= 0 && trip <= f)
                    continue;
                consider({"t_interleave", {l, f}, {}});
            }
        }

        if (!sh.has_call)
            consider({"t_cse", {l}, {}});

        consider({"t_licm", {l}, {}});

        // Unroll-and-jam batches outer iterations into the inner loop
        // for input reuse. The subtree cap stops jam-stacking (jamming
        // an already-jammed nest multiplies body size; the cost model
        // sees the saved loads but not the register pressure).
        if (sh.has_inner_for && sh.stmt_count <= kMaxUajStmts) {
            for (int f : kBatchFactors) {
                if (trip >= 0 && trip <= f)
                    continue;
                consider({"t_uaj", {l, f}, {}});
            }
        }
    }

    for (size_t ai = 0; ai < w.allocs.size(); ai++) {
        consider({"t_lift_alloc", {static_cast<int64_t>(ai), 1}, {}});
        consider({"t_lift_alloc", {static_cast<int64_t>(ai), 2}, {}});
    }

    return out;
}

}  // namespace tune
}  // namespace exo2
