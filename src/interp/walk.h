#ifndef EXO2_INTERP_WALK_H_
#define EXO2_INTERP_WALK_H_

/**
 * @file
 * The one tree walker over the IR (internal header).
 *
 * Both consumers that execute a procedure share this walker: the
 * reference interpreter (interp.cc) and the cost simulator
 * (machine/cost_sim.cc). The walker owns everything the two agree on:
 * argument binding and call-arity checks, name lookup with block
 * scoping of `Alloc`/`WindowDecl`, index and control arithmetic (floor
 * `/` and `%`, comparisons, `stride`, configuration state), window
 * composition, and `For`/`If`/`Pass`/`WindowDecl`/`Call` recursion.
 *
 * `Walker<Domain>` is statically dispatched over a domain that supplies
 * only what differs between the two (DESIGN.md §4.5, "One walker, two
 * domains"):
 *
 *   - `kName`: prefix of diagnostics.
 *   - `kChecked`: index/window bounds checks, access arity, asserts and
 *     the `hi < lo` window clamp run (interpreter only).
 *   - `kValues`: the domain computes data values: f32 rounding of
 *     arithmetic, scalar-argument conversion, scalar stores,
 *     short-circuit `and`/`or`, IEEE float division. Without it
 *     (cost simulation) data reads yield 0, both operands of `and`/`or`
 *     are priced, and float division by zero yields 0.
 *   - `Store`: what a view points into (a Buffer, or a simulated
 *     address range), and `Scope`, an RAII guard over one block's
 *     allocations.
 *   - `observes(store)`: whether an access to `store` needs its element
 *     offset at all (the cost domain ignores non-DRAM memories).
 *   - `load`/`store`: a data read or write at an element offset.
 *   - `alloc`: storage for an `Alloc` statement.
 *   - `price_instr`/`touch_arg`: an instruction call is either priced
 *     (true; each buffer argument is then passed to `touch_arg`) or run
 *     through its semantics body (false).
 *   - `charge`: per-statement, per-iteration, per-branch and
 *     per-configuration-write costs.
 *   - `call_extern`: an extern scalar function on evaluated arguments.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/errors.h"
#include "src/ir/printer.h"
#include "src/ir/proc.h"

namespace exo2 {
namespace walk {

/** Round-to-storage conversion mirroring C assignment semantics. */
inline double
convert(ScalarType t, double v)
{
    switch (t) {
      case ScalarType::F32:
        return static_cast<double>(static_cast<float>(v));
      case ScalarType::I8:
        return static_cast<double>(
            static_cast<int8_t>(static_cast<int64_t>(v)));
      case ScalarType::I32:
        return static_cast<double>(
            static_cast<int32_t>(static_cast<int64_t>(v)));
      default:
        return v;
    }
}

/** A strided view: domain storage, an element offset, dims, strides. */
template <class Store>
struct View
{
    Store store{};
    int64_t offset = 0;  ///< in elements, from the start of `store`
    std::vector<int64_t> dims;
    std::vector<int64_t> strides;  ///< in elements

    /** The dense row-major view of a whole allocation. */
    static View whole(Store s, std::vector<int64_t> dims)
    {
        View v;
        v.store = s;
        v.dims = std::move(dims);
        v.strides.assign(v.dims.size(), 1);
        int64_t stride = 1;
        for (size_t d = v.dims.size(); d-- > 0;) {
            v.strides[d] = stride;
            stride *= v.dims[d];
        }
        return v;
    }
};

/** Runtime binding of a name. */
template <class Store>
struct Binding
{
    /** Unbound: a name whose declaration went out of scope. */
    enum class Kind { Index, Scalar, Buf, Unbound } kind = Kind::Index;
    int64_t index = 0;
    double scalar = 0.0;
    View<Store> view;

    static Binding make_index(int64_t i)
    {
        Binding b;
        b.index = i;
        return b;
    }
    static Binding make_scalar(double v)
    {
        Binding b;
        b.kind = Kind::Scalar;
        b.scalar = v;
        return b;
    }
    static Binding make_buf(View<Store> v)
    {
        Binding b;
        b.kind = Kind::Buf;
        b.view = std::move(v);
        return b;
    }
};

/** What a domain's `charge` hook is told about. */
enum class Charge { Stmt, Iter, Branch, ConfigWrite };

/** One run of the walker. After an exception escapes it, the undo
 *  stack may point into dead frames: discard the walker. */
template <class Domain>
class Walker
{
  public:
    using Store = typename Domain::Store;
    using View = walk::View<Store>;
    using Binding = walk::Binding<Store>;
    using Frame = std::map<std::string, Binding>;

    explicit Walker(Domain& dom) : dom_(dom) {}

    /** Execute `p`'s body in `f`, which binds its formals. */
    void run(const ProcPtr& p, Frame& f)
    {
        if constexpr (Domain::kChecked) {
            for (const auto& pred : p->preds()) {
                if (eval(f, pred) == 0.0) {
                    fail("assertion failed in " + p->name() + ": " +
                         print_expr(pred));
                }
            }
        }
        exec_block(f, p->body_stmts());
    }

    int64_t eval_int(Frame& f, const ExprPtr& e)
    {
        return static_cast<int64_t>(eval(f, e));
    }

  private:
    double eval(Frame& f, const ExprPtr& e)
    {
        switch (e->kind()) {
          case ExprKind::Const:
            return e->const_value();
          case ExprKind::Read: {
            Binding& b = lookup(f, e->name());
            if (b.kind == Binding::Kind::Index)
                return static_cast<double>(b.index);
            if (b.kind == Binding::Kind::Scalar)
                return b.scalar;
            if (!dom_.observes(b.view.store))
                return 0.0;
            return dom_.load(b.view.store, element(f, b.view, e->idx()));
          }
          case ExprKind::BinOp:
            return eval_binop(f, e);
          case ExprKind::USub:
            // Negation is exact in binary floating point; no rounding.
            return -eval(f, e->lhs());
          case ExprKind::Stride: {
            const View& v = lookup_buf(f, e->name());
            size_t d = static_cast<size_t>(e->stride_dim());
            if (d >= v.strides.size())
                fail("stride() dim out of range");
            return static_cast<double>(v.strides[d]);
          }
          case ExprKind::ReadConfig:
            return config_[e->name() + "." + e->field()];
          case ExprKind::Extern: {
            std::vector<double> args;
            args.reserve(e->idx().size());
            for (const auto& a : e->idx())
                args.push_back(eval(f, a));
            return dom_.call_extern(e->name(), args);
          }
          case ExprKind::Window:
            fail("window outside call argument");
        }
        fail("unknown expr kind");
    }

    /** Resolve a buffer or window call argument to a view. */
    View eval_view(Frame& f, const ExprPtr& e)
    {
        if (e->kind() == ExprKind::Read && e->idx().empty())
            return lookup_buf(f, e->name());
        if (e->kind() != ExprKind::Window)
            fail("expected buffer or window arg");
        const View& base = lookup_buf(f, e->name());
        if (e->window_dims().size() != base.dims.size())
            fail("window arity mismatch on '" + e->name() + "'");
        View v;
        v.store = base.store;
        v.offset = base.offset;
        v.dims.reserve(base.dims.size());
        v.strides.reserve(base.dims.size());
        for (size_t d = 0; d < base.dims.size(); d++) {
            const WindowDim& wd = e->window_dims()[d];
            int64_t lo = eval_int(f, wd.lo);
            // Negative low bounds arise from range-masked instructions
            // whose low lanes are masked off; the domain's absolute
            // check catches any actual out-of-range access.
            if (Domain::kChecked && lo > base.dims[d])
                fail("window low bound " + std::to_string(lo) +
                     " out of range");
            v.offset += lo * base.strides[d];
            if (!wd.is_point()) {
                int64_t hi = eval_int(f, wd.hi);
                if constexpr (Domain::kChecked) {
                    // Degenerate (empty / negative) windows are legal
                    // for fully-masked instructions: no lane may touch
                    // them.
                    if (hi < lo)
                        hi = lo;
                    if (hi > base.dims[d])
                        fail("window high bound out of range");
                }
                v.dims.push_back(hi - lo);
                v.strides.push_back(base.strides[d]);
            }
        }
        return v;
    }

    void exec_block(Frame& f, const std::vector<StmtPtr>& block)
    {
        // Allocations and window bindings are scoped to their block, so
        // loops do not accumulate dead locals and shadowing is undone.
        // Names going out of scope become Unbound rather than erased: a
        // loop body re-declaring a name reuses its map node, and frame
        // iterators (held by the undo stack and by For) stay valid.
        typename Domain::Scope scope(dom_);
        size_t mark = undo_.size();
        for (const auto& s : block) {
            if (s->kind() != StmtKind::Alloc &&
                s->kind() != StmtKind::WindowDecl) {
                exec(f, s);
                continue;
            }
            auto [it, fresh] = f.try_emplace(s->name());
            if (fresh)
                it->second.kind = Binding::Kind::Unbound;
            // Declared before the old binding is saved: a window may
            // read the binding it shadows.
            Binding b = declare(f, s);
            undo_.emplace_back(it, std::nullopt);
            if (it->second.kind != Binding::Kind::Unbound)
                undo_.back().second = std::move(it->second);
            it->second = std::move(b);
        }
        while (undo_.size() > mark) {
            auto& [it, saved] = undo_.back();
            if (saved)
                it->second = std::move(*saved);
            else
                it->second.kind = Binding::Kind::Unbound;
            undo_.pop_back();
        }
    }

    /** The binding an Alloc or WindowDecl introduces. */
    Binding declare(Frame& f, const StmtPtr& s)
    {
        if (s->kind() == StmtKind::WindowDecl)
            return Binding::make_buf(eval_view(f, s->rhs()));
        std::vector<int64_t> dims;
        dims.reserve(s->dims().size());
        for (const auto& d : s->dims())
            dims.push_back(eval_int(f, d));
        if (dims.empty())
            return Binding::make_scalar(0.0);
        Store st = dom_.alloc(*s, dims);
        return Binding::make_buf(View::whole(st, std::move(dims)));
    }

    /** Execute a statement other than a declaration (see exec_block). */
    void exec(Frame& f, const StmtPtr& s)
    {
        switch (s->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce: {
            dom_.charge(Charge::Stmt);
            double v = eval(f, s->rhs());
            bool reduce = s->kind() == StmtKind::Reduce;
            Binding& b = lookup(f, s->name());
            if (b.kind == Binding::Kind::Buf) {
                if (dom_.observes(b.view.store)) {
                    dom_.store(b.view.store, element(f, b.view, s->idx()), v,
                               reduce);
                }
                return;
            }
            if (b.kind == Binding::Kind::Index) {
                if (Domain::kChecked)
                    fail("writing a loop index");
                return;
            }
            if (Domain::kChecked && !s->idx().empty())
                fail("indexing a scalar");
            if (Domain::kValues)
                b.scalar = convert(s->type(), reduce ? b.scalar + v : v);
            return;
          }
          case StmtKind::For: {
            int64_t lo = eval_int(f, s->lo());
            int64_t hi = eval_int(f, s->hi());
            auto [it, fresh] = f.try_emplace(s->iter());
            std::optional<Binding> saved;
            if (!fresh && it->second.kind != Binding::Kind::Unbound)
                saved = std::move(it->second);
            for (int64_t i = lo; i < hi; i++) {
                dom_.charge(Charge::Iter);
                it->second = Binding::make_index(i);
                exec_block(f, s->body());
            }
            if (saved)
                it->second = std::move(*saved);
            else
                it->second.kind = Binding::Kind::Unbound;
            return;
          }
          case StmtKind::If: {
            dom_.charge(Charge::Branch);
            if (eval(f, s->cond()) != 0.0)
                exec_block(f, s->body());
            else
                exec_block(f, s->orelse());
            return;
          }
          case StmtKind::Pass:
            return;
          case StmtKind::Call:
            call(f, s);
            return;
          case StmtKind::WriteConfig: {
            dom_.charge(Charge::ConfigWrite);
            config_[s->name() + "." + s->field()] = eval(f, s->rhs());
            return;
          }
          case StmtKind::Alloc:
          case StmtKind::WindowDecl:
            break;
        }
        fail("unknown stmt kind");
    }

    [[noreturn]] static void fail(const std::string& msg)
    {
        throw InternalError(std::string(Domain::kName) + ": " + msg);
    }

    Binding& lookup(Frame& f, const std::string& name)
    {
        auto it = f.find(name);
        if (it == f.end() || it->second.kind == Binding::Kind::Unbound)
            fail("unbound name '" + name + "'");
        return it->second;
    }

    const View& lookup_buf(Frame& f, const std::string& name)
    {
        auto it = f.find(name);
        if (it == f.end() || it->second.kind != Binding::Kind::Buf)
            fail("'" + name + "' is not a buffer");
        return it->second.view;
    }

    /** Element offset of `v[idx]` from the start of its storage. */
    int64_t element(Frame& f, const View& v, const std::vector<ExprPtr>& idx)
    {
        if (Domain::kChecked && idx.size() != v.dims.size()) {
            fail("access arity mismatch on view (" +
                 std::to_string(idx.size()) + " vs " +
                 std::to_string(v.dims.size()) + ")");
        }
        int64_t off = v.offset;
        for (size_t d = 0; d < idx.size(); d++) {
            int64_t i = eval_int(f, idx[d]);
            if (Domain::kChecked && (i < 0 || i >= v.dims[d])) {
                fail("out-of-bounds access: index " + std::to_string(i) +
                     " not in [0, " + std::to_string(v.dims[d]) + ")");
            }
            if (d < v.strides.size())
                off += i * v.strides[d];
        }
        return off;
    }

    double eval_binop(Frame& f, const ExprPtr& e)
    {
        double l = eval(f, e->lhs());
        if constexpr (Domain::kValues) {
            if (e->op() == BinOpKind::And)
                return (l != 0.0 && eval(f, e->rhs()) != 0.0) ? 1.0 : 0.0;
            if (e->op() == BinOpKind::Or)
                return (l != 0.0 || eval(f, e->rhs()) != 0.0) ? 1.0 : 0.0;
        }
        double r = eval(f, e->rhs());
        // The expression's declared type is the semantics: f32
        // arithmetic rounds each operation to f32, exactly as the C
        // backend compiles it (which builds with -ffp-contract off).
        // Without this, mixed-precision kernels (sdsdot / dsdot: f32
        // products into an f64 accumulator) diverge between the
        // interpreter and generated C.
        auto fp = [&](double v) {
            return Domain::kValues && e->type() == ScalarType::F32
                       ? static_cast<double>(static_cast<float>(v))
                       : v;
        };
        switch (e->op()) {
          case BinOpKind::Add: return fp(l + r);
          case BinOpKind::Sub: return fp(l - r);
          case BinOpKind::Mul: return fp(l * r);
          case BinOpKind::Div: {
            if (e->type() == ScalarType::Index) {
                int64_t li = static_cast<int64_t>(l);
                int64_t ri = static_cast<int64_t>(r);
                if (ri == 0)
                    fail("division by zero");
                int64_t q = li / ri;
                if ((li % ri != 0) && ((li < 0) != (ri < 0)))
                    q -= 1;
                return static_cast<double>(q);
            }
            if (!Domain::kValues && r == 0)
                return 0.0;
            return fp(l / r);
          }
          case BinOpKind::Mod: {
            int64_t li = static_cast<int64_t>(l);
            int64_t ri = static_cast<int64_t>(r);
            if (ri == 0)
                fail("modulo by zero");
            int64_t m = li % ri;
            if (m != 0 && ((li < 0) != (ri < 0)))
                m += ri;
            return static_cast<double>(m);
          }
          case BinOpKind::Lt: return l < r ? 1.0 : 0.0;
          case BinOpKind::Le: return l <= r ? 1.0 : 0.0;
          case BinOpKind::Gt: return l > r ? 1.0 : 0.0;
          case BinOpKind::Ge: return l >= r ? 1.0 : 0.0;
          case BinOpKind::Eq: return l == r ? 1.0 : 0.0;
          case BinOpKind::Ne: return l != r ? 1.0 : 0.0;
          case BinOpKind::And: return (l != 0.0 && r != 0.0) ? 1.0 : 0.0;
          case BinOpKind::Or: return (l != 0.0 || r != 0.0) ? 1.0 : 0.0;
        }
        fail("bad binop");
    }

    void call(Frame& f, const StmtPtr& s)
    {
        const ProcPtr& callee = s->callee();
        if (!callee)
            fail("unresolved call");
        const auto& formals = callee->args();
        if (formals.size() != s->args().size()) {
            fail("call arity mismatch in call to " + callee->name() + " (" +
                 std::to_string(s->args().size()) + " args for " +
                 std::to_string(formals.size()) + " formals)");
        }
        bool priced = callee->is_instr() && dom_.price_instr(*callee->instr());
        Frame inner;
        for (size_t i = 0; i < formals.size(); i++) {
            const ProcArg& formal = formals[i];
            const ExprPtr& arg = s->args()[i];
            Binding b;
            if (!formal.dims.empty()) {
                b = Binding::make_buf(eval_view(f, arg));
                if (priced)
                    dom_.touch_arg(b.view);
            } else if (formal.is_size || formal.type == ScalarType::Index) {
                b = Binding::make_index(eval_int(f, arg));
            } else {
                // Scalars round to the formal's type at the call
                // boundary, as C parameter passing does.
                double v = eval(f, arg);
                b = Binding::make_scalar(
                    Domain::kValues ? convert(formal.type, v) : v);
            }
            if (!priced)
                inner.emplace(formal.name, std::move(b));
        }
        if (!priced)
            run(callee, inner);
    }

    Domain& dom_;
    std::map<std::string, double> config_;
    /** Bindings that open blocks shadowed, innermost last; one stack
     *  for the whole run so block entry does not allocate. */
    std::vector<std::pair<typename Frame::iterator, std::optional<Binding>>>
        undo_;
};

}  // namespace walk
}  // namespace exo2

#endif  // EXO2_INTERP_WALK_H_
