#include "src/sched/halide.h"

#include "src/inspect/bounds.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/obs/metrics.h"

namespace exo2 {
namespace sched {

namespace {

/** The statement computing buffer `buf` (Halide's nominal reference). */
Cursor
find_store(const ProcPtr& p, const std::string& buf)
{
    auto assigns = p->find_all(buf + "[_] = _");
    if (!assigns.empty())
        return assigns.front();
    return p->find(buf + "[_] += _");
}

/** Enclosing For loops of a statement, outermost first. */
std::vector<Cursor>
compute_nest(const ProcPtr& p, const Cursor& store)
{
    std::vector<Cursor> out;
    const Path& path = store.loc().path;
    for (size_t d = 1; d <= path.size(); d++) {
        Path prefix(path.begin(), path.begin() + static_cast<long>(d));
        if (!is_stmt_list_label(prefix.back().label))
            continue;
        if (d == path.size())
            break;  // the store itself
        StmtPtr s = stmt_at(p, prefix);
        if (s->kind() == StmtKind::For) {
            out.push_back(
                Cursor(p, CursorLoc{CursorKind::Node, prefix, -1}));
        }
    }
    return out;
}

}  // namespace

ProcPtr
H_tile(const ProcPtr& p, const std::string& cons, const std::string& y,
       const std::string& x, const std::string& yi, const std::string& xi,
       int ty, int tx)
{
    ProcPtr cur = p;
    Cursor store = find_store(cur, cons);
    auto nest = compute_nest(cur, store);
    require(nest.size() >= 2, "H_tile: need a 2-D nest for " + cons);
    Cursor ly = nest[nest.size() - 2];
    Cursor lx = nest[nest.size() - 1];
    require(ly.stmt()->iter() == y && lx.stmt()->iter() == x,
            "H_tile: loop names do not match the nest");
    cur = divide_loop(cur, ly, ty, {y, yi}, TailStrategy::Perfect);
    cur = divide_loop(cur, cur->forward(lx), tx, {x, xi},
                      TailStrategy::Perfect);
    // Order: y, x, yi, xi. (Find the consumer's x loop through its own
    // nest — other stages may reuse the iterator name.)
    Cursor store2 = find_store(cur, cons);
    auto nest2 = compute_nest(cur, store2);
    require(nest2.size() >= 4, "H_tile: tiling failed");
    cur = lift_scope(cur, nest2[nest2.size() - 2]);
    return cur;
}

ProcPtr
H_compute_store_at(const ProcPtr& p, const std::string& prod,
                   const std::string& cons, const std::string& at)
{
    ProcPtr cur = p;

    // Fuse level by level, outermost consumer loop down to `at`.
    for (int level = 0;; level++) {
        Cursor cstore = find_store(cur, cons);
        auto cnest = compute_nest(cur, cstore);
        require(static_cast<size_t>(level) < cnest.size(),
                "H_compute_store_at: '" + at + "' not found in nest");
        Cursor target = cnest[static_cast<size_t>(level)];
        std::string it = target.stmt()->iter();

        Cursor pstore = find_store(cur, prod);
        auto pnest = compute_nest(cur, pstore);
        require(!pnest.empty(), "H_compute_store_at: producer has no nest");

        // Which producer dimension does this consumer loop sweep?
        auto bounds = inspect::infer_read_bounds(cur, target, prod);
        int dim = -1;
        int64_t stride = 0;
        for (size_t d = 0; d < bounds.size(); d++) {
            int64_t c = to_affine(bounds[d].lo).coeff_of(it);
            if (c > 0) {
                dim = static_cast<int>(d);
                stride = c;
                break;
            }
        }
        require(dim >= 0, "H_compute_store_at: consumer loop '" + it +
                              "' does not sweep " + prod);
        // The producer loop writing that dimension: its iterator is the
        // store index of that dim.
        StmtPtr ps = pstore.stmt();
        require(static_cast<size_t>(dim) < ps->idx().size(),
                "H_compute_store_at: store arity");
        Cursor ploop;
        bool found = false;
        for (const auto& lp : pnest) {
            if (expr_uses(ps->idx()[static_cast<size_t>(dim)],
                          lp.stmt()->iter())) {
                ploop = lp;
                found = true;
            }
        }
        require(found, "H_compute_store_at: no producer loop for dim");

        // Overlapping tile split of the producer, then surface the tile
        // loop to the top of the producer nest and fuse.
        std::string po = fresh_in(cur, prod + "_" + it + "o");
        std::string pi = prod + "_" + it + "i";
        if (cur->find_all("for " + pi + " in _: _").empty()) {
            // name free
        } else {
            pi = fresh_in(cur, pi);
        }
        ExprPtr n_tiles = target.stmt()->hi();
        cur = divide_with_recompute(cur, ploop, n_tiles, stride, {po, pi});
        // Lift the tile loop over the remaining producer loops.
        for (int guard = 0; guard < 8; guard++) {
            Cursor po_loop = cur->find_loop(po);
            int pos = 0;
            ListAddr addr = list_addr_of(po_loop.loc().path, &pos);
            if (addr.parent.empty())
                break;
            StmtPtr parent = stmt_at(cur, addr.parent);
            if (parent->kind() != StmtKind::For)
                break;
            // Only lift within the producer nest (stop at the fused
            // consumer loops).
            bool in_prod_nest = false;
            Cursor ps2 = find_store(cur, prod);
            for (const auto& lp : compute_nest(cur, ps2)) {
                if (lp.loc().path == addr.parent)
                    in_prod_nest = true;
            }
            if (!in_prod_nest)
                break;
            // The consumer-fused loops contain more than the producer:
            // lift only while the tile loop is the sole statement.
            if (parent->body().size() != 1)
                break;
            cur = lift_scope(cur, po_loop);
        }
        Cursor po_loop = cur->find_loop(po);
        cur = fuse(cur, po_loop, cur->forward(target));
        cur = simplify(cur);
        if (it == at)
            break;
    }

    // store_at: shrink the producer's storage to the tile.
    Cursor alloc = cur->find_alloc(prod);
    for (int guard = 0; guard < 8; guard++) {
        Cursor ac = cur->forward(alloc);
        int pos = 0;
        ListAddr addr = list_addr_of(ac.loc().path, &pos);
        const auto& list = stmt_list_at(cur, addr);
        if (static_cast<size_t>(pos) + 1 >= list.size())
            break;
        StmtPtr next = list[static_cast<size_t>(pos) + 1];
        if (next->kind() != StmtKind::For)
            break;
        // Stop sinking below the `at` loop.
        cur = sink_alloc(cur, ac);
        Cursor ac2 = cur->forward(alloc);
        // Did we just sink into the `at` loop? Then resize and stop.
        int pos2 = 0;
        ListAddr addr2 = list_addr_of(ac2.loc().path, &pos2);
        if (!addr2.parent.empty()) {
            StmtPtr parent = stmt_at(cur, addr2.parent);
            if (parent->kind() == StmtKind::For &&
                parent->iter() == at) {
                break;
            }
        }
    }
    // Shrink storage to the accessed window of the innermost scope.
    {
        Cursor ac = cur->forward(alloc);
        int pos = 0;
        ListAddr addr = list_addr_of(ac.loc().path, &pos);
        if (!addr.parent.empty()) {
            Cursor scope(cur,
                         CursorLoc{CursorKind::Node, addr.parent, -1});
            auto bounds = inspect::infer_bounds(cur, scope, prod);
            for (size_t d = 0; d < bounds.size(); d++) {
                Context ctx = Context::at(cur, ac.loc().path);
                ExprPtr extent = simplify_expr(
                    ctx, bounds[d].hi - bounds[d].lo);
                cur = resize_dim(cur, cur->forward(alloc),
                                 static_cast<int>(d), extent,
                                 bounds[d].lo);
            }
        }
    }
    return simplify(cur);
}

ProcPtr
H_parallel(const ProcPtr& p, const std::string& loop)
{
    return parallelize_loop(p, p->find_loop(loop));
}

ProcPtr
H_vectorize(const ProcPtr& p, const std::string& prod,
            const std::string& loop, const Machine& machine)
{
    ProcPtr cur = p;
    Cursor store = find_store(cur, prod);
    auto nest = compute_nest(cur, store);
    Cursor target;
    bool found = false;
    for (const auto& lp : nest) {
        const std::string& it = lp.stmt()->iter();
        if (it == loop || (it.size() >= loop.size() &&
                           it.compare(it.size() - loop.size(), loop.size(),
                                      loop) == 0)) {
            target = lp;
            found = true;
        }
    }
    require(found, "H_vectorize: no loop matching '" + loop + "' around " +
                       prod);
    VectorizeOpts opts;
    opts.tail = TailStrategy::Cut;
    return vectorize(cur, target, machine, ScalarType::F32, opts);
}

ProcPtr
H_store_in(const ProcPtr& p, const std::string& buf, const MemoryPtr& mem)
{
    EXO2_COUNT("sched.rewrites");
    Cursor ac = p->find_alloc(buf);
    // Plain DRAM-kind memories need no vector-shape check.
    return apply_replace_stmt_same_shape(
        p, ac.loc().path, ac.stmt()->with_mem(mem), "H_store_in");
}

ProcPtr
schedule_blur_like_halide(const ProcPtr& blur, const Machine& machine)
{
    // Figure 12, line for line.
    ProcPtr p = blur;
    p = H_tile(p, "blur_y", "y", "x", "yi", "xi", 32, 256);
    p = H_compute_store_at(p, "blur_x", "blur_y", "x");
    p = H_parallel(p, "y");
    p = H_vectorize(p, "blur_x", "xi", machine);
    p = H_vectorize(p, "blur_y", "xi", machine);
    p = H_store_in(p, "blur_x", mem_dram_stack());
    return cleanup(p);
}

ProcPtr
schedule_unsharp_like_halide(const ProcPtr& unsharp, const Machine& machine)
{
    ProcPtr p = unsharp;
    p = H_tile(p, "out", "y", "x", "yi", "xi", 32, 256);
    p = H_compute_store_at(p, "by", "out", "x");
    p = H_compute_store_at(p, "bx", "by", "x");
    p = H_parallel(p, "y");
    p = H_vectorize(p, "bx", "xi", machine);
    p = H_vectorize(p, "by", "xi", machine);
    p = H_vectorize(p, "out", "xi", machine);
    p = H_store_in(p, "bx", mem_dram_stack());
    p = H_store_in(p, "by", mem_dram_stack());
    return cleanup(p);
}

}  // namespace sched
}  // namespace exo2
