#include "src/machine/cost_sim.h"

#include <cstring>
#include <memory>
#include <unordered_map>

#include "src/cursor/accel.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"
#include "src/ir/printer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace exo2 {

namespace {

/** One level of set-associative LRU cache. */
class CacheLevel
{
  public:
    CacheLevel(int size_kb, int assoc, int line_bytes) : assoc_(assoc)
    {
        int lines = size_kb * 1024 / line_bytes;
        sets_ = lines / assoc;
        if (sets_ < 1)
            sets_ = 1;
        tags_.assign(static_cast<size_t>(sets_) * assoc_, UINT64_MAX);
        ages_.assign(tags_.size(), 0);
    }

    /** Access one line address; returns true on hit. */
    bool access(uint64_t line)
    {
        uint64_t set = line % static_cast<uint64_t>(sets_);
        size_t base = static_cast<size_t>(set) * assoc_;
        tick_++;
        for (int w = 0; w < assoc_; w++) {
            if (tags_[base + w] == line) {
                ages_[base + w] = tick_;
                return true;
            }
        }
        size_t victim = base;
        for (int w = 1; w < assoc_; w++) {
            if (ages_[base + w] < ages_[victim])
                victim = base + w;
        }
        tags_[victim] = line;
        ages_[victim] = tick_;
        return false;
    }

  private:
    int assoc_;
    int sets_;
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> ages_;
    uint64_t tick_ = 0;
};

/** Strided address view of a simulated buffer. */
struct AddrView
{
    uint64_t base = 0;  ///< byte address
    bool dram = false;  ///< only DRAM-kind memories hit the caches
    int elem_bytes = 4;
    std::vector<int64_t> dims;
    std::vector<int64_t> strides;  ///< in elements

    static AddrView whole(uint64_t base, bool dram, int elem_bytes,
                          std::vector<int64_t> dims)
    {
        AddrView v;
        v.base = base;
        v.dram = dram;
        v.elem_bytes = elem_bytes;
        v.dims = std::move(dims);
        v.strides.assign(v.dims.size(), 1);
        int64_t s = 1;
        for (size_t d = v.dims.size(); d-- > 0;) {
            v.strides[d] = s;
            s *= v.dims[d];
        }
        return v;
    }

    uint64_t byte_at(const std::vector<int64_t>& idx) const
    {
        int64_t off = 0;
        for (size_t d = 0; d < idx.size() && d < strides.size(); d++)
            off += idx[d] * strides[d];
        return base + static_cast<uint64_t>(off * elem_bytes);
    }
};

struct Binding
{
    enum class Kind { Index, Scalar, Buf } kind = Kind::Index;
    int64_t index = 0;
    double scalar = 0.0;
    AddrView view;
};

using Frame = std::map<std::string, Binding>;

class CostSim
{
  public:
    explicit CostSim(const CostConfig& cfg)
        : cfg_(cfg), l1_(cfg.l1_kb, cfg.l1_assoc, cfg.line_bytes),
          l2_(cfg.l2_kb, cfg.l2_assoc, cfg.line_bytes) {}

    CostResult result;

    uint64_t alloc_bytes(int64_t bytes)
    {
        uint64_t a = heap_;
        heap_ += static_cast<uint64_t>((bytes + 63) & ~63ll);
        return a;
    }

    void run(const ProcPtr& p, Frame frame)
    {
        exec_block(frame, p->body_stmts());
    }

    // -- Evaluation (control-relevant values only) -----------------------

    double eval(Frame& f, const ExprPtr& e)
    {
        switch (e->kind()) {
          case ExprKind::Const:
            return e->const_value();
          case ExprKind::Read: {
            auto it = f.find(e->name());
            if (it == f.end()) {
                throw InternalError("cost_sim: unbound name '" +
                                    e->name() + "'");
            }
            Binding& b = it->second;
            if (b.kind == Binding::Kind::Index)
                return static_cast<double>(b.index);
            if (b.kind == Binding::Kind::Scalar)
                return b.scalar;
            // Data read: charge memory, value unknown (0).
            touch_read(f, e);
            return 0.0;
          }
          case ExprKind::BinOp: {
            double l = eval(f, e->lhs());
            double r = eval(f, e->rhs());
            switch (e->op()) {
              case BinOpKind::Add: return l + r;
              case BinOpKind::Sub: return l - r;
              case BinOpKind::Mul: return l * r;
              case BinOpKind::Div: {
                if (e->type() == ScalarType::Index) {
                    int64_t li = static_cast<int64_t>(l);
                    int64_t ri = static_cast<int64_t>(r);
                    if (ri == 0)
                        throw InternalError("cost_sim: div by zero");
                    int64_t q = li / ri;
                    if ((li % ri != 0) && ((li < 0) != (ri < 0)))
                        q -= 1;
                    return static_cast<double>(q);
                }
                return r != 0 ? l / r : 0;
              }
              case BinOpKind::Mod: {
                int64_t li = static_cast<int64_t>(l);
                int64_t ri = static_cast<int64_t>(r);
                if (ri == 0)
                    throw InternalError("cost_sim: mod by zero");
                int64_t m = li % ri;
                if (m != 0 && ((li < 0) != (ri < 0)))
                    m += ri;
                return static_cast<double>(m);
              }
              case BinOpKind::Lt: return l < r ? 1 : 0;
              case BinOpKind::Le: return l <= r ? 1 : 0;
              case BinOpKind::Gt: return l > r ? 1 : 0;
              case BinOpKind::Ge: return l >= r ? 1 : 0;
              case BinOpKind::Eq: return l == r ? 1 : 0;
              case BinOpKind::Ne: return l != r ? 1 : 0;
              case BinOpKind::And: return (l != 0 && r != 0) ? 1 : 0;
              case BinOpKind::Or: return (l != 0 || r != 0) ? 1 : 0;
            }
            throw InternalError("cost_sim: bad binop");
          }
          case ExprKind::USub:
            return -eval(f, e->lhs());
          case ExprKind::Stride: {
            auto it = f.find(e->name());
            if (it == f.end() || it->second.kind != Binding::Kind::Buf)
                throw InternalError("cost_sim: stride of non-buffer");
            size_t d = static_cast<size_t>(e->stride_dim());
            return static_cast<double>(it->second.view.strides.at(d));
          }
          case ExprKind::ReadConfig:
            return config_[e->name() + "." + e->field()];
          case ExprKind::Extern: {
            for (const auto& a : e->idx())
                eval(f, a);
            return 0.0;
          }
          case ExprKind::Window:
            throw InternalError("cost_sim: window outside call");
        }
        throw InternalError("cost_sim: unknown expr");
    }

    int64_t eval_int(Frame& f, const ExprPtr& e)
    {
        return static_cast<int64_t>(eval(f, e));
    }

    /** Charge a data read `buf[idx]`. */
    void touch_read(Frame& f, const ExprPtr& e)
    {
        auto it = f.find(e->name());
        Binding& b = it->second;
        if (!b.view.dram)
            return;  // registers / scratchpad: free
        std::vector<int64_t> idx;
        idx.reserve(e->idx().size());
        for (const auto& i : e->idx())
            idx.push_back(eval_int(f, i));
        touch(b.view.byte_at(idx), b.view.elem_bytes);
    }

    void touch(uint64_t byte_addr, int bytes)
    {
        result.dram_accesses++;
        result.cycles += cfg_.l1_hit_cycles;
        uint64_t first =
            byte_addr / static_cast<uint64_t>(cfg_.line_bytes);
        uint64_t last = (byte_addr + static_cast<uint64_t>(bytes) - 1) /
                        static_cast<uint64_t>(cfg_.line_bytes);
        for (uint64_t line = first; line <= last; line++) {
            if (!l1_.access(line)) {
                result.l1_misses++;
                result.cycles += cfg_.l1_miss_cycles;
                if (!l2_.access(line)) {
                    result.l2_misses++;
                    result.cycles += cfg_.l2_miss_cycles;
                }
            }
        }
    }

    /** Resolve a call argument to an address view. */
    AddrView eval_view(Frame& f, const ExprPtr& e)
    {
        if (e->kind() == ExprKind::Read && e->idx().empty()) {
            auto it = f.find(e->name());
            if (it == f.end() || it->second.kind != Binding::Kind::Buf)
                throw InternalError("cost_sim: not a buffer: " + e->name());
            return it->second.view;
        }
        if (e->kind() != ExprKind::Window)
            throw InternalError("cost_sim: expected buffer/window arg");
        auto it = f.find(e->name());
        if (it == f.end() || it->second.kind != Binding::Kind::Buf)
            throw InternalError("cost_sim: window of non-buffer");
        const AddrView& base = it->second.view;
        AddrView v;
        v.dram = base.dram;
        v.elem_bytes = base.elem_bytes;
        int64_t off = 0;
        for (size_t d = 0; d < base.dims.size(); d++) {
            const WindowDim& wd = e->window_dims().at(d);
            int64_t lo = eval_int(f, wd.lo);
            off += lo * base.strides[d];
            if (!wd.is_point()) {
                int64_t hi = eval_int(f, wd.hi);
                v.dims.push_back(hi - lo);
                v.strides.push_back(base.strides[d]);
            }
        }
        v.base = base.base +
                 static_cast<uint64_t>(off * base.elem_bytes);
        return v;
    }

    /** Charge the whole footprint of a DRAM window (DMA-style). */
    void touch_view(const AddrView& v)
    {
        if (!v.dram)
            return;
        // Iterate rows of the innermost contiguous run.
        if (v.dims.empty()) {
            touch(v.base, v.elem_bytes);
            return;
        }
        std::vector<int64_t> idx(v.dims.size(), 0);
        int64_t inner = v.dims.back();
        for (;;) {
            uint64_t row = v.byte_at(idx);
            int64_t stride = v.strides.back();
            if (stride == 1) {
                touch(row, static_cast<int>(inner * v.elem_bytes));
            } else {
                for (int64_t k = 0; k < inner; k++) {
                    touch(row + static_cast<uint64_t>(
                                     k * stride * v.elem_bytes),
                          v.elem_bytes);
                }
            }
            // Advance all but the innermost dim.
            size_t d = v.dims.size() - 1;
            for (;;) {
                if (d == 0)
                    return;
                d--;
                idx[d]++;
                if (idx[d] < v.dims[d])
                    break;
                idx[d] = 0;
                if (d == 0)
                    return;
            }
        }
    }

    void exec_block(Frame& f, const std::vector<StmtPtr>& block)
    {
        for (const auto& s : block)
            exec(f, s);
    }

    void exec(Frame& f, const StmtPtr& s)
    {
        switch (s->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce: {
            result.cycles += cfg_.scalar_op * cfg_.host_penalty;
            eval(f, s->rhs());
            auto it = f.find(s->name());
            if (it == f.end()) {
                throw InternalError("cost_sim: unbound target '" +
                                    s->name() + "'");
            }
            Binding& b = it->second;
            if (b.kind == Binding::Kind::Buf && b.view.dram) {
                std::vector<int64_t> idx;
                for (const auto& i : s->idx())
                    idx.push_back(eval_int(f, i));
                touch(b.view.byte_at(idx), b.view.elem_bytes);
            }
            return;
          }
          case StmtKind::Alloc: {
            Binding b;
            std::vector<int64_t> dims;
            int64_t n = 1;
            for (const auto& d : s->dims()) {
                dims.push_back(eval_int(f, d));
                n *= dims.back();
            }
            if (dims.empty()) {
                b.kind = Binding::Kind::Scalar;
                f[s->name()] = b;
                return;
            }
            b.kind = Binding::Kind::Buf;
            bool dram = s->mem()->kind() == MemoryKind::Dram;
            // Stable addresses for loop-local allocations.
            uint64_t base;
            auto key = s.get();
            auto ait = alloc_addr_.find(key);
            if (ait != alloc_addr_.end()) {
                base = ait->second;
            } else {
                base = alloc_bytes(n * type_size_bytes(s->type()));
                alloc_addr_[key] = base;
            }
            b.view = AddrView::whole(base, dram,
                                     type_size_bytes(s->type()), dims);
            f[s->name()] = b;
            return;
          }
          case StmtKind::For: {
            int64_t lo = eval_int(f, s->lo());
            int64_t hi = eval_int(f, s->hi());
            Binding iter;
            iter.kind = Binding::Kind::Index;
            auto saved = f.count(s->iter())
                             ? std::optional<Binding>(f[s->iter()])
                             : std::nullopt;
            for (int64_t i = lo; i < hi; i++) {
                result.cycles += cfg_.loop_overhead;
                iter.index = i;
                f[s->iter()] = iter;
                exec_block(f, s->body());
            }
            if (saved)
                f[s->iter()] = *saved;
            else
                f.erase(s->iter());
            return;
          }
          case StmtKind::If: {
            result.cycles += 0.5;  // branch
            if (eval(f, s->cond()) != 0.0)
                exec_block(f, s->body());
            else
                exec_block(f, s->orelse());
            return;
          }
          case StmtKind::Pass:
            return;
          case StmtKind::Call: {
            const ProcPtr& callee = s->callee();
            if (!callee)
                throw InternalError("cost_sim: unresolved call");
            if (callee->is_instr()) {
                const InstrInfo& info = *callee->instr();
                result.instr_calls++;
                result.cycles += info.cycles;
                if (info.instr_class == "config")
                    result.config_writes++;
                // Charge DRAM traffic of buffer arguments.
                for (size_t i = 0; i < s->args().size(); i++) {
                    const ProcArg& formal = callee->args()[i];
                    if (formal.dims.empty()) {
                        eval(f, s->args()[i]);
                        continue;
                    }
                    AddrView v = eval_view(f, s->args()[i]);
                    touch_view(v);
                }
                return;
            }
            // Regular sub-procedure: recurse.
            Frame inner;
            const auto& formals = callee->args();
            for (size_t i = 0; i < formals.size(); i++) {
                Binding b;
                if (formals[i].dims.empty()) {
                    if (formals[i].is_size ||
                        formals[i].type == ScalarType::Index) {
                        b.kind = Binding::Kind::Index;
                        b.index = eval_int(f, s->args()[i]);
                    } else {
                        b.kind = Binding::Kind::Scalar;
                        b.scalar = eval(f, s->args()[i]);
                    }
                } else {
                    b.kind = Binding::Kind::Buf;
                    b.view = eval_view(f, s->args()[i]);
                }
                inner[formals[i].name] = b;
            }
            exec_block(inner, callee->body_stmts());
            return;
          }
          case StmtKind::WriteConfig: {
            result.config_writes++;
            result.cycles += cfg_.scalar_op;
            config_[s->name() + "." + s->field()] = eval(f, s->rhs());
            return;
          }
          case StmtKind::WindowDecl: {
            Binding b;
            b.kind = Binding::Kind::Buf;
            b.view = eval_view(f, s->rhs());
            f[s->name()] = b;
            return;
          }
        }
        throw InternalError("cost_sim: unknown stmt");
    }

  private:
    CostConfig cfg_;
    CacheLevel l1_;
    CacheLevel l2_;
    uint64_t heap_ = 4096;
    std::map<std::string, double> config_;
    std::map<const Stmt*, uint64_t> alloc_addr_;
};

// -- Result memoization (see cost_sim.h) -------------------------------

bool g_cache_enabled = true;

const obs::StatsView<CostSimCacheStats> g_cache_counters{
    {"costsim.cache_hits", &CostSimCacheStats::hits},
    {"costsim.cache_misses", &CostSimCacheStats::misses},
};

std::unordered_map<uint64_t, CostResult>&
cost_cache()
{
    static std::unordered_map<uint64_t, CostResult> c;
    return c;
}

accel_internal::ClearerRegistration g_cost_cache_clearer(
    +[] { cost_cache().clear(); });

uint64_t
cost_key(const ProcPtr& p, const std::vector<CostArg>& args,
         const CostConfig& cfg)
{
    uint64_t h = proc_digest(p);
    for (const CostArg& a : args) {
        h = hash_combine(h, a.is_scalar ? 1u : 0u);
        h = hash_combine(h, static_cast<uint64_t>(a.size));
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(a.scalar), "");
        memcpy(&bits, &a.scalar, sizeof(bits));
        h = hash_combine(h, bits);
    }
    h = hash_combine(h, static_cast<uint64_t>(cfg.line_bytes));
    h = hash_combine(h, static_cast<uint64_t>(cfg.l1_kb));
    h = hash_combine(h, static_cast<uint64_t>(cfg.l1_assoc));
    h = hash_combine(h, static_cast<uint64_t>(cfg.l2_kb));
    h = hash_combine(h, static_cast<uint64_t>(cfg.l2_assoc));
    for (double d : {cfg.l1_hit_cycles, cfg.l1_miss_cycles,
                     cfg.l2_miss_cycles, cfg.loop_overhead, cfg.scalar_op,
                     cfg.host_penalty, cfg.dispatch_cycles}) {
        uint64_t bits;
        memcpy(&bits, &d, sizeof(bits));
        h = hash_combine(h, bits);
    }
    return hash_combine(h, cfg.warm ? 1u : 0u);
}

}  // namespace

CostSimCacheStats
cost_sim_cache_stats()
{
    return g_cache_counters.read();
}

void
reset_cost_sim_cache_stats()
{
    g_cache_counters.reset();
}

bool
cost_sim_cache_enabled()
{
    return g_cache_enabled;
}

void
set_cost_sim_cache_enabled(bool on)
{
    if (!on)
        cost_cache().clear();
    g_cache_enabled = on;
}

void
clear_cost_sim_cache()
{
    cost_cache().clear();
}

CostResult
simulate_cost(const ProcPtr& p, const std::vector<CostArg>& args,
              const CostConfig& cfg)
{
    uint64_t key = 0;
    if (g_cache_enabled) {
        key = cost_key(p, args, cfg);
        auto it = cost_cache().find(key);
        if (it != cost_cache().end()) {
            EXO2_COUNT("costsim.cache_hits");
            return it->second;
        }
        EXO2_COUNT("costsim.cache_misses");
    }
    // Spanned only on a memo miss: hits are a hash probe, far below
    // span granularity, and the tuner scores thousands of them.
    EXO2_SPAN("cost.simulate", {{"proc", p->name()}});
    CostSim sim(cfg);
    Frame frame;
    size_t ai = 0;
    for (const auto& formal : p->args()) {
        Binding b;
        if (formal.dims.empty()) {
            if (ai >= args.size())
                throw InternalError("simulate_cost: missing argument for " +
                                    formal.name);
            const CostArg& a = args[ai++];
            if (formal.is_size || formal.type == ScalarType::Index) {
                b.kind = Binding::Kind::Index;
                b.index = a.is_scalar ? static_cast<int64_t>(a.scalar)
                                      : a.size;
            } else {
                b.kind = Binding::Kind::Scalar;
                b.scalar = a.is_scalar ? a.scalar
                                       : static_cast<double>(a.size);
            }
            frame[formal.name] = b;
        }
    }
    // Second pass: buffers sized by (now bound) size args.
    for (const auto& formal : p->args()) {
        if (formal.dims.empty())
            continue;
        std::vector<int64_t> dims;
        int64_t n = 1;
        for (const auto& d : formal.dims) {
            dims.push_back(sim.eval_int(frame, d));
            n *= dims.back();
        }
        Binding b;
        b.kind = Binding::Kind::Buf;
        bool dram = !formal.mem || formal.mem->kind() == MemoryKind::Dram;
        uint64_t base = sim.alloc_bytes(n * type_size_bytes(formal.type));
        b.view = AddrView::whole(base, dram, type_size_bytes(formal.type),
                                 std::move(dims));
        frame[formal.name] = b;
    }
    if (cfg.warm) {
        Frame warm_frame = frame;
        sim.run(p, std::move(warm_frame));
        sim.result = CostResult();
    }
    sim.result.cycles += cfg.dispatch_cycles;
    sim.run(p, std::move(frame));
    if (g_cache_enabled)
        cost_cache()[key] = sim.result;
    return sim.result;
}

CostResult
simulate_cost_named(const ProcPtr& p,
                    const std::map<std::string, int64_t>& sizes,
                    const CostConfig& cfg)
{
    std::vector<CostArg> args;
    for (const auto& formal : p->args()) {
        if (!formal.dims.empty())
            continue;
        if (formal.is_size || formal.type == ScalarType::Index) {
            auto it = sizes.find(formal.name);
            if (it == sizes.end()) {
                throw InternalError("simulate_cost_named: size '" +
                                    formal.name + "' not provided");
            }
            args.push_back(CostArg::make_size(it->second));
        } else {
            args.push_back(CostArg::make_scalar(1.0));
        }
    }
    return simulate_cost(p, args, cfg);
}

}  // namespace exo2
