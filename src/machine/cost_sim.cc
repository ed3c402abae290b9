#include "src/machine/cost_sim.h"

#include <cstring>
#include <memory>
#include <unordered_map>

#include "src/cursor/accel.h"
#include "src/interp/walk.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"
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

/** Where a simulated view points: a byte range in the flat simulated
 *  address space. Only DRAM-kind memories go through the caches. */
struct Addr
{
    uint64_t base = 0;  ///< byte address of element 0
    bool dram = false;
    int elem_bytes = 4;
};

using AddrView = walk::View<Addr>;

/** The cost domain of the shared walker (walk.h): control flow runs for
 *  real, data values are not computed (reads yield 0), and every DRAM
 *  access, statement, iteration, branch and instruction is charged. */
class CostDomain
{
  public:
    static constexpr const char* kName = "cost_sim";
    static constexpr bool kChecked = false;
    static constexpr bool kValues = false;
    using Store = Addr;

    /** Cost allocations have stable addresses: nothing to free. */
    struct Scope
    {
        explicit Scope(CostDomain&) {}
    };

    explicit CostDomain(const CostConfig& cfg)
        : cfg_(cfg), l1_(cfg.l1_kb, cfg.l1_assoc, cfg.line_bytes),
          l2_(cfg.l2_kb, cfg.l2_assoc, cfg.line_bytes) {}

    CostResult result;

    uint64_t alloc_bytes(int64_t bytes)
    {
        uint64_t a = heap_;
        heap_ += static_cast<uint64_t>((bytes + 63) & ~63ll);
        return a;
    }

    /** Registers and scratchpads are free; only DRAM accesses cost. */
    static bool observes(const Addr& a) { return a.dram; }

    /** Data read: charge the access; the value is unknown (0). */
    double load(const Addr& a, int64_t elem)
    {
        touch(byte_at(a, elem), a.elem_bytes);
        return 0.0;
    }

    /** Data write: charge the access (the statement is charged by
     *  `charge(Charge::Stmt)` before its right-hand side). */
    void store(const Addr& a, int64_t elem, double, bool)
    {
        touch(byte_at(a, elem), a.elem_bytes);
    }

    /** Loop-local allocations keep one address per Alloc statement. */
    Addr alloc(const Stmt& s, const std::vector<int64_t>& dims)
    {
        int64_t n = 1;
        for (int64_t d : dims)
            n *= d;
        int bytes = type_size_bytes(s.type());
        auto [it, fresh] = alloc_addr_.try_emplace(&s, 0);
        if (fresh)
            it->second = alloc_bytes(n * bytes);
        return Addr{it->second, s.mem()->kind() == MemoryKind::Dram, bytes};
    }

    /** Instructions are priced from InstrInfo, not executed. */
    bool price_instr(const InstrInfo& info)
    {
        result.instr_calls++;
        result.cycles += info.cycles;
        if (info.instr_class == "config")
            result.config_writes++;
        return true;
    }

    /** Charge the DRAM traffic of an instruction's buffer argument. */
    void touch_arg(const AddrView& v) { touch_view(v); }

    void charge(walk::Charge c)
    {
        switch (c) {
          case walk::Charge::Stmt:
            result.cycles += cfg_.scalar_op * cfg_.host_penalty;
            return;
          case walk::Charge::Iter:
            result.cycles += cfg_.loop_overhead;
            return;
          case walk::Charge::Branch:
            result.cycles += 0.5;
            return;
          case walk::Charge::ConfigWrite:
            result.config_writes++;
            result.cycles += cfg_.scalar_op;
            return;
        }
    }

    /** Externs are pure scalar functions of data: value unknown. */
    double call_extern(const std::string&, const std::vector<double>&)
    {
        return 0.0;
    }

  private:
    static uint64_t byte_at(const Addr& a, int64_t elem)
    {
        return a.base + static_cast<uint64_t>(elem * a.elem_bytes);
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

    /** Charge the whole footprint of a DRAM window (DMA-style). */
    void touch_view(const AddrView& v)
    {
        const Addr& a = v.store;
        if (!a.dram)
            return;
        // Iterate rows of the innermost contiguous run.
        if (v.dims.empty()) {
            touch(byte_at(a, v.offset), a.elem_bytes);
            return;
        }
        std::vector<int64_t> idx(v.dims.size(), 0);
        int64_t inner = v.dims.back();
        int64_t stride = v.strides.back();
        for (;;) {
            int64_t row = v.offset;
            for (size_t d = 0; d < idx.size(); d++)
                row += idx[d] * v.strides[d];
            if (stride == 1) {
                touch(byte_at(a, row), static_cast<int>(inner * a.elem_bytes));
            } else {
                for (int64_t k = 0; k < inner; k++)
                    touch(byte_at(a, row + k * stride), a.elem_bytes);
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

    CostConfig cfg_;
    CacheLevel l1_;
    CacheLevel l2_;
    uint64_t heap_ = 4096;
    std::map<const Stmt*, uint64_t> alloc_addr_;
};

using CostWalker = walk::Walker<CostDomain>;

// -- Result memoization (see cost_sim.h) -------------------------------

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

void
clear_cost_sim_cache()
{
    cost_cache().clear();
}

CostResult
simulate_cost(const ProcPtr& p, const std::vector<CostArg>& args,
              const CostConfig& cfg)
{
    uint64_t key = cost_key(p, args, cfg);
    auto hit = cost_cache().find(key);
    if (hit != cost_cache().end()) {
        EXO2_COUNT("costsim.cache_hits");
        return hit->second;
    }
    EXO2_COUNT("costsim.cache_misses");
    // Spanned only on a memo miss: hits are a hash probe, far below
    // span granularity, and the tuner scores thousands of them.
    EXO2_SPAN("cost.simulate", {{"proc", p->name()}});
    CostDomain dom(cfg);
    CostWalker walker(dom);
    CostWalker::Frame frame;
    size_t ai = 0;
    for (const auto& formal : p->args()) {
        if (!formal.dims.empty())
            continue;
        if (ai >= args.size())
            throw InternalError("simulate_cost: missing argument for " +
                                formal.name);
        const CostArg& a = args[ai++];
        if (formal.is_size || formal.type == ScalarType::Index) {
            frame[formal.name] = CostWalker::Binding::make_index(
                a.is_scalar ? static_cast<int64_t>(a.scalar) : a.size);
        } else {
            frame[formal.name] = CostWalker::Binding::make_scalar(
                a.is_scalar ? a.scalar : static_cast<double>(a.size));
        }
    }
    // Second pass: buffers sized by (now bound) size args.
    for (const auto& formal : p->args()) {
        if (formal.dims.empty())
            continue;
        std::vector<int64_t> dims;
        int64_t n = 1;
        for (const auto& d : formal.dims) {
            dims.push_back(walker.eval_int(frame, d));
            n *= dims.back();
        }
        int bytes = type_size_bytes(formal.type);
        Addr addr{dom.alloc_bytes(n * bytes),
                  !formal.mem || formal.mem->kind() == MemoryKind::Dram,
                  bytes};
        frame[formal.name] = CostWalker::Binding::make_buf(
            AddrView::whole(addr, std::move(dims)));
    }
    if (cfg.warm) {
        CostWalker::Frame warm_frame = frame;
        walker.run(p, warm_frame);
        dom.result = CostResult();
    }
    dom.result.cycles += cfg.dispatch_cycles;
    walker.run(p, frame);
    cost_cache()[key] = dom.result;
    return dom.result;
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
