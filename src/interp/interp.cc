#include "src/interp/interp.h"

#include <algorithm>
#include <cmath>

#include "src/interp/walk.h"
#include "src/ir/errors.h"
#include "src/obs/trace.h"

namespace exo2 {

Buffer::Buffer(ScalarType type, std::vector<int64_t> dims)
    : type_(type), dims_(std::move(dims))
{
    int64_t n = 1;
    for (int64_t d : dims_) {
        if (d < 0)
            throw InternalError("negative buffer dimension");
        n *= d;
    }
    if (dims_.empty())
        n = 1;
    data_.assign(static_cast<size_t>(n), 0.0);
}

void
Buffer::set(int64_t flat, double v)
{
    data_.at(static_cast<size_t>(flat)) = walk::convert(type_, v);
}

void
Buffer::fill_random(uint64_t seed)
{
    uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
    for (auto& v : data_) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        double u = static_cast<double>((s >> 16) & 0xFFFFFF) /
                   static_cast<double>(0xFFFFFF);
        v = walk::convert(type_, 2.0 * u - 1.0);
    }
}

void
Buffer::fill(double v)
{
    for (auto& x : data_)
        x = walk::convert(type_, v);
}

namespace {

using ExternFn = double (*)(const std::vector<double>&);

/** Extern scalar functions; kept in lockstep with codegen's
 *  extern_c_impls() so every extern both interprets and compiles. */
const std::map<std::string, ExternFn> kExterns = {
    {"relu",
     [](const std::vector<double>& a) { return a.at(0) > 0 ? a.at(0) : 0.0; }},
    {"clamp_i8",
     [](const std::vector<double>& a) {
         return std::max(-128.0, std::min(127.0, std::round(a.at(0))));
     }},
    {"acc_scale",
     [](const std::vector<double>& a) { return a.at(0) * a.at(1); }},
    // select(cond_ge, x, y): x if cond >= 0 else y
    {"select",
     [](const std::vector<double>& a) {
         return a.at(0) >= 0 ? a.at(1) : a.at(2);
     }},
    {"sqrt", [](const std::vector<double>& a) { return std::sqrt(a.at(0)); }},
    {"abs", [](const std::vector<double>& a) { return std::fabs(a.at(0)); }},
};

/** The value domain of the shared walker (walk.h): real buffers, every
 *  dynamic check on, values rounded as the C backend computes them. */
struct InterpDomain
{
    static constexpr const char* kName = "interp";
    static constexpr bool kChecked = true;
    static constexpr bool kValues = true;
    using Store = Buffer*;

    /** Local buffers of the enclosing blocks, innermost last. */
    std::vector<std::unique_ptr<Buffer>> locals;

    /** Frees the buffers a block allocated when the block exits. */
    struct Scope
    {
        explicit Scope(InterpDomain& d) : dom(d), mark(d.locals.size()) {}
        ~Scope() { dom.locals.resize(mark); }
        InterpDomain& dom;
        size_t mark;
    };

    static bool observes(Buffer*) { return true; }

    static int64_t checked(const Buffer* b, int64_t flat)
    {
        if (flat < 0 || flat >= b->size()) {
            throw InternalError(
                "interp: absolute access out of the underlying buffer");
        }
        return flat;
    }

    double load(Buffer* b, int64_t flat) { return b->at(checked(b, flat)); }

    void store(Buffer* b, int64_t flat, double v, bool reduce)
    {
        checked(b, flat);
        if (reduce)
            v += b->at(flat);
        b->set(flat, v);
    }

    Buffer* alloc(const Stmt& s, const std::vector<int64_t>& dims)
    {
        locals.push_back(std::make_unique<Buffer>(s.type(), dims));
        return locals.back().get();
    }

    /** Instructions run through their semantics bodies. */
    bool price_instr(const InstrInfo&) { return false; }
    void touch_arg(const walk::View<Buffer*>&) {}
    void charge(walk::Charge) {}

    double call_extern(const std::string& name, const std::vector<double>& args)
    {
        auto it = kExterns.find(name);
        if (it == kExterns.end())
            throw InternalError("interp: unknown extern '" + name + "'");
        return it->second(args);
    }
};

}  // namespace

void
interp_run(const ProcPtr& p, const std::vector<RunArg>& args)
{
    EXO2_SPAN("interp.run", {{"proc", p->name()}});
    using W = walk::Walker<InterpDomain>;
    const auto& formals = p->args();
    if (formals.size() != args.size())
        throw InternalError("interp_run: arity mismatch");
    W::Frame frame;
    for (size_t i = 0; i < formals.size(); i++) {
        W::Binding b;
        switch (args[i].kind) {
          case RunArg::Kind::Size:
            b = W::Binding::make_index(args[i].size);
            break;
          case RunArg::Kind::Scalar:
            // Round to the formal's type, as C parameter passing does.
            b = W::Binding::make_scalar(
                walk::convert(formals[i].type, args[i].scalar));
            break;
          case RunArg::Kind::Buf:
            b = W::Binding::make_buf(
                W::View::whole(args[i].buf, args[i].buf->dims()));
            break;
        }
        frame[formals[i].name] = std::move(b);
    }
    InterpDomain dom;
    W(dom).run(p, frame);
}

}  // namespace exo2
