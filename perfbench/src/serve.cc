/**
 * @file
 * Workload `serve`: a closed loop against an in-process scheduling
 * daemon (`serve::Daemon`, 2 workers, private socket, fresh cache
 * directory). Two client connections each send their next request only
 * after the previous reply. Requests are `op=tune` on a (kernel, sizes)
 * key drawn with seeded, skewed popularity from a pool of 12 keys, plus
 * a share of `op=lint`: the first touch of a key is a cold search and a
 * cache write, later touches are cache reads plus revalidation. One
 * operation is one request, timed at the client; one pass is a fixed
 * number of requests per client against a freshly started daemon, so
 * every pass has the same mix of cold and warm requests however fast
 * the machine runs.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "harness.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace exo2;
namespace fs = std::filesystem;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kRequestsPerClient = 250;
constexpr double kLintShare = 0.1;
/** Zipf exponent of key popularity. */
constexpr double kSkew = 1.0;

struct Key
{
    const char* kernel;
    const char* sizes;
};

// The key pool, most popular first: small f32 kernels at several sizes,
// so a cold search stays well under a second. The order mixes kernel
// kinds, so the popular keys are not all one kind of kernel.
const Key kPool[] = {
    {"saxpy", "n=1024"},     {"sgemv_n", "M=32,N=32"}, {"sdot", "n=2048"},
    {"sgemm", "K=8,M=8,N=8"}, {"sasum", "n=512"},      {"sger", "M=16,N=16"},
    {"sscal", "n=2048"},     {"sgemv_t", "M=32,N=32"}, {"saxpy", "n=256"},
    {"scopy", "n=1024"},     {"sdot", "n=256"},       {"sgemv_n", "M=16,N=16"},
};
constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

/** One answered request, as seen by the client. */
struct Done
{
    double ms = 0;
    std::string what;
    std::string why;  ///< empty = correct
    double queue_ms = 0, search_ms = 0, validate_ms = 0;
    bool tune = false, from_cache = false;
};

double
extra_ms(const serve::ServeResponse& r, const char* key)
{
    auto it = r.extra.find(key);
    return it == r.extra.end() ? 0.0 : std::atof(it->second.c_str());
}

class Serve : public Workload
{
  public:
    explicit Serve(const Options& o)
        : opt_(o), dir_(fs::path(o.workdir) / "serve")
    {
    }

    ~Serve() override { stop(); }

    void setup() override
    {
        // Popularity follows pool order (Zipf); the seed sets every
        // client's draws.
        cdf_.clear();
        double sum = 0;
        for (size_t i = 0; i < kPoolSize; i++)
            cdf_.push_back(sum += 1.0 / std::pow(i + 1.0, kSkew));
        for (double& c : cdf_)
            c /= sum;
        first_script_.clear();
        start_daemon();
    }

    void pass(Meter& m) override
    {
        if (daemon_used_)
            start_daemon();
        daemon_used_ = true;
        EngineDelta delta;
        serve::ServeStats before = daemon_->stats();
        double t0 = now_s();
        std::vector<std::vector<Done>> done(kClients);
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; c++)
            threads.emplace_back([&, c] { client_loop(c, &done[c]); });
        for (std::thread& t : threads)
            t.join();
        m.add("serve.wall_s", now_s() - t0);
        serve::ServeStats after = daemon_->stats();
        delta.add_to(m);
        m.add("serve.rejected", static_cast<double>(after.rejected - before.rejected));
        m.add("serve.degraded", static_cast<double>(after.degraded - before.degraded));

        for (const auto& per_client : done) {
            for (const Done& d : per_client) {
                if (!d.why.empty())
                    m.fail(d.what, d.why);
                m.record(d.ms, d.why.empty());
                m.sample("serve.queue_ms", d.queue_ms);
                m.add("serve.search_ms", d.search_ms);
                m.add("serve.validate_ms", d.validate_ms);
                if (d.tune)
                    m.add(d.from_cache ? "serve.warm" : "serve.cold", 1);
            }
        }

        // One row per key: how often it was asked and what cold and warm
        // answers cost.
        std::map<std::string, std::map<std::string, std::vector<double>>> per_key;
        for (const auto& per_client : done)
            for (const Done& d : per_client)
                per_key[d.what][d.tune && !d.from_cache ? "cold" : "warm"].push_back(d.ms);
        for (auto& [what, ms] : per_key)
            print_row("serve", what,
                      {{"requests", static_cast<double>(ms["cold"].size() +
                                                        ms["warm"].size())},
                       {"cold_ms_p50", median(ms["cold"])},
                       {"warm_ms_p50", median(ms["warm"])}});
    }

    std::map<std::string, double> detail(const Meter& m, int) const override
    {
        return {{"serve_ms_p50", quantile(m.op_ms(), 0.5)},
                {"serve_ms_p90", quantile(m.op_ms(), 0.9)},
                {"serve_req_per_s", m.attempted() / m.count("serve.wall_s")},
                {"serve_cold_requests", m.count("serve.cold")},
                {"serve_warm_requests", m.count("serve.warm")}};
    }

    std::map<std::string, std::string> config() const override
    {
        return {{"serve_clients", std::to_string(kClients)},
                {"serve_workers", std::to_string(kWorkers)},
                {"serve_keys", std::to_string(kPoolSize)},
                {"serve_requests_per_client", std::to_string(kRequestsPerClient)}};
    }

  private:
    /** A new daemon on a fresh cache directory with cold engine caches:
     *  every key starts cold. */
    void start_daemon()
    {
        stop();
        clear_engine_caches();
        fs::remove_all(dir_);
        fs::create_directories(dir_ / "cache");
        setenv("EXO2_CACHE_DIR", (dir_ / "cache").c_str(), 1);
        setenv("EXO2_NATIVE_ISA", "scalar", 1);

        serve::ServeConfig cfg;
        cfg.socket_path = (dir_ / "d.sock").string();
        cfg.workers = kWorkers;
        cfg.queue_capacity = 64;
        cfg.default_deadline_seconds = 0;
        daemon_ = std::make_unique<serve::Daemon>(cfg);
        daemon_->start();
        daemon_used_ = false;
        for (int i = 0; i < kClients; i++) {
            clients_.push_back(std::make_unique<serve::ServeClient>(cfg.socket_path));
            serve::ServeRequest ping;
            ping.op = "ping";
            if (!clients_.back()->connect() ||
                !clients_.back()->call_with_retry(ping).ok())
                throw std::runtime_error("serve: daemon did not answer a ping");
        }
    }

    void stop()
    {
        clients_.clear();
        if (daemon_) {
            daemon_->stop();
            daemon_.reset();
        }
    }

    const Key& draw(XorShiftRng& rng) const
    {
        double u = rng.unit();
        size_t r = 0;
        while (r + 1 < kPoolSize && u > cdf_[r])
            r++;
        return kPool[r];
    }

    void client_loop(int c, std::vector<Done>* out)
    {
        XorShiftRng rng(opt_.seed * 1000003 + static_cast<uint64_t>(c) + 1);
        serve::ServeClient& client = *clients_[c];
        for (int n = 0; n < kRequestsPerClient; n++) {
            serve::ServeRequest req;
            req.id = "c" + std::to_string(c) + "-" + std::to_string(n);
            const Key& key = draw(rng);
            req.kernel = key.kernel;
            bool lint = rng.unit() < kLintShare;
            if (lint) {
                req.op = "lint";
            } else {
                req.op = "tune";
                req.sizes = key.sizes;
                req.beam = 2;
                req.rounds = 3;
                req.jit_topk = 0;
                req.validate = 1;
            }
            Done d;
            d.what = lint ? std::string("lint ") + key.kernel
                          : std::string("tune ") + key.kernel + " " + key.sizes;
            d.tune = !lint;
            double t0 = now_s();
            serve::ServeResponse resp;
            {
                obs::Span span;
                if (obs::trace_enabled())
                    span.begin("bench.request");
                resp = client.call_with_retry(req);
            }
            d.ms = (now_s() - t0) * 1e3;
            d.queue_ms = extra_ms(resp, "phase_queue_ms");
            d.search_ms = extra_ms(resp, "phase_search_ms");
            d.validate_ms = extra_ms(resp, "phase_validate_ms");
            d.from_cache = resp.from_cache;
            d.why = check(req, resp, d.what);
            out->push_back(std::move(d));
        }
    }

    /** Empty when the response is correct: status ok, and for tune a
     *  validated script identical to the first answer for its key. */
    std::string check(const serve::ServeRequest& req,
                      const serve::ServeResponse& resp, const std::string& key)
    {
        if (!resp.ok())
            return "status " + resp.status + ": " + resp.detail;
        if (req.op == "lint") {
            auto it = resp.extra.find("lint_errors");
            if (it == resp.extra.end() || it->second != "0")
                return "lint reported errors";
            return "";
        }
        if (!resp.validated)
            return "tune answer not validated";
        std::lock_guard<std::mutex> lk(mu_);
        auto [it, fresh] = first_script_.emplace(key, resp.script);
        if (!fresh && it->second != resp.script)
            return "answer differs from the first answer for its key";
        return "";
    }

    Options opt_;
    fs::path dir_;
    std::unique_ptr<serve::Daemon> daemon_;
    bool daemon_used_ = false;  ///< the current daemon has served a pass
    std::vector<std::unique_ptr<serve::ServeClient>> clients_;
    std::vector<double> cdf_;
    std::mutex mu_;  ///< guards first_script_
    std::map<std::string, std::string> first_script_;
};

}  // namespace

std::unique_ptr<Workload>
make_serve(const Options& o)
{
    return std::make_unique<Serve>(o);
}

}  // namespace perfbench
