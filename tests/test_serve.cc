/**
 * @file
 * Scheduling-daemon tests (DESIGN.md §8): wire protocol round-trips,
 * an in-process Daemon exercised over a real unix-domain socket —
 * ping/stats, cold and cache-hit tunes, script replay, malformed
 * requests, backpressure under a saturated bounded queue, injected
 * queue_full faults, deadline degradation, graceful drain, one I/O
 * thread for every connection (stalled, slow and corrupt clients
 * included), unvalidated answers under injected faults — and the
 * crash-only story: a forked daemon killed with SIGKILL, restarted,
 * and observed self-healing from the persistent caches.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/serve/protocol.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace serve {
namespace {

std::string
fresh_dir(const char* tag)
{
    std::string tmpl = ::testing::TempDir() + "exo2_serve_" + tag +
                       "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

/** Unique, short socket path (sun_path is ~107 bytes). */
std::string
fresh_socket(const char* tag)
{
    static std::atomic<int> n{0};
    return "/tmp/exo2t_" + std::to_string(getpid()) + "_" + tag + "_" +
           std::to_string(n++) + ".sock";
}

ServeConfig
test_config(const char* tag)
{
    ServeConfig cfg;
    cfg.socket_path = fresh_socket(tag);
    cfg.workers = 2;
    cfg.queue_capacity = 16;
    return cfg;
}

ServeRequest
tune_request(const char* kernel = "saxpy", const char* sizes = "n=256")
{
    ServeRequest req;
    req.id = "t1";
    req.op = "tune";
    req.kernel = kernel;
    req.sizes = sizes;
    req.beam = 2;
    req.rounds = 3;
    req.restarts = 0;
    req.jit_topk = 0;
    return req;
}

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        for (const char* v :
             {"EXO2_CACHE_DIR", "EXO2_FAULTS", "EXO2_SERVE_SOCKET", "EXO2_SERVE_WORKERS",
              "EXO2_SERVE_QUEUE", "EXO2_SERVE_DEADLINE"})
            unsetenv(v);
        // The serve, cache and fault counters are process-wide
        // registry counters; each test counts from zero.
        obs::reset_metrics();
        verify::clear_fault_spec();
    }
    void TearDown() override
    {
        unsetenv("EXO2_CACHE_DIR");
        unsetenv("EXO2_FAULTS");
    }
};

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST_F(ServeTest, EscapeRoundTripsScriptsWithNewlinesAndBackslashes)
{
    std::string v = "t_unroll[0]\nt_divide[1;a\\b,c,4]\n\\final\\";
    EXPECT_EQ(unescape_value(escape_value(v)), v);
    EXPECT_EQ(escape_value(v).find('\n'), std::string::npos);

    std::map<std::string, std::string> kv = {
        {"script", v}, {"op", "tune"}, {"empty", ""}};
    EXPECT_EQ(decode_kv(encode_kv(kv)), kv);
}

TEST_F(ServeTest, RequestAndResponseSurviveTheWire)
{
    ServeRequest req;
    req.id = "abc";
    req.op = "tune";
    req.kernel = "sgemm";
    req.machine = "AVX512";
    req.sizes = "K=48,M=48,N=48";
    req.deadline_ms = 1500;
    req.beam = 3;
    req.rounds = 7;
    req.restarts = 0;
    req.jit_topk = 2;
    req.validate = 1;
    req.script = "t_unroll[0]\nt_interleave[1,4]\n";
    ServeRequest back = ServeRequest::from_wire(req.to_wire());
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.machine, req.machine);
    EXPECT_EQ(back.sizes, req.sizes);
    EXPECT_DOUBLE_EQ(back.deadline_ms, req.deadline_ms);
    EXPECT_EQ(back.restarts, 0);
    EXPECT_EQ(back.jit_topk, 2);
    EXPECT_EQ(back.script, req.script);

    ServeResponse resp;
    resp.id = "abc";
    resp.status = "degraded";
    resp.detail = "deadline";
    resp.retry_after_ms = 250;
    resp.script = req.script;
    resp.cost = 864;
    resp.naive_cost = 3072;
    resp.validated = true;
    resp.from_cache = true;
    resp.extra["digest"] = "deadbeef";
    ServeResponse rback = ServeResponse::from_wire(resp.to_wire());
    EXPECT_TRUE(rback.degraded());
    EXPECT_EQ(rback.retry_after_ms, 250);
    EXPECT_EQ(rback.script, req.script);
    EXPECT_TRUE(rback.validated);
    EXPECT_TRUE(rback.from_cache);
    EXPECT_EQ(rback.extra.at("digest"), "deadbeef");
}

TEST_F(ServeTest, UnknownWireKeysArePreservedNotFatal)
{
    // A future daemon adds a field; today's client must not choke.
    ServeResponse r = ServeResponse::from_wire(
        "id=x\nstatus=ok\nfuture_field=hello\n");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.extra.at("future_field"), "hello");
}

TEST_F(ServeTest, FramingRejectsCorruptLengthPrefix)
{
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    ASSERT_TRUE(write_frame(sv[0], "hello frame", 1.0));
    std::string got;
    ASSERT_TRUE(read_frame(sv[1], &got, 1.0));
    EXPECT_EQ(got, "hello frame");

    // A corrupt 4-byte prefix claiming a 2 GB payload must fail fast,
    // not allocate.
    unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(write(sv[0], huge, 4), 4);
    EXPECT_FALSE(read_frame(sv[1], &got, 1.0));
    close(sv[0]);
    close(sv[1]);

    // Frames decoded from a receive buffer: a partial frame consumes
    // nothing, and a corrupt prefix is refused before its payload.
    std::string buf("\x03\0\0\0abc\x02\0\0\0de", 13);
    size_t pos = 0;
    EXPECT_EQ(take_frame(buf.substr(0, 6), &pos, &got),
              FrameStatus::Incomplete);
    EXPECT_EQ(pos, 0u);
    ASSERT_EQ(take_frame(buf, &pos, &got), FrameStatus::Complete);
    EXPECT_EQ(got, "abc");
    ASSERT_EQ(take_frame(buf, &pos, &got), FrameStatus::Complete);
    EXPECT_EQ(got, "de");
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(take_frame(buf, &pos, &got), FrameStatus::Incomplete);
    std::string bomb(reinterpret_cast<const char*>(huge), 4);
    pos = 0;
    EXPECT_EQ(take_frame(bomb, &pos, &got), FrameStatus::Oversized);
}

TEST_F(ServeTest, ConfigFromEnvValidates)
{
    setenv("EXO2_SERVE_WORKERS", "3", 1);
    setenv("EXO2_SERVE_QUEUE", "9", 1);
    setenv("EXO2_SERVE_DEADLINE", "1.5", 1);
    ServeConfig c = ServeConfig::from_env();
    EXPECT_EQ(c.workers, 3);
    EXPECT_EQ(c.queue_capacity, 9);
    EXPECT_DOUBLE_EQ(c.default_deadline_seconds, 1.5);

    setenv("EXO2_SERVE_WORKERS", "0", 1);
    EXPECT_THROW(ServeConfig::from_env(), ConfigError);
    unsetenv("EXO2_SERVE_WORKERS");
    unsetenv("EXO2_SERVE_QUEUE");
    unsetenv("EXO2_SERVE_DEADLINE");
}

// ---------------------------------------------------------------------------
// In-process daemon over a real socket
// ---------------------------------------------------------------------------

TEST_F(ServeTest, PingAndStats)
{
    ServeConfig cfg = test_config("ping");
    Daemon d(cfg);
    d.start();

    ServeClient client(cfg.socket_path);
    ServeRequest req;
    req.id = "p1";
    req.op = "ping";
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.id, "p1");
    EXPECT_EQ(resp.detail, "pong");

    req.op = "stats";
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.extra.at("connections"), "1");
    EXPECT_EQ(resp.extra.at("requests"), "2");
    ASSERT_TRUE(resp.extra.count("tune_cache_hits"));
    ASSERT_TRUE(resp.extra.count("faults_fired"));

    d.stop();
    EXPECT_FALSE(d.running());
    // The socket file is reclaimed on clean shutdown.
    EXPECT_NE(access(cfg.socket_path.c_str(), F_OK), 0);
}

TEST_F(ServeTest, TuneThenCacheHitIsBitForBit)
{
    std::string dir = fresh_dir("warm");
    setenv("EXO2_CACHE_DIR", dir.c_str(), 1);

    ServeConfig cfg = test_config("warm");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    ServeResponse cold;
    ASSERT_TRUE(client.call(tune_request(), &cold));
    ASSERT_TRUE(cold.ok()) << cold.detail;
    EXPECT_FALSE(cold.from_cache);
    EXPECT_TRUE(cold.validated);
    EXPECT_FALSE(cold.script.empty());
    EXPECT_LT(cold.cost, cold.naive_cost);

    ServeResponse warm;
    ASSERT_TRUE(client.call(tune_request(), &warm));
    ASSERT_TRUE(warm.ok()) << warm.detail;
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.validated);
    EXPECT_EQ(warm.script, cold.script);  // bit-for-bit replay
    EXPECT_DOUBLE_EQ(warm.cost, cold.cost);

    // The winner replays through op=schedule and reports a digest.
    ServeRequest rep;
    rep.id = "r1";
    rep.op = "schedule";
    rep.kernel = "saxpy";
    rep.sizes = "n=256";
    rep.script = warm.script;
    rep.validate = 1;
    ServeResponse replayed;
    ASSERT_TRUE(client.call(rep, &replayed));
    ASSERT_TRUE(replayed.ok()) << replayed.detail;
    EXPECT_TRUE(replayed.validated);
    EXPECT_FALSE(replayed.extra["digest"].empty());
    EXPECT_DOUBLE_EQ(replayed.cost, cold.cost);

    d.stop();
}

TEST_F(ServeTest, LintWhileAnotherClientTunesSeesTheSameAnalysis)
{
    ServeConfig cfg = test_config("lintrace");
    Daemon d(cfg);
    d.start();

    // Script-less lint runs the analysis layer, whose memo tables the
    // concurrent tune also fills; the answer must not change.
    ServeRequest lint;
    lint.id = "l1";
    lint.op = "lint";
    lint.kernel = "sgemv_n";
    ServeClient lc(cfg.socket_path);
    ServeResponse expect;
    ASSERT_TRUE(lc.call(lint, &expect));
    ASSERT_TRUE(expect.ok()) << expect.detail;

    std::atomic<bool> tuning{true};
    std::atomic<int> tune_failures{0};
    std::thread tuner([&] {
        ServeClient tc(cfg.socket_path);
        for (const char* k : {"saxpy", "sdot", "sasum"}) {
            ServeResponse r;
            if (!tc.call(tune_request(k), &r) || !r.ok())
                tune_failures++;
        }
        tuning = false;
    });
    int lints = 0, mismatches = 0;
    while (tuning.load() || lints == 0) {
        ServeResponse r;
        if (!lc.call(lint, &r) || !r.ok() ||
            r.extra["lint"] != expect.extra.at("lint"))
            mismatches++;
        lints++;
    }
    tuner.join();
    EXPECT_EQ(tune_failures.load(), 0);
    EXPECT_EQ(mismatches, 0) << "of " << lints << " lint answers";
    d.stop();
}

TEST_F(ServeTest, MalformedRequestsAnswerErrorNotDisconnect)
{
    ServeConfig cfg = test_config("err");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    ServeRequest req;
    req.id = "e1";
    req.op = "frobnicate";
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.detail.find("frobnicate"), std::string::npos);

    req = tune_request("no_such_kernel");
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_EQ(resp.status, "error");

    req = tune_request("saxpy", "n=banana");
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.detail.find("banana"), std::string::npos);

    // The connection survived all three: ping still answers.
    req = ServeRequest();
    req.id = "e4";
    req.op = "ping";
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());

    d.stop();
    EXPECT_EQ(d.stats().errors, 3u);
}

TEST_F(ServeTest, SaturatedQueueRejectsWithRetryHintNeverErrors)
{
    ServeConfig cfg = test_config("backpressure");
    cfg.workers = 1;
    cfg.queue_capacity = 1;  // 1 running + 1 queued; the rest bounce
    Daemon d(cfg);
    d.start();

    constexpr int kClients = 6;
    std::vector<ServeResponse> resps(kClients);
    std::vector<std::thread> ts;
    for (int i = 0; i < kClients; i++) {
        ts.emplace_back([&, i] {
            ServeClient client(cfg.socket_path);
            ServeRequest req = tune_request();
            req.id = "c" + std::to_string(i);
            // No cache dir: every tune is a real multi-hundred-ms
            // search, holding the single worker busy.
            ASSERT_TRUE(client.call(req, &resps[i]));
        });
    }
    for (auto& t : ts)
        t.join();

    int ok = 0, rejected = 0, other = 0;
    for (const ServeResponse& r : resps) {
        if (r.ok() || r.degraded())
            ok++;
        else if (r.rejected())
            rejected++;
        else
            other++;
    }
    // Exactly one response per request, every one a defined status,
    // backpressure engaged, and nothing failed.
    EXPECT_EQ(ok + rejected, kClients);
    EXPECT_EQ(other, 0);
    EXPECT_GE(rejected, 1);
    EXPECT_GE(ok, 1);  // whoever won admission completed
    for (const ServeResponse& r : resps) {
        if (r.rejected()) {
            EXPECT_GT(r.retry_after_ms, 0);
            EXPECT_NE(r.detail.find("queue full"), std::string::npos);
        }
    }
    d.stop();
    EXPECT_EQ(d.stats().errors, 0u);
}

TEST_F(ServeTest, InjectedQueueFullDrivesTheRealRejectionPath)
{
    ServeConfig cfg = test_config("inject");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    verify::set_fault_spec(
        verify::parse_fault_spec("seed=11,queue_full=1"));
    verify::reset_fault_injection_counts();
    ServeResponse resp;
    ASSERT_TRUE(client.call(tune_request(), &resp));
    EXPECT_TRUE(resp.rejected());
    EXPECT_GT(resp.retry_after_ms, 0);
    EXPECT_NE(resp.detail.find("injected"), std::string::npos);
    EXPECT_GE(verify::fault_injection_counts().queue_full, 1u);

    // Control ops bypass the queue: stats answers even while every
    // admission is being rejected.
    ServeRequest sreq;
    sreq.id = "s";
    sreq.op = "stats";
    ASSERT_TRUE(client.call(sreq, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_GE(std::stoull(resp.extra.at("faults_fired")), 1ull);

    // Fault cleared: the same request now succeeds — rejection is a
    // state, not a scar.
    verify::clear_fault_spec();
    ASSERT_TRUE(client.call(tune_request(), &resp));
    EXPECT_TRUE(resp.ok()) << resp.detail;

    d.stop();
}

TEST_F(ServeTest, DeadlineProducesDegradedAnswerNotError)
{
    ServeConfig cfg = test_config("deadline");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    // 1 ms against a search that needs hundreds: the ladder must
    // answer something usable and flag it.
    ServeRequest req = tune_request();
    req.deadline_ms = 1;
    req.rounds = 8;
    req.restarts = 2;
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.degraded()) << resp.status << ": " << resp.detail;
    EXPECT_NE(resp.detail.find("deadline"), std::string::npos);
    EXPECT_GT(resp.naive_cost, 0);

    // With no deadline the identical request completes ok.
    req.deadline_ms = 0;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok()) << resp.detail;

    d.stop();
    EXPECT_EQ(d.stats().errors, 0u);
}

TEST_F(ServeTest, ExpiredInQueueSearchesNothingDespiteTuneEnv)
{
    // Variables an older tuner read as overrides must not revive the
    // search budget the "deadline expired" rung takes away.
    const char* const kStale[][2] = {{"EXO2_TUNE_ROUNDS", "5"},
                                     {"EXO2_TUNE_BEAM", "1"},
                                     {"EXO2_TUNE_DEADLINE", "1000"}};
    for (const auto& kv : kStale)
        setenv(kv[0], kv[1], 1);
    ServeConfig cfg = test_config("expired");
    cfg.workers = 1;
    Daemon d(cfg);
    d.start();

    // Hold the only worker with a long search, then queue a request
    // whose 1 ms budget runs out while it waits.
    ServeResponse slow;
    std::thread t([&] {
        ServeClient client(cfg.socket_path);
        ServeRequest req = tune_request();
        req.rounds = 8;
        req.restarts = 2;
        ASSERT_TRUE(client.call(req, &slow));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ServeClient client(cfg.socket_path);
    ServeRequest req = tune_request();
    req.id = "late";
    req.deadline_ms = 1;
    ServeResponse resp;
    EXPECT_TRUE(client.call(req, &resp));
    t.join();
    d.stop();
    for (const auto& kv : kStale)
        unsetenv(kv[0]);

    EXPECT_TRUE(slow.ok()) << slow.status << ": " << slow.detail;
    EXPECT_TRUE(resp.degraded()) << resp.status << ": " << resp.detail;
    EXPECT_EQ(resp.detail, "deadline expired before search began");
    EXPECT_EQ(resp.script, "");  // zero rounds: the naive schedule
}

TEST_F(ServeTest, ShutdownRequestDrainsGracefully)
{
    ServeConfig cfg = test_config("drain");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    ServeRequest req;
    req.id = "bye";
    req.op = "shutdown";
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.detail, "draining");

    d.join();  // drain completes on its own; no stop() needed
    EXPECT_FALSE(d.running());
    EXPECT_NE(access(cfg.socket_path.c_str(), F_OK), 0);
}

TEST_F(ServeTest, QueuedWorkFinishesDuringDrain)
{
    ServeConfig cfg = test_config("drainwork");
    cfg.workers = 1;
    Daemon d(cfg);
    d.start();

    // One slow tune in flight, then a drain: the admitted request
    // must still get its answer before the daemon exits.
    ServeResponse resp;
    std::thread t([&] {
        ServeClient client(cfg.socket_path);
        ASSERT_TRUE(client.call(tune_request(), &resp));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    d.request_stop();
    t.join();
    EXPECT_TRUE(resp.ok() || resp.degraded())
        << resp.status << ": " << resp.detail;
    d.join();
}

TEST_F(ServeTest, UnvalidatedTuneAnswersDegraded)
{
    ServeConfig cfg = test_config("unvalidated");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    // Every C-oracle build fails, so the tri-oracle can pass no
    // candidate: the tune asked for validation and got none.
    verify::set_fault_spec(verify::parse_fault_spec("compile_fail=1"));
    ServeRequest req = tune_request();
    req.validate = 1;
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.degraded()) << resp.status << ": " << resp.detail;
    EXPECT_FALSE(resp.validated);
    EXPECT_NE(resp.detail.find("validation unavailable"),
              std::string::npos)
        << resp.detail;
    EXPECT_GE(verify::fault_injection_counts().compile_fail, 1u);
    verify::clear_fault_spec();
    d.stop();
}

// ---------------------------------------------------------------------------
// Connections: one I/O thread, non-blocking sockets
// ---------------------------------------------------------------------------

/** A raw non-blocking stream connection to the daemon (-1 on
 *  failure), for tests that write partial or corrupt frames; the
 *  framing helpers bound every wait on it. */
int
connect_raw(const std::string& path)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd >= 0 && connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
        close(fd);
        fd = -1;
    }
    return fd;
}

/** A request frame: 4-byte little-endian length, then the payload. */
std::string
frame_bytes(const ServeRequest& req)
{
    std::string payload = req.to_wire();
    uint32_t len = static_cast<uint32_t>(payload.size());
    std::string out;
    for (int i = 0; i < 4; i++)
        out += static_cast<char>((len >> (8 * i)) & 0xff);
    return out + payload;
}

ServeRequest
ping_request(const char* id)
{
    ServeRequest req;
    req.id = id;
    req.op = "ping";
    return req;
}

/** The `Threads:` line of /proc/self/status. */
int
thread_count()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    }
    return -1;
}

TEST_F(ServeTest, OpenConnectionsAddNoThreads)
{
    ServeConfig cfg = test_config("threads");
    Daemon d(cfg);
    d.start();
    int before = thread_count();
    ASSERT_GT(before, 0);

    // Every connection answers a ping, so all 32 are accepted and
    // being served while the count is taken.
    std::vector<std::unique_ptr<ServeClient>> clients;
    for (int i = 0; i < 32; i++) {
        clients.push_back(std::make_unique<ServeClient>(cfg.socket_path));
        ServeResponse resp;
        ASSERT_TRUE(clients.back()->call(ping_request("p"), &resp));
        ASSERT_TRUE(resp.ok());
    }
    EXPECT_EQ(thread_count(), before);
    EXPECT_EQ(d.stats().connections, 32u);
    clients.clear();
    d.stop();
}

TEST_F(ServeTest, StopIsPromptWhileAClientHoldsAHalfSentFrame)
{
    ServeConfig cfg = test_config("stall");
    Daemon d(cfg);
    d.start();
    int fd = connect_raw(cfg.socket_path);
    ASSERT_GE(fd, 0);
    // The header and half the payload, then nothing.
    std::string f = frame_bytes(ping_request("stalled"));
    size_t half = 4 + (f.size() - 4) / 2;
    ASSERT_EQ(write(fd, f.data(), half), static_cast<ssize_t>(half));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Should stop() wait on the stalled client, the client gives up
    // after 5 s, so this test fails instead of hanging.
    std::atomic<bool> stopped{false};
    std::thread giveup([&] {
        for (int i = 0; i < 500 && !stopped.load(); i++)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        shutdown(fd, SHUT_RDWR);
    });
    auto t0 = std::chrono::steady_clock::now();
    d.stop();
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    stopped.store(true);
    giveup.join();
    close(fd);
    EXPECT_LT(s, 2.0);
    EXPECT_FALSE(d.running());
}

TEST_F(ServeTest, FrameSplitAcrossASlowSendIsStillAnswered)
{
    ServeConfig cfg = test_config("slow");
    Daemon d(cfg);
    d.start();
    int fd = connect_raw(cfg.socket_path);
    ASSERT_GE(fd, 0);

    std::string f = frame_bytes(ping_request("slow"));
    ASSERT_EQ(write(fd, f.data(), 4), 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    ASSERT_EQ(write(fd, f.data() + 4, f.size() - 4),
              static_cast<ssize_t>(f.size() - 4));
    std::string got;
    ASSERT_TRUE(read_frame(fd, &got, 5.0));
    ServeResponse resp = ServeResponse::from_wire(got);
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.id, "slow");

    // The buffer is left clean: the next frame on the same connection
    // is answered too.
    ASSERT_TRUE(write_frame(fd, ping_request("next").to_wire(), 5.0));
    ASSERT_TRUE(read_frame(fd, &got, 5.0));
    resp = ServeResponse::from_wire(got);
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.id, "next");
    close(fd);
    d.stop();
}

TEST_F(ServeTest, OversizedLengthPrefixClosesOnlyThatConnection)
{
    ServeConfig cfg = test_config("bomb");
    Daemon d(cfg);
    d.start();
    ServeClient other(cfg.socket_path);
    ServeResponse resp;
    ASSERT_TRUE(other.call(ping_request("before"), &resp));

    int fd = connect_raw(cfg.socket_path);
    ASSERT_GE(fd, 0);
    unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(write(fd, huge, 4), 4);
    // The daemon hangs up: the read sees EOF, not a response.
    std::string got;
    EXPECT_FALSE(read_frame(fd, &got, 5.0));
    char b;
    EXPECT_EQ(recv(fd, &b, 1, MSG_DONTWAIT), 0);
    close(fd);

    ASSERT_TRUE(other.call(ping_request("after"), &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.id, "after");
    d.stop();
}

/** Pipeline pings on `fd` until the socket takes no more for 0.5 s
 *  (the daemon stopped reading it) or `limit` frames are sent. */
int
flood_pings(int fd, int limit)
{
    std::string wire = ping_request("flood").to_wire();
    int sent = 0;
    while (sent < limit && write_frame(fd, wire, 0.5))
        sent++;
    return sent;
}

/** Seconds one ping on a fresh connection takes to be answered. */
double
ping_seconds(const std::string& path)
{
    auto t0 = std::chrono::steady_clock::now();
    ServeClient c(path);
    ServeResponse resp;
    if (!c.call(ping_request("other"), &resp) || !resp.ok())
        return 1e9;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

TEST_F(ServeTest, ClientThatNeverReadsStallsNoOneElse)
{
    ServeConfig cfg = test_config("noread");
    Daemon d(cfg);
    d.start();
    int fd = connect_raw(cfg.socket_path);
    ASSERT_GE(fd, 0);

    // Once its unread answers pass the high-water mark the daemon
    // stops reading this client, so the flood ends instead of growing
    // the daemon's buffers.
    auto t0 = std::chrono::steady_clock::now();
    int sent = flood_pings(fd, 1000000);
    double flood_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_LT(sent, 1000000);
    EXPECT_LT(flood_s, 4.0);

    EXPECT_LT(ping_seconds(cfg.socket_path), 0.25);
    t0 = std::chrono::steady_clock::now();
    d.stop();
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              2.0);
    close(fd);
}

TEST_F(ServeTest, SlowReaderStallsNoOneElse)
{
    ServeConfig cfg = test_config("slowread");
    Daemon d(cfg);
    d.start();
    int fd = connect_raw(cfg.socket_path);
    ASSERT_GE(fd, 0);

    // The client pipelines pings and takes 100 answers every 50 ms: its
    // socket keeps making room, so no wait for room on it is long, but
    // its answers pile up faster than it reads them.
    std::atomic<bool> done{false};
    std::atomic<int> taken{0};
    std::thread writer([&] { flood_pings(fd, 5000); });
    std::thread reader([&] {
        std::string got;
        while (!done.load() && read_frame(fd, &got, 5.0)) {
            if (++taken % 100 == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int i = 0; i < 5; i++)
        EXPECT_LT(ping_seconds(cfg.socket_path), 0.25);
    EXPECT_GT(taken.load(), 0);

    auto t0 = std::chrono::steady_clock::now();
    d.stop();
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              2.0);
    done.store(true);
    writer.join();
    reader.join();
    close(fd);
}

// ---------------------------------------------------------------------------
// Crash-only: kill -9, restart, self-heal
// ---------------------------------------------------------------------------

/** Run a daemon in a forked child (its own process, so SIGKILL is
 *  real). The child serves until killed. */
pid_t
spawn_daemon_process(const ServeConfig& cfg)
{
    pid_t pid = fork();
    if (pid == 0) {
        Daemon d(cfg);
        try {
            d.start();
        } catch (...) {
            _exit(3);
        }
        for (;;)
            pause();
        _exit(0);  // unreachable
    }
    return pid;
}

bool
wait_for_socket(const std::string& path, double seconds = 5.0)
{
    for (int i = 0; i < static_cast<int>(seconds * 100); i++) {
        ServeClient probe(path, 1.0);
        if (probe.connect())
            return true;
        usleep(10 * 1000);
    }
    return false;
}

TEST_F(ServeTest, Kill9RestartSelfHeals)
{
    std::string dir = fresh_dir("kill9");
    setenv("EXO2_CACHE_DIR", dir.c_str(), 1);
    ServeConfig cfg = test_config("kill9");

    // Generation 1: populate the persistent caches.
    pid_t gen1 = spawn_daemon_process(cfg);
    ASSERT_GT(gen1, 0);
    ASSERT_TRUE(wait_for_socket(cfg.socket_path));

    ServeResponse cold;
    {
        ServeClient client(cfg.socket_path);
        ASSERT_TRUE(client.call(tune_request(), &cold));
        ASSERT_TRUE(cold.ok()) << cold.detail;
        ASSERT_FALSE(cold.script.empty());
    }

    // Kill -9 with a request in flight — the worst instant.
    std::thread inflight([&] {
        ServeClient client(cfg.socket_path);
        ServeRequest req = tune_request("sdot", "n=512");
        req.rounds = 8;
        req.restarts = 2;
        ServeResponse r;
        client.call(req, &r);  // transport failure expected
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    kill(gen1, SIGKILL);
    int st = 0;
    waitpid(gen1, &st, 0);
    ASSERT_TRUE(WIFSIGNALED(st));
    inflight.join();

    // Plant an orphan temp file as a stand-in for a write the kill
    // interrupted (deterministic evidence for the sweep).
    std::ofstream(dir + "/tune/zz.tune.tmp.999999999.1") << "orphan";

    // Generation 2: same socket path (stale file reclaimed), same
    // cache dir (swept + revalidated).
    pid_t gen2 = spawn_daemon_process(cfg);
    ASSERT_GT(gen2, 0);
    ASSERT_TRUE(wait_for_socket(cfg.socket_path));

    ServeClient client(cfg.socket_path);
    ServeResponse warm = client.call_with_retry(tune_request());
    ASSERT_TRUE(warm.ok()) << warm.status << ": " << warm.detail;
    EXPECT_TRUE(warm.from_cache);  // gen-1's winner survived the crash
    EXPECT_EQ(warm.script, cold.script);

    ServeRequest sreq;
    sreq.id = "s";
    sreq.op = "stats";
    ServeResponse stats;
    ASSERT_TRUE(client.call(sreq, &stats));
    EXPECT_GE(std::stoull(stats.extra.at("tmp_swept")), 1ull);
    EXPECT_GE(std::stoull(stats.extra.at("tune_cache_hits")), 1ull);

    kill(gen2, SIGKILL);
    waitpid(gen2, &st, 0);
    unlink(cfg.socket_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace exo2
