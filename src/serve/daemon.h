#ifndef EXO2_SERVE_DAEMON_H_
#define EXO2_SERVE_DAEMON_H_

/**
 * @file
 * The scheduling daemon `exo2d` (DESIGN.md §8): a long-running
 * service that answers tune/schedule requests over a unix-domain
 * socket, built crash-only on the persistent caches of src/cache/.
 *
 * Architecture:
 *
 *   I/O thread: poll() over the listening socket and every client
 *        │      accept; append readable bytes to the connection's
 *        │      buffer; decode each complete frame
 *        │      ping/stats/metrics/shutdown: answered inline
 *        ▼
 *   bounded request queue ── full? ──> REJECTED (retry_after_ms)
 *        │
 *        ▼
 *   worker thread pool ── engine mutex (the scheduling engine's memo
 *        │                caches are single-threaded by design)
 *        ▼
 *   autotune / replay / lint  ──>  response frame
 *
 * Robustness posture — every request gets exactly one response and
 * the daemon never dies on a request's behalf:
 *
 *  - **No thread per client**: sockets are non-blocking and a
 *    connection costs one buffer, so a client that stalls mid-frame
 *    holds no thread and cannot delay a drain. No write waits: answers
 *    go to a per-connection buffer that the I/O thread flushes when
 *    the socket has room, and a connection whose client leaves 256 KB
 *    of answers unread is not read until it catches up. EOF, a read or
 *    write error, or a length prefix over kMaxFrameBytes closes that
 *    connection only.
 *  - **Backpressure**: the queue is bounded (ServeConfig::queue_capacity).
 *    A full queue (real, or injected via the `queue_full` fault site)
 *    answers `rejected` + `retry_after_ms` immediately instead of
 *    growing without bound. Clients retry; memory does not.
 *  - **Deadlines**: each request carries a wall-clock budget, counted
 *    from *admission* (queue wait included). The degradation ladder:
 *    budget left -> full search; budget expires mid-search -> the
 *    tuner's best-so-far, `degraded`; budget already gone at dequeue
 *    -> cached winner if one replays, else the naive schedule,
 *    `degraded`. Deadlines produce weaker answers, never errors.
 *  - **Drain**: request_stop() (SIGTERM in exo2d) stops admission —
 *    late arrivals are `rejected` with "draining" — finishes every
 *    queued request, sends each client what its socket has room for,
 *    then joins. Caches need no flush: their writes are write-through
 *    (atomic rename + fsync at store time).
 *  - **Crash-only**: kill -9 at any instant leaves only temp files and
 *    possibly-torn unreferenced entries; the next daemon's cache
 *    construction sweeps orphans and quarantines damage (cache.h).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/protocol.h"

namespace exo2 {
namespace serve {

/** Daemon configuration; from_env reads the EXO2_SERVE_* variable
 *  noted per field. */
struct ServeConfig
{
    std::string socket_path = "/tmp/exo2d.sock";  ///< (EXO2_SERVE_SOCKET)
    int workers = 4;            ///< worker threads (EXO2_SERVE_WORKERS)
    int queue_capacity = 64;    ///< bounded queue (EXO2_SERVE_QUEUE)
    double default_deadline_seconds = 0;  ///< 0 = none (EXO2_SERVE_DEADLINE)

    /** Defaults overridden by EXO2_SERVE_SOCKET, EXO2_SERVE_WORKERS,
     *  EXO2_SERVE_QUEUE, EXO2_SERVE_DEADLINE (seconds). Throws
     *  ConfigError on out-of-range values (util/env.h) — a
     *  misconfigured daemon must not start. */
    static ServeConfig from_env();
};

/** Service counters (stats() and the op=stats response): a read of the
 *  `serve.*` registry counters (obs/metrics.h). Like every registry
 *  counter they are process-wide and monotonic until
 *  obs::reset_metrics(); one daemon runs per exo2d process. */
struct ServeStats
{
    uint64_t connections = 0;
    uint64_t requests = 0;        ///< frames decoded into requests
    uint64_t completed = 0;       ///< responses with status ok
    uint64_t degraded = 0;        ///< responses with status degraded
    uint64_t rejected = 0;        ///< backpressure/drain rejections
    uint64_t errors = 0;          ///< responses with status error
    uint64_t queue_peak = 0;      ///< high-water mark of queue depth
    uint64_t deadline_expired = 0;  ///< budget gone before dequeue
    /** Schedule submissions refused at admission because the static
     *  linter (DESIGN.md §9) proved an Error-level violation. */
    uint64_t lint_rejects = 0;
};

class Daemon
{
  public:
    explicit Daemon(ServeConfig cfg);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Bind the socket and start the I/O thread + workers. Throws
     *  ConfigError when the socket cannot be created (path too long,
     *  directory missing, ...). */
    void start();

    /** Begin a graceful drain: stop admitting, finish the queue, then
     *  stop the threads. Safe from signal-driven contexts via a
     *  self-pipe in exo2d; idempotent. */
    void request_stop();

    /** Block until a drain requested by request_stop() (or a shutdown
     *  request frame) has completed and all threads are joined. */
    void join();

    /** request_stop() + join(); called by the destructor. */
    void stop();

    bool running() const { return running_.load(); }
    bool draining() const { return draining_.load(); }
    const ServeConfig& config() const { return cfg_; }
    /** The counters, read one by one; never blocks a worker. */
    ServeStats stats() const;

  private:
    struct Conn;
    struct Job;

    void io_main();
    /** Answer a control op inline, or admit the request to the queue
     *  (or reject it). Runs on the I/O thread. */
    void dispatch(const std::shared_ptr<Conn>& conn,
                  const std::string& payload);
    void worker_main();

    /** Handle one decoded request end-to-end (never throws). */
    ServeResponse process(const ServeRequest& req,
                          double admitted_monotonic);

    ServeResponse process_tune(const ServeRequest& req,
                               double admitted_monotonic);
    ServeResponse process_schedule(const ServeRequest& req);
    ServeResponse process_lint(const ServeRequest& req);

    void send_response(const std::shared_ptr<Conn>& conn,
                       const ServeResponse& resp);

    ServeConfig cfg_;
    int listen_fd_ = -1;

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};

    std::mutex mu_;  ///< guards queue_
    std::condition_variable queue_cv_;
    std::deque<Job> queue_;
    /** Generates "r<n>" request ids for frames that arrive without
     *  one, so telemetry can always attribute a request. I/O thread
     *  only. */
    uint64_t req_seq_ = 0;

    /** The scheduling engine (analysis memo caches, cost-sim cache,
     *  interning tables) is single-threaded by design (ROADMAP);
     *  every worker takes this around engine work. Cache I/O, framing,
     *  and backpressure run outside it. */
    std::mutex engine_mu_;

    std::thread io_;
    std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace exo2

#endif  // EXO2_SERVE_DAEMON_H_
