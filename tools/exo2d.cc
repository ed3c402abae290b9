/**
 * @file
 * exo2d — the scheduling daemon (DESIGN.md §8).
 *
 * Serves tune/schedule/lint requests over a unix-domain socket — one
 * I/O thread for every client connection plus a pool of worker
 * threads — using the persistent caches when EXO2_CACHE_DIR is set.
 * Configuration comes from EXO2_SERVE_SOCKET, EXO2_SERVE_WORKERS,
 * EXO2_SERVE_QUEUE and EXO2_SERVE_DEADLINE (see
 * serve::ServeConfig::from_env) with a few command-line overrides:
 *
 *   exo2d [--socket PATH] [--workers N] [--queue N]
 *
 * exo2d exits after its first graceful drain (a shutdown request or
 * SIGTERM).
 *
 * SIGTERM/SIGINT begin a drain: stop admitting (late arrivals get
 * `rejected`/"draining"), finish every queued request, send the
 * answers (the caches need no flush: their writes are write-through),
 * exit 0. SIGKILL is the crash-only path: the next start self-heals
 * the caches and reclaims the stale socket file.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <string>

#include "src/ir/errors.h"
#include "src/serve/daemon.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
on_signal(int)
{
    // Only the flag is touched here (async-signal-safe); the main
    // thread polls it and runs the actual drain.
    g_stop = 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    using exo2::serve::Daemon;
    using exo2::serve::ServeConfig;

    ServeConfig cfg;
    try {
        cfg = ServeConfig::from_env();
    } catch (const std::exception& e) {
        std::cerr << "exo2d: " << e.what() << "\n";
        return 2;
    }

    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto need = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "exo2d: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--socket") {
            cfg.socket_path = need("--socket");
        } else if (a == "--workers") {
            cfg.workers = std::atoi(need("--workers"));
        } else if (a == "--queue") {
            cfg.queue_capacity = std::atoi(need("--queue"));
        } else if (a == "--help" || a == "-h") {
            std::cerr << "usage: exo2d [--socket PATH] [--workers N] "
                         "[--queue N]\n";
            return 0;
        } else {
            std::cerr << "exo2d: unknown flag '" << a << "'\n";
            return 2;
        }
    }
    if (cfg.workers < 1 || cfg.queue_capacity < 1) {
        std::cerr << "exo2d: --workers and --queue must be >= 1\n";
        return 2;
    }

    Daemon daemon(cfg);
    try {
        daemon.start();
    } catch (const std::exception& e) {
        std::cerr << "exo2d: " << e.what() << "\n";
        return 2;
    }

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    std::cerr << "exo2d: serving on " << cfg.socket_path << " ("
              << cfg.workers << " workers, queue "
              << cfg.queue_capacity << ")\n";
    // Serve until SIGTERM/SIGINT or a shutdown request starts a drain.
    while (!g_stop && !daemon.draining()) {
        struct timespec ts = {0, 100 * 1000 * 1000};
        nanosleep(&ts, nullptr);
    }
    daemon.stop();  // drain: finish the queue, then join every thread

    exo2::serve::ServeStats s = daemon.stats();
    std::cerr << "exo2d: drained; " << s.requests << " requests ("
              << s.completed << " ok, " << s.degraded << " degraded, "
              << s.rejected << " rejected, " << s.errors
              << " errors)\n";
    return 0;
}
