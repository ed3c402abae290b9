#ifndef EXO2_SERVE_CLIENT_H_
#define EXO2_SERVE_CLIENT_H_

/**
 * @file
 * Client side of the scheduling daemon's protocol: connect to the
 * unix socket, send one framed request, read one framed response.
 *
 * `call_with_retry` is the production entry point: it honours the
 * daemon's backpressure contract by sleeping `retry_after_ms` on a
 * `rejected` response and re-sending, up to a bounded attempt count.
 * Transport failures (daemon not up yet, daemon killed mid-call)
 * retry the connection the same way — the caller sees either a
 * daemon response or a final transport error, never an exception.
 */

#include <string>

#include "src/serve/protocol.h"

namespace exo2 {
namespace serve {

class ServeClient
{
  public:
    explicit ServeClient(std::string socket_path,
                         double timeout_seconds = 30.0);
    ~ServeClient();

    ServeClient(const ServeClient&) = delete;
    ServeClient& operator=(const ServeClient&) = delete;

    /** (Re)connect. False when the daemon is not accepting. */
    bool connect();
    void disconnect();
    bool connected() const { return fd_ >= 0; }

    /** One request/response round-trip on the open connection.
     *  False on transport failure (response then holds status=error
     *  with a transport detail). */
    bool call(const ServeRequest& req, ServeResponse* resp);

    /** call() + reconnect-on-transport-failure + bounded honouring of
     *  `rejected`/`retry_after_ms` backpressure. Returns the final
     *  response; `rejected` after `max_attempts` is returned as-is so
     *  the caller can account for shed load. */
    ServeResponse call_with_retry(const ServeRequest& req,
                                  int max_attempts = 10);

  private:
    std::string path_;
    double timeout_;
    int fd_ = -1;
};

}  // namespace serve
}  // namespace exo2

#endif  // EXO2_SERVE_CLIENT_H_
