#include "src/serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

namespace exo2 {
namespace serve {

ServeClient::ServeClient(std::string socket_path,
                         double timeout_seconds)
    : path_(std::move(socket_path)), timeout_(timeout_seconds) {}

ServeClient::~ServeClient() { disconnect(); }

bool
ServeClient::connect()
{
    disconnect();
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path))
        return false;
    std::strncpy(addr.sun_path, path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        close(fd);
        return false;
    }
    fd_ = fd;
    return true;
}

void
ServeClient::disconnect()
{
    if (fd_ >= 0) {
        close(fd_);
        fd_ = -1;
    }
}

bool
ServeClient::call(const ServeRequest& req, ServeResponse* resp)
{
    *resp = ServeResponse();
    resp->id = req.id;
    resp->status = "error";
    if (fd_ < 0 && !connect()) {
        resp->detail = "connect failed: " + path_;
        return false;
    }
    if (!write_frame(fd_, req.to_wire(), timeout_)) {
        resp->detail = "transport: write failed";
        disconnect();
        return false;
    }
    std::string payload;
    if (!read_frame(fd_, &payload, timeout_)) {
        resp->detail = "transport: read failed (daemon gone?)";
        disconnect();
        return false;
    }
    *resp = ServeResponse::from_wire(payload);
    return true;
}

ServeResponse
ServeClient::call_with_retry(const ServeRequest& req, int max_attempts)
{
    ServeResponse resp;
    for (int attempt = 0; attempt < max_attempts; attempt++) {
        bool transported = call(req, &resp);
        if (transported && !resp.rejected())
            return resp;
        // Backpressure or a daemon restart: both are "try again
        // shortly", with the daemon's own hint when it gave one.
        int sleep_ms =
            resp.rejected() && resp.retry_after_ms > 0
                ? resp.retry_after_ms
                : 50 * (attempt + 1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sleep_ms));
    }
    return resp;  // final rejected/error after exhausting attempts
}

}  // namespace serve
}  // namespace exo2
