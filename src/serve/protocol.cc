#include "src/serve/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "src/ir/errors.h"

namespace exo2 {
namespace serve {

namespace {

/** Wait until `fd` is ready for `events` (POLLIN/POLLOUT) within the
 *  deadline. False on timeout or poll error. */
bool
wait_ready(int fd, short events, double timeout_seconds)
{
    struct pollfd pfd = {fd, events, 0};
    int ms = std::max(1, static_cast<int>(timeout_seconds * 1000.0 + 0.5));
    int rc;
    while ((rc = poll(&pfd, 1, ms)) < 0 && errno == EINTR) {
    }
    return rc > 0 && (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
}

/** Send (`sending`) or receive all `len` bytes, waiting at most
 *  `timeout_seconds` each time the socket is not ready. False on a
 *  timeout, an error, or EOF mid-frame. */
bool
transfer_all(int fd, char* data, size_t len, bool sending,
             double timeout_seconds)
{
    size_t off = 0;
    while (off < len) {
        // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE,
        // not kill the daemon with SIGPIPE.
        ssize_t n = sending ? send(fd, data + off, len - off, MSG_NOSIGNAL)
                            : recv(fd, data + off, len - off, 0);
        if (n > 0)
            off += static_cast<size_t>(n);
        else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!wait_ready(fd, sending ? POLLOUT : POLLIN,
                            timeout_seconds))
                return false;
        } else if (n == 0 || errno != EINTR)
            return false;
    }
    return true;
}

/** The little-endian payload length of a 4-byte frame header. */
uint32_t
frame_length(const char* hdr)
{
    uint32_t len = 0;
    for (int i = 3; i >= 0; i--)
        len = (len << 8) | static_cast<unsigned char>(hdr[i]);
    return len;
}

}  // namespace

bool
append_frame(std::string* buf, const std::string& payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    uint32_t len = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; i++)
        buf->push_back(static_cast<char>((len >> (8 * i)) & 0xff));
    buf->append(payload);
    return true;
}

bool
write_frame(int fd, const std::string& payload, double timeout_seconds)
{
    std::string frame;
    return append_frame(&frame, payload) &&
           transfer_all(fd, &frame[0], frame.size(), true,
                        timeout_seconds);
}

bool
read_frame(int fd, std::string* out, double timeout_seconds)
{
    char hdr[4];
    if (!wait_ready(fd, POLLIN, timeout_seconds))
        return false;
    if (!transfer_all(fd, hdr, 4, false, timeout_seconds))
        return false;
    uint32_t len = frame_length(hdr);
    if (len > kMaxFrameBytes)
        return false;  // corrupt prefix; don't trust it with memory
    out->resize(len);
    if (len == 0)
        return true;
    return transfer_all(fd, &(*out)[0], len, false, timeout_seconds);
}

FrameStatus
take_frame(const std::string& buf, size_t* pos, std::string* out)
{
    if (buf.size() - *pos < 4)
        return FrameStatus::Incomplete;
    uint32_t len = frame_length(buf.data() + *pos);
    if (len > kMaxFrameBytes)
        return FrameStatus::Oversized;
    if (buf.size() - *pos - 4 < len)
        return FrameStatus::Incomplete;
    out->assign(buf, *pos + 4, len);
    *pos += 4 + len;
    return FrameStatus::Complete;
}

std::string
escape_value(const std::string& v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
unescape_value(const std::string& v)
{
    std::string out;
    out.reserve(v.size());
    for (size_t i = 0; i < v.size(); i++) {
        if (v[i] == '\\' && i + 1 < v.size()) {
            i++;
            out += v[i] == 'n' ? '\n' : v[i];
        } else {
            out += v[i];
        }
    }
    return out;
}

std::string
encode_kv(const std::map<std::string, std::string>& kv)
{
    std::string out;
    for (const auto& [k, v] : kv) {
        out += k;
        out += '=';
        out += escape_value(v);
        out += '\n';
    }
    return out;
}

std::map<std::string, std::string>
decode_kv(const std::string& text)
{
    std::map<std::string, std::string> kv;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        size_t eq = text.find('=', pos);
        if (eq != std::string::npos && eq < nl) {
            kv[text.substr(pos, eq - pos)] =
                unescape_value(text.substr(eq + 1, nl - eq - 1));
        }
        pos = nl + 1;
    }
    return kv;
}

namespace {

/** A numeric field: `fallback` when absent or empty; ConfigError
 *  unless the whole value parses as a T. */
template <typename T>
T
kv_num(const std::map<std::string, std::string>& kv, const char* key,
       T fallback)
{
    auto it = kv.find(key);
    if (it == kv.end() || it->second.empty())
        return fallback;
    try {
        size_t used = 0;
        T v = std::is_integral_v<T> ? std::stoi(it->second, &used)
                                    : std::stod(it->second, &used);
        if (used == it->second.size())
            return v;
    } catch (const std::exception&) {
    }
    throw ConfigError(std::string("request field '") + key + "' = '" +
                      it->second + "' is not " +
                      (std::is_integral_v<T> ? "an integer" : "a number"));
}

std::string
kv_str(const std::map<std::string, std::string>& kv, const char* key,
       const std::string& fallback)
{
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
}

}  // namespace

std::string
ServeRequest::to_wire() const
{
    std::map<std::string, std::string> kv;
    kv["id"] = id;
    kv["op"] = op;
    if (!kernel.empty())
        kv["kernel"] = kernel;
    if (!machine.empty())
        kv["machine"] = machine;
    if (!sizes.empty())
        kv["sizes"] = sizes;
    if (deadline_ms > 0)
        kv["deadline_ms"] = std::to_string(deadline_ms);
    if (beam > 0)
        kv["beam"] = std::to_string(beam);
    if (rounds > 0)
        kv["rounds"] = std::to_string(rounds);
    if (restarts >= 0)
        kv["restarts"] = std::to_string(restarts);
    if (jit_topk >= 0)
        kv["jit_topk"] = std::to_string(jit_topk);
    if (validate >= 0)
        kv["validate"] = std::to_string(validate);
    if (!script.empty())
        kv["script"] = script;
    return encode_kv(kv);
}

ServeRequest
ServeRequest::from_wire(const std::string& payload)
{
    auto kv = decode_kv(payload);
    ServeRequest r;
    r.id = kv_str(kv, "id", "");
    r.op = kv_str(kv, "op", "");
    r.kernel = kv_str(kv, "kernel", "");
    r.machine = kv_str(kv, "machine", "AVX2");
    r.sizes = kv_str(kv, "sizes", "");
    r.deadline_ms = kv_num<double>(kv, "deadline_ms", 0);
    r.beam = kv_num<int>(kv, "beam", 0);
    r.rounds = kv_num<int>(kv, "rounds", 0);
    r.restarts = kv_num<int>(kv, "restarts", -1);
    r.jit_topk = kv_num<int>(kv, "jit_topk", -1);
    r.validate = kv_num<int>(kv, "validate", -1);
    r.script = kv_str(kv, "script", "");
    return r;
}

std::string
ServeResponse::to_wire() const
{
    std::map<std::string, std::string> kv = extra;
    kv["id"] = id;
    kv["status"] = status;
    if (!detail.empty())
        kv["detail"] = detail;
    if (retry_after_ms > 0)
        kv["retry_after_ms"] = std::to_string(retry_after_ms);
    if (!script.empty())
        kv["script"] = script;
    char buf[64];
    if (cost > 0) {
        std::snprintf(buf, sizeof(buf), "%.17g", cost);
        kv["cost"] = buf;
    }
    if (naive_cost > 0) {
        std::snprintf(buf, sizeof(buf), "%.17g", naive_cost);
        kv["naive_cost"] = buf;
    }
    kv["validated"] = validated ? "1" : "0";
    kv["from_cache"] = from_cache ? "1" : "0";
    std::snprintf(buf, sizeof(buf), "%.3f", elapsed_ms);
    kv["elapsed_ms"] = buf;
    return encode_kv(kv);
}

ServeResponse
ServeResponse::from_wire(const std::string& payload)
{
    auto kv = decode_kv(payload);
    ServeResponse r;
    r.id = kv_str(kv, "id", "");
    r.status = kv_str(kv, "status", "error");
    r.detail = kv_str(kv, "detail", "");
    r.retry_after_ms = kv_num<int>(kv, "retry_after_ms", 0);
    r.script = kv_str(kv, "script", "");
    r.cost = kv_num<double>(kv, "cost", 0);
    r.naive_cost = kv_num<double>(kv, "naive_cost", 0);
    r.validated = kv_num<int>(kv, "validated", 0) != 0;
    r.from_cache = kv_num<int>(kv, "from_cache", 0) != 0;
    r.elapsed_ms = kv_num<double>(kv, "elapsed_ms", 0);
    r.extra = std::move(kv);
    for (const char* known :
         {"id", "status", "detail", "retry_after_ms", "script", "cost",
          "naive_cost", "validated", "from_cache", "elapsed_ms"})
        r.extra.erase(known);
    return r;
}

}  // namespace serve
}  // namespace exo2
