#include "serve/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "snark/serialize.h"

namespace zkp::serve::wire {

namespace {

using snark::ByteReader;
using snark::ByteWriter;

void
putBytes(ByteWriter& w, const std::vector<std::uint8_t>& bytes)
{
    w.putU64(bytes.size());
    for (std::uint8_t b : bytes)
        w.putU8(b);
}

void
putString(ByteWriter& w, const std::string& s)
{
    w.putU64(s.size());
    for (char c : s)
        w.putU8((std::uint8_t)c);
}

bool
getBytes(ByteReader& r, std::vector<std::uint8_t>& out)
{
    u64 n;
    if (!r.getU64(n) || n > r.remaining())
        return false;
    out.resize((std::size_t)n);
    for (auto& b : out)
        if (!r.getU8(b))
            return false;
    return true;
}

bool
getString(ByteReader& r, std::string& out)
{
    std::vector<std::uint8_t> bytes;
    if (!getBytes(r, bytes))
        return false;
    out.assign(bytes.begin(), bytes.end());
    return true;
}

/// Full read/write helpers riding out EINTR and short transfers.
bool
readAll(int fd, void* buf, std::size_t n)
{
    auto* p = static_cast<std::uint8_t*>(buf);
    while (n > 0) {
        const ssize_t got = ::read(fd, p, n);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false; // EOF
        p += got;
        n -= (std::size_t)got;
    }
    return true;
}

bool
writeAll(int fd, const void* buf, std::size_t n)
{
    const auto* p = static_cast<const std::uint8_t*>(buf);
    while (n > 0) {
        // MSG_NOSIGNAL: a peer that disconnected mid-response must
        // surface as EPIPE here, not as a process-killing SIGPIPE.
        const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += put;
        n -= (std::size_t)put;
    }
    return true;
}

} // namespace

std::vector<std::uint8_t>
encodePayload(const Frame& frame)
{
    ByteWriter w;
    snark::writeVersionHeader(w);
    w.putU8((std::uint8_t)frame.type);
    w.putU64(frame.id);
    for (std::uint8_t b : frame.body)
        w.putU8(b);
    return w.bytes();
}

std::optional<Frame>
decodePayload(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload);
    std::uint8_t schema = 0;
    if (snark::consumeVersionHeader(r, schema) !=
        snark::Header::Framed)
        return std::nullopt;
    Frame f;
    std::uint8_t type;
    if (!r.getU8(type) || !r.getU64(f.id))
        return std::nullopt;
    f.type = (MsgType)type;
    f.body.resize(r.remaining());
    for (auto& b : f.body)
        if (!r.getU8(b))
            return std::nullopt;
    return f;
}

std::vector<std::uint8_t>
encodeProveRequest(const ProveRequest& m)
{
    ByteWriter w;
    w.putU8((std::uint8_t)m.priority);
    w.putU64(m.timeoutMicros);
    putString(w, m.circuit);
    putBytes(w, m.publicInputs);
    putBytes(w, m.privateInputs);
    return w.bytes();
}

std::optional<ProveRequest>
decodeProveRequest(const std::vector<std::uint8_t>& body)
{
    ByteReader r(body);
    ProveRequest m;
    std::uint8_t prio;
    if (!r.getU8(prio) || prio > (std::uint8_t)Priority::Batch)
        return std::nullopt;
    m.priority = (Priority)prio;
    if (!r.getU64(m.timeoutMicros) || !getString(r, m.circuit) ||
        !getBytes(r, m.publicInputs) ||
        !getBytes(r, m.privateInputs) || !r.atEnd())
        return std::nullopt;
    return m;
}

std::vector<std::uint8_t>
encodeVerifyRequest(const VerifyRequest& m)
{
    ByteWriter w;
    w.putU8((std::uint8_t)m.priority);
    w.putU64(m.timeoutMicros);
    putString(w, m.circuit);
    putBytes(w, m.publicInputs);
    putBytes(w, m.proof);
    return w.bytes();
}

std::optional<VerifyRequest>
decodeVerifyRequest(const std::vector<std::uint8_t>& body)
{
    ByteReader r(body);
    VerifyRequest m;
    std::uint8_t prio;
    if (!r.getU8(prio) || prio > (std::uint8_t)Priority::Batch)
        return std::nullopt;
    m.priority = (Priority)prio;
    if (!r.getU64(m.timeoutMicros) || !getString(r, m.circuit) ||
        !getBytes(r, m.publicInputs) || !getBytes(r, m.proof) ||
        !r.atEnd())
        return std::nullopt;
    return m;
}

std::vector<std::uint8_t>
encodeResult(const Result& m)
{
    ByteWriter w;
    w.putU8((std::uint8_t)m.status);
    w.putU8(m.valid ? 1 : 0);
    w.putU64(m.batchSize);
    w.putU64(m.queueMicros);
    w.putU64(m.execMicros);
    putBytes(w, m.proof);
    return w.bytes();
}

std::optional<Result>
decodeResult(const std::vector<std::uint8_t>& body)
{
    ByteReader r(body);
    Result m;
    std::uint8_t status, valid;
    u64 batch;
    if (!r.getU8(status) || !r.getU8(valid) || !r.getU64(batch) ||
        !r.getU64(m.queueMicros) || !r.getU64(m.execMicros) ||
        !getBytes(r, m.proof) || !r.atEnd())
        return std::nullopt;
    if (status > (std::uint8_t)Status::InternalError || valid > 1)
        return std::nullopt;
    m.status = (Status)status;
    m.valid = valid == 1;
    m.batchSize = (std::uint32_t)batch;
    return m;
}

std::vector<std::uint8_t>
encodeStatsV2Response(const StatsV2Response& m)
{
    ByteWriter w;
    putString(w, m.json);
    return w.bytes();
}

std::optional<StatsV2Response>
decodeStatsV2Response(const std::vector<std::uint8_t>& body)
{
    ByteReader r(body);
    StatsV2Response m;
    if (!getString(r, m.json) || !r.atEnd())
        return std::nullopt;
    return m;
}

bool
readFrame(int fd, Frame& out, std::size_t max_bytes)
{
    std::uint8_t len_bytes[4];
    if (!readAll(fd, len_bytes, sizeof(len_bytes)))
        return false;
    const std::uint32_t len = (std::uint32_t)len_bytes[0] |
                              ((std::uint32_t)len_bytes[1] << 8) |
                              ((std::uint32_t)len_bytes[2] << 16) |
                              ((std::uint32_t)len_bytes[3] << 24);
    if (len == 0 || len > max_bytes)
        return false;
    std::vector<std::uint8_t> payload(len);
    if (!readAll(fd, payload.data(), payload.size()))
        return false;
    auto frame = decodePayload(payload);
    if (!frame)
        return false;
    out = std::move(*frame);
    return true;
}

bool
writeFrame(int fd, const Frame& frame)
{
    const std::vector<std::uint8_t> payload = encodePayload(frame);
    if (payload.size() > kMaxFrameBytes)
        return false;
    const std::uint32_t len = (std::uint32_t)payload.size();
    const std::uint8_t len_bytes[4] = {
        (std::uint8_t)(len & 0xff),
        (std::uint8_t)((len >> 8) & 0xff),
        (std::uint8_t)((len >> 16) & 0xff),
        (std::uint8_t)((len >> 24) & 0xff),
    };
    return writeAll(fd, len_bytes, sizeof(len_bytes)) &&
           writeAll(fd, payload.data(), payload.size());
}

int
connectUnix(const std::string& path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, (const sockaddr*)&addr, sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenUnix(const std::string& path, int backlog)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());
    if (::bind(fd, (const sockaddr*)&addr, sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace zkp::serve::wire
