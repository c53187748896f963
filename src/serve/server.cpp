#include "serve/server.h"

#include <cerrno>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.h"

namespace zkp::serve {

namespace {

/**
 * One client connection. The handler thread never closes fd itself —
 * it sets done and run() closes only after joining, so a descriptor
 * number is never recycled while the drain could still shutdown() it.
 */
struct Connection
{
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
};

void
serveConnection(ProofService& service, int fd)
{
    wire::Frame req;
    while (wire::readFrame(fd, req)) {
        wire::Frame resp;
        resp.id = req.id;
        switch (req.type) {
          case wire::MsgType::Ping:
            resp.type = wire::MsgType::Pong;
            break;
          case wire::MsgType::StatsV2Request: {
            wire::StatsV2Response body;
            body.json = service.statsJson();
            resp.type = wire::MsgType::StatsV2Response;
            resp.body = wire::encodeStatsV2Response(body);
            break;
          }
          case wire::MsgType::ProveRequest: {
            wire::Result result;
            if (auto m = wire::decodeProveRequest(req.body)) {
                RequestOptions opts;
                opts.priority = m->priority;
                opts.timeoutSeconds = m->timeoutMicros / 1e6;
                auto ticket = service.submitProve(
                    m->circuit, std::move(m->publicInputs),
                    std::move(m->privateInputs), opts);
                const Response r = ticket.result.get();
                result.status = r.status;
                result.proof = r.proof;
                result.queueMicros =
                    (std::uint64_t)(r.queueSeconds * 1e6);
                result.execMicros =
                    (std::uint64_t)(r.execSeconds * 1e6);
                result.batchSize = r.batchSize;
            } else {
                result.status = Status::InvalidRequest;
            }
            resp.type = wire::MsgType::Result;
            resp.body = wire::encodeResult(result);
            break;
          }
          case wire::MsgType::VerifyRequest: {
            wire::Result result;
            if (auto m = wire::decodeVerifyRequest(req.body)) {
                RequestOptions opts;
                opts.priority = m->priority;
                opts.timeoutSeconds = m->timeoutMicros / 1e6;
                auto ticket = service.submitVerify(
                    m->circuit, std::move(m->publicInputs),
                    std::move(m->proof), opts);
                const Response r = ticket.result.get();
                result.status = r.status;
                result.valid = r.valid;
                result.queueMicros =
                    (std::uint64_t)(r.queueSeconds * 1e6);
                result.execMicros =
                    (std::uint64_t)(r.execSeconds * 1e6);
                result.batchSize = r.batchSize;
            } else {
                result.status = Status::InvalidRequest;
            }
            resp.type = wire::MsgType::Result;
            resp.body = wire::encodeResult(result);
            break;
          }
          default:
            // Unknown request type: drop the connection (a framing
            // bug on the client side; nothing sensible to answer).
            return;
        }
        if (!wire::writeFrame(fd, resp))
            break;
    }
}

} // namespace

Server::Server(ProofService& service, std::string socket_path)
    : service_(service), socketPath_(std::move(socket_path))
{
}

Server::~Server()
{
    const int fd = listenFd_.load();
    if (fd >= 0)
        ::close(fd);
    if (bound_)
        ::unlink(socketPath_.c_str());
}

bool
Server::listen()
{
    const int fd = wire::listenUnix(socketPath_);
    if (fd < 0)
        return false;
    bound_ = true;
    listenFd_.store(fd);
    // A stop() that ran before the store found no socket to shut.
    if (stopping_.load())
        ::shutdown(fd, SHUT_RDWR);
    return true;
}

void
Server::stop()
{
    stopping_.store(true);
    // Unblock accept(); shutdown() is async-signal-safe.
    const int fd = listenFd_.load();
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

void
Server::run()
{
    const int listen_fd = listenFd_.load();
    std::vector<std::unique_ptr<Connection>> conns;
    // Join, close, and forget connections whose handler finished, so
    // neither fds, Connection entries, nor unjoined threads pile up
    // over the server's lifetime.
    auto reap = [&conns] {
        for (auto it = conns.begin(); it != conns.end();) {
            if ((*it)->done.load(std::memory_order_acquire)) {
                (*it)->thread.join();
                ::close((*it)->fd);
                it = conns.erase(it);
            } else {
                ++it;
            }
        }
    };
    while (listen_fd >= 0 && !stopping()) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR && !stopping())
                continue;
            break;
        }
        reap();
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection* c = conn.get();
        conn->thread = std::thread([this, c] {
            serveConnection(service_, c->fd);
            // The peer sees EOF now, not when the fd is reaped.
            ::shutdown(c->fd, SHUT_RDWR);
            c->done.store(true, std::memory_order_release);
        });
        conns.push_back(std::move(conn));
    }

    // Nudge connections still blocked in read; their threads exit on
    // the resulting EOF. In-flight requests still complete and are
    // answered. Finished connections keep their fd open until joined
    // below, so this never touches a recycled descriptor.
    for (auto& c : conns)
        if (!c->done.load(std::memory_order_acquire))
            ::shutdown(c->fd, SHUT_RD);
    for (auto& c : conns) {
        c->thread.join();
        ::close(c->fd);
    }
    if (bound_) {
        ::unlink(socketPath_.c_str());
        bound_ = false;
    }
}

} // namespace zkp::serve
