/**
 * @file
 * Server: zkperfd's Unix-socket front end over a ProofService,
 * speaking the framed protocol of serve/protocol.h.
 *
 * listen() binds the socket path; run() accepts connections until
 * stop(), one handler thread per connection. A handler answers Ping,
 * StatsV2Request, ProveRequest and VerifyRequest frames in order and
 * drops its connection on EOF, an I/O error, a malformed frame or an
 * unknown message type.
 *
 * Shutdown: stop() sets a flag and shuts the listening socket down,
 * which unblocks accept(). run() then drains: it shuts the read side
 * of every open connection (a handler blocked in read sees EOF; one
 * waiting on a prove still writes its reply), joins the handlers,
 * closes their sockets and unlinks the socket path. Requests already
 * submitted to the service settle; the ProofService itself is the
 * caller's to drain.
 *
 * The server does not ignore SIGPIPE for the process; replies are
 * sent with MSG_NOSIGNAL (wire::writeFrame), so a client that hangs up
 * mid-prove costs only its own connection.
 */

#ifndef ZKP_SERVE_SERVER_H
#define ZKP_SERVE_SERVER_H

#include <atomic>
#include <string>

#include "serve/service.h"

namespace zkp::serve {

class Server
{
  public:
    /** Serve @p service on @p socket_path; nothing is bound yet. */
    Server(ProofService& service, std::string socket_path);

    /**
     * Closes the listening socket, and unlinks the path when run()
     * did not. The thread that called run() must have returned.
     */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Bind and listen on the socket path, replacing a stale file.
     * False on failure, with errno set. Call at most once.
     */
    bool listen();

    /**
     * Accept and serve connections until stop(), then drain them (see
     * the file comment) and unlink the socket path. Returns at once,
     * with nothing to drain, when listen() did not succeed or stop()
     * came first.
     */
    void run();

    /**
     * Ask run() to return. Async-signal-safe (an atomic store and
     * shutdown()), so a signal handler may call it; works before
     * listen() as well as during run().
     */
    void stop();

    /** True once stop() has been called. */
    bool stopping() const { return stopping_.load(); }

    const std::string& socketPath() const { return socketPath_; }

  private:
    ProofService& service_;
    const std::string socketPath_;
    std::atomic<bool> stopping_{false};
    /// Stays open (and, after stop(), shut down) until the destructor,
    /// so stop() never touches a recycled descriptor number.
    std::atomic<int> listenFd_{-1};
    /// The socket path exists and is ours to unlink.
    bool bound_ = false;
};

} // namespace zkp::serve

#endif // ZKP_SERVE_SERVER_H
