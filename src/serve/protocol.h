/**
 * @file
 * zkperfd wire protocol: length-prefixed binary frames over a Unix
 * domain socket.
 *
 * Transport framing:
 *
 *   frame   := u32-LE payload length | payload
 *   payload := "ZKP" magic | schema u8 (snark/serialize.h header)
 *              | msg type u8 | request id u64-LE | body
 *
 * The payload header reuses the versioned header from
 * snark/serialize.h, so a daemon can cleanly reject frames from a
 * newer client instead of misparsing them. Scalars inside bodies use
 * the canonical 32-byte field encoding and proofs the framed proof
 * encoding, both from serialize.h — the daemon passes those byte
 * ranges straight into the ProofService without re-encoding.
 *
 * Body layouts (all integers little-endian, lengths u64):
 *
 *   ProveRequest  := priority u8 | timeout_us u64 | circuit str
 *                    | pub bytes | priv bytes
 *   VerifyRequest := priority u8 | timeout_us u64 | circuit str
 *                    | pub bytes | proof bytes
 *   Result        := status u8 | valid u8 | batch u32(as u64)
 *                    | queue_us u64 | exec_us u64 | proof bytes
 *   Ping / Pong   := empty
 *   StatsV2Request  := empty
 *   StatsV2Response := json str  (a zkperf-serve-stats/2 document,
 *                      serve/metrics_hub.h — full lifecycle
 *                      histograms per (kind, priority, circuit) lane)
 *
 *   str / bytes   := u64 length | raw bytes
 *
 * Stats versioning: v2 carries the whole snapshot as JSON so the
 * schema can grow without another wire rev; clients that care about
 * layout pin on the document's "schema" tag, not the message type.
 *
 * Max payload is bounded (kMaxFrameBytes) so a hostile length prefix
 * cannot drive an allocation bomb.
 */

#ifndef ZKP_SERVE_PROTOCOL_H
#define ZKP_SERVE_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/types.h"

namespace zkp::serve::wire {

/** Hard cap on a frame payload (1 MiB covers every message here). */
inline constexpr std::size_t kMaxFrameBytes = std::size_t(1) << 20;

enum class MsgType : std::uint8_t
{
    ProveRequest = 1,
    VerifyRequest = 2,
    Ping = 3,
    // 4 and 0x84 were the retired stats v1 op; never reuse them.
    StatsV2Request = 5,
    Result = 0x81,
    Pong = 0x83,
    StatsV2Response = 0x85,
};

/** A decoded frame payload. */
struct Frame
{
    MsgType type = MsgType::Ping;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> body;
};

struct ProveRequest
{
    Priority priority = Priority::Interactive;
    std::uint64_t timeoutMicros = 0;
    std::string circuit;
    std::vector<std::uint8_t> publicInputs;
    std::vector<std::uint8_t> privateInputs;
};

struct VerifyRequest
{
    Priority priority = Priority::Interactive;
    std::uint64_t timeoutMicros = 0;
    std::string circuit;
    std::vector<std::uint8_t> publicInputs;
    std::vector<std::uint8_t> proof;
};

struct Result
{
    Status status = Status::InternalError;
    bool valid = false;
    std::uint32_t batchSize = 1;
    std::uint64_t queueMicros = 0;
    std::uint64_t execMicros = 0;
    std::vector<std::uint8_t> proof;
};

/** v2 stats scrape: one zkperf-serve-stats/2 JSON document. */
struct StatsV2Response
{
    std::string json;
};

/** Encode a frame payload (header + type + id + body). */
std::vector<std::uint8_t> encodePayload(const Frame& frame);

/**
 * Decode a frame payload. Fails on a missing/foreign magic, an
 * unsupported schema version, or truncation. (The wire is always
 * framed — unlike proof payloads there is no legacy fallback.)
 */
std::optional<Frame> decodePayload(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encodeProveRequest(const ProveRequest& m);
std::optional<ProveRequest> decodeProveRequest(
    const std::vector<std::uint8_t>& body);

std::vector<std::uint8_t> encodeVerifyRequest(const VerifyRequest& m);
std::optional<VerifyRequest> decodeVerifyRequest(
    const std::vector<std::uint8_t>& body);

std::vector<std::uint8_t> encodeResult(const Result& m);
std::optional<Result> decodeResult(
    const std::vector<std::uint8_t>& body);

std::vector<std::uint8_t>
encodeStatsV2Response(const StatsV2Response& m);
std::optional<StatsV2Response> decodeStatsV2Response(
    const std::vector<std::uint8_t>& body);

// --- Socket transport (POSIX) ---------------------------------------------

/**
 * Read one complete frame (blocking). False on EOF, I/O error, or an
 * over-limit length prefix.
 */
bool readFrame(int fd, Frame& out,
               std::size_t max_bytes = kMaxFrameBytes);

/** Write one complete frame (blocking). False on I/O error. */
bool writeFrame(int fd, const Frame& frame);

/** Connect to a Unix socket; -1 on failure. */
int connectUnix(const std::string& path);

/** Bind + listen on a Unix socket path; -1 on failure. */
int listenUnix(const std::string& path, int backlog = 64);

} // namespace zkp::serve::wire

#endif // ZKP_SERVE_PROTOCOL_H
