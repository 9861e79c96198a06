//===- Frame.h - compile-server wire protocol -------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed frame protocol the compile server speaks over
/// stdin/stdout and its Unix socket (docs/server.md). One frame is:
///
///   offset size  field
///   0      4     magic "GGF1"
///   4      1     type (FrameType)
///   5      4     payload length, little-endian (<= MaxFrameBytes)
///   9      len   payload bytes
///   9+len  4     FNV-1a checksum over bytes [4, 9+len) — type, length
///                and payload, so a flipped length or type byte is caught
///                exactly like a flipped payload byte
///
/// The reader is incremental (feed() arbitrary chunks, next() complete
/// frames) and crash-only friendly: any malformed header or checksum
/// mismatch is reported once and then the reader *resyncs* by scanning
/// for the next magic, so one poisoned frame quarantines itself instead
/// of wedging or killing the stream. Request/response payloads have their
/// own bounds-checked binary encodings here, mirroring the hardened v2
/// table deserializer (tablegen/Serialize.cpp): every read is
/// length-checked, every enum range-checked, and a byte-flip sweep in
/// tests/ServerTest.cpp asserts no single-bit corruption is ever accepted.
///
/// The transport helpers every end shares live here too: writeAll() (the
/// server's responses and the clients' requests), and FrameClient, the
/// one client connection gg-load and gg-top sit on.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_FRAME_H
#define GG_SUPPORT_FRAME_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gg {

/// Frame types on the wire. Unknown values are a protocol error.
enum class FrameType : uint8_t {
  Request = 1,    ///< client -> server: compile this source
  Response = 2,   ///< server -> client: result for one request id
  Ping = 3,       ///< client -> server: liveness probe
  Pong = 4,       ///< server -> client: liveness answer
  Shutdown = 5,   ///< client -> server: drain and exit cleanly (exit 0)
  Crash = 6,      ///< client -> server: die immediately (tests/supervisor
                  ///< drills only; ignored unless the server allows it)
  Overloaded = 7, ///< server -> client: request shed at admission; carries
                  ///< a retry-after hint instead of a compile result
  Reload = 8,     ///< client -> server: drain in-flight work and hot-swap
                  ///< a freshly verified table image (same as SIGHUP)
  Reloaded = 9,   ///< server -> client: outcome of a Reload frame
  Status = 10,    ///< client -> server: request a live introspection
                  ///< snapshot (queue depth, in-flight requests, latency
                  ///< percentiles, generation) without compiling anything
  StatusReply = 11, ///< server -> client: the snapshot, as one JSON object
};

/// Hard cap on one frame's payload; oversized length prefixes are rejected
/// without allocating.
constexpr uint32_t MaxFrameBytes = 16u << 20;

/// The four magic bytes.
extern const char FrameMagic[4];

/// Serializes one frame (header + payload + checksum) onto \p Out.
void appendFrame(std::string &Out, FrameType Type, std::string_view Payload);

/// One decoded frame.
struct Frame {
  FrameType Type = FrameType::Ping;
  std::string Payload;
};

/// Incremental frame decoder with resync-on-corruption.
class FrameReader {
public:
  /// Outcome of one next() call.
  enum class Status {
    Frame,    ///< *Out holds a complete, checksum-verified frame
    NeedMore, ///< no complete frame buffered; feed() more bytes
    Corrupt,  ///< a malformed frame was skipped (Error says why); call
              ///< next() again — the reader has already resynced
  };

  /// Appends raw bytes from the transport.
  void feed(const char *Data, size_t Len) { Buf.append(Data, Len); }

  /// Extracts the next frame, resyncing past garbage if necessary.
  Status next(Frame &Out);

  /// Human-readable reason for the last Corrupt status.
  const std::string &error() const { return Err; }

  /// Total resync events (corrupt frames skipped) since construction.
  uint64_t resyncs() const { return Resyncs; }

  /// Bytes buffered but not yet consumed (diagnosing mid-frame EOF).
  size_t buffered() const { return Buf.size() - Pos; }

private:
  std::string Buf;
  size_t Pos = 0; ///< consumed prefix of Buf
  std::string Err;
  uint64_t Resyncs = 0;

  void compact();
  /// Skips one byte and scans to the next magic; returns Corrupt.
  Status resync(const std::string &Why);
};

/// A compile request as carried in a Request frame payload.
struct RequestMsg {
  uint64_t Id = 0;
  uint32_t DeadlineMs = 0;    ///< 0 = server default
  uint64_t MaxSteps = 0;      ///< 0 = server default
  uint64_t MaxArenaBytes = 0; ///< 0 = server default
  std::string Source;
};

/// Terminal status of one request, carried in a Response frame.
enum class ResponseStatus : uint8_t {
  Ok = 0,           ///< Payload is the assembly text
  CompileError = 1, ///< recoverable failure; Payload is diagnostics
  Deadline = 2,     ///< quarantined: wall-clock deadline exceeded
  StepBudget = 3,   ///< quarantined: matcher step budget exceeded
  MemBudget = 4,    ///< quarantined: arena byte budget exceeded
  Watchdog = 5,     ///< quarantined: worker wedged; request abandoned
  Protocol = 6,     ///< quarantined: the request frame itself was bad
};

/// Returns a stable name for \p S ("ok", "deadline", ...).
const char *responseStatusName(ResponseStatus S);

/// A compile response as carried in a Response frame payload.
struct ResponseMsg {
  uint64_t Id = 0;
  ResponseStatus Status = ResponseStatus::Ok;
  uint32_t BlockedTrees = 0;   ///< trees that hit the degradation ladder
  uint32_t RecoveredTrees = 0; ///< subset regenerated via the PCC baseline
  uint64_t Generation = 0;     ///< table image generation that served this
  std::string Payload;         ///< assembly on Ok, diagnostics otherwise
};

/// Why a request was shed at admission instead of compiled.
enum class OverloadCause : uint8_t {
  QueueFull = 0,         ///< reject-newest: queue at capacity
  ShedOldest = 1,        ///< shed-oldest: displaced by a newer arrival
  QueueDeadline = 2,     ///< waited in queue past the queueing deadline
  AdmissionDeadline = 3, ///< estimated wait alone would blow the deadline
  Draining = 4,          ///< server is draining toward shutdown
};

/// Returns a stable name for \p C ("queue-full", "draining", ...).
const char *overloadCauseName(OverloadCause C);

/// Shed notice carried in an Overloaded frame (server -> client).
struct OverloadMsg {
  uint64_t Id = 0;
  uint32_t RetryAfterMs = 0; ///< hint: when a retry is likely to admit
  uint32_t QueueDepth = 0;   ///< queue depth observed at the shed decision
  OverloadCause Cause = OverloadCause::QueueFull;
};

/// Outcome of a Reload control frame (server -> client).
struct ReloadedMsg {
  uint64_t Generation = 0; ///< table generation now serving
  uint8_t Ok = 0;          ///< 1 = swap happened, 0 = old image kept
  std::string Text;        ///< diagnostics on failure
};

/// Introspection probe carried in a Status frame (client -> server).
struct StatusMsg {
  uint64_t Id = 0; ///< echoed in the StatusReply so pollers can correlate
};

/// Introspection snapshot carried in a StatusReply frame. Text is one
/// JSON object (the gg-status-v1 snapshot, docs/observability.md); the
/// schema lives in the JSON itself so old clients can still display a
/// newer server's snapshot.
struct StatusReplyMsg {
  uint64_t Id = 0;  ///< the probing StatusMsg's Id
  std::string Text; ///< JSON snapshot
};

/// Payload codecs. Decoders are hardened: they return false (with \p Err
/// set) on any truncation, trailing garbage, out-of-range enum or
/// inconsistent length, and never read out of bounds.
std::string encodeRequest(const RequestMsg &M);
bool decodeRequest(std::string_view Payload, RequestMsg &M, std::string &Err);
std::string encodeResponse(const ResponseMsg &M);
bool decodeResponse(std::string_view Payload, ResponseMsg &M, std::string &Err);
std::string encodeOverload(const OverloadMsg &M);
bool decodeOverload(std::string_view Payload, OverloadMsg &M, std::string &Err);
std::string encodeReloaded(const ReloadedMsg &M);
bool decodeReloaded(std::string_view Payload, ReloadedMsg &M, std::string &Err);
std::string encodeStatus(const StatusMsg &M);
bool decodeStatus(std::string_view Payload, StatusMsg &M, std::string &Err);
std::string encodeStatusReply(const StatusReplyMsg &M);
bool decodeStatusReply(std::string_view Payload, StatusReplyMsg &M,
                       std::string &Err);

/// FNV-1a over \p Data — the frame checksum primitive (shared with the
/// tests' byte-flip sweep).
uint32_t frameChecksum(std::string_view Data);

/// Writes all of \p Data to \p Fd, retrying short writes and EINTR.
/// Returns false once the peer is gone (EPIPE/ECONNRESET); callers ignore
/// SIGPIPE.
bool writeAll(int Fd, std::string_view Data);

/// How hard connectUnixSocket() tries: \p Tries attempts, sleeping 20 ms
/// after the first failure and doubling the sleep up to \p MaxDelayMs.
struct ConnectBackoff {
  int Tries;
  int MaxDelayMs;
};

/// Connects a SOCK_STREAM socket to the Unix socket at \p Path with
/// bounded backoff. Returns the fd, or -1 on give-up.
int connectUnixSocket(const std::string &Path, ConnectBackoff Backoff);

/// The client end of a framed Unix-socket connection (gg-load, gg-top):
/// whole-frame writes and frame reads by an absolute deadline. Owns its
/// fd; a lost connection closes it, and connect() or adopt() starts a
/// fresh one with an empty reader.
class FrameClient {
public:
  /// Outcome of one next() call.
  enum class Read {
    Frame,   ///< the frame argument holds the next complete frame
    Timeout, ///< the deadline passed; the connection stays usable
    Lost,    ///< the peer closed or the socket failed; now disconnected
  };

  FrameClient() = default;
  ~FrameClient() { close(); }
  FrameClient(const FrameClient &) = delete;
  FrameClient &operator=(const FrameClient &) = delete;

  /// Connects to \p Path (see connectUnixSocket); false on give-up.
  bool connect(const std::string &Path, ConnectBackoff Backoff);
  /// Takes over an already-connected \p Fd.
  void adopt(int Fd);
  bool connected() const { return Fd >= 0; }
  void close();

  /// Writes raw bytes (part of a frame, or several); on failure the
  /// connection is closed and false returned.
  bool write(std::string_view Bytes);
  /// Writes one whole frame.
  bool send(FrameType Type, std::string_view Payload);

  /// Reads the next frame, waiting until \p DeadlineNs (absolute
  /// monoNowNs() time). Corrupt frames are skipped: the reader resyncs.
  Read next(Frame &Out, uint64_t DeadlineNs);

private:
  int Fd = -1;
  FrameReader Reader;
};

} // namespace gg

#endif // GG_SUPPORT_FRAME_H
