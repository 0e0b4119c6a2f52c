#ifndef COBRA_SERVE_WIRE_H_
#define COBRA_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "util/status.h"

/// cobra::serve wire protocol — the length-prefixed binary framing
/// `cobra_serverd` speaks over TCP.
///
/// A connection carries a sequence of frames in each direction. One frame
/// is a 32-bit little-endian payload length followed by exactly that many
/// payload bytes; payloads above `kMaxFrameBytes` are rejected before any
/// allocation, so a corrupt or hostile length prefix cannot become an
/// allocation bomb. Requests and responses are matched by `request_id`
/// (the server echoes it back); a client may pipeline requests on one
/// connection and the server answers in completion order.
///
/// The payload encoding mirrors the snapshot format's conventions
/// (core/io.cc): little-endian integers, strings as u32 length + bytes,
/// doubles as IEEE-754 bit patterns — values round-trip exactly, which the
/// bit-identity contract of the serving tier depends on.
namespace cobra::serve {

/// Version of the wire payload layout. Bump on any change; servers reject
/// other versions with kInvalidArgument rather than guessing.
inline constexpr std::uint16_t kWireVersion = 1;

/// Hard ceiling on one frame's payload (requests and responses alike).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Hard ceiling on scenarios in one kAssignBatch request. Bulk spaces
/// beyond this belong to the streaming sweep API (AssignStream) on a local
/// snapshot, not to single-shot wire frames; the decoder rejects larger
/// requests with kInvalidArgument before any planning work runs.
inline constexpr std::uint32_t kMaxRequestScenarios = 65536;

/// Hard ceiling on the total override (delta) count summed across all
/// scenarios of one kAssignBatch request — bounds decoder memory the same
/// way kMaxFrameBytes bounds the raw payload.
inline constexpr std::uint32_t kMaxRequestDeltas = 1u << 20;

/// Request/response kinds.
enum class MsgType : std::uint16_t {
  kPing = 1,         ///< Liveness + served snapshot version.
  kAssignBatch = 2,  ///< Evaluate a ScenarioSet against the served snapshot.
  kStats = 3,        ///< Server counters, rendered as text.
};

/// Wire-stable status codes (never reuse or renumber). The subset of
/// util::StatusCode a server legitimately answers with; ToWireCode maps
/// everything else to kInternal.
enum class WireCode : std::uint16_t {
  kOk = 0,
  kInvalidArgument = 1,    ///< Malformed request (also: version mismatch).
  kFailedPrecondition = 2, ///< No servable snapshot loaded yet.
  kUnavailable = 3,        ///< Load shed / draining; retry after the hint.
  kDeadlineExceeded = 4,   ///< The request ran past its deadline.
  kInternal = 5,           ///< Bug or unclassified failure.
};

/// Stable display name ("Ok", "Unavailable", ...).
const char* WireCodeName(WireCode code);

/// Maps a util::StatusCode onto the wire subset (lossy: unclassified codes
/// become kInternal).
WireCode ToWireCode(util::StatusCode code);

/// One request frame's decoded payload.
struct WireRequest {
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  /// Milliseconds the client is willing to wait, measured from admission;
  /// 0 means "use the server default". The server caps it at its
  /// configured maximum.
  std::uint32_t deadline_ms = 0;
  /// The scenario batch (kAssignBatch only).
  core::ScenarioSet scenarios;
};

/// One response frame's decoded payload. `code != kOk` carries `message`
/// (and `retry_after_ms` when the server sheds load); `code == kOk`
/// carries the type-specific result fields.
struct WireResponse {
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  std::string message;
  /// When code == kUnavailable: how long the client should back off before
  /// retrying (0 = no hint).
  std::uint32_t retry_after_ms = 0;

  /// The snapshot version that served this response (all OK responses).
  std::uint64_t snapshot_version = 0;

  /// kAssignBatch results: output group labels, scenario names in request
  /// order, and the scenario-major (scenario × group) value matrices for
  /// both program sides — bit-identical to a direct
  /// CompiledSession::AssignBatch against the same snapshot version.
  std::vector<std::string> labels;
  std::vector<std::string> scenario_names;
  std::vector<double> full_values;
  std::vector<double> compressed_values;

  /// kStats result: the server's counters rendered as text.
  std::string stats_text;

  std::size_t num_scenarios() const { return scenario_names.size(); }
  std::size_t num_groups() const { return labels.size(); }
  double full_value(std::size_t scenario, std::size_t group) const {
    return full_values[scenario * labels.size() + group];
  }
  double compressed_value(std::size_t scenario, std::size_t group) const {
    return compressed_values[scenario * labels.size() + group];
  }
};

/// Encodes a request/response into one frame payload (no length prefix).
std::string EncodeRequest(const WireRequest& request);
std::string EncodeResponse(const WireResponse& response);

/// Decodes a frame payload. Truncated, oversized-count, or wrong-version
/// payloads fail with InvalidArgument naming the offending field, and so do
/// an empty scenario name and a NaN or infinite delta value, naming the
/// scenario's index; nothing is ever partially applied. `request_id`, when
/// non-null, receives the header's request id as soon as it is read (0
/// before), so a refusal can be answered under the id the client waits on.
util::Result<WireRequest> DecodeRequest(std::string_view payload,
                                        std::uint64_t* request_id = nullptr);
util::Result<WireResponse> DecodeResponse(std::string_view payload);

/// Writes one frame (length prefix + payload) to socket `fd`, handling
/// partial writes and EINTR. Fails with InvalidArgument if payload exceeds
/// kMaxFrameBytes, Unavailable if the peer closed (never raising SIGPIPE),
/// IoError otherwise — including when `fd` is not a socket.
util::Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame from `fd`. On a clean close at a frame boundary sets
/// `*closed` and returns OK with `*payload` empty; EOF mid-frame, an
/// oversized length prefix, or a read error fail with a descriptive
/// Status.
util::Status ReadFrame(int fd, std::string* payload, bool* closed);

/// A blocking client connection — what `cobra_client`, the CI smoke, and
/// the integration tests use to talk to a server.
class Client {
 public:
  Client() = default;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Connects over TCP. `timeout_ms` bounds each subsequent send/receive
  /// (0 = no timeout).
  static util::Result<Client> Connect(const std::string& host, int port,
                                      int timeout_ms = 10000);

  bool connected() const { return fd_ >= 0; }

  /// Sends `request` and waits for its response. Fails if the connection
  /// drops or the response's request_id does not match.
  util::Result<WireResponse> Call(const WireRequest& request);

  void Close();

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace cobra::serve

#endif  // COBRA_SERVE_WIRE_H_
