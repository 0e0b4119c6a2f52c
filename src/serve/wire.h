#ifndef COBRA_SERVE_WIRE_H_
#define COBRA_SERVE_WIRE_H_

#include <cstdint>
#include <span>
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
///
/// The daemon admits requests undecoded. `ParseRequest` walks the payload
/// once, runs every check, and keeps the bytes with an index of the scenario
/// records (`RequestFrame`); a `FrameSource` then lowers and names a large
/// request's windows straight from those bytes, and only a whole batch's
/// leader materializes its scenarios. `DecodeRequest` is the same walk
/// followed by materializing the records into a `ScenarioSet`, so clients,
/// tests and the daemon share one parser.
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
/// Each sizes its buffer once and writes the fields into it.
std::string EncodeRequest(const WireRequest& request);
std::string EncodeResponse(const WireResponse& response);

/// A request payload that passed every decode check, kept as its bytes.
///
/// A kAssignBatch payload is a 16-byte header (version, type, request id,
/// deadline) followed by the scenario section: a u32 scenario count, then
/// one record per scenario — its name, a u32 delta count, and per delta the
/// variable name and the value's bit pattern. The frame indexes where each
/// record starts, so its readers take names as views into the payload and
/// never re-check a bound. `ParseRequest` is its only producer and the
/// payload and index are read-only, so a frame always holds a walked payload
/// (a default-constructed frame is an empty kPing).
class RequestFrame {
 public:
  RequestFrame() = default;

  MsgType type() const { return type_; }
  std::uint64_t request_id() const { return request_id_; }
  std::uint32_t deadline_ms() const { return deadline_ms_; }
  std::size_t num_scenarios() const { return records_.size(); }
  /// The largest delta count of one scenario as sent, before a repeated
  /// variable collapses — what `ScenarioSource::max_deltas` reports.
  std::size_t max_deltas() const { return max_deltas_; }
  /// 128-bit hash (util::Hash128) of the scenario section's bytes. The
  /// section encodes the scenario list injectively (names, variables, value
  /// bits and order), so equal hashes stand for equal lists; the daemon
  /// coalesces whole batches on it.
  const core::SourceFingerprint& hash() const { return hash_; }
  /// The payload bytes, moved in by `ParseRequest`.
  std::string_view payload() const { return payload_; }
  /// Payload offset of each scenario's record, in request order.
  std::span<const std::size_t> records() const { return records_; }

  /// Appends scenarios `[begin, begin + count)` to `out`, as `DecodeRequest`
  /// materializes them. Fails with InvalidArgument on a window outside the
  /// frame, and where `ScenarioSet::Add` does: a name `out` already holds.
  util::Status AppendScenarios(std::size_t begin, std::size_t count,
                               core::ScenarioSet* out) const;

 private:
  friend util::Result<RequestFrame> ParseRequest(std::string payload,
                                                 std::uint64_t* request_id);
  friend util::Result<WireRequest> DecodeRequest(std::string_view payload,
                                                 std::uint64_t* request_id);

  /// The one request parser: checks every field of `payload` in order and
  /// fills the header fields, `records_` and `max_deltas_` (not the payload
  /// or hash).
  static util::Status Walk(std::string_view payload, RequestFrame* frame,
                           std::uint64_t* request_id);

  MsgType type_ = MsgType::kPing;
  std::uint64_t request_id_ = 0;
  std::uint32_t deadline_ms_ = 0;
  std::string payload_;
  std::vector<std::size_t> records_;
  std::size_t max_deltas_ = 0;
  core::SourceFingerprint hash_;
};

/// Walks a request payload once and keeps it as a frame. Refuses exactly
/// what `DecodeRequest` refuses, with the same status: a truncated,
/// oversized-count, or wrong-version payload (naming the offending field),
/// more than `kMaxRequestScenarios` scenarios or `kMaxRequestDeltas` deltas,
/// an empty or repeated scenario name, a NaN or infinite delta value (naming
/// the scenario's index), and trailing bytes. `request_id`, when non-null,
/// receives the header's request id as soon as it is read (0 before), so a
/// refusal can be answered under the id the client waits on.
util::Result<RequestFrame> ParseRequest(std::string payload,
                                        std::uint64_t* request_id = nullptr);

/// Decodes a frame payload: the `ParseRequest` walk, then every scenario
/// record materialized into `WireRequest::scenarios`. Fails as
/// `ParseRequest` does; nothing is ever partially applied.
util::Result<WireRequest> DecodeRequest(std::string_view payload,
                                        std::uint64_t* request_id = nullptr);

/// Decodes a response payload; each value matrix is read after one bounds
/// check. Truncated, oversized-count, or wrong-version payloads fail with
/// InvalidArgument naming the offending field.
util::Result<WireResponse> DecodeResponse(std::string_view payload);

/// A request frame's scenarios as a source, so the daemon can sweep a large
/// request with one `AssignStream` without materializing it. `Lower`
/// resolves each window's delta names as views into the payload, names the
/// window from it too, and ends each scenario with
/// `LoweredScenarios::EndUnsortedScenario`, as `LowerScenarios` does;
/// `Generate` materializes records (for `Names` and the stream audits).
/// `max_deltas` and `fingerprint` are the frame's `max_deltas` and `hash`.
/// The source borrows the frame, which must outlive it.
class FrameSource final : public core::ScenarioSource {
 public:
  explicit FrameSource(const RequestFrame& frame) : frame_(&frame) {}

  std::uint64_t size() const override { return frame_->num_scenarios(); }
  std::size_t max_deltas() const override { return frame_->max_deltas(); }
  core::SourceFingerprint fingerprint() const override {
    return frame_->hash();
  }
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        core::ScenarioSet* out) const override;
  util::Status Lower(std::uint64_t begin, std::uint64_t count,
                     const core::VarResolver& resolver,
                     core::LoweredScenarios* out,
                     std::vector<std::string>* names) const override;

 private:
  const RequestFrame* frame_;
};

/// Writes one frame (length prefix + payload) to socket `fd` in one
/// `sendmsg` call where the socket takes it whole, handling partial writes
/// and EINTR. Fails with InvalidArgument if payload exceeds
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
