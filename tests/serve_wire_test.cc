// Tests for the serving wire protocol (serve/wire.h): encode/decode round
// trips must preserve every field (doubles bit-exactly), malformed payloads
// must fail with InvalidArgument instead of misdecoding, and the frame
// layer must survive partial reads, clean closes, and hostile length
// prefixes.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "serve/wire.h"
#include "util/status.h"

namespace cobra::serve {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

WireRequest ExampleBatchRequest() {
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = 0x1122334455667788ULL;
  request.deadline_ms = 2500;
  request.scenarios.Add("slump").ValueOrDie().Set("Business", 0.8);
  request.scenarios.Add("mixed").ValueOrDie().Set("Business", 1.25).Set("Special", 0.9);
  // A value whose bit pattern round-trips only if doubles are carried as
  // bit patterns, not via text.
  request.scenarios.Add("precise").ValueOrDie().Set("p1", 0.1 + 0.2);
  return request;
}

TEST(WireTest, RequestRoundTrip) {
  const WireRequest request = ExampleBatchRequest();
  const std::string payload = EncodeRequest(request);
  util::Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MsgType::kAssignBatch);
  EXPECT_EQ(decoded->request_id, request.request_id);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  ASSERT_EQ(decoded->scenarios.size(), 3u);
  EXPECT_EQ(decoded->scenarios.scenario(0).name, "slump");
  ASSERT_EQ(decoded->scenarios.scenario(2).deltas.size(), 1u);
  EXPECT_EQ(decoded->scenarios.scenario(2).deltas[0].var, "p1");
  EXPECT_TRUE(SameBits(decoded->scenarios.scenario(2).deltas[0].value,
                       0.1 + 0.2));
}

TEST(WireTest, PingRequestRoundTrip) {
  WireRequest request;
  request.type = MsgType::kPing;
  request.request_id = 7;
  const std::string payload = EncodeRequest(request);
  util::Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kPing);
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_TRUE(decoded->scenarios.empty());
}

TEST(WireTest, OkResponseRoundTrip) {
  WireResponse response;
  response.type = MsgType::kAssignBatch;
  response.request_id = 42;
  response.snapshot_version = 9;
  response.labels = {"P1", "P2"};
  response.scenario_names = {"a", "b", "c"};
  response.full_values = {1.0, 0.1 + 0.2, 3.0, 4.0, 5.0, 6.0};
  response.compressed_values = {6.5, 5.5, 4.5, 3.5, 2.5, 1.5};
  const std::string payload = EncodeResponse(response);
  util::Result<WireResponse> decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, WireCode::kOk);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->snapshot_version, 9u);
  EXPECT_EQ(decoded->labels, response.labels);
  EXPECT_EQ(decoded->scenario_names, response.scenario_names);
  ASSERT_EQ(decoded->full_values.size(), 6u);
  EXPECT_TRUE(SameBits(decoded->full_value(0, 1), 0.1 + 0.2));
  EXPECT_TRUE(SameBits(decoded->compressed_value(2, 0), 2.5));
}

TEST(WireTest, ErrorResponseRoundTrip) {
  WireResponse response;
  response.type = MsgType::kAssignBatch;
  response.request_id = 13;
  response.code = WireCode::kUnavailable;
  response.message = "request queue full";
  response.retry_after_ms = 75;
  const std::string payload = EncodeResponse(response);
  util::Result<WireResponse> decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, WireCode::kUnavailable);
  EXPECT_EQ(decoded->message, "request queue full");
  EXPECT_EQ(decoded->retry_after_ms, 75u);
  EXPECT_TRUE(decoded->labels.empty());
}

TEST(WireTest, StatsResponseRoundTrip) {
  WireResponse response;
  response.type = MsgType::kStats;
  response.request_id = 3;
  response.snapshot_version = 2;
  response.stats_text = "accepted=5 completed=5";
  const std::string payload = EncodeResponse(response);
  util::Result<WireResponse> decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stats_text, "accepted=5 completed=5");
}

TEST(WireTest, EveryTruncatedRequestPrefixFails) {
  const std::string payload = EncodeRequest(ExampleBatchRequest());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    util::Result<WireRequest> decoded =
        DecodeRequest(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireTest, EveryTruncatedResponsePrefixFails) {
  WireResponse response;
  response.type = MsgType::kAssignBatch;
  response.request_id = 1;
  response.snapshot_version = 1;
  response.labels = {"P1"};
  response.scenario_names = {"s"};
  response.full_values = {1.0};
  response.compressed_values = {2.0};
  const std::string payload = EncodeResponse(response);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    util::Result<WireResponse> decoded =
        DecodeResponse(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireTest, WrongVersionRejected) {
  std::string payload = EncodeRequest(ExampleBatchRequest());
  payload[0] = static_cast<char>(kWireVersion + 1);  // little-endian u16
  util::Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WireTest, ToWireCodeMapsServingCodes) {
  EXPECT_EQ(ToWireCode(util::StatusCode::kOk), WireCode::kOk);
  EXPECT_EQ(ToWireCode(util::StatusCode::kInvalidArgument),
            WireCode::kInvalidArgument);
  EXPECT_EQ(ToWireCode(util::StatusCode::kFailedPrecondition),
            WireCode::kFailedPrecondition);
  EXPECT_EQ(ToWireCode(util::StatusCode::kUnavailable),
            WireCode::kUnavailable);
  EXPECT_EQ(ToWireCode(util::StatusCode::kDeadlineExceeded),
            WireCode::kDeadlineExceeded);
  // NotFound on the serving path means a name the client sent does not
  // resolve — a client error, not a server fault.
  EXPECT_EQ(ToWireCode(util::StatusCode::kNotFound),
            WireCode::kInvalidArgument);
  // Unclassified codes degrade to kInternal rather than leaking numbers
  // outside the wire enum.
  EXPECT_EQ(ToWireCode(util::StatusCode::kDataLoss), WireCode::kInternal);
}

TEST(WireTest, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string sent = EncodeRequest(ExampleBatchRequest());
  ASSERT_TRUE(WriteFrame(fds[0], sent).ok());
  std::string received;
  bool closed = false;
  ASSERT_TRUE(ReadFrame(fds[1], &received, &closed).ok());
  EXPECT_FALSE(closed);
  EXPECT_EQ(received, sent);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireTest, CleanCloseAtFrameBoundarySetsClosed) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  std::string payload;
  bool closed = false;
  util::Status read = ReadFrame(fds[1], &payload, &closed);
  EXPECT_TRUE(read.ok()) << read.ToString();
  EXPECT_TRUE(closed);
  ::close(fds[1]);
}

TEST(WireTest, EofMidFrameFails) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix promising 100 bytes, then close with none sent.
  const unsigned char prefix[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], prefix, 4), 4);
  ::close(fds[0]);
  std::string payload;
  bool closed = false;
  util::Status read = ReadFrame(fds[1], &payload, &closed);
  EXPECT_FALSE(read.ok());
  ::close(fds[1]);
}

TEST(WireTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  unsigned char prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_EQ(::write(fds[0], prefix, 4), 4);
  std::string payload;
  bool closed = false;
  util::Status read = ReadFrame(fds[1], &payload, &closed);
  EXPECT_FALSE(read.ok());
  ::close(fds[0]);
  ::close(fds[1]);
}

// Writing to a socket whose peer has closed must come back as Unavailable,
// not raise SIGPIPE: a library user or test process that installed no
// SIGPIPE handler would otherwise be killed. Deliberately installs none.
TEST(ServeWireTest, WriteToClosedPeerReturnsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  util::Status written = WriteFrame(fds[0], EncodeRequest(ExampleBatchRequest()));
  EXPECT_EQ(written.code(), util::StatusCode::kUnavailable)
      << written.ToString();
  ::close(fds[0]);
}

TEST(WireTest, WriteFrameRejectsOversizedPayload) {
  // No fd interaction: the size check precedes any write.
  std::string huge(kMaxFrameBytes + 1, 'x');
  util::Status written = WriteFrame(-1, huge);
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.code(), util::StatusCode::kInvalidArgument);
}

TEST(WireTest, PipelinedFramesArriveInOrder) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<std::string> sent;
  for (int i = 0; i < 5; ++i) {
    WireRequest request;
    request.type = MsgType::kPing;
    request.request_id = static_cast<std::uint64_t>(i);
    sent.push_back(EncodeRequest(request));
    ASSERT_TRUE(WriteFrame(fds[0], sent.back()).ok());
  }
  for (int i = 0; i < 5; ++i) {
    std::string payload;
    bool closed = false;
    ASSERT_TRUE(ReadFrame(fds[1], &payload, &closed).ok());
    EXPECT_EQ(payload, sent[static_cast<std::size_t>(i)]);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireTest, RequestAtScenarioCapDecodesButOneOverIsRejected) {
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.scenarios.Reserve(kMaxRequestScenarios + 1);
  for (std::uint32_t i = 0; i < kMaxRequestScenarios; ++i) {
    ASSERT_TRUE(request.scenarios.Add("s" + std::to_string(i)).ok());
  }
  util::Result<WireRequest> at_cap = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->scenarios.size(), kMaxRequestScenarios);

  ASSERT_TRUE(request.scenarios.Add("one-over").ok());
  util::Result<WireRequest> over = DecodeRequest(EncodeRequest(request));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), util::StatusCode::kInvalidArgument);
  // The error names the cap so the client knows what to shrink.
  EXPECT_NE(over.status().message().find("kMaxRequestScenarios"),
            std::string::npos);
  EXPECT_NE(over.status().message().find(
                std::to_string(kMaxRequestScenarios)),
            std::string::npos);
}

TEST(WireTest, RequestOverTotalDeltaCapIsRejected) {
  // 17 scenarios x 65536 overrides = 1,114,112 > kMaxRequestDeltas
  // (1,048,576), while every individual scenario is modest and the whole
  // frame stays far below kMaxFrameBytes — only the total-delta cap trips.
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  for (int s = 0; s < 17; ++s) {
    auto handle = request.scenarios.Add("s" + std::to_string(s));
    ASSERT_TRUE(handle.ok());
    for (int d = 0; d < 65536; ++d) {
      handle->Set("v", 1.0 + d);
    }
  }
  const std::string payload = EncodeRequest(request);
  ASSERT_LT(payload.size(), kMaxFrameBytes);
  util::Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("kMaxRequestDeltas"),
            std::string::npos);
}

TEST(WireTest, DuplicateScenarioNamesRejectedAtDecode) {
  // The decoder feeds names through ScenarioSet::Add, which now enforces
  // uniqueness — a hostile frame with twin names must not decode. Encode a
  // two-scenario request, then splice the second name to match the first.
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.scenarios.Add("twin-a").ValueOrDie();
  request.scenarios.Add("twin-b").ValueOrDie();
  std::string payload = EncodeRequest(request);
  const std::size_t pos = payload.find("twin-b");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, 6, "twin-a");
  util::Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("twin-a"), std::string::npos);
}

// A NaN or infinite delta value would serve NaN rows on one daemon path
// and fail an audit on the other, so the decoder refuses it outright,
// naming the scenario's index and the value.
TEST(WireTest, NonFiniteDeltaValuesRejectedAtDecode) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  const char* const printed[] = {"nan", "inf", "-inf"};
  for (std::size_t k = 0; k < std::size(bad_values); ++k) {
    SCOPED_TRACE(printed[k]);
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = 42;
    request.scenarios.Add("fine").ValueOrDie().Set("x", 1.5);
    request.scenarios.Add("bad").ValueOrDie().Set("x", 1.0).Set("y",
                                                                bad_values[k]);
    // The refusal still reports the request id, so the daemon can answer
    // under it.
    std::uint64_t request_id = 0;
    util::Result<WireRequest> decoded =
        DecodeRequest(EncodeRequest(request), &request_id);
    EXPECT_EQ(request_id, 42u);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
    const std::string& message = decoded.status().message();
    EXPECT_NE(message.find("scenario 1"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("non-finite value ") + printed[k]),
              std::string::npos)
        << message;
  }
}

// An empty scenario name is refused at decode, with the scenario's index.
// ScenarioSet::Add refuses one too, so the frame is spliced by hand: the
// second name's length prefix is zeroed and its one byte dropped.
TEST(WireTest, EmptyScenarioNameRejectedAtDecode) {
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.scenarios.Add("first").ValueOrDie();
  request.scenarios.Add("Z").ValueOrDie();
  std::string payload = EncodeRequest(request);
  const std::size_t pos = payload.find('Z');
  ASSERT_NE(pos, std::string::npos);
  ASSERT_GE(pos, 4u);
  payload.erase(pos, 1);
  payload[pos - 4] = '\0';
  util::Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("scenario 1 has an empty name"),
            std::string::npos)
      << decoded.status().message();
}

}  // namespace
}  // namespace cobra::serve
