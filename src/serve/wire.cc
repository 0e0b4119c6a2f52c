#include "serve/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/str.h"

namespace cobra::serve {

namespace {

/// Little-endian payload writer (same conventions as the snapshot format).
class Writer {
 public:
  void U16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  void StrVec(const std::vector<std::string>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (const std::string& s : v) Str(s);
  }
  void F64Vec(const std::vector<double>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (double x : v) F64(x);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian payload reader. Every failure names the
/// field, so a malformed frame is diagnosable from the message alone.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  util::Status U16(std::uint16_t* out, const char* what) {
    COBRA_RETURN_IF_ERROR(Need(2, what));
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(
                  static_cast<unsigned char>(data_[pos_ + i]))
                  << (8 * i));
    }
    pos_ += 2;
    *out = v;
    return util::Status::OK();
  }

  util::Status U32(std::uint32_t* out, const char* what) {
    COBRA_RETURN_IF_ERROR(Need(4, what));
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return util::Status::OK();
  }

  util::Status U64(std::uint64_t* out, const char* what) {
    COBRA_RETURN_IF_ERROR(Need(8, what));
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return util::Status::OK();
  }

  util::Status F64(double* out, const char* what) {
    std::uint64_t bits = 0;
    COBRA_RETURN_IF_ERROR(U64(&bits, what));
    *out = std::bit_cast<double>(bits);
    return util::Status::OK();
  }

  util::Status Str(std::string* out, const char* what) {
    std::uint32_t length = 0;
    COBRA_RETURN_IF_ERROR(U32(&length, what));
    COBRA_RETURN_IF_ERROR(Need(length, what));
    out->assign(data_.substr(pos_, length));
    pos_ += length;
    return util::Status::OK();
  }

  /// Reads a u32 element count, guarding against counts that cannot fit in
  /// the remaining bytes at `min_elem_size` bytes each.
  util::Status Count(std::size_t min_elem_size, std::size_t* out,
                     const char* what) {
    std::uint32_t count = 0;
    COBRA_RETURN_IF_ERROR(U32(&count, what));
    if (min_elem_size > 0 &&
        count > (data_.size() - pos_) / min_elem_size) {
      return Fail(util::StrFormat(
          "%s count %u larger than the remaining payload", what, count));
    }
    *out = count;
    return util::Status::OK();
  }

  util::Status StrVec(std::vector<std::string>* out, const char* what) {
    std::size_t count = 0;
    COBRA_RETURN_IF_ERROR(Count(4, &count, what));
    out->resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      COBRA_RETURN_IF_ERROR(Str(&(*out)[i], what));
    }
    return util::Status::OK();
  }

  util::Status F64Vec(std::vector<double>* out, const char* what) {
    std::size_t count = 0;
    COBRA_RETURN_IF_ERROR(Count(8, &count, what));
    out->resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      COBRA_RETURN_IF_ERROR(F64(&(*out)[i], what));
    }
    return util::Status::OK();
  }

  bool AtEnd() const { return pos_ == data_.size(); }

  util::Status Fail(const std::string& what) const {
    return util::Status::InvalidArgument(util::StrFormat(
        "wire payload: %s at byte %zu", what.c_str(), pos_));
  }

 private:
  util::Status Need(std::size_t bytes, const char* what) const {
    if (data_.size() - pos_ < bytes) {
      return Fail(util::StrFormat("truncated: expected %s", what));
    }
    return util::Status::OK();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

util::Status CheckVersionAndType(Reader* reader, MsgType* type) {
  std::uint16_t version = 0;
  COBRA_RETURN_IF_ERROR(reader->U16(&version, "wire version"));
  if (version != kWireVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "wire payload: unsupported wire version %u (this build speaks %u)",
        version, kWireVersion));
  }
  std::uint16_t raw_type = 0;
  COBRA_RETURN_IF_ERROR(reader->U16(&raw_type, "message type"));
  if (raw_type != static_cast<std::uint16_t>(MsgType::kPing) &&
      raw_type != static_cast<std::uint16_t>(MsgType::kAssignBatch) &&
      raw_type != static_cast<std::uint16_t>(MsgType::kStats)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "wire payload: unknown message type %u", raw_type));
  }
  *type = static_cast<MsgType>(raw_type);
  return util::Status::OK();
}

}  // namespace

const char* WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      return "Ok";
    case WireCode::kInvalidArgument:
      return "InvalidArgument";
    case WireCode::kFailedPrecondition:
      return "FailedPrecondition";
    case WireCode::kUnavailable:
      return "Unavailable";
    case WireCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case WireCode::kInternal:
      return "Internal";
  }
  return "?";
}

WireCode ToWireCode(util::StatusCode code) {
  switch (code) {
    case util::StatusCode::kOk:
      return WireCode::kOk;
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kNotFound:
    case util::StatusCode::kOutOfRange:
    case util::StatusCode::kParseError:
      return WireCode::kInvalidArgument;
    case util::StatusCode::kFailedPrecondition:
      return WireCode::kFailedPrecondition;
    case util::StatusCode::kUnavailable:
      return WireCode::kUnavailable;
    case util::StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    default:
      return WireCode::kInternal;
  }
}

std::string EncodeRequest(const WireRequest& request) {
  Writer w;
  w.U16(kWireVersion);
  w.U16(static_cast<std::uint16_t>(request.type));
  w.U64(request.request_id);
  w.U32(request.deadline_ms);
  if (request.type == MsgType::kAssignBatch) {
    w.U32(static_cast<std::uint32_t>(request.scenarios.size()));
    for (const core::Scenario& scenario : request.scenarios.scenarios()) {
      w.Str(scenario.name);
      w.U32(static_cast<std::uint32_t>(scenario.deltas.size()));
      for (const core::Scenario::Delta& delta : scenario.deltas) {
        w.Str(delta.var);
        w.F64(delta.value);
      }
    }
  }
  return w.Take();
}

util::Result<WireRequest> DecodeRequest(std::string_view payload,
                                        std::uint64_t* request_id) {
  Reader reader(payload);
  WireRequest request;
  if (request_id != nullptr) *request_id = 0;
  COBRA_RETURN_IF_ERROR(CheckVersionAndType(&reader, &request.type));
  COBRA_RETURN_IF_ERROR(reader.U64(&request.request_id, "request id"));
  if (request_id != nullptr) *request_id = request.request_id;
  COBRA_RETURN_IF_ERROR(reader.U32(&request.deadline_ms, "deadline"));
  if (request.type == MsgType::kAssignBatch) {
    std::size_t num_scenarios = 0;
    // A scenario is at least a name length + delta count: 8 bytes.
    COBRA_RETURN_IF_ERROR(reader.Count(8, &num_scenarios, "scenario"));
    if (num_scenarios > kMaxRequestScenarios) {
      return util::Status::InvalidArgument(util::StrFormat(
          "wire: request carries %zu scenarios, over the "
          "kMaxRequestScenarios cap of %u",
          num_scenarios, kMaxRequestScenarios));
    }
    request.scenarios.Reserve(num_scenarios);
    std::size_t total_deltas = 0;
    for (std::size_t i = 0; i < num_scenarios; ++i) {
      core::Scenario scenario;
      COBRA_RETURN_IF_ERROR(reader.Str(&scenario.name, "scenario name"));
      if (scenario.name.empty()) {
        return util::Status::InvalidArgument(
            util::StrFormat("wire: scenario %zu has an empty name", i));
      }
      std::size_t num_deltas = 0;
      // A delta is at least a var length + value: 12 bytes, so the count is
      // bounded by the payload before the list is sized from it.
      COBRA_RETURN_IF_ERROR(reader.Count(12, &num_deltas, "delta"));
      total_deltas += num_deltas;
      if (total_deltas > kMaxRequestDeltas) {
        return util::Status::InvalidArgument(util::StrFormat(
            "wire: request carries over %u total overrides "
            "(kMaxRequestDeltas cap)",
            kMaxRequestDeltas));
      }
      scenario.deltas.resize(num_deltas);
      for (core::Scenario::Delta& delta : scenario.deltas) {
        COBRA_RETURN_IF_ERROR(reader.Str(&delta.var, "delta variable"));
        COBRA_RETURN_IF_ERROR(reader.F64(&delta.value, "delta value"));
        if (!std::isfinite(delta.value)) {
          return util::Status::InvalidArgument(util::StrFormat(
              "wire: scenario %zu (\"%s\") sets \"%s\" to the non-finite "
              "value %g",
              i, scenario.name.c_str(), delta.var.c_str(), delta.value));
        }
      }
      util::Result<core::ScenarioSet::Handle> added =
          request.scenarios.Add(std::move(scenario));
      if (!added.ok()) return added.status();
    }
  }
  if (!reader.AtEnd()) {
    return reader.Fail("trailing bytes after the last field");
  }
  return request;
}

std::string EncodeResponse(const WireResponse& response) {
  Writer w;
  w.U16(kWireVersion);
  w.U16(static_cast<std::uint16_t>(response.type));
  w.U64(response.request_id);
  w.U16(static_cast<std::uint16_t>(response.code));
  w.U32(response.retry_after_ms);
  w.Str(response.message);
  if (response.code != WireCode::kOk) return w.Take();
  w.U64(response.snapshot_version);
  switch (response.type) {
    case MsgType::kPing:
      break;
    case MsgType::kAssignBatch:
      w.StrVec(response.labels);
      w.StrVec(response.scenario_names);
      w.F64Vec(response.full_values);
      w.F64Vec(response.compressed_values);
      break;
    case MsgType::kStats:
      w.Str(response.stats_text);
      break;
  }
  return w.Take();
}

util::Result<WireResponse> DecodeResponse(std::string_view payload) {
  Reader reader(payload);
  WireResponse response;
  COBRA_RETURN_IF_ERROR(CheckVersionAndType(&reader, &response.type));
  COBRA_RETURN_IF_ERROR(reader.U64(&response.request_id, "request id"));
  std::uint16_t raw_code = 0;
  COBRA_RETURN_IF_ERROR(reader.U16(&raw_code, "status code"));
  if (raw_code > static_cast<std::uint16_t>(WireCode::kInternal)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "wire payload: unknown status code %u", raw_code));
  }
  response.code = static_cast<WireCode>(raw_code);
  COBRA_RETURN_IF_ERROR(reader.U32(&response.retry_after_ms, "retry hint"));
  COBRA_RETURN_IF_ERROR(reader.Str(&response.message, "message"));
  if (response.code != WireCode::kOk) {
    if (!reader.AtEnd()) return reader.Fail("trailing bytes after error");
    return response;
  }
  COBRA_RETURN_IF_ERROR(
      reader.U64(&response.snapshot_version, "snapshot version"));
  switch (response.type) {
    case MsgType::kPing:
      break;
    case MsgType::kAssignBatch: {
      COBRA_RETURN_IF_ERROR(reader.StrVec(&response.labels, "label"));
      COBRA_RETURN_IF_ERROR(
          reader.StrVec(&response.scenario_names, "scenario name"));
      COBRA_RETURN_IF_ERROR(
          reader.F64Vec(&response.full_values, "full value"));
      COBRA_RETURN_IF_ERROR(
          reader.F64Vec(&response.compressed_values, "compressed value"));
      const std::size_t cells =
          response.scenario_names.size() * response.labels.size();
      if (response.full_values.size() != cells ||
          response.compressed_values.size() != cells) {
        return reader.Fail(util::StrFormat(
            "value matrices hold %zu/%zu cells but %zu scenarios x %zu "
            "groups promise %zu",
            response.full_values.size(), response.compressed_values.size(),
            response.scenario_names.size(), response.labels.size(), cells));
      }
      break;
    }
    case MsgType::kStats:
      COBRA_RETURN_IF_ERROR(reader.Str(&response.stats_text, "stats text"));
      break;
  }
  if (!reader.AtEnd()) {
    return reader.Fail("trailing bytes after the last field");
  }
  return response;
}

// ---------------------------------------------------------------------------
// Frame I/O over a file descriptor.
// ---------------------------------------------------------------------------

namespace {

/// Writes all of `data` to socket `fd`, retrying on EINTR and partial
/// writes. MSG_NOSIGNAL turns a write to a closed peer into EPIPE instead of
/// SIGPIPE, which would kill a process that never ignored that signal.
util::Status WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return util::Status::Unavailable("peer closed the connection");
      }
      return util::Status::IoError(
          util::StrFormat("write failed: %s", std::strerror(errno)));
    }
    written += static_cast<std::size_t>(n);
  }
  return util::Status::OK();
}

/// Reads exactly `size` bytes. `*closed` is set (with OK) only when EOF
/// lands before the first byte and `allow_clean_eof` is true.
util::Status ReadAll(int fd, char* data, std::size_t size,
                     bool allow_clean_eof, bool* closed) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return util::Status::DeadlineExceeded("read timed out");
      }
      if (errno == ECONNRESET) {
        return util::Status::Unavailable("peer reset the connection");
      }
      return util::Status::IoError(
          util::StrFormat("read failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0 && allow_clean_eof) {
        *closed = true;
        return util::Status::OK();
      }
      return util::Status::Unavailable(
          "peer closed the connection mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return util::Status::OK();
}

}  // namespace

util::Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return util::Status::InvalidArgument(util::StrFormat(
        "frame payload of %zu bytes exceeds the %u-byte frame limit",
        payload.size(), kMaxFrameBytes));
  }
  char prefix[4];
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<char>(size >> (8 * i));
  COBRA_RETURN_IF_ERROR(WriteAll(fd, prefix, sizeof(prefix)));
  return WriteAll(fd, payload.data(), payload.size());
}

util::Status ReadFrame(int fd, std::string* payload, bool* closed) {
  payload->clear();
  *closed = false;
  char prefix[4];
  COBRA_RETURN_IF_ERROR(
      ReadAll(fd, prefix, sizeof(prefix), /*allow_clean_eof=*/true, closed));
  if (*closed) return util::Status::OK();
  std::uint32_t size = 0;
  for (int i = 0; i < 4; ++i) {
    size |= static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[i]))
            << (8 * i);
  }
  if (size > kMaxFrameBytes) {
    return util::Status::InvalidArgument(util::StrFormat(
        "frame length prefix %u exceeds the %u-byte frame limit", size,
        kMaxFrameBytes));
  }
  payload->resize(size);
  bool ignored = false;
  return ReadAll(fd, payload->data(), size, /*allow_clean_eof=*/false,
                 &ignored);
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Client> Client::Connect(const std::string& host, int port,
                                     int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::IoError(
        util::StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument(
        "not an IPv4 address: " + host +
        " (cobra_serverd listens on a numeric loopback address)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return util::Status::Unavailable(util::StrFormat(
        "cannot connect to %s:%d: %s", host.c_str(), port,
        std::strerror(err)));
  }
  return Client(fd);
}

util::Result<WireResponse> Client::Call(const WireRequest& request) {
  if (fd_ < 0) {
    return util::Status::FailedPrecondition("client is not connected");
  }
  COBRA_RETURN_IF_ERROR(WriteFrame(fd_, EncodeRequest(request)));
  std::string payload;
  bool closed = false;
  COBRA_RETURN_IF_ERROR(ReadFrame(fd_, &payload, &closed));
  if (closed) {
    return util::Status::Unavailable(
        "server closed the connection before responding");
  }
  util::Result<WireResponse> response = DecodeResponse(payload);
  if (!response.ok()) return response.status();
  if (response->request_id != request.request_id) {
    return util::Status::Internal(util::StrFormat(
        "response id %llu does not match request id %llu",
        static_cast<unsigned long long>(response->request_id),
        static_cast<unsigned long long>(request.request_id)));
  }
  return response;
}

}  // namespace cobra::serve
