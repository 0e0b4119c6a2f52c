#include "serve/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "util/hash.h"
#include "util/str.h"

namespace cobra::serve {

namespace {

/// A request's fixed header: version, type, request id, deadline.
constexpr std::size_t kHeaderBytes = 2 + 2 + 8 + 4;

// Integers are stored little-endian whatever the host; a host that is
// little-endian itself copies double arrays as they are in memory, which
// halves the value matrices' share of encoding and decoding a response.
constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// The sizing pass of an encoding: counts the bytes the filling pass puts.
struct ByteCounter {
  std::size_t bytes = 0;

  template <typename T>
  void Int(T /*v*/) {
    bytes += sizeof(T);
  }
  void Bytes(const void* /*data*/, std::size_t size) { bytes += size; }
};

/// The filling pass of an encoding: writes into the buffer the sizing pass
/// sized.
struct BufferFiller {
  char* p;

  template <typename T>
  void Int(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>(v >> (8 * i));
    }
    p += sizeof(T);
  }
  void Bytes(const void* data, std::size_t size) {
    if (size > 0) std::memcpy(p, data, size);
    p += size;
  }
};

/// Little-endian payload writer over a sink (same conventions as the
/// snapshot format). A message's fields are written by one function, run
/// over a `ByteCounter` to size the buffer and over a `BufferFiller` to fill
/// it (`Encode`), so the size and the bytes come from the same code.
template <typename Sink>
class Writer {
 public:
  explicit Writer(Sink* sink) : sink_(sink) {}

  void U16(std::uint16_t v) { sink_->Int(v); }
  void U32(std::uint32_t v) { sink_->Int(v); }
  void U64(std::uint64_t v) { sink_->Int(v); }
  void F64(double v) { sink_->Int(std::bit_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    sink_->Bytes(s.data(), s.size());
  }
  void StrVec(const std::vector<std::string>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (const std::string& s : v) Str(s);
  }
  void F64Vec(const std::vector<double>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    if constexpr (kLittleEndianHost) {
      sink_->Bytes(v.data(), 8 * v.size());
    } else {
      for (double x : v) F64(x);
    }
  }

 private:
  Sink* sink_;
};

/// Encodes the message whose fields `write_fields(&writer)` writes: one
/// pass sizes the buffer, a second fills it.
template <typename WriteFields>
std::string Encode(const WriteFields& write_fields) {
  ByteCounter counter;
  Writer<ByteCounter> sizing(&counter);
  write_fields(&sizing);
  std::string out(counter.bytes, '\0');
  BufferFiller filler{out.data()};
  Writer<BufferFiller> filling(&filler);
  write_fields(&filling);
  return out;
}

/// A request's fields in wire order.
template <typename Sink>
void WriteRequestFields(const WireRequest& request, Writer<Sink>* w) {
  w->U16(kWireVersion);
  w->U16(static_cast<std::uint16_t>(request.type));
  w->U64(request.request_id);
  w->U32(request.deadline_ms);
  if (request.type == MsgType::kAssignBatch) {
    w->U32(static_cast<std::uint32_t>(request.scenarios.size()));
    for (const core::Scenario& scenario : request.scenarios.scenarios()) {
      w->Str(scenario.name);
      w->U32(static_cast<std::uint32_t>(scenario.deltas.size()));
      for (const core::Scenario::Delta& delta : scenario.deltas) {
        w->Str(delta.var);
        w->F64(delta.value);
      }
    }
  }
}

/// A response's fields in wire order; an error carries no result fields.
template <typename Sink>
void WriteResponseFields(const WireResponse& response, Writer<Sink>* w) {
  w->U16(kWireVersion);
  w->U16(static_cast<std::uint16_t>(response.type));
  w->U64(response.request_id);
  w->U16(static_cast<std::uint16_t>(response.code));
  w->U32(response.retry_after_ms);
  w->Str(response.message);
  if (response.code != WireCode::kOk) return;
  w->U64(response.snapshot_version);
  switch (response.type) {
    case MsgType::kPing:
      break;
    case MsgType::kAssignBatch:
      w->StrVec(response.labels);
      w->StrVec(response.scenario_names);
      w->F64Vec(response.full_values);
      w->F64Vec(response.compressed_values);
      break;
    case MsgType::kStats:
      w->Str(response.stats_text);
      break;
  }
}

template <typename T>
T LoadLittleEndian(const char* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(static_cast<unsigned char>(p[i]))
                               << (8 * i));
  }
  return v;
}

/// Bounds-checked little-endian payload reader. Every failure names the
/// field, so a malformed frame is diagnosable from the message alone.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  util::Status U16(std::uint16_t* out, const char* what) {
    return Int(out, what);
  }
  util::Status U32(std::uint32_t* out, const char* what) {
    return Int(out, what);
  }
  util::Status U64(std::uint64_t* out, const char* what) {
    return Int(out, what);
  }

  util::Status F64(double* out, const char* what) {
    std::uint64_t bits = 0;
    COBRA_RETURN_IF_ERROR(U64(&bits, what));
    *out = std::bit_cast<double>(bits);
    return util::Status::OK();
  }

  /// Reads a length-prefixed string as a view into the payload.
  util::Status View(std::string_view* out, const char* what) {
    std::uint32_t length = 0;
    COBRA_RETURN_IF_ERROR(U32(&length, what));
    COBRA_RETURN_IF_ERROR(Need(length, what));
    *out = data_.substr(pos_, length);
    pos_ += length;
    return util::Status::OK();
  }

  util::Status Str(std::string* out, const char* what) {
    std::string_view view;
    COBRA_RETURN_IF_ERROR(View(&view, what));
    out->assign(view);
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

  /// Reads a counted double array. The count check bounds the whole array,
  /// so the values are copied without another check.
  util::Status F64Vec(std::vector<double>* out, const char* what) {
    std::size_t count = 0;
    COBRA_RETURN_IF_ERROR(Count(8, &count, what));
    out->resize(count);
    const char* p = data_.data() + pos_;
    if constexpr (kLittleEndianHost) {
      if (count > 0) std::memcpy(out->data(), p, 8 * count);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        (*out)[i] =
            std::bit_cast<double>(LoadLittleEndian<std::uint64_t>(p + 8 * i));
      }
    }
    pos_ += 8 * count;
    return util::Status::OK();
  }

  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  util::Status Fail(const std::string& what) const {
    return util::Status::InvalidArgument(util::StrFormat(
        "wire payload: %s at byte %zu", what.c_str(), pos_));
  }

 private:
  template <typename T>
  util::Status Int(T* out, const char* what) {
    COBRA_RETURN_IF_ERROR(Need(sizeof(T), what));
    *out = LoadLittleEndian<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return util::Status::OK();
  }

  util::Status Need(std::size_t bytes, const char* what) const {
    if (data_.size() - pos_ < bytes) {
      return Fail(util::StrFormat("truncated: expected %s", what));
    }
    return util::Status::OK();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Reads the fields of a scenario record that `WalkRequest` has checked, so
/// it checks no bounds.
class RecordReader {
 public:
  RecordReader(std::string_view payload, std::size_t offset)
      : p_(payload.data() + offset) {}

  std::uint32_t U32() {
    const std::uint32_t v = LoadLittleEndian<std::uint32_t>(p_);
    p_ += 4;
    return v;
  }
  double F64() {
    const double v = std::bit_cast<double>(LoadLittleEndian<std::uint64_t>(p_));
    p_ += 8;
    return v;
  }
  std::string_view Str() {
    const std::uint32_t length = U32();
    const std::string_view s(p_, length);
    p_ += length;
    return s;
  }

 private:
  const char* p_;
};

/// The scenario names a request has carried so far, as views into its
/// payload: an open-addressed table sized once for the request's scenario
/// count, so checking a name allocates nothing.
class NameSet {
 public:
  explicit NameSet(std::size_t capacity)
      : slots_(std::bit_ceil(std::max<std::size_t>(1, 2 * capacity))),
        mask_(slots_.size() - 1) {}

  /// Adds `name` (never empty); false when the set already holds it.
  bool Insert(std::string_view name) {
    for (std::size_t i = util::Mix64(util::HashBytes(name)) & mask_;;
         i = (i + 1) & mask_) {
      if (slots_[i].empty()) {
        slots_[i] = name;
        return true;
      }
      if (slots_[i] == name) return false;
    }
  }

 private:
  std::vector<std::string_view> slots_;  ///< An empty view is a free slot.
  std::size_t mask_;
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
  return Encode([&request](auto* w) { WriteRequestFields(request, w); });
}

namespace {

/// Appends the scenario records at `records` of a walked `payload` to
/// `out`.
util::Status AppendRecords(std::string_view payload,
                           std::span<const std::size_t> records,
                           core::ScenarioSet* out) {
  for (const std::size_t offset : records) {
    RecordReader record(payload, offset);
    core::Scenario scenario;
    scenario.name = record.Str();
    scenario.deltas.resize(record.U32());
    for (core::Scenario::Delta& delta : scenario.deltas) {
      delta.var = record.Str();
      delta.value = record.F64();
    }
    util::Result<core::ScenarioSet::Handle> added =
        out->Add(std::move(scenario));
    if (!added.ok()) return added.status();
  }
  return util::Status::OK();
}

}  // namespace

// A scenario's checks run in the order its fields arrive, and a repeated
// name is caught once its record is read, so every refusal is the first
// fault of the payload.
util::Status RequestFrame::Walk(std::string_view payload, RequestFrame* frame,
                                std::uint64_t* request_id) {
  Reader reader(payload);
  if (request_id != nullptr) *request_id = 0;
  COBRA_RETURN_IF_ERROR(CheckVersionAndType(&reader, &frame->type_));
  COBRA_RETURN_IF_ERROR(reader.U64(&frame->request_id_, "request id"));
  if (request_id != nullptr) *request_id = frame->request_id_;
  COBRA_RETURN_IF_ERROR(reader.U32(&frame->deadline_ms_, "deadline"));
  if (frame->type_ == MsgType::kAssignBatch) {
    std::size_t num_scenarios = 0;
    // A scenario is at least a name length + delta count: 8 bytes.
    COBRA_RETURN_IF_ERROR(reader.Count(8, &num_scenarios, "scenario"));
    if (num_scenarios > kMaxRequestScenarios) {
      return util::Status::InvalidArgument(util::StrFormat(
          "wire: request carries %zu scenarios, over the "
          "kMaxRequestScenarios cap of %u",
          num_scenarios, kMaxRequestScenarios));
    }
    frame->records_.reserve(num_scenarios);
    NameSet names(num_scenarios);
    std::size_t total_deltas = 0;
    for (std::size_t i = 0; i < num_scenarios; ++i) {
      frame->records_.push_back(reader.pos());
      std::string_view name;
      COBRA_RETURN_IF_ERROR(reader.View(&name, "scenario name"));
      if (name.empty()) {
        return util::Status::InvalidArgument(
            util::StrFormat("wire: scenario %zu has an empty name", i));
      }
      std::size_t num_deltas = 0;
      // A delta is at least a var length + value: 12 bytes, so the count is
      // bounded by the payload before any delta is read.
      COBRA_RETURN_IF_ERROR(reader.Count(12, &num_deltas, "delta"));
      total_deltas += num_deltas;
      if (total_deltas > kMaxRequestDeltas) {
        return util::Status::InvalidArgument(util::StrFormat(
            "wire: request carries over %u total overrides "
            "(kMaxRequestDeltas cap)",
            kMaxRequestDeltas));
      }
      frame->max_deltas_ = std::max(frame->max_deltas_, num_deltas);
      for (std::size_t d = 0; d < num_deltas; ++d) {
        std::string_view var;
        double value = 0.0;
        COBRA_RETURN_IF_ERROR(reader.View(&var, "delta variable"));
        COBRA_RETURN_IF_ERROR(reader.F64(&value, "delta value"));
        if (!std::isfinite(value)) {
          // Printed as C strings, as a decoded name would print.
          return util::Status::InvalidArgument(util::StrFormat(
              "wire: scenario %zu (\"%s\") sets \"%s\" to the non-finite "
              "value %g",
              i, std::string(name).c_str(), std::string(var).c_str(), value));
        }
      }
      if (!names.Insert(name)) {
        return util::Status::InvalidArgument(
            "ScenarioSet: duplicate scenario name \"" + std::string(name) +
            "\"");
      }
    }
  }
  if (!reader.AtEnd()) {
    return reader.Fail("trailing bytes after the last field");
  }
  return util::Status::OK();
}

util::Status RequestFrame::AppendScenarios(std::size_t begin,
                                           std::size_t count,
                                           core::ScenarioSet* out) const {
  COBRA_RETURN_IF_ERROR(
      core::CheckWindow(begin, count, num_scenarios(), "RequestFrame"));
  return AppendRecords(payload_, records().subspan(begin, count), out);
}

util::Result<RequestFrame> ParseRequest(std::string payload,
                                        std::uint64_t* request_id) {
  RequestFrame frame;
  COBRA_RETURN_IF_ERROR(RequestFrame::Walk(payload, &frame, request_id));
  if (frame.type_ == MsgType::kAssignBatch) {
    // Its own seed pair, apart from every source and plan fingerprint.
    util::Hash128 hash(0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL);
    hash.FeedBytes(std::string_view(payload).substr(kHeaderBytes));
    frame.hash_ = core::SourceFingerprint{hash.lo(), hash.hi()};
  }
  frame.payload_ = std::move(payload);
  return frame;
}

util::Result<WireRequest> DecodeRequest(std::string_view payload,
                                        std::uint64_t* request_id) {
  RequestFrame frame;
  COBRA_RETURN_IF_ERROR(RequestFrame::Walk(payload, &frame, request_id));
  WireRequest request;
  request.type = frame.type_;
  request.request_id = frame.request_id_;
  request.deadline_ms = frame.deadline_ms_;
  request.scenarios.Reserve(frame.num_scenarios());
  COBRA_RETURN_IF_ERROR(
      AppendRecords(payload, frame.records_, &request.scenarios));
  return request;
}

std::string EncodeResponse(const WireResponse& response) {
  return Encode([&response](auto* w) { WriteResponseFields(response, w); });
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
// FrameSource.
// ---------------------------------------------------------------------------

util::Status FrameSource::Generate(std::uint64_t begin, std::uint64_t count,
                                   core::ScenarioSet* out) const {
  COBRA_RETURN_IF_ERROR(
      core::CheckWindow(begin, count, size(), "FrameSource"));
  return frame_->AppendScenarios(static_cast<std::size_t>(begin),
                                 static_cast<std::size_t>(count), out);
}

util::Status FrameSource::Lower(std::uint64_t begin, std::uint64_t count,
                                const core::VarResolver& resolver,
                                core::LoweredScenarios* out,
                                std::vector<std::string>* names) const {
  COBRA_RETURN_IF_ERROR(
      core::CheckWindow(begin, count, size(), "FrameSource"));
  const std::size_t first = static_cast<std::size_t>(begin);
  const std::size_t n = static_cast<std::size_t>(count);
  out->offsets.reserve(out->offsets.size() + n);
  if (names != nullptr) names->reserve(names->size() + n);
  for (std::size_t i = first; i < first + n; ++i) {
    RecordReader record(frame_->payload(), frame_->records()[i]);
    const std::string_view name = record.Str();
    const std::uint32_t num_deltas = record.U32();
    for (std::uint32_t d = 0; d < num_deltas; ++d) {
      const std::string_view var = record.Str();
      const double value = record.F64();
      util::Result<prov::VarId> id = resolver.Resolve(var);
      if (!id.ok()) return core::LoweringError(name, id.status());
      out->overrides.push_back({*id, value});
    }
    out->EndUnsortedScenario();
    if (names != nullptr) names->emplace_back(name);
  }
  return util::Status::OK();
}

// ---------------------------------------------------------------------------
// Frame I/O over a file descriptor.
// ---------------------------------------------------------------------------

namespace {

/// Writes every byte of `iov[0, count)` to socket `fd` with `sendmsg`,
/// retrying on EINTR and partial writes. MSG_NOSIGNAL turns a write to a
/// closed peer into EPIPE instead of SIGPIPE, which would kill a process
/// that never ignored that signal.
util::Status WriteAll(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return util::Status::Unavailable("peer closed the connection");
      }
      return util::Status::IoError(
          util::StrFormat("write failed: %s", std::strerror(errno)));
    }
    // Skip the buffers sent whole, then advance into a partly sent one.
    std::size_t sent = static_cast<std::size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
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
  iovec iov[2] = {{prefix, sizeof(prefix)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return WriteAll(fd, iov, 2);
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
