#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/scenario.h"
#include "serve/fault.h"

namespace cobra::serve {

bool ServerBuildHasFaultInjection() {
#ifdef COBRA_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

/// One accepted TCP connection. The reader thread is the only reader of
/// `fd`; responses may come from any worker, so writes serialize on
/// `write_mu`. The fd closes when the last shared_ptr drops — which cannot
/// happen before every queued request holding the connection has answered.
struct CobraServer::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  std::mutex write_mu;
};

/// One admitted request: everything Execute needs, captured at admission.
/// The snapshot is pinned here — a Swap after admission does not move this
/// request off the version it was admitted against.
struct CobraServer::PendingRequest {
  std::shared_ptr<Connection> conn;
  RequestFrame request;
  ServedSnapshot snapshot;
  Clock::time_point deadline;
};

/// One coalesced AssignBatch execution: the leader fills the shared result
/// and wakes the followers.
struct CobraServer::Inflight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  /// The leader's response minus per-request identity (request_id).
  WireResponse result;
};

CobraServer::CobraServer(ServerOptions options)
    : options_(std::move(options)) {}

CobraServer::~CobraServer() { Stop(); }

void CobraServer::Log(const std::string& line) {
  if (log_) {
    log_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void CobraServer::Swap(std::shared_ptr<const core::CompiledSession> session,
                       const std::string& name) {
  std::uint64_t version = 0;
  {
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    snapshot_.session = std::move(session);
    snapshot_.version += 1;
    snapshot_.name = name;
    version = snapshot_.version;
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  Log("serverd: serving snapshot '" + name + "' as version " +
      std::to_string(version));
}

CobraServer::ServedSnapshot CobraServer::CurrentSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::uint64_t CobraServer::snapshot_version() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return snapshot_.version;
}

std::string CobraServer::snapshot_name() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return snapshot_.name;
}

util::Status CobraServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError(std::string("socket() failed: ") +
                                 std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError("bind(port " +
                                 std::to_string(options_.port) +
                                 ") failed: " + error);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError("listen() failed: " + error);
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError(std::string("pipe() failed: ") +
                                 std::strerror(errno));
  }
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  Log("serverd: listening on 127.0.0.1:" + std::to_string(port_));
  return util::Status::OK();
}

void CobraServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);

  // Wake and join the acceptor: no new connections.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Half-close every connection: readers see EOF and stop admitting, but
  // the write side stays open for responses still in the queue.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::weak_ptr<Connection>& weak : conns_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (std::thread& reader : readers_) {
      if (reader.joinable()) reader.join();
    }
    readers_.clear();
  }

  // Drain: workers exit only once the queue is empty (WorkerLoop checks
  // draining_), so every admitted request still gets its response.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  Log("serverd: drained and stopped");
}

void CobraServer::AcceptLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      Log(std::string("serverd: accept poll failed: ") +
          std::strerror(errno));
      return;
    }
    if (fds[1].revents != 0 || draining_.load(std::memory_order_acquire)) {
      return;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      Log(std::string("serverd: accept failed: ") + std::strerror(errno));
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back(
        [this, conn]() mutable { ConnectionLoop(std::move(conn)); });
  }
}

void CobraServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::string payload;
    bool closed = false;
    util::Status read = ReadFrame(conn->fd, &payload, &closed);
    if (!read.ok()) {
      Log("serverd: connection dropped: " + read.ToString());
      return;
    }
    if (closed) return;
    std::uint64_t request_id = 0;
    util::Result<RequestFrame> request =
        ParseRequest(std::move(payload), &request_id);
    if (!request.ok()) {
      WireResponse response;
      response.request_id = request_id;
      response.code = WireCode::kInvalidArgument;
      response.message = request.status().message();
      SendResponse(conn, response);
      continue;
    }
    switch (request->type()) {
      case MsgType::kPing: {
        WireResponse response;
        response.type = MsgType::kPing;
        response.request_id = request->request_id();
        const ServedSnapshot snapshot = CurrentSnapshot();
        response.snapshot_version = snapshot.version;
        response.message = snapshot.name;
        SendResponse(conn, response);
        break;
      }
      case MsgType::kStats: {
        WireResponse response;
        response.type = MsgType::kStats;
        response.request_id = request->request_id();
        response.snapshot_version = snapshot_version();
        response.stats_text = StatsText();
        SendResponse(conn, response);
        break;
      }
      case MsgType::kAssignBatch:
        AdmitOrShed(conn, std::move(*request));
        break;
      default: {
        WireResponse response;
        response.request_id = request->request_id();
        response.code = WireCode::kInvalidArgument;
        response.message = "unknown message type";
        SendResponse(conn, response);
        break;
      }
    }
  }
}

void CobraServer::AdmitOrShed(const std::shared_ptr<Connection>& conn,
                              RequestFrame request) {
  auto pending = std::make_unique<PendingRequest>();
  pending->conn = conn;
  pending->snapshot = CurrentSnapshot();
  int deadline_ms = request.deadline_ms() == 0
                        ? options_.default_deadline_ms
                        : static_cast<int>(request.deadline_ms());
  if (deadline_ms > options_.max_deadline_ms) {
    deadline_ms = options_.max_deadline_ms;
  }
  pending->deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  const std::uint64_t request_id = request.request_id();
  pending->request = std::move(request);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const bool full =
        queue_.size() >= static_cast<std::size_t>(options_.queue_capacity) ||
        COBRA_FAULT_FIRE(FaultPoint::kQueueOverflow);
    if (full || draining_.load(std::memory_order_acquire)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      WireResponse response;
      response.type = MsgType::kAssignBatch;
      response.request_id = request_id;
      response.code = WireCode::kUnavailable;
      response.message = full ? "request queue full" : "server draining";
      response.retry_after_ms =
          static_cast<std::uint32_t>(options_.retry_after_ms);
      SendResponse(conn, response);
      return;
    }
    queue_.push_back(std::move(pending));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
}

void CobraServer::WorkerLoop() {
  for (;;) {
    std::unique_ptr<PendingRequest> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        // Draining and nothing left: every accepted request has answered.
        return;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Execute(*pending);
  }
}

void CobraServer::Execute(PendingRequest& pending) {
  WireResponse response = RunAssignBatch(pending, pending.snapshot);
  response.type = MsgType::kAssignBatch;
  response.request_id = pending.request.request_id();
  switch (response.code) {
    case WireCode::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  SendResponse(pending.conn, response);
}

namespace {

/// Copies one batch report into the response matrices.
void AppendBatchReport(const core::BatchAssignReport& report,
                       WireResponse* response) {
  for (const std::string& name : report.scenario_names) {
    response->scenario_names.push_back(name);
  }
  for (const core::AssignReport& scenario : report.reports) {
    for (const core::ResultDelta::Row& row : scenario.delta.rows) {
      response->full_values.push_back(row.full);
      response->compressed_values.push_back(row.compressed);
    }
  }
}

WireResponse ErrorResponse(WireCode code, std::string message) {
  WireResponse response;
  response.code = code;
  response.message = std::move(message);
  return response;
}

}  // namespace

WireResponse CobraServer::RunAssignBatch(const PendingRequest& pending,
                                         const ServedSnapshot& snapshot) {
  if (snapshot.session == nullptr) {
    return ErrorResponse(WireCode::kFailedPrecondition,
                         "no servable snapshot loaded yet");
  }
  const RequestFrame& request = pending.request;
  if (request.num_scenarios() == 0) {
    return ErrorResponse(WireCode::kInvalidArgument, "empty scenario set");
  }
  if (Clock::now() >= pending.deadline) {
    return ErrorResponse(WireCode::kDeadlineExceeded,
                         "deadline expired before execution started");
  }

  const std::size_t total = request.num_scenarios();
  const std::size_t window =
      options_.deadline_check_scenarios > 0
          ? static_cast<std::size_t>(options_.deadline_check_scenarios)
          : total;

  if (total <= window) {
    // Whole-batch path: coalesce identical concurrent batches. The key is
    // the frame's hash of its scenario section plus the snapshot version —
    // requests pinned to different versions never share a result.
    const auto key = std::make_pair(
        std::make_pair(request.hash().lo, request.hash().hi), snapshot.version);
    std::shared_ptr<Inflight> inflight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto it = inflight_.find(key);
      if (it == inflight_.end()) {
        inflight = std::make_shared<Inflight>();
        inflight_.emplace(key, inflight);
        leader = true;
      } else {
        inflight = it->second;
      }
    }
    if (!leader) {
      // Follower: wait for the leader's result (bounded by our deadline).
      std::unique_lock<std::mutex> lock(inflight->mu);
      if (!inflight->cv.wait_until(lock, pending.deadline,
                                   [&] { return inflight->done; })) {
        return ErrorResponse(WireCode::kDeadlineExceeded,
                             "deadline expired waiting for coalesced batch");
      }
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      return inflight->result;
    }
    // Leader: materialize, execute, publish, unregister.
    COBRA_FAULT_STALL(FaultPoint::kSlowLeader);
    WireResponse response;
    core::ScenarioSet scenarios;
    scenarios.Reserve(total);
    util::Status materialized = request.AppendScenarios(0, total, &scenarios);
    util::Result<core::BatchAssignReport> report =
        materialized.ok() ? snapshot.session->AssignBatch(scenarios)
                          : util::Result<core::BatchAssignReport>(materialized);
    if (report.ok()) {
      response.snapshot_version = snapshot.version;
      response.labels = snapshot.session->labels();
      AppendBatchReport(*report, &response);
    } else {
      response.code = ToWireCode(report.status().code());
      response.message = report.status().message();
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(inflight->mu);
      inflight->result = response;
      inflight->done = true;
    }
    inflight->cv.notify_all();
    return response;
  }

  // Streamed path: the request frame becomes one source, swept in windows
  // of `window` scenarios with a cooperative deadline check between
  // windows. Each window is lowered and named from the payload bytes.
  // Scenarios are independent, so the concatenated rows are bit-identical
  // to one whole-batch call. The stream neither reads nor fills the plan
  // cache.
  const FrameSource source(request);
  WireResponse response;
  response.snapshot_version = snapshot.version;
  response.labels = snapshot.session->labels();
  const std::size_t cells = total * response.labels.size();
  response.scenario_names.reserve(total);
  response.full_values.reserve(cells);
  response.compressed_values.reserve(cells);
  core::StreamOptions options;
  options.batch.stream_block_scenarios = window;
  // The consumer stops the stream when scenarios remain and the deadline
  // has passed.
  util::Result<core::SweepSummary> summary = snapshot.session->AssignStream(
      source, options, [&](const core::StreamBlockView& view) {
        response.scenario_names.insert(response.scenario_names.end(),
                                       view.names->begin(),
                                       view.names->end());
        const std::size_t n = view.count * view.num_groups;
        response.full_values.insert(response.full_values.end(), view.full,
                                    view.full + n);
        response.compressed_values.insert(response.compressed_values.end(),
                                          view.compressed,
                                          view.compressed + n);
        if (view.begin + view.count == total) return true;
        COBRA_FAULT_STALL(FaultPoint::kSlowWindow);
        return Clock::now() < pending.deadline;
      });
  if (!summary.ok()) {
    return ErrorResponse(ToWireCode(summary.status().code()),
                         summary.status().message());
  }
  if (summary->stopped_early) {
    return ErrorResponse(WireCode::kDeadlineExceeded,
                         "deadline expired after " +
                             std::to_string(summary->scenarios) + " of " +
                             std::to_string(total) + " scenarios");
  }
  return response;
}

void CobraServer::SendResponse(const std::shared_ptr<Connection>& conn,
                               const WireResponse& response) {
  const std::string payload = EncodeResponse(response);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  util::Status written = WriteFrame(conn->fd, payload);
  if (!written.ok()) {
    Log("serverd: response write failed: " + written.ToString());
  }
}

ServerStats CobraServer::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  return stats;
}

std::string CobraServer::StatsText() const {
  const ServerStats s = stats();
  std::string text = "serving snapshot '" + snapshot_name() + "' version " +
                     std::to_string(snapshot_version()) + "\n";
  text += "accepted=" + std::to_string(s.accepted);
  text += " completed=" + std::to_string(s.completed);
  text += " coalesced=" + std::to_string(s.coalesced);
  text += " shed=" + std::to_string(s.shed);
  text += " deadline_exceeded=" + std::to_string(s.deadline_exceeded);
  text += " failed=" + std::to_string(s.failed);
  text += " swaps=" + std::to_string(s.swaps);
  return text;
}

}  // namespace cobra::serve
