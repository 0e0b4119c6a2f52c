#ifndef COBRA_SERVE_SERVER_H_
#define COBRA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiled_session.h"
#include "serve/wire.h"
#include "util/status.h"

/// cobra::serve server — the fault-tolerant what-if serving tier.
///
/// `CobraServer` owns one published `shared_ptr<const CompiledSession>` and
/// answers wire-protocol requests (serve/wire.h) against it. The design
/// invariants, in the order they matter:
///
///   1. **Verify-gated swap.** The server itself never loads anything: a
///      new session arrives through `Swap()` only after the caller (the
///      `SnapshotWatcher`) has taken it through parse → checksum → static
///      verifier. The swap is an atomic pointer publish; requests admitted
///      before the swap finish on the session they started with (the
///      shared_ptr keeps it alive), so every response is computed against
///      exactly one coherent version — never a mix.
///
///   2. **Bounded admission.** A connection's reader walks each request
///      frame once (`ParseRequest`): every malformed request is refused
///      there, before admission, under its own request id. Accepted
///      requests enter a fixed-capacity queue as validated frames; when it
///      is full the server sheds instead of buffering (kUnavailable +
///      retry-after hint), so overload degrades to fast failure rather than
///      unbounded latency. Every request carries a deadline; workers check
///      it before execution and — for a request above
///      `deadline_check_scenarios` — between the windows of its one
///      `AssignStream` over the frame (`FrameSource`), so a stuck queue
///      cannot make a deadline overshoot unbounded. Streaming never changes
///      answers: scenarios are independent, so streamed rows are
///      bit-identical to one whole-batch call. A streamed request is never
///      materialized as a `ScenarioSet`, and skips the plan cache and
///      coalescing. An unknown variable fails the request in the worker, in
///      the window that holds it.
///
///   3. **Drain on stop.** `Stop()` closes the listener, half-closes every
///      connection (no new requests), lets the workers finish everything
///      already admitted, and only then tears down — an accepted request is
///      never abandoned.
///
/// Identical concurrent whole batches coalesce: requests whose frames hash
/// alike (`RequestFrame::hash`, over the scenario section's bytes) and that
/// target the same snapshot version execute once and fan the result out.
namespace cobra::serve {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see `port()`).
  int port = 0;
  /// Worker threads executing requests.
  int num_workers = 4;
  /// Admission queue capacity; requests beyond it are shed.
  int queue_capacity = 128;
  /// Deadline applied when a request does not name one, and the ceiling
  /// applied when it does.
  int default_deadline_ms = 10000;
  int max_deadline_ms = 60000;
  /// The retry hint attached to shed responses.
  int retry_after_ms = 50;
  /// Batches larger than this stream through one `AssignStream` over the
  /// request frame (`FrameSource`), in windows of this many, with a
  /// cooperative deadline check between windows (bit-identical: scenarios
  /// are independent); each window is lowered and named from the payload
  /// bytes, and the request neither reads nor fills the plan cache nor
  /// coalesces. Batches at or under it are materialized and run whole
  /// through `AssignBatch` — the plan-cache-friendly and coalescible path.
  int deadline_check_scenarios = 256;
};

/// Monotonic serving counters, readable while the server runs.
struct ServerStats {
  std::uint64_t accepted = 0;        ///< Requests admitted to the queue.
  std::uint64_t completed = 0;       ///< OK responses.
  std::uint64_t shed = 0;            ///< Rejected: queue full.
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;          ///< Non-OK, non-deadline responses.
  std::uint64_t coalesced = 0;       ///< Served by another request's run.
  std::uint64_t swaps = 0;           ///< Snapshot versions published.
};

class CobraServer {
 public:
  explicit CobraServer(ServerOptions options);
  ~CobraServer();

  CobraServer(const CobraServer&) = delete;
  CobraServer& operator=(const CobraServer&) = delete;

  /// Publishes a verified session as the new serving version. Requests
  /// admitted afterwards see it; requests in flight finish on the version
  /// they started with. `name` labels the version in logs and stats.
  void Swap(std::shared_ptr<const core::CompiledSession> session,
            const std::string& name);

  /// Binds, listens, and starts the acceptor + worker threads. Serving
  /// without a session is legal (requests answer kFailedPrecondition until
  /// the first Swap).
  util::Status Start();

  /// Graceful shutdown: stop accepting, half-close connections, drain the
  /// queue, join everything. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (after Start; useful with options.port == 0).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  /// The served snapshot: version counter (0 = none yet) and name.
  std::uint64_t snapshot_version() const;
  std::string snapshot_name() const;

  /// Renders the stats + served version as text (the kStats response).
  std::string StatsText() const;

  /// Log sink (defaults to stderr via std::fprintf). Must be set before
  /// Start.
  using LogFn = std::function<void(const std::string&)>;
  void set_log(LogFn log) { log_ = std::move(log); }

 private:
  struct Connection;
  struct PendingRequest;
  struct Inflight;

  using Clock = std::chrono::steady_clock;

  /// What a request executes against: one coherent published version.
  struct ServedSnapshot {
    std::shared_ptr<const core::CompiledSession> session;
    std::uint64_t version = 0;
    std::string name;
  };
  ServedSnapshot CurrentSnapshot() const;

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  /// Admits one validated request frame or answers with a shed response.
  void AdmitOrShed(const std::shared_ptr<Connection>& conn,
                   RequestFrame request);

  /// Executes one admitted request and writes its response.
  void Execute(PendingRequest& pending);

  /// The AssignBatch path: coalescing, streaming, deadline checks.
  WireResponse RunAssignBatch(const PendingRequest& pending,
                              const ServedSnapshot& snapshot);

  void SendResponse(const std::shared_ptr<Connection>& conn,
                    const WireResponse& response);

  void Log(const std::string& line);

  ServerOptions options_;
  LogFn log_;

  int listen_fd_ = -1;
  int port_ = 0;
  /// Self-pipe: written on Stop to wake the acceptor's poll.
  int wake_pipe_[2] = {-1, -1};

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  mutable std::shared_mutex snapshot_mu_;
  ServedSnapshot snapshot_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<PendingRequest>> queue_;

  std::mutex conns_mu_;
  std::vector<std::weak_ptr<Connection>> conns_;

  /// Coalescing table: (frame hash, snapshot version) → the in-flight
  /// execution other identical requests wait on.
  std::mutex inflight_mu_;
  std::map<std::pair<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>,
           std::shared_ptr<Inflight>>
      inflight_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> readers_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace cobra::serve

#endif  // COBRA_SERVE_SERVER_H_
