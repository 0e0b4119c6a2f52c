// What-if serving benchmark for COBRA.
//
// Runs one seeded workload against the real stack — SQL provenance,
// compression, snapshot, verify-gated load, the `CobraServer` daemon and a
// `serve::Client` over loopback (or, for sweep_topk, an in-process
// `AssignStream`) — checks the answers outside the timed windows, and prints
// one JSON result line as the last line of stdout.
//
//   whatif_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--work-dir <dir>]
//
// Workloads (README.md says why each exists):
//   whatif_interactive  16-scenario requests on TPC-H Q1 by ship month; half
//                       replay one of 32 hot scenario sets
//   whatif_bulk         1024-scenario requests on per-order TPC-H Q6
//   sweep_topk          top-16 AssignStream sweeps over 64x64 grids of the
//                       most influential per-order Q6 meta-variables
//
// --trace 0 prints the end-to-end metrics. --trace 1 first runs a traced
// phase — every request is timed on the wire, then replayed layer by layer on
// an independent replica loaded from the same snapshot bytes — then an
// untraced phase, and prints the per-layer metrics, a self-time table and
// the tracing overhead. Spans are kept in memory and written to
// <work-dir>/traces/<workload>-seed<n>.jsonl at exit. Any failed request or
// answer check makes the exit code 1.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/io.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "prov/poly_set.h"
#include "prov/valuation.h"
#include "rel/sql/planner.h"
#include "serve/server.h"
#include "serve/snapshot_watcher.h"
#include "serve/wire.h"
#include "util/csv.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/status.h"
#include "verify/verify.h"

namespace {

using namespace cobra;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr double kScaleFactor = 0.05;
// The TPC-H data is generated from this fixed seed; --seed drives the
// request mix, the hot sets, the grids and the probes. Seeding the data too
// moved the per-order compressed size by +-4%, the meta-variable count by
// +-15% and max_rel_error by +-30% between seeds 1-3, which no bound
// within 25% can absorb.
constexpr std::uint64_t kDataSeed = 7;
constexpr std::size_t kOrderBucket = 512;
constexpr std::size_t kHotSets = 32;
constexpr double kHotShare = 0.5;
constexpr std::size_t kProbeScenarios = 4096;
constexpr std::size_t kTopK = 16;
constexpr std::size_t kGridSteps = 64;
constexpr std::size_t kInfluentialAxes = 4;
// The daemon runs batches above this size as sub-batches of this size
// (ServerOptions::deadline_check_scenarios, left at its default).
constexpr std::size_t kSubBatch = 256;
// A measured window sends every request of the cycle at least this often.
constexpr std::size_t kMinRepetitions = 5;
// Checked requests are drawn from the first kSampleWindow of a run.
constexpr std::size_t kSampleWindow = 64;
constexpr double kSampleShare = 0.25;
// Untimed warm-up before measuring: the first bulk requests of a process
// ran 2-3x slower (allocator and page-fault warm-up) and set the tail.
constexpr double kWarmupSeconds = 2.0;
// Hard cap on one measuring phase, whatever the sample minimum asks for.
constexpr double kMaxPhaseSeconds = 120.0;
constexpr std::uint64_t kFirstRequestId = 1000;
// The neutral-valuation check compares against SQL aggregates summed in a
// different order, so it allows rounding, not a different answer.
constexpr double kNeutralTolerance = 1e-9;

const char kPerOrderQ6[] =
    "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
    "FROM lineitem "
    "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
    "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24 "
    "GROUP BY l_returnflag";

enum class Kind { kInteractive, kBulk, kSweep };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t bound_pct;          ///< Compression bound, % of full monomials.
  std::size_t request_scenarios;  ///< Per request (per grid for sweep_topk).
  std::size_t min_deltas;
  std::size_t max_deltas;
  std::size_t setup_reps;         ///< Timed set-ups; setup_s is their median.
  std::size_t warmup_calls;       ///< Untimed calls before measuring.
  std::size_t cycle_requests;     ///< Distinct requests, replayed round-robin.
};

// Each run sends a fixed, seeded cycle of distinct requests round-robin, so
// every request is timed many times and its best time is known (BestOf).
// The cycles hold more distinct (sub-)batches than the 64-entry plan cache,
// so bulk requests always miss it as fresh ones would; interactive keeps
// its hot-set hits. AssignStream does not use the plan cache.
//
// whatif_bulk sends 1024-scenario requests (four daemon sub-batches). With
// 4096, one call spawned 128 sweep threads; on a 4-vCPU VM whose host steals
// CPU when every vCPU is busy, its p95 moved 32-77 ms and its peak RSS
// 167-202 MB between runs of identical code.
constexpr Workload kWorkloads[] = {
    {"whatif_interactive", Kind::kInteractive, 40, 16, 1, 3, 7, 2000, 256},
    {"whatif_bulk", Kind::kBulk, 10, 1024, 1, 4, 7, 128, 48},
    {"sweep_topk", Kind::kSweep, 10, kGridSteps * kGridSteps, 1, 4, 7, 200, 192},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (key == "--work-dir") {
        args->work_dir = value;
      } else {
        return false;
      }
    } catch (...) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process — every thread, exited ones included — in
/// seconds. The guest kernel accounts steal time (the host running another
/// guest on this vCPU) apart from task time, so this leaves it out.
double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double MaxRelError(const std::vector<double>& full,
                   const std::vector<double>& compressed) {
  double worst = 0.0;
  for (std::size_t i = 0; i < full.size() && i < compressed.size(); ++i) {
    if (full[i] != 0.0) {
      worst = std::max(worst,
                       std::fabs(full[i] - compressed[i]) / std::fabs(full[i]));
    }
  }
  return worst;
}

/// The analyst's leaf-level base valuation: a fixed factor in [0.85, 1.15)
/// per variable, from a hash of its name (so it does not depend on the
/// seed). It differs between the leaves under one meta-variable, so the
/// compressed provenance loses information and max_rel_error measures how
/// much.
double BaseFactor(std::string_view name) {
  return 0.85 + 0.3 * static_cast<double>(util::HashBytes(name) >> 11) * 0x1.0p-53;
}

std::size_t NumProcessors() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Pins the process to the highest-numbered CPU it may run on, before any
/// thread starts, so every thread inherits the pin. Returns that CPU, or -1
/// when the affinity cannot be read or set. The daemon sweeps each batch on
/// `hardware_concurrency` threads; on a 4-vCPU VM whose host steals CPU
/// whenever all vCPUs are busy, spreading them over four CPUs moved the bulk
/// p50 of identical code 8-16 ms between runs, while on one CPU it stayed
/// within 8%.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder: one span per timed call, with its parent span
/// and the request it belongs to. Written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< Seconds since the tracer was created.
    double end = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  int Open(std::string name, int parent = -1, std::uint64_t request = 0) {
    spans_.push_back({std::move(name), Now(), 0.0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Ends span `id` and returns its duration in seconds.
  double Close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = Now();
    return span.end - span.start;
  }

  /// Records an already-timed interval.
  void Record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request) {
    spans_.push_back({std::move(name), Offset(start), Offset(end), -1, request});
  }

  /// Runs `fn` inside a span and returns its duration in seconds.
  template <typename Fn>
  double Time(const char* name, int parent, std::uint64_t request, Fn&& fn) {
    const int id = Open(name, parent, request);
    fn();
    return Close(id);
  }

  /// Per span name: calls, total time, and self time (duration minus the
  /// time covered by child spans), sorted by self time.
  std::string SelfTimeTable() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    struct Row {
      std::size_t calls = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Row> rows;
    double all_self = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& row = rows[spans_[i].name];
      const double duration = spans_[i].end - spans_[i].start;
      ++row.calls;
      row.total += duration;
      row.self += duration - child[i];
      all_self += duration - child[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.self > b.second.self;
    });
    std::string out = "self-time table (all spans of this run):\n";
    char line[200];
    std::snprintf(line, sizeof line, "  %-24s %8s %12s %12s %12s %7s\n",
                  "span", "calls", "total_ms", "self_ms", "self_us/call",
                  "self%");
    out += line;
    for (const auto& [name, row] : sorted) {
      std::snprintf(line, sizeof line,
                    "  %-24s %8zu %12.3f %12.3f %12.2f %6.2f%%\n", name.c_str(),
                    row.calls, row.total * 1e3, row.self * 1e3,
                    row.self * 1e6 / static_cast<double>(row.calls),
                    all_self > 0.0 ? 100.0 * row.self / all_self : 0.0);
      out += line;
    }
    return out;
  }

  /// Writes one JSON object per span; a span's id is its line number.
  bool Write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    for (const Span& span : spans_) {
      std::fprintf(file,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"parent\":%d,\"request\":%llu}\n",
                   span.name.c_str(), span.start * 1e6, span.end * 1e6,
                   span.parent, static_cast<unsigned long long>(span.request));
    }
    return std::fclose(file) == 0;
  }

 private:
  double Offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  double Now() const { return Offset(Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// -------------------------------------------------------------------- setup

struct Query {
  std::string sql;
  std::size_t agg = 0;
  std::string tree;
  core::Algorithm algorithm = core::Algorithm::kOptimalDp;
};

Query QueryFor(const Workload& workload, const data::TpchConfig& config) {
  if (workload.kind == Kind::kInteractive) {
    const data::TpchQuerySpec q1 = data::TpchQueryById("Q1").ValueOrDie();
    return {q1.sql, q1.provenance_agg, q1.tree_text,
            core::Algorithm::kOptimalDp};
  }
  return {kPerOrderQ6, 0,
          data::OrderBucketTreeText(config.NumOrders(), kOrderBucket),
          core::Algorithm::kGreedy};
}

/// A servable stack: the daemon serving a verified snapshot, and one
/// connected client. The client is declared after the server so it closes
/// first.
struct Stack {
  std::unique_ptr<serve::CobraServer> server;
  serve::Client client;
  std::shared_ptr<const core::CompiledSession> served;
  std::string snapshot_path;
  std::vector<std::string> live_meta;  ///< Meta-variables the answer uses.
};

struct SetupTimes {
  double sql = 0.0;
  double compress = 0.0;
  double snapshot = 0.0;
  double save = 0.0;
  double start = 0.0;
  double load = 0.0;
  double ready = 0.0;
  double total = 0.0;
  double cpu = 0.0;  ///< Process CPU seconds of the whole set-up.
};

/// SQL -> compress -> snapshot -> save -> daemon start -> watcher load
/// (read, parse, checksum, verify, FromSnapshot) -> swap -> ready (a ping
/// answered from the new snapshot). `times->total` is the set-up time.
util::Status BuildStack(const rel::Database& db, const Workload& workload,
                        const Query& query, const std::string& dir,
                        Tracer* tracer, Stack* stack, SetupTimes* times) {
  util::Status status;
  const int root = tracer->Open("setup");
  prov::PolySet provenance;
  times->sql = tracer->Time("rel.sql", root, 0, [&] {
    util::Result<rel::sql::QueryResult> result = rel::sql::RunSql(db, query.sql);
    if (result.ok()) {
      provenance = result->Provenance(query.agg);
    } else {
      status = result.status();
    }
  });
  if (!status.ok()) return status;

  core::Session session(db.var_pool());
  times->compress = tracer->Time("core.compress", root, 0, [&] {
    const std::size_t full = provenance.TotalMonomials();
    prov::Valuation base(session.pool());
    for (prov::VarId var : provenance.AllVariables()) {
      base.Set(var, BaseFactor(session.pool().Name(var)));
    }
    session.LoadPolynomials(std::move(provenance));
    session.SetBaseValuation(base);
    status = session.SetTreeText(query.tree);
    if (!status.ok()) return;
    session.SetBound(std::max<std::size_t>(1, full * workload.bound_pct / 100));
    util::Result<core::CompressionReport> report =
        session.Compress(query.algorithm);
    if (!report.ok()) status = report.status();
  });
  if (!status.ok()) return status;

  std::shared_ptr<const core::CompiledSession> authored;
  times->snapshot = tracer->Time("core.snapshot", root, 0, [&] {
    util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
        session.Snapshot();
    if (snapshot.ok()) {
      authored = *snapshot;
    } else {
      status = snapshot.status();
    }
  });
  if (!status.ok()) return status;

  std::error_code error;
  fs::create_directories(dir, error);
  stack->snapshot_path = dir + "/v000001" + serve::kSnapshotSuffix;
  times->save = tracer->Time("io.save", root, 0, [&] {
    // Publish by rename, as the watcher's directory convention asks.
    const std::string temporary = stack->snapshot_path + ".tmp";
    status = core::SaveSnapshot(*authored, temporary);
    if (!status.ok()) return;
    fs::rename(temporary, stack->snapshot_path, error);
    if (error) status = util::Status::IoError("rename: " + error.message());
  });
  if (!status.ok()) return status;

  serve::ServerOptions options;
  options.num_workers = 1;
  stack->server = std::make_unique<serve::CobraServer>(options);
  stack->server->set_log([](const std::string&) {});
  times->start = tracer->Time("serve.start", root, 0,
                              [&] { status = stack->server->Start(); });
  if (!status.ok()) return status;

  times->load = tracer->Time("serve.load", root, 0, [&] {
    serve::SnapshotWatcher::Options watch;
    watch.dir = dir;
    serve::SnapshotWatcher watcher(
        watch,
        [&](std::shared_ptr<const core::CompiledSession> loaded,
            const std::string& name) {
          stack->served = loaded;
          stack->server->Swap(std::move(loaded), name);
        },
        [](const std::string&) {});
    status = watcher.PollOnce();
  });
  if (!status.ok()) return status;
  if (stack->served == nullptr) {
    return util::Status::Internal("the watcher published no snapshot");
  }

  times->ready = tracer->Time("serve.ready", root, 0, [&] {
    util::Result<serve::Client> client =
        serve::Client::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) {
      status = client.status();
      return;
    }
    stack->client = std::move(client).ValueOrDie();
    serve::WireRequest ping;
    ping.type = serve::MsgType::kPing;
    ping.request_id = 1;
    util::Result<serve::WireResponse> pong = stack->client.Call(ping);
    if (!pong.ok()) {
      status = pong.status();
    } else if (pong->snapshot_version != 1) {
      status = util::Status::Internal("the daemon is not serving the snapshot");
    }
  });
  times->total = tracer->Close(root);
  if (!status.ok()) return status;

  for (prov::VarId var : session.compressed().AllVariables()) {
    stack->live_meta.push_back(session.pool().Name(var));
  }
  return util::Status::OK();
}

struct LoadTimes {
  double parse = 0.0;
  double verify = 0.0;
  double from_snapshot = 0.0;
};

/// The replica-side load, one public call at a time: ParseSnapshot (format,
/// version, checksum), VerifySnapshot, FromSnapshot.
std::shared_ptr<const core::CompiledSession> LoadReplica(
    const std::string& bytes, const std::string& source, Tracer* tracer,
    LoadTimes* times) {
  const int root = tracer->Open("replica.load");
  std::optional<core::SnapshotPackage> package;
  times->parse = tracer->Time("io.parse", root, 0, [&] {
    util::Result<core::SnapshotPackage> parsed =
        core::ParseSnapshot(bytes, source);
    if (parsed.ok()) package = std::move(parsed).ValueOrDie();
  });
  bool verified = false;
  times->verify = tracer->Time("verify.snapshot", root, 0, [&] {
    verified = package && verify::VerifySnapshot(*package).ok();
  });
  std::shared_ptr<const core::CompiledSession> session;
  times->from_snapshot = tracer->Time("core.from_snapshot", root, 0, [&] {
    if (!verified) return;
    util::Result<std::shared_ptr<const core::CompiledSession>> loaded =
        core::CompiledSession::FromSnapshot(*package);
    if (loaded.ok()) session = *loaded;
  });
  tracer->Close(root);
  return session;
}

// --------------------------------------------------------------- requests

/// `count` scenarios, each setting `min_deltas`..`max_deltas` distinct
/// variables of `vars` to a factor in [0.8, 1.2).
core::ScenarioSet MakeScenarios(util::Rng& rng,
                                const std::vector<std::string>& vars,
                                std::size_t count, std::size_t min_deltas,
                                std::size_t max_deltas) {
  core::ScenarioSet set;
  set.Reserve(count);
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < count; ++i) {
    core::Scenario scenario;
    scenario.name = "s";
    scenario.name += std::to_string(i);
    const std::size_t deltas = std::min(
        vars.size(), min_deltas + static_cast<std::size_t>(rng.NextBelow(
                                      max_deltas - min_deltas + 1)));
    picked.clear();
    while (picked.size() < deltas) {
      const std::size_t index =
          static_cast<std::size_t>(rng.NextBelow(vars.size()));
      if (std::find(picked.begin(), picked.end(), index) != picked.end()) {
        continue;
      }
      picked.push_back(index);
      scenario.Set(vars[index], rng.NextDoubleInRange(0.8, 1.2));
    }
    COBRA_CHECK(set.Add(std::move(scenario)).ok());
  }
  return set;
}

/// The seeded request mix. Interactive requests replay one of kHotSets
/// fixed sets with probability kHotShare and are fresh otherwise; bulk
/// requests are always fresh.
class RequestMix {
 public:
  RequestMix(const Workload& workload, std::vector<std::string> vars,
             std::uint64_t seed)
      : workload_(workload), vars_(std::move(vars)) {
    util::Rng root(seed);
    util::Rng hot_rng = root.Fork(1);
    if (workload_.kind == Kind::kInteractive) {
      for (std::size_t i = 0; i < kHotSets; ++i) hot_.push_back(Fresh(hot_rng));
    }
    mix_rng_ = root.Fork(2);
    probe_rng_ = root.Fork(3);
  }

  core::ScenarioSet Next() {
    if (!hot_.empty() && mix_rng_.NextBool(kHotShare)) {
      return hot_[static_cast<std::size_t>(mix_rng_.NextBelow(hot_.size()))];
    }
    return Fresh(mix_rng_);
  }

  /// The accuracy probe: kProbeScenarios scenarios from the same generator.
  core::ScenarioSet Probe() {
    return MakeScenarios(probe_rng_, vars_, kProbeScenarios,
                         workload_.min_deltas, workload_.max_deltas);
  }

 private:
  core::ScenarioSet Fresh(util::Rng& rng) const {
    return MakeScenarios(rng, vars_, workload_.request_scenarios,
                         workload_.min_deltas, workload_.max_deltas);
  }

  const Workload& workload_;
  std::vector<std::string> vars_;
  util::Rng mix_rng_{0};
  util::Rng probe_rng_{0};
  std::vector<core::ScenarioSet> hot_;
};

/// Which of the first kSampleWindow requests get their answers checked.
std::vector<bool> SamplePlan(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5a3d1e);
  std::vector<bool> plan(kSampleWindow);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i] = i == 0 || rng.NextBool(kSampleShare);
  }
  return plan;
}

// ------------------------------------------------------------ wire phases

/// Copies one batch report into a response, as the daemon does.
void AppendReport(const core::BatchAssignReport& report,
                  serve::WireResponse* response) {
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

bool SameAnswers(const serve::WireResponse& a, const serve::WireResponse& b) {
  return a.labels == b.labels && a.scenario_names == b.scenario_names &&
         SameBits(a.full_values, b.full_values) &&
         SameBits(a.compressed_values, b.compressed_values);
}

bool WellFormed(const serve::WireRequest& request,
                const serve::WireResponse& response, std::size_t groups) {
  const std::size_t cells = request.scenarios.size() * groups;
  return response.code == serve::WireCode::kOk &&
         response.request_id == request.request_id &&
         response.num_scenarios() == request.scenarios.size() &&
         response.num_groups() == groups &&
         response.full_values.size() == cells &&
         response.compressed_values.size() == cells;
}

/// Scenarios [offset, offset + kSubBatch) of `scenarios`, cut as the daemon
/// cuts a large batch.
core::ScenarioSet SubBatch(const core::ScenarioSet& scenarios,
                           std::size_t offset) {
  const std::size_t end = std::min(offset + kSubBatch, scenarios.size());
  core::ScenarioSet sub;
  sub.Reserve(end - offset);
  for (std::size_t i = offset; i < end; ++i) {
    COBRA_CHECK(sub.Add(scenarios.scenario(i)).ok());
  }
  return sub;
}

/// Replays wire requests on a replica, one daemon step at a time: decode,
/// (coalescing key | 256-scenario sub-batches), PlanBatch, Execute, report
/// build, encode response, decode response.
class Replayer {
 public:
  struct Layers {
    double encode_req = 0.0;
    double decode_req = 0.0;
    double coalesce_key = 0.0;
    double subbatch_build = 0.0;
    double plan = 0.0;
    double execute = 0.0;
    double full_sweep = 0.0;
    double compressed_sweep = 0.0;
    double report_build = 0.0;
    double encode_resp = 0.0;
    double decode_resp = 0.0;

    double Replayed() const {
      return encode_req + decode_req + coalesce_key + subbatch_build + plan +
             execute + report_build + encode_resp + decode_resp;
    }
  };

  Replayer(std::shared_ptr<const core::CompiledSession> replica,
           Tracer* tracer)
      : replica_(std::move(replica)), tracer_(tracer) {}

  void Run(const serve::WireRequest& request,
           const serve::WireResponse& daemon, double latency) {
    Layers layers;
    const std::uint64_t id = request.request_id;
    const int root = tracer_->Open("replay.request", -1, id);
    std::string payload;
    layers.encode_req = tracer_->Time("serve.encode_req", root, id, [&] {
      payload = serve::EncodeRequest(request);
    });
    std::optional<serve::WireRequest> decoded;
    layers.decode_req = tracer_->Time("serve.decode_req", root, id, [&] {
      util::Result<serve::WireRequest> result = serve::DecodeRequest(payload);
      if (result.ok()) decoded = std::move(result).ValueOrDie();
    });
    bool ok = decoded.has_value();
    serve::WireResponse response;
    response.type = serve::MsgType::kAssignBatch;
    response.request_id = id;
    response.snapshot_version = daemon.snapshot_version;
    response.labels = replica_->labels();
    auto run_batch = [&](const core::ScenarioSet& batch) {
      std::shared_ptr<const core::BatchPlan> plan;
      layers.plan += tracer_->Time("core.plan", root, id, [&] {
        util::Result<std::shared_ptr<const core::BatchPlan>> planned =
            replica_->PlanBatch(batch);
        if (planned.ok()) plan = *planned;
      });
      std::optional<core::BatchAssignReport> report;
      layers.execute += tracer_->Time("core.execute", root, id, [&] {
        if (plan == nullptr) return;
        util::Result<core::BatchAssignReport> executed =
            replica_->Execute(*plan);
        if (executed.ok()) report = std::move(executed).ValueOrDie();
      });
      if (!report) {
        ok = false;
        return;
      }
      layers.full_sweep += report->full_sweep_seconds;
      layers.compressed_sweep += report->compressed_sweep_seconds;
      full_terms_ += static_cast<double>(report->size()) *
                     static_cast<double>(replica_->full_size());
      compressed_terms_ += static_cast<double>(report->size()) *
                           static_cast<double>(replica_->compressed_size());
      layers.report_build += tracer_->Time("serve.report_build", root, id,
                                           [&] { AppendReport(*report, &response); });
    };
    if (ok) {
      const core::ScenarioSet& scenarios = decoded->scenarios;
      if (scenarios.size() <= kSubBatch) {
        layers.coalesce_key = tracer_->Time("serve.coalesce_key", root, id, [&] {
          (void)core::FingerprintScenarios(scenarios);
        });
        run_batch(scenarios);
      } else {
        for (std::size_t offset = 0; ok && offset < scenarios.size();
             offset += kSubBatch) {
          core::ScenarioSet sub;
          layers.subbatch_build += tracer_->Time(
              "serve.subbatch_build", root, id,
              [&] { sub = SubBatch(scenarios, offset); });
          run_batch(sub);
        }
      }
    }
    std::string encoded;
    layers.encode_resp = tracer_->Time("serve.encode_resp", root, id, [&] {
      encoded = serve::EncodeResponse(response);
    });
    std::optional<serve::WireResponse> round_trip;
    layers.decode_resp = tracer_->Time("serve.decode_resp", root, id, [&] {
      util::Result<serve::WireResponse> result = serve::DecodeResponse(encoded);
      if (result.ok()) round_trip = std::move(result).ValueOrDie();
    });
    tracer_->Close(root);
    if (!ok || !round_trip || !SameAnswers(*round_trip, daemon)) ++mismatches_;
    layers_.push_back(layers);
    residuals_.push_back(latency - layers.Replayed());
  }

  /// Plans `request` on the replica as the daemon does, untimed, so the
  /// replica's plan cache holds what the daemon's holds.
  void Warm(const serve::WireRequest& request) {
    const core::ScenarioSet& scenarios = request.scenarios;
    if (scenarios.size() <= kSubBatch) {
      COBRA_CHECK(replica_->PlanBatch(scenarios).ok());
      return;
    }
    for (std::size_t offset = 0; offset < scenarios.size(); offset += kSubBatch) {
      COBRA_CHECK(replica_->PlanBatch(SubBatch(scenarios, offset)).ok());
    }
  }

  const std::vector<Layers>& layers() const { return layers_; }
  const std::vector<double>& residuals() const { return residuals_; }
  std::size_t mismatches() const { return mismatches_; }
  double full_terms() const { return full_terms_; }
  double compressed_terms() const { return compressed_terms_; }
  const core::CompiledSession& replica() const { return *replica_; }

 private:
  std::shared_ptr<const core::CompiledSession> replica_;
  Tracer* tracer_;
  std::vector<Layers> layers_;
  std::vector<double> residuals_;
  std::size_t mismatches_ = 0;
  double full_terms_ = 0.0;
  double compressed_terms_ = 0.0;
};

struct Sampled {
  serve::WireRequest request;
  serve::WireResponse response;
};

/// One measuring phase: the latency of every call and which request of the
/// cycle it sent (closed loop, one connection; building requests is not
/// timed).
struct Phase {
  std::vector<double> latencies;  ///< Seconds, in call order.
  std::vector<double> cpu;        ///< Process CPU seconds of each call.
  std::vector<std::size_t> requests;  ///< Cycle index of each call.
  std::vector<double> answered;   ///< Scenarios answered per call (0: failed).
  std::size_t scenarios = 0;
  double in_flight = 0.0;
  double in_flight_cpu = 0.0;
  std::size_t failed = 0;
};

/// The timing of a measured phase. Every request of the cycle was sent many
/// times over the window; its service time is the best of its repetitions.
/// On a shared host the vCPU slows cache- and SIMD-heavy code by 25-50% for
/// stretches of seconds; every request still meets a quiet moment within
/// the window, so the best is the program's own time.
struct BestOf {
  double p50 = 0.0;         ///< Median over requests of the best, seconds.
  double p75 = 0.0;         ///< 75th percentile over requests of the best.
  double throughput = 0.0;  ///< Cycle scenarios / sum of the bests, 1/s.
  std::size_t min_reps = 0;
  std::size_t max_reps = 0;
};

/// `times` is one of the phase's per-call series (wall or CPU seconds).
BestOf BestOfRepetitions(const Phase& phase, const std::vector<double>& times,
                         std::size_t cycle) {
  std::vector<double> best(cycle, 0.0);
  std::vector<double> scenarios(cycle, 0.0);
  std::vector<std::size_t> reps(cycle, 0);
  for (std::size_t i = 0; i < phase.latencies.size(); ++i) {
    const std::size_t r = phase.requests[i];
    if (phase.answered[i] == 0.0) continue;
    if (reps[r]++ == 0 || times[i] < best[r]) best[r] = times[i];
    scenarios[r] = phase.answered[i];
  }
  BestOf out;
  out.min_reps = *std::min_element(reps.begin(), reps.end());
  out.max_reps = *std::max_element(reps.begin(), reps.end());
  std::vector<double> measured;
  double total_scenarios = 0.0;
  double total_seconds = 0.0;
  for (std::size_t r = 0; r < cycle; ++r) {
    if (reps[r] == 0) continue;
    measured.push_back(best[r]);
    total_scenarios += scenarios[r];
    total_seconds += best[r];
  }
  out.p50 = Percentile(measured, 0.5);
  out.p75 = Percentile(measured, 0.75);
  out.throughput = total_seconds > 0.0 ? total_scenarios / total_seconds : 0.0;
  return out;
}

/// Called after each well-formed answer, outside the timed call.
using OnAnswer = std::function<void(const serve::WireRequest&,
                                    const serve::WireResponse&,
                                    Clock::time_point, Clock::time_point)>;

/// Sends requests until `budget` seconds have passed and at least
/// `min_calls` calls were made.
void RunWirePhase(Stack* stack, const std::vector<core::ScenarioSet>& cycle,
                  std::size_t* cursor, double budget, std::size_t min_calls,
                  std::uint64_t* next_id, const OnAnswer& on_answer,
                  Phase* phase) {
  const std::size_t groups = stack->served->labels().size();
  const Clock::time_point start = Clock::now();
  while ((SecondsSince(start) < budget || phase->latencies.size() < min_calls) &&
         SecondsSince(start) < kMaxPhaseSeconds) {
    serve::WireRequest request;
    request.type = serve::MsgType::kAssignBatch;
    request.request_id = (*next_id)++;
    const std::size_t index = (*cursor)++ % cycle.size();
    request.scenarios = cycle[index];
    const double cpu_sent = ProcessCpuSeconds();
    const Clock::time_point sent = Clock::now();
    util::Result<serve::WireResponse> response = stack->client.Call(request);
    const Clock::time_point answered = Clock::now();
    const double cpu = ProcessCpuSeconds() - cpu_sent;
    const double latency = std::chrono::duration<double>(answered - sent).count();
    phase->latencies.push_back(latency);
    phase->cpu.push_back(cpu);
    phase->requests.push_back(index);
    phase->in_flight += latency;
    phase->in_flight_cpu += cpu;
    if (!response.ok() || !WellFormed(request, *response, groups)) {
      phase->answered.push_back(0.0);
      ++phase->failed;
      continue;
    }
    phase->answered.push_back(static_cast<double>(request.scenarios.size()));
    phase->scenarios += request.scenarios.size();
    if (on_answer) on_answer(request, *response, sent, answered);
  }
}

// ----------------------------------------------------------- stream phases

/// The top-k sweep: a 64x64 CartesianSource over two of the most
/// influential meta-variables, with seeded ranges. The ordered axis pairs
/// take turns, so every seed sweeps each pair equally often (the pair sets
/// how many full rows the top-k prunes).
class GridMix {
 public:
  GridMix(std::vector<std::string> axes, std::uint64_t seed)
      : axes_(std::move(axes)), rng_(seed) {}

  std::shared_ptr<const core::ScenarioSource> Next() {
    const std::size_t pair = next_++ % (axes_.size() * (axes_.size() - 1));
    const std::size_t a = pair / (axes_.size() - 1);
    std::size_t b = pair % (axes_.size() - 1);
    if (b >= a) ++b;
    const double lo = rng_.NextDoubleInRange(0.5, 0.9);
    const double hi = rng_.NextDoubleInRange(1.1, 1.5);
    return core::CartesianSource::Create({core::LinSpace(axes_[a], lo, hi, kGridSteps),
                                          core::LinSpace(axes_[b], lo, hi, kGridSteps)},
                                         "g")
        .ValueOrDie();
  }

 private:
  std::vector<std::string> axes_;
  util::Rng rng_;
  std::size_t next_ = 0;
};

/// The kInfluentialAxes meta-variables whose doubling moves the full answer
/// most, probed among the widest merges (as bench_a11 picks its axes).
std::vector<std::string> InfluentialAxes(const core::CompiledSession& session) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
  std::vector<std::size_t> candidates(meta.size());
  for (std::size_t m = 0; m < meta.size(); ++m) candidates[m] = m;
  std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
    return meta[a].leaves.size() > meta[b].leaves.size() ||
           (meta[a].leaves.size() == meta[b].leaves.size() && a < b);
  });
  candidates.resize(std::min<std::size_t>(16, candidates.size()));
  core::ScenarioSet probes;
  probes.Add("base").ValueOrDie().Set(meta[candidates[0]].name, 1.0);
  for (std::size_t m : candidates) {
    probes.Add("probe-" + meta[m].name).ValueOrDie().Set(meta[m].name, 2.0);
  }
  const core::BatchAssignReport report = session.AssignBatch(probes).ValueOrDie();
  std::vector<std::pair<double, std::size_t>> impact;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    double moved = 0.0;
    const auto& rows = report.reports[i + 1].delta.rows;
    for (std::size_t g = 0; g < rows.size(); ++g) {
      moved += std::fabs(rows[g].full - report.reports[0].delta.rows[g].full);
    }
    impact.emplace_back(moved, candidates[i]);
  }
  std::stable_sort(impact.begin(), impact.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> axes;
  for (const auto& [moved, m] : impact) {
    if (moved > 0.0 && axes.size() < kInfluentialAxes) axes.push_back(meta[m].name);
  }
  return axes;
}

core::StreamOptions TopKOptions(std::size_t threads) {
  core::StreamOptions options;
  options.batch.num_threads = threads;
  // Term splitting regroups additions by chunk geometry; off, so the
  // entries can be compared bit for bit with a materialized AssignBatch.
  options.batch.split_min_terms = std::size_t{1} << 30;
  options.query.kind = core::StreamQuery::Kind::kTopK;
  options.query.k = kTopK;
  return options;
}

struct StreamSample {
  std::shared_ptr<const core::ScenarioSource> source;
  core::SweepSummary summary;
};

/// Called after each complete sweep, outside the timed call.
using OnSweep = std::function<void(std::shared_ptr<const core::ScenarioSource>,
                                   const core::SweepSummary&, Clock::time_point,
                                   Clock::time_point)>;

/// Runs top-k sweeps until `budget` seconds have passed and at least
/// `min_calls` calls were made.
void RunStreamPhase(const core::CompiledSession& served,
                    const std::vector<std::shared_ptr<const core::ScenarioSource>>& cycle,
                    std::size_t* cursor, const core::StreamOptions& options,
                    double budget,
                    std::size_t min_calls, const OnSweep& on_sweep,
                    Phase* phase) {
  const Clock::time_point start = Clock::now();
  while ((SecondsSince(start) < budget || phase->latencies.size() < min_calls) &&
         SecondsSince(start) < kMaxPhaseSeconds) {
    const std::size_t index = (*cursor)++ % cycle.size();
    std::shared_ptr<const core::ScenarioSource> source = cycle[index];
    const double cpu_sent = ProcessCpuSeconds();
    const Clock::time_point sent = Clock::now();
    util::Result<core::SweepSummary> summary = served.AssignStream(*source, options);
    const Clock::time_point answered = Clock::now();
    const double cpu = ProcessCpuSeconds() - cpu_sent;
    const double latency = std::chrono::duration<double>(answered - sent).count();
    phase->latencies.push_back(latency);
    phase->cpu.push_back(cpu);
    phase->requests.push_back(index);
    phase->in_flight += latency;
    phase->in_flight_cpu += cpu;
    if (!summary.ok() || summary->entries.size() != kTopK ||
        summary->scenarios != source->size()) {
      phase->answered.push_back(0.0);
      ++phase->failed;
      continue;
    }
    phase->answered.push_back(static_cast<double>(summary->scenarios));
    phase->scenarios += static_cast<std::size_t>(summary->scenarios);
    if (on_sweep) on_sweep(std::move(source), *summary, sent, answered);
  }
}

// ------------------------------------------------------------------ checks

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// A daemon answer equals a direct AssignBatch on the checker, bit for bit.
bool MatchesBatch(const serve::WireResponse& response,
                  const core::CompiledSession& checker,
                  const core::ScenarioSet& scenarios,
                  const core::BatchOptions& options = {}) {
  util::Result<core::BatchAssignReport> report =
      checker.AssignBatch(scenarios, options);
  if (!report.ok()) return false;
  serve::WireResponse direct;
  direct.labels = checker.labels();
  AppendReport(*report, &direct);
  return SameAnswers(response, direct);
}

/// The commutation equation at the identity point: the full-side answer
/// under the neutral valuation equals the query's own aggregates on the
/// un-instrumented database.
bool MatchesSql(const std::vector<std::string>& labels,
                const std::vector<double>& full, const Query& query) {
  data::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = kDataSeed;
  const rel::Database plain = data::GenerateTpch(config);
  util::Result<rel::sql::QueryResult> result = rel::sql::RunSql(plain, query.sql);
  if (!result.ok()) return false;
  const prov::PolySet aggregates = result->Provenance(query.agg);
  const prov::Valuation neutral(*plain.var_pool());
  if (aggregates.size() != labels.size() || full.size() != labels.size()) {
    return false;
  }
  for (std::size_t g = 0; g < labels.size(); ++g) {
    const std::size_t index = aggregates.FindLabel(labels[g]);
    if (index == prov::PolySet::npos) return false;
    const double expected = aggregates.poly(index).Eval(neutral);
    if (std::fabs(full[g] - expected) >
        kNeutralTolerance * std::max(1.0, std::fabs(expected))) {
      return false;
    }
  }
  return true;
}

/// One scenario setting every meta-variable of the answer to 1.0: its
/// full-side answer is the provenance at the neutral valuation.
core::ScenarioSet NeutralScenario(const std::vector<std::string>& live_meta) {
  core::ScenarioSet set;
  core::ScenarioSet::Handle neutral = set.Add("neutral").ValueOrDie();
  for (const std::string& var : live_meta) neutral.Set(var, 1.0);
  return set;
}

/// The compressed answer's information loss over `probe`: the full side
/// evaluates the leaf-level base valuation with each scenario's values
/// given to the leaves of the meta-variables it sets; the compressed side
/// evaluates the snapshot's default meta valuation (leaf averages) with the
/// same values. Returns the largest |full - compressed| / |full|.
double ProbeError(const core::CompiledSession& session,
                  const core::ScenarioSet& probe) {
  const std::size_t pool_size = session.pool_size();
  prov::Valuation full_valuation(pool_size);
  for (prov::VarId var = 0; var < pool_size; ++var) {
    full_valuation.Set(var, BaseFactor(session.pool().Name(var)));
  }
  prov::Valuation defaults = session.default_meta_valuation();
  defaults.Resize(pool_size);
  prov::Valuation meta_valuation = defaults;
  std::map<std::string, const core::MetaVar*> meta;
  for (const core::MetaVar& var : session.meta_vars()) meta[var.name] = &var;
  std::vector<double> full;
  std::vector<double> compressed;
  double worst = 0.0;
  for (const core::Scenario& scenario : probe.scenarios()) {
    for (const core::Scenario::Delta& delta : scenario.deltas) {
      const core::MetaVar& var = *meta.at(delta.var);
      meta_valuation.Set(var.var, delta.value);
      for (prov::VarId leaf : var.leaves) full_valuation.Set(leaf, delta.value);
    }
    session.full_program().Eval(full_valuation, &full);
    session.compressed_program().Eval(meta_valuation, &compressed);
    worst = std::max(worst, MaxRelError(full, compressed));
    for (const core::Scenario::Delta& delta : scenario.deltas) {
      const core::MetaVar& var = *meta.at(delta.var);
      meta_valuation.Set(var.var, defaults.Get(var.var));
      for (prov::VarId leaf : var.leaves) {
        full_valuation.Set(leaf, BaseFactor(session.pool().Name(leaf)));
      }
    }
  }
  return worst;
}

/// The top-k entries equal a materialized AssignBatch of those scenarios,
/// and are the k best of an exhaustive sweep of the same grid.
bool TopKCorrect(const StreamSample& sample, const core::CompiledSession& checker,
                 const core::StreamOptions& options) {
  const core::SweepSummary& summary = sample.summary;
  core::ScenarioSet kept;
  for (const core::StreamEntry& entry : summary.entries) {
    if (!sample.source->Generate(entry.index, 1, &kept).ok()) return false;
  }
  util::Result<core::BatchAssignReport> batch =
      checker.AssignBatch(kept, options.batch);
  if (!batch.ok() || batch->size() != summary.entries.size()) return false;
  for (std::size_t i = 0; i < summary.entries.size(); ++i) {
    std::vector<double> full;
    std::vector<double> compressed;
    for (const core::ResultDelta::Row& row : batch->reports[i].delta.rows) {
      full.push_back(row.full);
      compressed.push_back(row.compressed);
    }
    if (!SameBits(full, summary.entries[i].full) ||
        !SameBits(compressed, summary.entries[i].compressed)) {
      return false;
    }
  }
  core::StreamOptions exhaustive = options;
  exhaustive.query.kind = core::StreamQuery::Kind::kAll;
  std::vector<std::pair<double, std::uint64_t>> ranked;
  util::Result<core::SweepSummary> all = checker.AssignStream(
      *sample.source, exhaustive, [&](const core::StreamBlockView& view) {
        for (std::size_t i = 0; i < view.count; ++i) {
          ranked.emplace_back(view.metrics[i], view.begin + i);
        }
        return true;
      });
  if (!all.ok() || ranked.size() < kTopK) return false;
  std::stable_sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  for (std::size_t i = 0; i < kTopK; ++i) {
    if (ranked[i].second != summary.entries[i].index ||
        !SameBits({ranked[i].first}, {summary.entries[i].metric})) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 std::size_t attempted, std::size_t failed) {
  std::printf("samples:");
  for (const Metric& metric : metrics) {
    std::printf(" %s=%zu", metric.name.c_str(), metric.samples);
  }
  std::printf("\nmetrics:\n");
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

template <typename T, typename Fn>
std::vector<double> Collect(const std::vector<T>& items, Fn&& fn) {
  std::vector<double> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(fn(item));
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: whatif_bench --workload <whatif_interactive|whatif_bulk|"
               "sweep_topk> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const Workload* found = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) found = &candidate;
  }
  if (found == nullptr) return Usage();
  const Workload& workload = *found;
  const std::size_t nproc = NumProcessors();
  const int pinned_cpu = PinToOneCpu();
  const std::string run_dir = args.work_dir + "/" + workload.name + "-" +
                              std::to_string(::getpid());
  Tracer tracer;
  std::printf("== whatif_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  // Input generation: seeded TPC-H, instrumented. Outside setup_s.
  data::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = kDataSeed;
  const Query query = QueryFor(workload, config);
  std::optional<rel::Database> db;
  const double generate_s = tracer.Time("data.generate", -1, 0, [&] {
    db.emplace(data::GenerateTpch(config));
    const util::Status instrumented =
        workload.kind == Kind::kInteractive
            ? data::InstrumentTpchByShipMonth(&*db)
            : data::InstrumentTpchByOrder(&*db);
    instrumented.CheckOK();
  });

  // Set-up, setup_reps times. The first stack serves. The others are built
  // between the segments of the measured window and torn down, so a burst
  // of host contention slows one or two set-ups rather than all of them
  // (setup_s is their median). The database lives until the last one.
  std::vector<SetupTimes> setups;
  auto set_up = [&](Stack* into) {
    SetupTimes times;
    const double cpu_start = ProcessCpuSeconds();
    const util::Status built = BuildStack(
        *db, workload, query, run_dir + "/setup" + std::to_string(setups.size()),
        &tracer, into, &times);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", built.ToString().c_str());
      return false;
    }
    times.cpu = ProcessCpuSeconds() - cpu_start;
    setups.push_back(times);
    if (setups.size() == workload.setup_reps) db.reset();
    return true;
  };
  auto set_up_spare = [&] {
    Stack spare;
    return set_up(&spare);
  };
  const std::size_t segments = workload.setup_reps;
  Stack stack;
  if (!set_up(&stack)) return 1;
  const double setup_rss_mb = PeakRssMb();
  const core::CompiledSession& served = *stack.served;
  const std::size_t full_monomials = served.full_size();
  const std::size_t compressed_monomials = served.compressed_size();

  // Independent replicas from the same snapshot bytes: one to replay
  // requests on (traced run), one to check answers against.
  const std::string bytes = util::ReadFile(stack.snapshot_path).ValueOrDie();
  std::vector<LoadTimes> loads;
  std::shared_ptr<const core::CompiledSession> replica;
  for (std::size_t rep = 0; rep < (args.trace ? workload.setup_reps : 1); ++rep) {
    LoadTimes times;
    replica = LoadReplica(bytes, stack.snapshot_path, &tracer, &times);
    loads.push_back(times);
  }
  LoadTimes unused;
  std::shared_ptr<const core::CompiledSession> checker =
      LoadReplica(bytes, stack.snapshot_path, &tracer, &unused);
  if (replica == nullptr || checker == nullptr) {
    std::fprintf(stderr, "replica load failed\n");
    return 1;
  }

  Checks checks;
  const std::vector<bool> sample_plan = SamplePlan(args.seed);
  const double traced_budget = args.trace ? args.seconds / 2 : 0.0;
  const double untraced_budget = args.seconds - traced_budget;
  const std::size_t untraced_min =
      args.trace ? 0 : kMinRepetitions * workload.cycle_requests;
  // The untraced window lasts `untraced_budget` seconds, the spare set-ups
  // between its segments included: segment k ends at (k + 1) / segments of it.
  auto segment_budget = [&](Clock::time_point window, std::size_t segment) {
    const double end = untraced_budget * static_cast<double>(segment + 1) /
                       static_cast<double>(segments);
    return std::max(0.0, end - SecondsSince(window));
  };
  Phase warmup;
  Phase traced;
  Phase untraced;
  std::optional<Replayer> replayer;
  std::vector<core::SweepSummary> traced_sweeps;
  double max_rel_error = 0.0;
  std::string engine_line;
  std::size_t sweep_threads = 0;
  std::vector<double> probe_full_neutral;

  // Order of phases: warm-up (untimed), traced (trace runs only), untraced.
  // The traced phase comes first so the replica, warmed with the same
  // requests, sees the same plan-cache history as the daemon.
  if (workload.kind != Kind::kSweep) {
    RequestMix mix(workload, stack.live_meta, args.seed);
    std::vector<core::ScenarioSet> cycle;
    for (std::size_t i = 0; i < workload.cycle_requests; ++i) cycle.push_back(mix.Next());
    std::size_t cursor = 0;
    std::uint64_t next_id = kFirstRequestId;
    if (args.trace) replayer.emplace(replica, &tracer);
    RunWirePhase(&stack, cycle, &cursor, kWarmupSeconds,
                 std::max(workload.warmup_calls, cycle.size()), &next_id,
                 [&](const serve::WireRequest& request, const serve::WireResponse&,
                     Clock::time_point, Clock::time_point) {
                   if (replayer) replayer->Warm(request);
                 },
                 &warmup);
    if (args.trace) {
      RunWirePhase(&stack, cycle, &cursor, traced_budget, 0, &next_id,
                   [&](const serve::WireRequest& request,
                       const serve::WireResponse& response, Clock::time_point sent,
                       Clock::time_point answered) {
                     tracer.Record("client.call", sent, answered, request.request_id);
                     replayer->Run(request, response,
                                   std::chrono::duration<double>(answered - sent).count());
                   },
                   &traced);
    }
    std::vector<Sampled> sampled;
    const OnAnswer sample = [&](const serve::WireRequest& request,
                                const serve::WireResponse& response,
                                Clock::time_point, Clock::time_point) {
      const std::size_t ordinal = untraced.latencies.size() - 1;
      if (ordinal < sample_plan.size() && sample_plan[ordinal]) {
        sampled.push_back({request, response});
      }
    };
    const Clock::time_point window = Clock::now();
    for (std::size_t segment = 0; segment < segments; ++segment) {
      if (segment > 0 && !set_up_spare()) return 1;
      RunWirePhase(&stack, cycle, &cursor, segment_budget(window, segment),
                   segment + 1 == segments ? untraced_min : 0, &next_id, sample,
                   &untraced);
    }

    // Answer checks, outside the timed windows.
    for (const Sampled& s : sampled) {
      checks.Expect(MatchesBatch(s.response, *checker, s.request.scenarios),
                    "request " + std::to_string(s.request.request_id) +
                        " differs from a direct AssignBatch");
    }
    serve::WireRequest probe;
    probe.type = serve::MsgType::kAssignBatch;
    probe.request_id = next_id++;
    probe.scenarios = mix.Probe();
    util::Result<serve::WireResponse> probed = stack.client.Call(probe);
    const bool probe_ok = probed.ok() && WellFormed(probe, *probed, served.labels().size());
    checks.Expect(probe_ok && MatchesBatch(*probed, *checker, probe.scenarios),
                  "accuracy probe differs from a direct AssignBatch");
    max_rel_error = ProbeError(*checker, probe.scenarios);
    serve::WireRequest neutral;
    neutral.type = serve::MsgType::kAssignBatch;
    neutral.request_id = next_id++;
    neutral.scenarios = NeutralScenario(stack.live_meta);
    util::Result<serve::WireResponse> answered = stack.client.Call(neutral);
    if (answered.ok() && WellFormed(neutral, *answered, served.labels().size())) {
      probe_full_neutral = answered->full_values;
    }

    // The daemon's resolved engine for one of its (sub-)batches.
    const core::ScenarioSet first = SubBatch(
        sampled.empty() ? probe.scenarios : sampled.front().request.scenarios, 0);
    std::shared_ptr<const core::BatchPlan> plan = checker->PlanBatch(first).ValueOrDie();
    sweep_threads = plan->num_threads();
    engine_line = std::string("engine=") + core::SweepName(plan->engine()) +
                  " lanes=" + std::to_string(plan->lanes()) +
                  " layout=" + (plan->layout() == prov::EvalLayout::kSoA ? "SoA" : "AoS") +
                  " (daemon batch of " + std::to_string(first.size()) + ")";
  } else {
    // One sweep thread: the process runs on one CPU (see PinToOneCpu).
    const std::size_t threads = 1;
    const core::StreamOptions options = TopKOptions(threads);
    const std::vector<std::string> axes = InfluentialAxes(*checker);
    if (axes.size() < 2) {
      std::fprintf(stderr, "fewer than 2 meta-variables move the answer\n");
      return 1;
    }
    GridMix grids(axes, args.seed);
    std::vector<std::shared_ptr<const core::ScenarioSource>> cycle;
    for (std::size_t i = 0; i < workload.cycle_requests; ++i) cycle.push_back(grids.Next());
    std::size_t cursor = 0;
    RunStreamPhase(served, cycle, &cursor, options, kWarmupSeconds,
                   std::max(workload.warmup_calls, cycle.size()), {}, &warmup);
    if (args.trace) {
      RunStreamPhase(served, cycle, &cursor, options, traced_budget, 0,
                     [&](std::shared_ptr<const core::ScenarioSource>,
                         const core::SweepSummary& summary, Clock::time_point sent,
                         Clock::time_point answered) {
                       tracer.Record("stream.call", sent, answered, traced_sweeps.size());
                       traced_sweeps.push_back(summary);
                     },
                     &traced);
    }
    std::vector<StreamSample> sampled;
    const OnSweep sample = [&](std::shared_ptr<const core::ScenarioSource> source,
                               const core::SweepSummary& summary, Clock::time_point,
                               Clock::time_point) {
      const std::size_t ordinal = untraced.latencies.size() - 1;
      if (ordinal < sample_plan.size() && sample_plan[ordinal]) {
        sampled.push_back({std::move(source), summary});
      }
    };
    const Clock::time_point window = Clock::now();
    for (std::size_t segment = 0; segment < segments; ++segment) {
      if (segment > 0 && !set_up_spare()) return 1;
      RunStreamPhase(served, cycle, &cursor, options, segment_budget(window, segment),
                     segment + 1 == segments ? untraced_min : 0, sample, &untraced);
    }

    for (const StreamSample& s : sampled) {
      checks.Expect(TopKCorrect(s, *checker, options),
                    "top-k sweep differs from a materialized AssignBatch");
    }
    RequestMix mix(workload, stack.live_meta, args.seed);
    const core::ScenarioSet probe = mix.Probe();
    std::vector<double> full;
    std::vector<double> compressed;
    core::StreamOptions exhaustive = options;
    exhaustive.query.kind = core::StreamQuery::Kind::kAll;
    util::Result<core::SweepSummary> swept = served.AssignStream(
        *core::ExplicitSource::Create(probe).ValueOrDie(), exhaustive,
        [&](const core::StreamBlockView& view) {
          full.insert(full.end(), view.full, view.full + view.count * view.num_groups);
          compressed.insert(compressed.end(), view.compressed,
                            view.compressed + view.count * view.num_groups);
          return true;
        });
    serve::WireResponse streamed;
    streamed.labels = served.labels();
    streamed.scenario_names = probe.Names();
    streamed.full_values = full;
    streamed.compressed_values = compressed;
    checks.Expect(swept.ok() && MatchesBatch(streamed, *checker, probe, options.batch),
                  "accuracy probe stream differs from AssignBatch");
    max_rel_error = ProbeError(*checker, probe);
    util::Result<core::BatchAssignReport> neutral =
        served.AssignBatch(NeutralScenario(stack.live_meta));
    if (neutral.ok()) {
      for (const core::ResultDelta::Row& row : neutral->reports[0].delta.rows) {
        probe_full_neutral.push_back(row.full);
      }
    }
    sweep_threads = threads;
    engine_line = "sweep threads=" + std::to_string(threads);
    if (!sampled.empty()) {
      const core::SweepSummary& s = sampled.front().summary;
      engine_line = std::string("engine=") + core::SweepName(s.engine) +
                    " lanes=" + std::to_string(s.block_lanes) + " layout=" +
                    (s.layout == prov::EvalLayout::kSoA ? "SoA" : "AoS") +
                    " window=" + std::to_string(s.window) + " (AssignStream)";
    }
  }
  const double peak_rss_mb = PeakRssMb();
  checks.Expect(MatchesSql(served.labels(), probe_full_neutral, query),
                "full answer at the neutral valuation differs from SQL");
  if (replayer) {
    checks.Expect(replayer->mismatches() == 0,
                  std::to_string(replayer->mismatches()) +
                      " replayed requests differ from the daemon's answers");
  }

  // One daemon worker (or the stream's caller) blocks while its sweep
  // threads run, so at most `sweep_threads` threads are runnable at once,
  // all on the pinned CPU.
  const serve::ServerStats server_stats = stack.server->stats();
  checks.Expect(sweep_threads <= nproc, "more sweep threads than processors");
  std::printf("run: nproc=%zu hardware_concurrency=%u pinned_cpu=%d "
              "server_workers=1 sweep_threads=%zu (runnable at once, sharing "
              "the pinned CPU)\n",
              nproc, std::thread::hardware_concurrency(), pinned_cpu,
              sweep_threads);
  std::printf("run: %s\n", engine_line.c_str());
  std::printf("data: TPC-H SF %.2f seed %llu generated in %.3f s\n", kScaleFactor,
              static_cast<unsigned long long>(kDataSeed), generate_s);
  std::printf("setup: wall s per rep");
  for (const SetupTimes& t : setups) std::printf(" %.4f", t.total);
  std::printf("; CPU s per rep");
  for (const SetupTimes& t : setups) std::printf(" %.4f", t.cpu);
  std::printf("; peak RSS %.1f MB after set-up, %.1f MB after load\n",
              setup_rss_mb, peak_rss_mb);
  std::printf("provenance: %zu -> %zu monomials, %zu meta-variables (%zu in the "
              "answer)\n",
              full_monomials, compressed_monomials, served.meta_vars().size(),
              stack.live_meta.size());
  std::printf("load: %zu warm-up calls, then %zu calls, %zu scenarios, %.3f s "
              "in flight (%.3f CPU s), %zu failed; daemon shed=%llu coalesced=%llu\n",
              warmup.latencies.size(),
              untraced.latencies.size() + traced.latencies.size(),
              untraced.scenarios + traced.scenarios,
              untraced.in_flight + traced.in_flight,
              untraced.in_flight_cpu + traced.in_flight_cpu,
              untraced.failed + traced.failed,
              static_cast<unsigned long long>(server_stats.shed),
              static_cast<unsigned long long>(server_stats.coalesced));
  std::printf("checks: %zu of %zu passed\n", checks.attempted - checks.failed,
              checks.attempted);
  for (const std::string& failure : checks.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }

  const std::size_t attempted = warmup.latencies.size() + traced.latencies.size() +
                                untraced.latencies.size() + checks.attempted;
  const std::size_t failed =
      warmup.failed + traced.failed + untraced.failed + checks.failed;
  const std::size_t reps = setups.size();
  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::size_t n = untraced.latencies.size();
    const BestOf wall = BestOfRepetitions(untraced, untraced.latencies,
                                          workload.cycle_requests);
    const BestOf cpu = BestOfRepetitions(untraced, untraced.cpu, workload.cycle_requests);
    std::printf("latency ms (every call of the window):");
    for (double q : {0.5, 0.75, 0.9, 0.95, 0.99}) {
      std::printf(" p%g=%.4f", q * 100, Percentile(untraced.latencies, q) * 1e3);
    }
    std::printf("\nlatency ms (best of %zu-%zu repetitions per request, over %zu "
                "requests): p50=%.4f p75=%.4f, %.6g scenarios/s\n",
                wall.min_reps, wall.max_reps, workload.cycle_requests,
                wall.p50 * 1e3, wall.p75 * 1e3, wall.throughput);
    std::printf("CPU ms per request (best of the same repetitions): p50=%.4f "
                "p75=%.4f, %.6g scenarios per CPU s\n",
                cpu.p50 * 1e3, cpu.p75 * 1e3, cpu.throughput);
    // The timing metrics are CPU times: wall times moved with whatever else
    // ran on the pinned vCPU (see README.md), CPU times did not.
    metrics = {
        {"setup_s", Median(Collect(setups, [](const SetupTimes& t) { return t.cpu; })),
         "s", reps},
        {"scenarios_per_cpu_s", cpu.throughput, "1/s", n},
        {"req_cpu_p50_ms", cpu.p50 * 1e3, "ms", n},
        {"req_cpu_p75_ms", cpu.p75 * 1e3, "ms", n},
        {"peak_rss_mb", peak_rss_mb, "MB", 1},
        {"max_rel_error", max_rel_error, "ratio", kProbeScenarios},
        {"compression_ratio",
         static_cast<double>(full_monomials) / static_cast<double>(compressed_monomials),
         "x", 1},
        {"ok_ratio",
         1.0 - static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted)),
         "ratio", attempted},
    };
  } else {
    auto setup_median = [&](double SetupTimes::*field) {
      return Median(Collect(setups, [&](const SetupTimes& t) { return t.*field; }));
    };
    auto load_median = [&](double LoadTimes::*field) {
      return Median(Collect(loads, [&](const LoadTimes& t) { return t.*field; }));
    };
    metrics = {
        {"data.generate_s", generate_s, "s", 1},
        {"rel.sql_s", setup_median(&SetupTimes::sql), "s", reps},
        {"rel.full_monomials", static_cast<double>(full_monomials), "count", 1},
        {"core.compress_s", setup_median(&SetupTimes::compress), "s", reps},
        {"core.snapshot_s", setup_median(&SetupTimes::snapshot), "s", reps},
        {"core.compressed_monomials", static_cast<double>(compressed_monomials),
         "count", 1},
        {"io.save_s", setup_median(&SetupTimes::save), "s", reps},
        {"io.snapshot_bytes", static_cast<double>(bytes.size()), "bytes", 1},
        {"io.parse_s", load_median(&LoadTimes::parse), "s", loads.size()},
        {"verify.snapshot_s", load_median(&LoadTimes::verify), "s", loads.size()},
        {"core.from_snapshot_s", load_median(&LoadTimes::from_snapshot), "s",
         loads.size()},
        {"serve.load_s", setup_median(&SetupTimes::load), "s", reps},
    };
    // Request-path layers: medians over the replayed requests.
    const std::vector<Replayer::Layers> none;
    const std::vector<Replayer::Layers>& layers = replayer ? replayer->layers() : none;
    const std::size_t replayed = layers.size();
    auto layer_us = [&](double Replayer::Layers::*field) {
      return Median(Collect(layers, [&](const Replayer::Layers& l) { return l.*field; })) * 1e6;
    };
    double hit_ratio = 0.0;
    double core_hit_ratio = 0.0;
    double full_terms_per_s = 0.0;
    double compressed_terms_per_s = 0.0;
    double speedup = 0.0;
    double overhead_us = 0.0;
    if (replayer) {
      const core::CompiledSession::PlanCacheStats cache =
          replayer->replica().plan_cache_stats();
      const double lookups =
          static_cast<double>(cache.hits + cache.core_hits + cache.misses);
      if (lookups > 0) {
        hit_ratio = static_cast<double>(cache.hits) / lookups;
        core_hit_ratio = static_cast<double>(cache.hits + cache.core_hits) / lookups;
      }
      double full_sweep = 0.0;
      double compressed_sweep = 0.0;
      for (const Replayer::Layers& l : layers) {
        full_sweep += l.full_sweep;
        compressed_sweep += l.compressed_sweep;
      }
      if (full_sweep > 0.0) full_terms_per_s = replayer->full_terms() / full_sweep;
      if (compressed_sweep > 0.0) {
        compressed_terms_per_s = replayer->compressed_terms() / compressed_sweep;
        speedup = full_sweep / compressed_sweep;
      }
      overhead_us = Median(Collect(layers, [](const Replayer::Layers& l) {
                      return l.execute - l.full_sweep - l.compressed_sweep;
                    })) * 1e6;
    }
    // Stream layers: medians over the traced AssignStream calls.
    const std::vector<core::SweepSummary>& sweeps = traced_sweeps;
    auto sweep_median = [&](double core::SweepSummary::*field) {
      return Median(Collect(sweeps, [&](const core::SweepSummary& s) { return s.*field; }));
    };
    double skipped_ratio = 0.0;
    double chunks = 0.0;
    if (!sweeps.empty()) {
      double computed = 0.0;
      double skipped = 0.0;
      double full_sweep = 0.0;
      double compressed_sweep = 0.0;
      double scenarios = 0.0;
      for (const core::SweepSummary& s : sweeps) {
        computed += static_cast<double>(s.full_rows_computed);
        skipped += static_cast<double>(s.full_rows_skipped);
        full_sweep += s.full_sweep_seconds;
        compressed_sweep += s.compressed_sweep_seconds;
        scenarios += static_cast<double>(s.scenarios);
      }
      skipped_ratio = skipped / std::max(1.0, computed + skipped);
      chunks = Median(Collect(sweeps, [](const core::SweepSummary& s) {
        return static_cast<double>(s.chunks);
      }));
      if (full_sweep > 0.0) {
        full_terms_per_s = computed * static_cast<double>(full_monomials) / full_sweep;
      }
      if (compressed_sweep > 0.0) {
        compressed_terms_per_s =
            scenarios * static_cast<double>(compressed_monomials) / compressed_sweep;
      }
      if (computed > 0.0 && compressed_sweep > 0.0) {
        speedup = (full_sweep / computed) / (compressed_sweep / scenarios);
      }
    }
    const std::size_t swept = sweeps.size();
    const std::vector<Metric> request_path = {
        {"serve.encode_req_us", layer_us(&Replayer::Layers::encode_req), "us", replayed},
        {"serve.decode_req_us", layer_us(&Replayer::Layers::decode_req), "us", replayed},
        {"serve.encode_resp_us", layer_us(&Replayer::Layers::encode_resp), "us", replayed},
        {"serve.decode_resp_us", layer_us(&Replayer::Layers::decode_resp), "us", replayed},
        {"serve.residual_us", replayer ? Median(replayer->residuals()) * 1e6 : 0.0, "us",
         replayed},
        {"serve.shed", static_cast<double>(server_stats.shed), "count", 1},
        {"serve.coalesced", static_cast<double>(server_stats.coalesced), "count", 1},
        {"core.plan_us", layer_us(&Replayer::Layers::plan), "us", replayed},
        {"core.plan_cache_hit_ratio", hit_ratio, "ratio", replayed},
        {"core.plan_core_hit_ratio", core_hit_ratio, "ratio", replayed},
        {"core.execute_us", layer_us(&Replayer::Layers::execute), "us", replayed},
        {"core.full_sweep_us", layer_us(&Replayer::Layers::full_sweep), "us", replayed},
        {"core.compressed_sweep_us", layer_us(&Replayer::Layers::compressed_sweep), "us",
         replayed},
        {"core.sweep_threads", static_cast<double>(sweep_threads), "count", 1},
        {"core.execute_overhead_us", overhead_us, "us", replayed},
        {"prov.full_terms_per_s", full_terms_per_s, "1/s", replayed + swept},
        {"prov.compressed_terms_per_s", compressed_terms_per_s, "1/s", replayed + swept},
        {"prov.compressed_speedup", speedup, "x", replayed + swept},
        {"core.stream_generate_s", sweep_median(&core::SweepSummary::generate_seconds), "s",
         swept},
        {"core.stream_plan_s", sweep_median(&core::SweepSummary::plan_seconds), "s", swept},
        {"core.stream_compressed_sweep_s",
         sweep_median(&core::SweepSummary::compressed_sweep_seconds), "s", swept},
        {"core.stream_full_sweep_s", sweep_median(&core::SweepSummary::full_sweep_seconds),
         "s", swept},
        {"core.stream_full_rows_skipped_ratio", skipped_ratio, "ratio", swept},
        {"core.stream_chunks", chunks, "count", swept},
        {"trace.overhead_ratio",
         Median(untraced.latencies) > 0.0
             ? Median(traced.latencies) / Median(untraced.latencies)
             : 0.0,
         "ratio", traced.latencies.size()},
    };
    metrics.insert(metrics.end(), request_path.begin(), request_path.end());
    std::printf("%s", tracer.SelfTimeTable().c_str());
    std::printf("tracing overhead: traced req_p50 %.4f ms (%zu calls) vs untraced "
                "%.4f ms (%zu calls)\n",
                Median(traced.latencies) * 1e3, traced.latencies.size(),
                Median(untraced.latencies) * 1e3, untraced.latencies.size());
    std::error_code error;
    fs::create_directories(args.work_dir + "/traces", error);
    const std::string trace_path = args.work_dir + "/traces/" + workload.name +
                                   "-seed" + std::to_string(args.seed) + ".jsonl";
    if (tracer.Write(trace_path)) std::printf("spans: %s\n", trace_path.c_str());
  }

  std::error_code error;
  fs::remove_all(run_dir, error);
  PrintResult(metrics, failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}
