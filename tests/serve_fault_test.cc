// Fault-injection integration test for the serving daemon stack
// (serve/fault.h): the CMake target recompiles the serve sources with
// COBRA_FAULT_INJECTION, so the probes at the failure seams are live in
// this binary (and only this one — ServerBuildHasFaultInjection() guards
// against running the suite against a probe-free link).
//
// The robustness contract under test, end to end:
//   - transient faults (failed reads, slow loads, torn writes) are retried
//     or re-polled; the old version keeps serving and nothing quarantines;
//   - permanent corruption quarantines exactly once, with the serving
//     session untouched;
//   - admission overflow sheds with a retry hint instead of buffering or
//     crashing;
//   - a streamed request whose window stalls past its deadline answers
//     kDeadlineExceeded at the next between-window check;
//   - a client burst riding across a hot swap completes every accepted
//     request bit-identically to a direct AssignBatch against exactly one
//     published version;
//   - identical concurrent whole batches execute once while their leader
//     stalls, and a batch one value bit away does not join them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_session.h"
#include "core/io.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "serve/fault.h"
#include "serve/server.h"
#include "serve/snapshot_watcher.h"
#include "serve/wire.h"
#include "util/csv.h"
#include "util/status.h"

namespace cobra::serve {
namespace {

using core::CompiledSession;
using core::ScenarioSet;
using core::Session;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::shared_ptr<const CompiledSession> ExampleSnapshot(Session* session) {
  session->LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session->SetTreeText(data::kFigure2TreeText).CheckOK();
  session->SetBound(6);
  session->Compress().ValueOrDie();
  return session->Snapshot().ValueOrDie();
}

ScenarioSet ExampleScenarios() {
  ScenarioSet scenarios;
  scenarios.Add("slump").ValueOrDie().Set("Business", 0.8);
  scenarios.Add("mixed").ValueOrDie().Set("Business", 1.25).Set("Special", 0.9);
  return scenarios;
}

std::string MakeDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ServerBuildHasFaultInjection()) {
      GTEST_SKIP() << "serve sources linked without COBRA_FAULT_INJECTION";
    }
    ResetFaults();
  }
  void TearDown() override { ResetFaults(); }
};

TEST_F(ServeFaultTest, InjectedReadFaultsRetryThenSucceed) {
  const std::string dir = MakeDir("fault_read_retry");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  const std::string path = dir + "/v001.snap";
  ASSERT_TRUE(core::SaveSnapshot(*origin, path).ok());

  ArmFault(FaultPoint::kSnapshotRead, /*count=*/2);
  std::vector<int> sleeps;
  LoadOutcome outcome = LoadSnapshotWithRetry(
      path, RetryPolicy{}, /*quarantine_on_permanent=*/true,
      [&sleeps](int ms) { sleeps.push_back(ms); });
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, 3);  // 2 injected failures + 1 success
  EXPECT_EQ(FaultFireCount(FaultPoint::kSnapshotRead), 2);
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_FALSE(outcome.quarantined);  // transient: never condemned
  EXPECT_TRUE(util::ReadFile(path).ok());
}

TEST_F(ServeFaultTest, ReadFaultsBeyondRetryBudgetGiveUpTransiently) {
  const std::string dir = MakeDir("fault_read_giveup");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  ArmFault(FaultPoint::kSnapshotRead, /*count=*/100);
  LoadOutcome outcome =
      LoadSnapshotWithRetry(dir + "/v001.snap", policy,
                            /*quarantine_on_permanent=*/true, [](int) {});
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(util::IsRetryable(outcome.status));
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_FALSE(outcome.quarantined);
  // The artifact is fine — a later poll (faults exhausted/cleared) loads it.
  ResetFaults();
  LoadOutcome retry = LoadSnapshotWithRetry(
      dir + "/v001.snap", policy, /*quarantine_on_permanent=*/true, [](int) {});
  EXPECT_TRUE(retry.status.ok());
}

TEST_F(ServeFaultTest, TornWriteIsRetriedNotQuarantinedThenSwapsWhenComplete) {
  const std::string dir = MakeDir("fault_torn_write");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  std::vector<std::string> swapped;
  SnapshotWatcher::Options options;
  options.dir = dir;
  options.retry.max_attempts = 2;
  options.retry.backoff_initial_ms = 1;
  SnapshotWatcher watcher(
      options,
      [&swapped](std::shared_ptr<const CompiledSession>,
                 const std::string& name) { swapped.push_back(name); },
      nullptr);
  ASSERT_TRUE(watcher.PollOnce().ok());
  ASSERT_EQ(swapped.size(), 1u);

  // A torn write: the full serialized bytes, truncated mid-payload. This is
  // the external fault the harness produces without an in-process hook.
  const std::string full_bytes =
      core::SerializeSnapshot(core::MakeSnapshot(*origin));
  ASSERT_TRUE(util::WriteFile(dir + "/v002.snap",
                              full_bytes.substr(0, full_bytes.size() / 2))
                  .ok());
  util::Status poll = watcher.PollOnce();
  ASSERT_FALSE(poll.ok());
  EXPECT_TRUE(util::IsRetryable(poll));          // torn != corrupt
  EXPECT_EQ(watcher.stats().quarantines, 0u);    // never condemned
  EXPECT_EQ(watcher.current_name(), "v001.snap");
  EXPECT_TRUE(util::ReadFile(dir + "/v002.snap").ok());  // left in place

  // The publisher finishes the write: the next poll swaps.
  ASSERT_TRUE(util::WriteFile(dir + "/v002.snap", full_bytes).ok());
  ASSERT_TRUE(watcher.PollOnce().ok());
  ASSERT_EQ(swapped.size(), 2u);
  EXPECT_EQ(swapped[1], "v002.snap");
}

TEST_F(ServeFaultTest, SlowLoadStallsTheWatcherNotTheServingPath) {
  const std::string dir = MakeDir("fault_slow_load");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  ServerOptions server_options;
  server_options.num_workers = 2;
  CobraServer server(server_options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v000.snap");

  SnapshotWatcher::Options watcher_options;
  watcher_options.dir = dir;
  SnapshotWatcher watcher(
      watcher_options,
      [&server](std::shared_ptr<const CompiledSession> loaded,
                const std::string& name) {
        server.Swap(std::move(loaded), name);
      },
      nullptr);

  // The watcher's load of v001 stalls 150ms. Requests must keep being
  // answered from the already-published version for the whole window.
  ArmFault(FaultPoint::kSlowLoad, /*count=*/1, /*delay_ms=*/150);
  std::thread poller([&watcher] { watcher.PollOnce(); });

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 30000);
  ASSERT_TRUE(client.ok());
  const auto window_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  int answered = 0;
  while (std::chrono::steady_clock::now() < window_end) {
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = static_cast<std::uint64_t>(answered) + 1;
    request.deadline_ms = 30000;
    request.scenarios = ExampleScenarios();
    util::Result<WireResponse> response = client->Call(request);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, WireCode::kOk);
    ++answered;
  }
  poller.join();
  EXPECT_GT(answered, 0);
  EXPECT_EQ(FaultFireCount(FaultPoint::kSlowLoad), 1);
  EXPECT_EQ(server.snapshot_name(), "v001.snap");  // the swap did land
  server.Stop();
}

TEST_F(ServeFaultTest, QueueOverflowShedsWithRetryHintAndRecovers) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v1");

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 30000);
  ASSERT_TRUE(client.ok());

  // The next two admissions see a full queue (injected — actually filling
  // a 128-deep queue would make the test a load test).
  ArmFault(FaultPoint::kQueueOverflow, /*count=*/2);
  for (int i = 0; i < 2; ++i) {
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = static_cast<std::uint64_t>(i) + 1;
    request.scenarios = ExampleScenarios();
    util::Result<WireResponse> response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kUnavailable);
    EXPECT_GT(response->retry_after_ms, 0u);
  }
  EXPECT_EQ(FaultFireCount(FaultPoint::kQueueOverflow), 2);
  EXPECT_EQ(server.stats().shed, 2u);

  // The shed was load control, not a wedge: the next request serves.
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = 99;
  request.deadline_ms = 30000;
  request.scenarios = ExampleScenarios();
  util::Result<WireResponse> response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kOk);
  server.Stop();
}

TEST_F(ServeFaultTest, SlowWindowExpiresAStreamedRequestBetweenWindows) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  // One scenario per window, so a 3-scenario request streams in three and
  // checks its deadline after the first and the second.
  ServerOptions options;
  options.deadline_check_scenarios = 1;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v1");

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 30000);
  ASSERT_TRUE(client.ok());
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = 5;
  request.deadline_ms = 200;
  request.scenarios = ExampleScenarios();
  request.scenarios.Add("baseline").ValueOrDie();
  ASSERT_EQ(request.scenarios.size(), 3u);

  // The first window's stall outlives the whole deadline.
  const std::uint64_t expired_before = server.stats().deadline_exceeded;
  ArmFault(FaultPoint::kSlowWindow, /*count=*/1, /*delay_ms=*/400);
  util::Result<WireResponse> response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kDeadlineExceeded);
  EXPECT_EQ(response->message, "deadline expired after 1 of 3 scenarios");
  EXPECT_EQ(FaultFireCount(FaultPoint::kSlowWindow), 1);
  EXPECT_EQ(server.stats().deadline_exceeded, expired_before + 1);
  server.Stop();
}

TEST_F(ServeFaultTest, MidSwapBurstCompletesEveryAcceptedRequestCoherently) {
  const std::string dir = MakeDir("fault_mid_swap_burst");
  Session session;
  std::shared_ptr<const CompiledSession> version_a =
      ExampleSnapshot(&session);
  prov::Valuation meta = version_a->default_meta_valuation();
  for (const core::MetaVar& var : version_a->meta_vars()) {
    meta.Set(var.var, 1.5);
  }
  std::shared_ptr<const CompiledSession> version_b =
      version_a->WithDefaultMetaValuation(meta);

  const ScenarioSet scenarios = ExampleScenarios();
  auto direct = [&scenarios](const CompiledSession& snapshot) {
    std::vector<double> flat;
    core::BatchAssignReport report =
        snapshot.AssignBatch(scenarios).ValueOrDie();
    for (const core::AssignReport& scenario : report.reports) {
      for (const core::ResultDelta::Row& row : scenario.delta.rows) {
        flat.push_back(row.full);
        flat.push_back(row.compressed);
      }
    }
    return flat;
  };
  const std::vector<double> expected_a = direct(*version_a);
  const std::vector<double> expected_b = direct(*version_b);

  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4096;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(version_a, "vA");  // version 1: odd versions serve A

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 15;
  std::atomic<int> failed{0};
  std::atomic<int> incoherent{0};
  std::vector<std::thread> burst;
  for (int t = 0; t < kThreads; ++t) {
    burst.emplace_back([&, t] {
      util::Result<Client> client =
          Client::Connect("127.0.0.1", server.port(), 30000);
      if (!client.ok()) {
        failed.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsPerThread; ++r) {
        WireRequest request;
        request.type = MsgType::kAssignBatch;
        request.request_id = static_cast<std::uint64_t>(t * 100 + r);
        request.deadline_ms = 30000;
        request.scenarios = scenarios;
        util::Result<WireResponse> response = client->Call(request);
        if (!response.ok() || response->code != WireCode::kOk) {
          failed.fetch_add(1);
          continue;
        }
        const std::vector<double>& expected =
            (response->snapshot_version % 2 == 1) ? expected_a : expected_b;
        std::vector<double> flat;
        for (std::size_t s = 0; s < response->num_scenarios(); ++s) {
          for (std::size_t g = 0; g < response->num_groups(); ++g) {
            flat.push_back(response->full_value(s, g));
            flat.push_back(response->compressed_value(s, g));
          }
        }
        bool coherent = flat.size() == expected.size();
        for (std::size_t i = 0; coherent && i < flat.size(); ++i) {
          coherent = SameBits(flat[i], expected[i]);
        }
        if (!coherent) incoherent.fetch_add(1);
      }
    });
  }

  // The swapper keeps flipping versions under the burst.
  std::atomic<bool> swapping{true};
  std::thread swapper([&] {
    bool serve_b = true;
    while (swapping.load()) {
      server.Swap(serve_b ? version_b : version_a, serve_b ? "vB" : "vA");
      serve_b = !serve_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& thread : burst) thread.join();
  swapping.store(false);
  swapper.join();
  server.Stop();

  // The acceptance contract: zero failed in-flight requests, zero
  // incoherent (mixed-version or wrong-value) responses.
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(incoherent.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ServeFaultTest, CorruptSnapshotQuarantinesExactlyOnceUnderTraffic) {
  const std::string dir = MakeDir("fault_corrupt_under_traffic");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());

  std::string log_text;
  std::mutex log_mu;
  SnapshotWatcher::Options watcher_options;
  watcher_options.dir = dir;
  watcher_options.retry.max_attempts = 1;
  SnapshotWatcher watcher(
      watcher_options,
      [&server](std::shared_ptr<const CompiledSession> loaded,
                const std::string& name) {
        server.Swap(std::move(loaded), name);
      },
      [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(log_mu);
        log_text += line + "\n";
      });
  ASSERT_TRUE(watcher.PollOnce().ok());
  ASSERT_EQ(server.snapshot_name(), "v001.snap");

  // Corrupt v002 appears: flip bytes inside the checksummed payload.
  std::string bad = core::SerializeSnapshot(core::MakeSnapshot(*origin));
  for (std::size_t i = bad.size() / 2; i < bad.size() / 2 + 8; ++i) {
    bad[i] = static_cast<char>(~bad[i]);
  }
  ASSERT_TRUE(util::WriteFile(dir + "/v002.snap", bad).ok());

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 30000);
  ASSERT_TRUE(client.ok());
  for (int poll = 0; poll < 3; ++poll) {
    watcher.PollOnce();  // first: quarantine; rest: steady state
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = static_cast<std::uint64_t>(poll) + 1;
    request.deadline_ms = 30000;
    request.scenarios = ExampleScenarios();
    util::Result<WireResponse> response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kOk);
    EXPECT_EQ(response->snapshot_version, 1u);  // never swapped off v001
  }
  EXPECT_EQ(watcher.stats().quarantines, 1u);  // exactly once, no loop
  EXPECT_EQ(watcher.current_name(), "v001.snap");
  EXPECT_TRUE(std::filesystem::exists(dir + "/v002.snap.rejected"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/v002.snap"));
  {
    std::lock_guard<std::mutex> lock(log_mu);
    EXPECT_NE(log_text.find("checksum mismatch"), std::string::npos);
  }
  server.Stop();
}

// The coalescing invariant: while a whole-batch leader stalls, requests
// whose frames are byte-identical wait on its run instead of executing, so
// N of them execute once (coalesced == N - 1) and every follower answers
// the leader's rows bit for bit. A request one value bit away keys
// differently and runs on its own.
TEST_F(ServeFaultTest, StalledLeaderCoalescesOnlyIdenticalBatches) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  constexpr int kIdentical = 4;
  ServerOptions options;
  options.num_workers = kIdentical + 1;  // every request runs at once
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v1");

  const ScenarioSet scenarios = ExampleScenarios();
  ScenarioSet nudged;
  nudged.Add("slump").ValueOrDie().Set("Business", std::nextafter(0.8, 1.0));
  nudged.Add("mixed").ValueOrDie().Set("Business", 1.25).Set("Special", 0.9);

  std::vector<util::Result<WireResponse>> responses(
      kIdentical + 1, util::Status::Internal("not answered"));
  auto call = [&](int i, const ScenarioSet* set) {
    util::Result<Client> client =
        Client::Connect("127.0.0.1", server.port(), 30000);
    if (!client.ok()) {
      responses[static_cast<std::size_t>(i)] = client.status();
      return;
    }
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = 100 + static_cast<std::uint64_t>(i);
    request.deadline_ms = 30000;
    request.scenarios = *set;
    responses[static_cast<std::size_t>(i)] = client->Call(request);
  };

  // The leader goes first; the others are sent once it is stalled.
  ArmFault(FaultPoint::kSlowLeader, /*count=*/1, /*delay_ms=*/1500);
  std::vector<std::thread> clients;
  clients.emplace_back(call, 0, &scenarios);
  for (int waited = 0; FaultFireCount(FaultPoint::kSlowLeader) == 0; ++waited) {
    ASSERT_LT(waited, 10000) << "the leader never reached its stall";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 1; i < kIdentical; ++i) clients.emplace_back(call, i, &scenarios);
  clients.emplace_back(call, kIdentical, &nudged);
  for (std::thread& client : clients) client.join();
  server.Stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kIdentical - 1));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kIdentical + 1));
  EXPECT_EQ(FaultFireCount(FaultPoint::kSlowLeader), 1);

  auto expect_direct = [&](const WireResponse& response,
                           const ScenarioSet& set) {
    const core::BatchAssignReport report =
        origin->AssignBatch(set).ValueOrDie();
    ASSERT_EQ(response.num_scenarios(), report.size());
    for (std::size_t s = 0; s < report.size(); ++s) {
      const std::vector<core::ResultDelta::Row>& rows =
          report.reports[s].delta.rows;
      ASSERT_EQ(response.num_groups(), rows.size());
      for (std::size_t g = 0; g < rows.size(); ++g) {
        EXPECT_TRUE(SameBits(response.full_value(s, g), rows[g].full));
        EXPECT_TRUE(
            SameBits(response.compressed_value(s, g), rows[g].compressed));
      }
    }
  };
  for (const util::Result<WireResponse>& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, WireCode::kOk) << response->message;
  }
  const WireResponse& leader = *responses[0];
  expect_direct(leader, scenarios);
  for (int i = 1; i < kIdentical; ++i) {
    const WireResponse& follower = *responses[static_cast<std::size_t>(i)];
    EXPECT_EQ(follower.request_id, 100u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(follower.scenario_names, leader.scenario_names);
    ASSERT_EQ(follower.full_values.size(), leader.full_values.size());
    ASSERT_EQ(follower.compressed_values.size(),
              leader.compressed_values.size());
    for (std::size_t c = 0; c < leader.full_values.size(); ++c) {
      EXPECT_TRUE(SameBits(follower.full_values[c], leader.full_values[c]));
      EXPECT_TRUE(SameBits(follower.compressed_values[c],
                           leader.compressed_values[c]));
    }
  }
  expect_direct(*responses[kIdentical], nudged);
}

}  // namespace
}  // namespace cobra::serve
