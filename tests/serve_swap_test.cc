// Hot-swap coherence test for CobraServer (serve/server.h): many client
// threads hammer AssignBatch over the wire while another thread keeps
// swapping the served session between two versions. Every response must be
// served against exactly ONE coherent version — bit-identical to a direct
// CompiledSession::AssignBatch on that version — and no accepted request
// may fail. Run under TSan in CI (the tsan job) to also prove the swap
// path is race-free. The streamed-path cases send requests above
// ServerOptions::deadline_check_scenarios, which the server sweeps as one
// AssignStream in windows of that size.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "prov/valuation.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/rng.h"
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
  scenarios.Add("baseline");
  scenarios.Add("slump").ValueOrDie().Set("Business", 0.8);
  scenarios.Add("mixed").ValueOrDie().Set("Business", 1.25).Set("Special", 0.9);
  return scenarios;
}

/// The expected (scenario x group) matrices of one version, from a direct
/// in-process AssignBatch — the serving tier's ground truth.
struct Expected {
  std::vector<std::string> names;
  std::vector<double> full;
  std::vector<double> compressed;
};

Expected DirectResults(const CompiledSession& session,
                       const ScenarioSet& scenarios) {
  Expected expected;
  core::BatchAssignReport report =
      session.AssignBatch(scenarios).ValueOrDie();
  expected.names = report.scenario_names;
  for (const core::AssignReport& scenario : report.reports) {
    for (const core::ResultDelta::Row& row : scenario.delta.rows) {
      expected.full.push_back(row.full);
      expected.compressed.push_back(row.compressed);
    }
  }
  return expected;
}

TEST(ServeSwapTest, HammeredSwapsServeExactlyOneCoherentVersion) {
  Session session;
  std::shared_ptr<const CompiledSession> version_a =
      ExampleSnapshot(&session);
  // Version B shares A's compiled programs but answers under a different
  // default valuation — cheap to make, and every group value differs, so a
  // torn read (half A, half B) cannot go unnoticed.
  prov::Valuation meta = version_a->default_meta_valuation();
  const std::vector<core::MetaVar>& meta_vars = version_a->meta_vars();
  ASSERT_FALSE(meta_vars.empty());
  for (const core::MetaVar& var : meta_vars) meta.Set(var.var, 1.5);
  std::shared_ptr<const CompiledSession> version_b =
      version_a->WithDefaultMetaValuation(meta);

  const ScenarioSet scenarios = ExampleScenarios();
  const Expected expected_a = DirectResults(*version_a, scenarios);
  const Expected expected_b = DirectResults(*version_b, scenarios);
  // The two versions must actually disagree for the test to mean anything.
  ASSERT_FALSE(SameBits(expected_a.full[0], expected_b.full[0]));

  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 1024;  // hammering must never shed
  CobraServer server(options);
  server.set_log([](const std::string&) {});  // quiet
  ASSERT_TRUE(server.Start().ok());
  server.Swap(version_a, "vA");  // version 1

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> checked{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      util::Result<Client> client =
          Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/30000);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsPerThread; ++r) {
        WireRequest request;
        request.type = MsgType::kAssignBatch;
        request.request_id =
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(r);
        request.deadline_ms = 30000;
        request.scenarios = scenarios;
        util::Result<WireResponse> response = client->Call(request);
        if (!response.ok() || response->code != WireCode::kOk) {
          failures.fetch_add(1);
          continue;
        }
        // Swaps alternate A, B, A, ... starting at version 1 = A. The
        // version the server reports decides which ground truth applies;
        // every cell must match it bit for bit.
        const Expected& expected =
            (response->snapshot_version % 2 == 1) ? expected_a : expected_b;
        if (response->full_values.size() != expected.full.size() ||
            response->compressed_values.size() !=
                expected.compressed.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < expected.full.size(); ++i) {
          if (!SameBits(response->full_values[i], expected.full[i]) ||
              !SameBits(response->compressed_values[i],
                        expected.compressed[i])) {
            mismatches.fetch_add(1);
            break;
          }
        }
        checked.fetch_add(1);
      }
    });
  }

  // The writer: keep swapping while the clients hammer.
  std::atomic<bool> swapping{true};
  std::thread writer([&] {
    bool serve_b = true;
    while (swapping.load()) {
      server.Swap(serve_b ? version_b : version_a, serve_b ? "vB" : "vA");
      serve_b = !serve_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& client : clients) client.join();
  swapping.store(false);
  writer.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(checked.load(),
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  // The writer performed many swaps, so the hammering really did cross
  // version boundaries.
  EXPECT_GT(server.stats().swaps, 2u);
}

TEST(ServeSwapTest, RequestsBeforeFirstSwapFailPrecondition) {
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = 1;
  request.scenarios.Add("s").ValueOrDie().Set("Business", 0.5);
  util::Result<WireResponse> response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kFailedPrecondition);
  server.Stop();
}

TEST(ServeSwapTest, StopDrainsAcceptedRequests) {
  Session session;
  std::shared_ptr<const CompiledSession> snapshot =
      ExampleSnapshot(&session);
  ServerOptions options;
  options.num_workers = 2;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(snapshot, "v1");

  // Issue a burst of requests from several threads, then Stop concurrently:
  // every request that got an OK admission must still receive its real
  // response (the server half-closes but finishes the queue).
  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> broken{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      util::Result<Client> client =
          Client::Connect("127.0.0.1", server.port(), 30000);
      if (!client.ok()) return;
      for (int r = 0; r < 10; ++r) {
        WireRequest request;
        request.type = MsgType::kAssignBatch;
        request.request_id = static_cast<std::uint64_t>(r) + 1;
        request.deadline_ms = 30000;
        request.scenarios = ExampleScenarios();
        util::Result<WireResponse> response = client->Call(request);
        if (!response.ok()) {
          // The half-close can race a request the reader never admitted —
          // that is a clean connection error, not a dropped response.
          broken.fetch_add(1);
          return;
        }
        if (response->code == WireCode::kOk) {
          ok.fetch_add(1);
        } else {
          shed.fetch_add(1);  // draining admissions answer kUnavailable
        }
      }
    });
  }
  // Stop once the first answer is in, so the drain races the rest of the
  // burst however slowly the clients start; the bound keeps a server that
  // answers nothing from hanging the test (the ok check below fails then).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ok.load() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  for (std::thread& client : clients) client.join();
  // Drain accounting: everything the server accepted completed.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.deadline_exceeded + stats.failed);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(ok.load(), 0);
}

/// `count` seeded scenarios over the snapshot's meta-variables, 0-3 deltas
/// each (a repeated variable keeps its last value).
ScenarioSet SeededScenarios(const CompiledSession& session, std::size_t count,
                            std::uint64_t seed) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
  util::Rng rng(seed);
  ScenarioSet scenarios;
  scenarios.Reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ScenarioSet::Handle handle =
        scenarios.Add("r" + std::to_string(i)).ValueOrDie();
    const std::size_t deltas = static_cast<std::size_t>(rng.NextBelow(4));
    for (std::size_t d = 0; d < deltas; ++d) {
      handle.Set(meta[static_cast<std::size_t>(rng.NextBelow(meta.size()))]
                     .name,
                 rng.NextDoubleInRange(0.5, 1.5));
    }
  }
  return scenarios;
}

/// Sends `scenarios` as one AssignBatch request and returns the response
/// (kInternal when the call itself fails).
WireResponse Send(const CobraServer& server, const ScenarioSet& scenarios) {
  WireResponse failed;
  failed.code = WireCode::kInternal;
  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/30000);
  EXPECT_TRUE(client.ok());
  if (!client.ok()) return failed;
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = 7;
  request.deadline_ms = 30000;
  request.scenarios = scenarios;
  util::Result<WireResponse> response = client->Call(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? *response : failed;
}

/// Every name and every cell of `response` equals a direct AssignBatch of
/// `scenarios` on `session`, bit for bit.
void ExpectSameAsDirect(const WireResponse& response,
                        const CompiledSession& session,
                        const ScenarioSet& scenarios) {
  ASSERT_EQ(response.code, WireCode::kOk) << response.message;
  const Expected expected = DirectResults(session, scenarios);
  EXPECT_EQ(response.labels, session.labels());
  EXPECT_EQ(response.scenario_names, expected.names);
  ASSERT_EQ(response.full_values.size(), expected.full.size());
  ASSERT_EQ(response.compressed_values.size(), expected.compressed.size());
  for (std::size_t i = 0; i < expected.full.size(); ++i) {
    ASSERT_TRUE(SameBits(response.full_values[i], expected.full[i]))
        << "full cell " << i;
    ASSERT_TRUE(
        SameBits(response.compressed_values[i], expected.compressed[i]))
        << "compressed cell " << i;
  }
}

TEST(ServeSwapTest, StreamedRequestsMatchDirectAssignBatch) {
  Session session;
  std::shared_ptr<const CompiledSession> snapshot =
      ExampleSnapshot(&session);
  // Windows of 1 and 2 stream the 3-scenario example (the second ragged);
  // the default window of 256 streams a 600-scenario request in three.
  const ScenarioSet example = ExampleScenarios();
  const ScenarioSet seeded = SeededScenarios(*snapshot, 600, /*seed=*/0x5EED);
  const std::pair<int, const ScenarioSet*> cases[] = {
      {1, &example}, {2, &example}, {256, &seeded}};
  for (const auto& [window, scenarios] : cases) {
    SCOPED_TRACE("deadline_check_scenarios = " + std::to_string(window));
    ServerOptions options;
    options.num_workers = 2;
    options.deadline_check_scenarios = window;
    CobraServer server(options);
    server.set_log([](const std::string&) {});
    ASSERT_TRUE(server.Start().ok());
    server.Swap(snapshot, "v1");
    const WireResponse response = Send(server, *scenarios);
    ExpectSameAsDirect(response, *snapshot, *scenarios);
    EXPECT_EQ(response.snapshot_version, 1u);
    server.Stop();
    EXPECT_EQ(server.stats().completed, 1u);
  }
}

TEST(ServeSwapTest, StreamedRequestNamesAnUnknownVariableInALaterWindow) {
  Session session;
  std::shared_ptr<const CompiledSession> snapshot =
      ExampleSnapshot(&session);
  ScenarioSet scenarios = SeededScenarios(*snapshot, 600, /*seed=*/0xBAD);
  scenarios.Add("late-typo").ValueOrDie().Set("Busyness", 0.9);
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(snapshot, "v1");
  const WireResponse response = Send(server, scenarios);
  EXPECT_EQ(response.code, WireCode::kInvalidArgument);
  EXPECT_NE(response.message.find("late-typo"), std::string::npos)
      << response.message;
  EXPECT_NE(response.message.find("Busyness"), std::string::npos)
      << response.message;
  server.Stop();
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(ServeSwapTest, StreamedRequestNeitherReadsNorFillsThePlanCache) {
  Session session;
  std::shared_ptr<const CompiledSession> snapshot =
      ExampleSnapshot(&session);
  // One whole batch first, so the cache holds an entry a streamed request
  // could have hit or evicted.
  ASSERT_TRUE(snapshot->AssignBatch(ExampleScenarios()).ok());
  ServerOptions options;
  options.deadline_check_scenarios = 1;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(snapshot, "v1");
  const CompiledSession::PlanCacheStats before = snapshot->plan_cache_stats();
  const WireResponse response = Send(server, ExampleScenarios());
  const CompiledSession::PlanCacheStats after = snapshot->plan_cache_stats();
  server.Stop();
  EXPECT_EQ(response.code, WireCode::kOk) << response.message;
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bases, before.bases);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.core_hits, before.core_hits);
  EXPECT_EQ(after.misses, before.misses);
}

// A non-finite delta gets the same answer whether the request is served as
// one whole batch (2 scenarios) or streamed in windows (300, over the
// default deadline_check_scenarios of 256): refused at decode, naming the
// scenario and the value, with the daemon still serving afterwards.
TEST(ServeSwapTest, NonFiniteDeltaIsRefusedOnEveryServingPath) {
  Session session;
  std::shared_ptr<const CompiledSession> snapshot =
      ExampleSnapshot(&session);
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(snapshot, "v1");
  for (const std::size_t count : {std::size_t{2}, std::size_t{300}}) {
    SCOPED_TRACE(std::to_string(count) + " scenarios");
    ScenarioSet scenarios =
        SeededScenarios(*snapshot, count - 1, /*seed=*/0xF1);
    scenarios.Add("bad")
        .ValueOrDie()
        .Set(snapshot->meta_vars().front().name,
             std::numeric_limits<double>::quiet_NaN());
    const WireResponse refused = Send(server, scenarios);
    EXPECT_EQ(refused.code, WireCode::kInvalidArgument);
    EXPECT_NE(refused.message.find("scenario " + std::to_string(count - 1)),
              std::string::npos)
        << refused.message;
    EXPECT_NE(refused.message.find("non-finite value nan"), std::string::npos)
        << refused.message;
    const WireResponse served = Send(server, ExampleScenarios());
    EXPECT_EQ(served.code, WireCode::kOk) << served.message;
  }
  server.Stop();
}

}  // namespace
}  // namespace cobra::serve
