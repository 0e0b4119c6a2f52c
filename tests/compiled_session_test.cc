// Tests for the immutable CompiledSession serving layer: snapshot identity
// with the Session wrappers, sparse and blocked equivalence against
// sequential Assign() (including exponent-expanded factors and variables
// outside the abstraction), intra-program partitioning determinism, and
// lock-free concurrent serving (N threads x M scenarios must reproduce the
// sequential results exactly). The concurrency test is the one the TSan CI
// job runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"

namespace cobra::core {
namespace {

/// A small session whose compression is forced to merge x and y into one
/// meta-variable G, with z and w left outside the abstraction, and an
/// exponent (x*x*x and z*z) so the sparse path exercises repeated factors.
void LoadExponentSession(Session* session) {
  // Single-tree mode allows at most one tree variable per monomial, so x
  // and y never co-occur; exponents come from x^3/y^3/z^2.
  session
      ->LoadPolynomialsText(
          "P1 = 2 * x^3 + 4 * y^3 + 5 * z^2 + 3 * w\n"
          "P2 = x * z + y * z + x + y\n")
      .CheckOK();
  session->SetTreeText("G\n  x\n  y\n").CheckOK();
  // Full size is 8 monomials; only the cut {G} reaches 5 (x^3 and y^3
  // merge into 6*G^3, x*z and y*z into 2*G*z, x and y into 2*G).
  session->SetBound(5);
  session->Compress().ValueOrDie();
  ASSERT_EQ(session->compressed().TotalMonomials(), 5u);
}

void LoadPaperSession(Session* session) {
  session->LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session->SetTreeText(data::kFigure2TreeText).CheckOK();
  // Bound 6 selects the cut {Business, Special, p1, p2}, so those
  // meta-variable names are available to scenarios below.
  session->SetBound(6);
  session->Compress().ValueOrDie();
}

std::vector<ResultDelta> SequentialDeltas(Session* session,
                                          const ScenarioSet& scenarios) {
  std::vector<ResultDelta> deltas;
  for (const Scenario& scenario : scenarios.scenarios()) {
    session->ResetMetaValues().CheckOK();
    for (const Scenario::Delta& delta : scenario.deltas) {
      session->SetMetaValue(delta.var, delta.value).CheckOK();
    }
    deltas.push_back(session->Assign(1).ValueOrDie().delta);
  }
  session->ResetMetaValues().CheckOK();
  return deltas;
}

void ExpectBitIdentical(const std::vector<ResultDelta>& want,
                        const BatchAssignReport& got) {
  ASSERT_EQ(got.reports.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& wr = want[i].rows;
    const auto& gr = got.reports[i].delta.rows;
    ASSERT_EQ(gr.size(), wr.size()) << "scenario " << i;
    for (std::size_t r = 0; r < wr.size(); ++r) {
      EXPECT_EQ(gr[r].label, wr[r].label);
      // EXPECT_EQ, not NEAR: the serving layer promises bit-identity.
      EXPECT_EQ(gr[r].full, wr[r].full) << "scenario " << i << " row " << r;
      EXPECT_EQ(gr[r].compressed, wr[r].compressed)
          << "scenario " << i << " row " << r;
    }
  }
}

TEST(CompiledSessionTest, SnapshotRequiresCompression) {
  Session session;
  EXPECT_EQ(session.Snapshot().status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(CompiledSessionTest, SnapshotIsCachedAndRefreshedOnMetaChange) {
  Session session;
  LoadPaperSession(&session);
  auto a = session.Snapshot().ValueOrDie();
  auto b = session.Snapshot().ValueOrDie();
  EXPECT_EQ(a.get(), b.get());

  session.SetMetaValue("Business", 1.3).CheckOK();
  auto c = session.Snapshot().ValueOrDie();
  EXPECT_NE(a.get(), c.get());
  prov::VarId business = session.pool().Find("Business");
  ASSERT_NE(business, prov::kInvalidVar);
  EXPECT_DOUBLE_EQ(c->default_meta_valuation().Get(business), 1.3);
  // The earlier snapshot is immutable: its defaults are unchanged.
  EXPECT_NE(a->default_meta_valuation().Get(business), 1.3);
}

TEST(CompiledSessionTest, SnapshotAssignMatchesSessionAssign) {
  Session session;
  LoadPaperSession(&session);
  session.SetMetaValue("Business", 1.15).CheckOK();
  AssignReport want = session.Assign(1).ValueOrDie();

  auto snapshot = session.Snapshot().ValueOrDie();
  AssignReport got = snapshot->Assign(1).ValueOrDie();
  ASSERT_EQ(got.delta.rows.size(), want.delta.rows.size());
  for (std::size_t r = 0; r < want.delta.rows.size(); ++r) {
    EXPECT_EQ(got.delta.rows[r].full, want.delta.rows[r].full);
    EXPECT_EQ(got.delta.rows[r].compressed, want.delta.rows[r].compressed);
  }
  EXPECT_EQ(got.full_size, want.full_size);
  EXPECT_EQ(got.compressed_size, want.compressed_size);
}

TEST(CompiledSessionTest, SnapshotSurvivesSessionMutation) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  std::size_t old_compressed = snapshot->compressed_size();

  ScenarioSet scenarios;
  scenarios.Add("boom").ValueOrDie().Set("Business", 1.25);
  BatchAssignReport before = snapshot->AssignBatch(scenarios).ValueOrDie();

  // Recompress the session under a tighter bound: the old snapshot must be
  // unaffected and keep serving the old compression.
  session.SetBound(4);
  session.Compress().ValueOrDie();
  auto fresh = session.Snapshot().ValueOrDie();
  EXPECT_LT(fresh->compressed_size(), old_compressed);

  BatchAssignReport after = snapshot->AssignBatch(scenarios).ValueOrDie();
  EXPECT_EQ(snapshot->compressed_size(), old_compressed);
  ASSERT_EQ(after.reports.size(), before.reports.size());
  for (std::size_t r = 0; r < before.reports[0].delta.rows.size(); ++r) {
    EXPECT_EQ(after.reports[0].delta.rows[r].compressed,
              before.reports[0].delta.rows[r].compressed);
  }
}

TEST(CompiledSessionTest, SparseOverridesMatchSequentialWithExponents) {
  Session session;
  LoadExponentSession(&session);

  ScenarioSet scenarios;
  scenarios.Add("default-noop");                    // empty override list
  scenarios.Add("meta").ValueOrDie().Set("G", 1.5);              // abstracted group
  scenarios.Add("outside").ValueOrDie().Set("z", 0.5);           // out-of-abstraction var
  scenarios.Add("outside2").ValueOrDie().Set("w", 2.5).Set("z", 1.25);
  scenarios.Add("mixed").ValueOrDie().Set("G", 0.8).Set("z", 3.0).Set("w", 0.1);
  scenarios.Add("leaf-under-meta").ValueOrDie().Set("x", 9.0);   // no-op: G wins
  scenarios.Add("repeat").ValueOrDie().Set("G", 2.0).Set("G", 0.25);

  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);

  auto snapshot = session.Snapshot().ValueOrDie();
  BatchOptions sparse;
  sparse.sweep = BatchOptions::Sweep::kSparseDelta;
  ExpectBitIdentical(sequential,
                     snapshot->AssignBatch(scenarios, sparse).ValueOrDie());

  // The blocked kernel must reproduce the same bits; 7 scenarios fill 7 of
  // the 16 lanes, so the padding lanes are exercised too.
  BatchOptions blocked;
  blocked.sweep = BatchOptions::Sweep::kBlocked;
  ExpectBitIdentical(sequential,
                     snapshot->AssignBatch(scenarios, blocked).ValueOrDie());
}

// Blocked-sweep property check at batch scale: scenario counts chosen so
// the last 16-lane block carries 1, 15 or 16 real lanes, across thread
// counts that exercise the (block × range) tiling, must all be bit-identical
// to the sequential path.
TEST(CompiledSessionTest, BlockedSweepBitIdenticalAcrossLaneAndThreadCounts) {
  Session session;
  LoadPaperSession(&session);
  const std::vector<MetaVar>& meta = session.meta_vars();
  ASSERT_FALSE(meta.empty());

  for (std::size_t count : {1u, 15u, 16u, 17u, 31u, 33u}) {
    ScenarioSet scenarios;
    for (std::size_t i = 0; i < count; ++i) {
      auto s = scenarios.Add("s" + std::to_string(i)).ValueOrDie();
      if (i % 3 != 0) {  // every third scenario keeps an empty override list
        s.Set(meta[i % meta.size()].name,
              1.0 + 0.03 * static_cast<double>(i + 1));
      }
    }
    std::vector<ResultDelta> sequential =
        SequentialDeltas(&session, scenarios);
    auto snapshot = session.Snapshot().ValueOrDie();
    for (std::size_t threads : {1u, 3u, 8u}) {
      BatchOptions options;
      options.sweep = BatchOptions::Sweep::kBlocked;
      options.num_threads = threads;
      options.partition_min_terms = 1;  // force range tiling when spare
      ExpectBitIdentical(
          sequential, snapshot->AssignBatch(scenarios, options).ValueOrDie());
    }
  }
}

TEST(CompiledSessionTest, PartitionedSweepIsDeterministic) {
  Session session;
  LoadPaperSession(&session);
  const std::vector<MetaVar>& meta = session.meta_vars();
  ASSERT_GE(meta.size(), 2u);
  ScenarioSet scenarios;
  scenarios.Add("boom").ValueOrDie().Set(meta[0].name, 1.25);
  scenarios.Add("slump").ValueOrDie().Set(meta[0].name, 0.8).Set(meta[1].name, 0.9);
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);

  auto snapshot = session.Snapshot().ValueOrDie();
  for (std::size_t threads : {1u, 3u, 8u, 16u}) {
    BatchOptions options;
    options.num_threads = threads;
    options.partition_min_terms = 1;  // force partitioning, tiny program
    ExpectBitIdentical(
        sequential, snapshot->AssignBatch(scenarios, options).ValueOrDie());
  }
}

/// A session whose provenance is dominated by one polynomial (60 distinct
/// monomials vs a 2-term sibling), with G abstracting {a0, a1}. Bound 61
/// forces the {G} cut. This is the "ungrouped aggregate" shape the
/// term-splitting scheduler fallback exists for.
void LoadDominantPolySession(Session* session) {
  std::string text = "Big = ";
  for (int t = 0; t < 60; ++t) {
    if (t > 0) text += " + ";
    text += std::to_string(t % 9 + 1) + " * a" + std::to_string(t);
  }
  text += "\nSmall = a0 + 3 * z\n";
  session->LoadPolynomialsText(text).CheckOK();
  session->SetTreeText("G\n  a0\n  a1\n").CheckOK();
  session->SetBound(61);
  session->Compress().ValueOrDie();
  ASSERT_FALSE(session->meta_vars().empty());
}

// The term-splitting fallback: with one dominant polynomial and more
// threads than scenario blocks, both scan engines split its term range and
// recover the value by a fixed-order reduction. The result must be
// deterministic (identical bits across repeated runs and across engines),
// tightly accurate against the sequential path, and strictly bit-identical
// again once splitting is disabled.
TEST(CompiledSessionTest, TermSplitFallbackDeterministicAndAccurate) {
  Session session;
  LoadDominantPolySession(&session);
  ScenarioSet scenarios;
  scenarios.Add("boom").ValueOrDie().Set("G", 1.25);
  scenarios.Add("mix").ValueOrDie().Set("G", 0.8).Set("z", 1.5);
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);
  auto snapshot = session.Snapshot().ValueOrDie();

  std::vector<BatchAssignReport> split_results;
  for (BatchOptions::Sweep sweep :
       {BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta}) {
    BatchOptions split;
    split.sweep = sweep;
    split.num_threads = 8;
    split.partition_min_terms = 1;
    split.split_min_terms = 8;
    BatchAssignReport a = snapshot->AssignBatch(scenarios, split).ValueOrDie();
    BatchAssignReport b = snapshot->AssignBatch(scenarios, split).ValueOrDie();
    // Witness that the fallback engaged: term slices raise the tile count
    // to (blocks × [ranges + slices]) ≥ 8, so all 8 workers get work —
    // without splitting this two-poly program caps at 2 ranges per block.
    EXPECT_EQ(a.num_threads, 8u);
    ASSERT_EQ(a.reports.size(), sequential.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
      const auto& ra = a.reports[i].delta.rows;
      const auto& rb = b.reports[i].delta.rows;
      ASSERT_EQ(ra.size(), sequential[i].rows.size());
      ASSERT_EQ(rb.size(), ra.size());
      for (std::size_t r = 0; r < ra.size(); ++r) {
        // Deterministic: repeated runs reproduce the same bits.
        EXPECT_EQ(ra[r].full, rb[r].full);
        EXPECT_EQ(ra[r].compressed, rb[r].compressed);
        // Accurate: the reduction may regroup additions, but only within a
        // tight relative tolerance of the sequential answer.
        const double want_full = sequential[i].rows[r].full;
        const double want_compressed = sequential[i].rows[r].compressed;
        EXPECT_NEAR(ra[r].full, want_full,
                    1e-9 * std::max(1.0, std::fabs(want_full)));
        EXPECT_NEAR(ra[r].compressed, want_compressed,
                    1e-9 * std::max(1.0, std::fabs(want_compressed)));
      }
    }
    split_results.push_back(std::move(a));

    BatchOptions nosplit = split;
    nosplit.split_min_terms = 0;
    ExpectBitIdentical(
        sequential, snapshot->AssignBatch(scenarios, nosplit).ValueOrDie());
  }

  // The blocked and scalar engines slice and reduce identically, so even
  // the split results agree bit for bit across engines.
  const auto& blocked = split_results[0];
  const auto& scalar = split_results[1];
  for (std::size_t i = 0; i < blocked.reports.size(); ++i) {
    const auto& rb = blocked.reports[i].delta.rows;
    const auto& rs = scalar.reports[i].delta.rows;
    ASSERT_EQ(rb.size(), rs.size());
    for (std::size_t r = 0; r < rb.size(); ++r) {
      EXPECT_EQ(rb[r].full, rs[r].full);
      EXPECT_EQ(rb[r].compressed, rs[r].compressed);
    }
  }
}

TEST(CompiledSessionTest, SnapshotSharesPoolAndFreezesItsSize) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  // Shared by pointer, not deep-copied (the old per-snapshot pool copy made
  // Snapshot() O(pool) even when nothing changed).
  EXPECT_EQ(&snapshot->pool(), &session.pool());
  EXPECT_EQ(snapshot->pool_size(), session.pool().size());

  // A variable interned after the snapshot resolves in the shared pool but
  // is outside the snapshot's frozen world: scenario compilation rejects it
  // instead of silently ignoring it.
  session.mutable_pool()->Intern("late_var");
  ScenarioSet scenarios;
  scenarios.Add("late").ValueOrDie().Set("late_var", 2.0);
  for (BatchOptions::Sweep sweep :
       {BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta}) {
    BatchOptions options;
    options.sweep = sweep;
    util::Result<BatchAssignReport> result =
        snapshot->AssignBatch(scenarios, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("after"), std::string::npos);
  }
}

TEST(CompiledSessionTest, LeafToMetaIndirectionCoversPool) {
  Session session;
  LoadExponentSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const std::vector<prov::VarId>& remap = snapshot->leaf_to_meta();
  ASSERT_GE(remap.size(), snapshot->pool().size());
  prov::VarId x = snapshot->pool().Find("x");
  prov::VarId g = snapshot->pool().Find("G");
  prov::VarId z = snapshot->pool().Find("z");
  ASSERT_NE(x, prov::kInvalidVar);
  ASSERT_NE(g, prov::kInvalidVar);
  ASSERT_NE(z, prov::kInvalidVar);
  EXPECT_EQ(remap[x], g);  // abstracted leaf points at its meta-variable
  EXPECT_EQ(remap[z], z);  // off-tree variable maps to itself
}

// The headline guarantee: one snapshot, shared by N threads with zero
// locks, each thread running batches and single assignments concurrently,
// reproduces the sequential Session results bit for bit. Run under
// ThreadSanitizer in CI.
TEST(CompiledSessionConcurrencyTest, ManyThreadsMatchSequential) {
  Session session;
  LoadPaperSession(&session);

  constexpr std::size_t kScenarios = 12;
  ScenarioSet scenarios;
  const std::vector<MetaVar>& meta = session.meta_vars();
  ASSERT_FALSE(meta.empty());
  for (std::size_t i = 0; i < kScenarios; ++i) {
    auto s = scenarios.Add("scenario-" + std::to_string(i)).ValueOrDie();
    s.Set(meta[i % meta.size()].name, 1.0 + 0.05 * static_cast<double>(i));
    s.Set(meta[(i + 1) % meta.size()].name,
          1.0 - 0.02 * static_cast<double>(i));
  }
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);

  std::shared_ptr<const CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 10;
  std::vector<std::vector<BatchAssignReport>> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      // Alternate sweep engines and thread counts across workers so the
      // blocked, sparse, adaptive and partitioned paths all run
      // concurrently.
      BatchOptions options;
      options.num_threads = 1 + t % 3;
      options.sweep = t % 3 == 0   ? BatchOptions::Sweep::kBlocked
                      : t % 3 == 1 ? BatchOptions::Sweep::kSparseDelta
                                   : BatchOptions::Sweep::kAuto;
      options.partition_min_terms = t % 4 == 0 ? 1 : 1024;
      for (std::size_t i = 0; i < kIterations; ++i) {
        results[t].push_back(
            snapshot->AssignBatch(scenarios, options).ValueOrDie());
      }
    });
  }
  for (std::thread& th : pool) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), kIterations);
    for (const BatchAssignReport& batch : results[t]) {
      ExpectBitIdentical(sequential, batch);
    }
  }
}

// The tiled scheduler with term splitting active (poly ranges + term slices
// + the post-join fixed-order reduction) must stay data-race-free and
// deterministic when many snapshot users run it concurrently. Run under
// ThreadSanitizer in CI.
TEST(CompiledSessionConcurrencyTest, SplitTiledSchedulerDeterministic) {
  Session session;
  LoadDominantPolySession(&session);
  ScenarioSet scenarios;
  scenarios.Add("boom").ValueOrDie().Set("G", 1.25);
  scenarios.Add("mix").ValueOrDie().Set("G", 0.8).Set("z", 1.5);
  auto snapshot = session.Snapshot().ValueOrDie();

  BatchOptions split;
  split.num_threads = 4;
  split.partition_min_terms = 1;
  split.split_min_terms = 8;
  const BatchAssignReport want =
      snapshot->AssignBatch(scenarios, split).ValueOrDie();

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kIterations = 8;
  std::vector<std::vector<BatchAssignReport>> results(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      BatchOptions options = split;
      options.sweep = t % 2 == 0 ? BatchOptions::Sweep::kBlocked
                                 : BatchOptions::Sweep::kSparseDelta;
      for (std::size_t i = 0; i < kIterations; ++i) {
        results[t].push_back(
            snapshot->AssignBatch(scenarios, options).ValueOrDie());
      }
    });
  }
  for (std::thread& th : pool) th.join();

  for (const std::vector<BatchAssignReport>& per_thread : results) {
    for (const BatchAssignReport& batch : per_thread) {
      ASSERT_EQ(batch.reports.size(), want.reports.size());
      for (std::size_t i = 0; i < want.reports.size(); ++i) {
        const auto& wr = want.reports[i].delta.rows;
        const auto& gr = batch.reports[i].delta.rows;
        ASSERT_EQ(gr.size(), wr.size());
        for (std::size_t r = 0; r < wr.size(); ++r) {
          EXPECT_EQ(gr[r].full, wr[r].full);
          EXPECT_EQ(gr[r].compressed, wr[r].compressed);
        }
      }
    }
  }
}

// Snapshots share the session's pool instead of copying it, so the one
// mutation the authoring side may perform concurrently — interning new
// names (e.g. the owning Database keeps loading data) — must be safe
// against serving reads. VarPool synchronizes internally; this test is the
// TSan witness for that contract.
TEST(CompiledSessionConcurrencyTest, ServingWhileAuthoringInterns) {
  Session session;
  LoadPaperSession(&session);
  ScenarioSet scenarios;
  scenarios.Add("boom").ValueOrDie().Set("Business", 1.25);
  scenarios.Add("slump").ValueOrDie().Set("Business", 0.8).Set("Special", 0.9);
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);
  auto snapshot = session.Snapshot().ValueOrDie();

  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kIterations = 12;
  std::vector<std::vector<BatchAssignReport>> results(kReaders);
  std::vector<std::thread> pool;
  pool.reserve(kReaders + 1);
  for (std::size_t t = 0; t < kReaders; ++t) {
    pool.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kIterations; ++i) {
        results[t].push_back(snapshot->AssignBatch(scenarios).ValueOrDie());
      }
    });
  }
  pool.emplace_back([&]() {
    // The writer grows the shared pool and reads it back while serving is
    // in flight. (Mutating the Session itself stays single-threaded, per
    // its contract — only the pool is shared.)
    for (int i = 0; i < 300; ++i) {
      prov::VarId id =
          session.mutable_pool()->Intern("late_" + std::to_string(i));
      ASSERT_NE(session.pool().Find("Business"), prov::kInvalidVar);
      ASSERT_EQ(session.pool().Name(id), "late_" + std::to_string(i));
    }
  });
  for (std::thread& th : pool) th.join();

  for (const std::vector<BatchAssignReport>& per_thread : results) {
    for (const BatchAssignReport& batch : per_thread) {
      ExpectBitIdentical(sequential, batch);
    }
  }
}

}  // namespace
}  // namespace cobra::core
