// Tests for the base-invariant plan split and the 2-D grid sweep:
// AssignGrid cells must be bit-identical to per-base AssignBatch calls for
// every engine, a warm same-scenario/different-base AssignBatch must reuse
// the cached PlanCore (core hit, no re-planning), the per-base plans beside
// a cached core must account hits/misses and stay bounded, and a grid sweep
// must not flush the serving cache's per-base plans. A randomized property
// test drives random bases through random scenario sets for every engine.

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "util/rng.h"

namespace cobra::core {
namespace {

void LoadPaperSession(Session* session) {
  session->LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session->SetTreeText(data::kFigure2TreeText).CheckOK();
  session->SetBound(10);
  session->Compress().ValueOrDie();
}

ScenarioSet MakeScenarios(const CompiledSession& snapshot, std::size_t n) {
  const std::vector<MetaVar>& meta = snapshot.meta_vars();
  EXPECT_FALSE(meta.empty());
  ScenarioSet set;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = set.Add("scenario-" + std::to_string(i)).ValueOrDie();
    s.Set(meta[i % meta.size()].name, 1.0 + 0.05 * static_cast<double>(i + 1));
    if (meta.size() > 1) {
      s.Set(meta[(i + 1) % meta.size()].name,
            1.0 - 0.02 * static_cast<double>(i + 1));
    }
  }
  return set;
}

// Pool-sized bases that perturb the meta variables (the compressed-side
// knobs a per-user base realistically moves), each distinct.
std::vector<prov::Valuation> MakeBases(const CompiledSession& snapshot,
                                       std::size_t count) {
  const std::vector<MetaVar>& meta = snapshot.meta_vars();
  std::vector<prov::Valuation> bases;
  bases.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    prov::Valuation base(snapshot.pool_size());
    for (std::size_t m = 0; m < meta.size(); ++m) {
      base.Set(meta[m].var,
               1.0 + 0.01 * static_cast<double>(b + 1) *
                         static_cast<double>(m + 1));
    }
    bases.push_back(std::move(base));
  }
  return bases;
}

void ExpectGridMatchesBatches(const CompiledSession& snapshot,
                              const GridAssignReport& grid,
                              const ScenarioSet& scenarios,
                              const std::vector<prov::Valuation>& bases,
                              const BatchOptions& options) {
  ASSERT_EQ(grid.num_bases, bases.size());
  for (std::size_t b = 0; b < bases.size(); ++b) {
    BatchAssignReport batch =
        snapshot.AssignBatch(scenarios, bases[b], options).ValueOrDie();
    ASSERT_EQ(batch.reports.size(), grid.num_scenarios()) << "base " << b;
    for (std::size_t s = 0; s < grid.num_scenarios(); ++s) {
      const auto& rows = batch.reports[s].delta.rows;
      ASSERT_EQ(rows.size(), grid.num_groups) << "base " << b;
      for (std::size_t g = 0; g < grid.num_groups; ++g) {
        EXPECT_EQ(grid.full_value(b, s, g), rows[g].full)
            << "base " << b << " scenario " << s << " group " << g;
        EXPECT_EQ(grid.compressed_value(b, s, g), rows[g].compressed)
            << "base " << b << " scenario " << s << " group " << g;
      }
    }
  }
}

// ------------------------------------------------------------- bit-identity

TEST(AssignGridTest, CellsBitIdenticalToPerBaseAssignBatchAcrossEngines) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 9);
  std::vector<prov::Valuation> bases = MakeBases(*snapshot, 5);

  for (BatchOptions::Sweep sweep :
       {BatchOptions::Sweep::kAuto, BatchOptions::Sweep::kBlocked,
        BatchOptions::Sweep::kSparseDelta}) {
    BatchOptions options;
    options.sweep = sweep;
    snapshot->ClearPlanCache();
    GridAssignReport grid =
        snapshot->AssignGrid(scenarios, bases, options).ValueOrDie();
    EXPECT_EQ(grid.num_bases, bases.size());
    EXPECT_EQ(grid.num_scenarios(), 9u);
    EXPECT_NE(grid.engine, BatchOptions::Sweep::kAuto);
    EXPECT_FALSE(grid.ToString().empty());
    ExpectGridMatchesBatches(*snapshot, grid, scenarios, bases, options);
  }
}

TEST(AssignGridTest, MultiThreadedGridIsBitIdenticalToSingleThreaded) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 13);
  std::vector<prov::Valuation> bases = MakeBases(*snapshot, 4);

  BatchOptions serial;
  serial.num_threads = 1;
  GridAssignReport one =
      snapshot->AssignGrid(scenarios, bases, serial).ValueOrDie();
  BatchOptions parallel;
  parallel.num_threads = 8;
  GridAssignReport many =
      snapshot->AssignGrid(scenarios, bases, parallel).ValueOrDie();
  ASSERT_EQ(one.full_values.size(), many.full_values.size());
  for (std::size_t c = 0; c < one.full_values.size(); ++c) {
    EXPECT_EQ(one.full_values[c], many.full_values[c]) << "cell " << c;
    EXPECT_EQ(one.compressed_values[c], many.compressed_values[c])
        << "cell " << c;
  }
  // The error aggregates reduce in fixed cell order: identical too.
  EXPECT_EQ(one.max_abs_error, many.max_abs_error);
  EXPECT_EQ(one.mean_abs_error, many.mean_abs_error);
}

TEST(AssignGridTest, EmptyBaseListIsRejected) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 2);
  util::Result<GridAssignReport> r =
      snapshot->AssignGrid(scenarios, std::span<const prov::Valuation>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

// ------------------------------------------------- core-plan cache reuse

// The acceptance check for the base-invariant split: re-planning the same
// scenario set under a DIFFERENT base must reuse the cached PlanCore (a
// core hit — only the base's state is built), not re-run full planning.
TEST(AssignGridTest, DifferentBaseReusesTheCachedPlanCore) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 8);
  std::vector<prov::Valuation> bases = MakeBases(*snapshot, 2);

  BatchAssignReport cold =
      snapshot->AssignBatch(scenarios, bases[0]).ValueOrDie();
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_FALSE(cold.plan_core_hit);
  CompiledSession::PlanCacheStats after_cold = snapshot->plan_cache_stats();
  EXPECT_EQ(after_cold.entries, 1u);
  EXPECT_EQ(after_cold.bases, 1u);
  EXPECT_EQ(after_cold.misses, 1u);
  EXPECT_EQ(after_cold.core_hits, 0u);

  // Same scenarios, different base: core hit, not a full cache hit (the
  // base's state had to be built).
  BatchAssignReport warm_core =
      snapshot->AssignBatch(scenarios, bases[1]).ValueOrDie();
  EXPECT_FALSE(warm_core.plan_cache_hit);
  EXPECT_TRUE(warm_core.plan_core_hit);
  CompiledSession::PlanCacheStats after_core = snapshot->plan_cache_stats();
  EXPECT_EQ(after_core.entries, 1u);  // same core entry, one more base
  EXPECT_EQ(after_core.bases, 2u);
  EXPECT_EQ(after_core.misses, 1u);  // no second full planning
  EXPECT_EQ(after_core.core_hits, 1u);

  // Same scenarios, same base again: full hit.
  BatchAssignReport warm_full =
      snapshot->AssignBatch(scenarios, bases[1]).ValueOrDie();
  EXPECT_TRUE(warm_full.plan_cache_hit);
  EXPECT_TRUE(warm_full.plan_core_hit);
  EXPECT_EQ(snapshot->plan_cache_stats().hits, after_core.hits + 1);

  // Both plans share the identical PlanCore object.
  bool hit = false;
  auto plan_a = snapshot->PlanBatch(scenarios, bases[0], {}, &hit).ValueOrDie();
  auto plan_b = snapshot->PlanBatch(scenarios, bases[1], {}, &hit).ValueOrDie();
  EXPECT_EQ(plan_a->core().get(), plan_b->core().get());
  EXPECT_NE(plan_a->base_state(), plan_b->base_state());

  // The cached-plan table reports the per-entry base count.
  std::vector<CompiledSession::CachedPlanInfo> table = snapshot->CachedPlans();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].bases, 2u);
}

TEST(AssignGridTest, OverlayCacheIsBoundedFifo) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 6);
  std::vector<prov::Valuation> bases = MakeBases(*snapshot, 12);

  for (const prov::Valuation& base : bases) {
    snapshot->AssignBatch(scenarios, base).ValueOrDie();
  }
  CompiledSession::PlanCacheStats stats = snapshot->plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);     // one core entry for the whole sweep
  EXPECT_LE(stats.bases, 8u);       // per-base plans FIFO-bounded per entry
  EXPECT_EQ(stats.misses, 1u);      // full planning ran exactly once
  EXPECT_EQ(stats.core_hits, 11u);  // every later base reused the core

  // The newest base is still cached (FIFO evicts the oldest): replaying it
  // is a full hit.
  BatchAssignReport replay =
      snapshot->AssignBatch(scenarios, bases.back()).ValueOrDie();
  EXPECT_TRUE(replay.plan_cache_hit);
  // The oldest was evicted: core hit only.
  BatchAssignReport evicted =
      snapshot->AssignBatch(scenarios, bases.front()).ValueOrDie();
  EXPECT_FALSE(evicted.plan_cache_hit);
  EXPECT_TRUE(evicted.plan_core_hit);
}

TEST(AssignGridTest, GridDoesNotFlushThePlanCache) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 6);
  std::vector<prov::Valuation> bases = MakeBases(*snapshot, 12);

  // A 12-base grid builds 11 base states locally; only the first base's
  // plan enters the cache, so a serving tier's per-base plans survive the
  // sweep.
  GridAssignReport grid =
      snapshot->AssignGrid(scenarios, bases).ValueOrDie();
  EXPECT_FALSE(grid.plan_cache_hit);
  EXPECT_FALSE(grid.plan_core_hit);
  CompiledSession::PlanCacheStats stats = snapshot->plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bases, 1u);

  // A second grid over the same scenarios: the first base's plan is a full
  // hit, and bases 1.. are still never inserted.
  GridAssignReport again =
      snapshot->AssignGrid(scenarios, bases).ValueOrDie();
  EXPECT_TRUE(again.plan_cache_hit);
  EXPECT_TRUE(again.plan_core_hit);
  EXPECT_EQ(snapshot->plan_cache_stats().bases, 1u);

  // A base a serving tier warmed through AssignBatch stays cached across a
  // grid sweep.
  snapshot->AssignBatch(scenarios, bases[1]).ValueOrDie();
  snapshot->AssignGrid(scenarios, bases).ValueOrDie();
  EXPECT_EQ(snapshot->plan_cache_stats().bases, 2u);
  bool hit = false;
  snapshot->PlanBatch(scenarios, bases[1], {}, &hit).ValueOrDie();
  EXPECT_TRUE(hit);
}

// --------------------------------------------------- randomized property

TEST(AssignGridTest, RandomizedBasesMatchPerBaseBatchesForEveryEngine) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const std::vector<MetaVar>& meta = snapshot->meta_vars();
  ASSERT_FALSE(meta.empty());

  util::Rng rng(0x6B1D5EEDULL);
  // Scenario counts around the 16-lane block boundaries: the blocked
  // engine's last block carries 1, 15 or 16 real lanes.
  const std::size_t kCounts[] = {1, 15, 16, 17, 31, 33};
  for (std::size_t iteration = 0; iteration < std::size(kCounts);
       ++iteration) {
    util::Rng it = rng.Fork(static_cast<std::uint64_t>(iteration));
    ScenarioSet scenarios;
    const std::size_t n = kCounts[iteration];
    for (std::size_t s = 0; s < n; ++s) {
      auto handle = scenarios.Add("s" + std::to_string(s)).ValueOrDie();
      const std::size_t overrides =
          static_cast<std::size_t>(it.NextInRange(0, 4));
      for (std::size_t o = 0; o < overrides; ++o) {
        handle.Set(meta[it.NextBelow(meta.size())].name,
                   it.NextDoubleInRange(0.5, 1.5));
      }
    }
    std::vector<prov::Valuation> bases;
    const std::size_t num_bases =
        static_cast<std::size_t>(it.NextInRange(1, 6));
    for (std::size_t b = 0; b < num_bases; ++b) {
      prov::Valuation base(snapshot->pool_size());
      const std::size_t moved = static_cast<std::size_t>(it.NextInRange(0, 4));
      for (std::size_t m = 0; m < moved; ++m) {
        base.Set(meta[it.NextBelow(meta.size())].var,
                 it.NextDoubleInRange(0.25, 2.0));
      }
      bases.push_back(std::move(base));
    }

    // Every engine at 1, 3 and 8 threads matches its per-base batches and
    // the single-threaded scalar grid, cell for cell.
    BatchOptions scalar;
    scalar.sweep = BatchOptions::Sweep::kSparseDelta;
    scalar.num_threads = 1;
    const GridAssignReport reference =
        snapshot->AssignGrid(scenarios, bases, scalar).ValueOrDie();
    for (BatchOptions::Sweep sweep :
         {BatchOptions::Sweep::kAuto, BatchOptions::Sweep::kBlocked,
          BatchOptions::Sweep::kSparseDelta}) {
      for (std::size_t threads : {1u, 3u, 8u}) {
        BatchOptions options;
        options.sweep = sweep;
        options.num_threads = threads;
        snapshot->ClearPlanCache();
        GridAssignReport grid =
            snapshot->AssignGrid(scenarios, bases, options).ValueOrDie();
        ExpectGridMatchesBatches(*snapshot, grid, scenarios, bases, options);
        ASSERT_EQ(grid.full_values.size(), reference.full_values.size());
        for (std::size_t c = 0; c < grid.full_values.size(); ++c) {
          EXPECT_EQ(grid.full_values[c], reference.full_values[c])
              << SweepName(sweep) << " threads " << threads << " cell " << c;
          EXPECT_EQ(grid.compressed_values[c],
                    reference.compressed_values[c])
              << SweepName(sweep) << " threads " << threads << " cell " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cobra::core
