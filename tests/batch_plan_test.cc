// Tests for the BatchPlan layer: the adaptive (kAuto) engine policy, the
// plan-once/execute-many split, and the fingerprint-keyed plan cache on
// CompiledSession — determinism across thread counts, bit-identity of kAuto
// against every explicit engine and of warm (cached) against cold plans,
// cache hit/miss semantics under scenario-set mutation, uniform BatchOptions
// validation, and an 8-thread concurrency hammer (run under TSan in CI).

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "util/rng.h"
#include "util/str.h"
#include "verify/verify.h"

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

void ExpectBatchBitIdentical(const BatchAssignReport& a,
                             const BatchAssignReport& b) {
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i].delta.rows;
    const auto& rb = b.reports[i].delta.rows;
    ASSERT_EQ(ra.size(), rb.size()) << "scenario " << i;
    for (std::size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra[r].full, rb[r].full) << "scenario " << i << " row " << r;
      EXPECT_EQ(ra[r].compressed, rb[r].compressed)
          << "scenario " << i << " row " << r;
    }
  }
}

// --------------------------------------------------------------- the policy

TEST(ChooseAutoEngineTest, TinyProgramsFallBackToSparse) {
  // Below the weight threshold the per-batch fixed costs dominate: sparse.
  EXPECT_EQ(ChooseAutoEngine(10, 1024, 2), BatchOptions::Sweep::kSparseDelta);
  // A single scenario has nothing to block with.
  EXPECT_EQ(ChooseAutoEngine(1u << 20, 1, 2),
            BatchOptions::Sweep::kSparseDelta);
  // BENCH_a6 measured blocked at 0.79x sparse for 64 scenarios: the batch
  // must be at least 128 scenarios deep before blocking pays for itself.
  EXPECT_EQ(ChooseAutoEngine(1u << 20, 64, 2),
            BatchOptions::Sweep::kSparseDelta);
  EXPECT_EQ(ChooseAutoEngine(1u << 20, 5, 2),
            BatchOptions::Sweep::kSparseDelta);
  // Wide override unions need a proportionally longer scan to amortize.
  EXPECT_EQ(ChooseAutoEngine(4096, 1024, 1000),
            BatchOptions::Sweep::kSparseDelta);
}

TEST(ChooseAutoEngineTest, LargeProgramsBlockAndSizeLanesByScenarioCount) {
  // The engine fixes the lane count (16 blocked, 1 scalar; see
  // PlansReportTheirLaneCountAndTheAoSLayout). From 128 scenarios up a
  // large program takes the 16-lane blocked kernel; one scenario fewer
  // stays on the 1-lane scalar engine.
  for (std::size_t n : {128u, 256u, 1024u}) {
    EXPECT_EQ(ChooseAutoEngine(1u << 20, n, 2),
              BatchOptions::Sweep::kBlocked)
        << n;
  }
  EXPECT_EQ(ChooseAutoEngine(1u << 20, 127, 2),
            BatchOptions::Sweep::kSparseDelta);
}

TEST(BatchPlanTest, AutoChoiceIsDeterministicAcrossThreadCounts) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 9);

  BatchOptions::Sweep engine{};
  std::size_t lanes = 0;
  bool first = true;
  for (std::size_t threads : {1u, 2u, 3u, 8u, 16u}) {
    BatchOptions options;
    options.num_threads = threads;
    auto plan = snapshot->PlanBatch(scenarios, options).ValueOrDie();
    EXPECT_NE(plan->engine(), BatchOptions::Sweep::kAuto);
    if (first) {
      engine = plan->engine();
      lanes = plan->lanes();
      first = false;
    } else {
      EXPECT_EQ(plan->engine(), engine) << "threads=" << threads;
      EXPECT_EQ(plan->lanes(), lanes) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------------------- bit-identity

TEST(BatchPlanTest, AutoBitIdenticalToEveryExplicitEngine) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 11);

  BatchAssignReport auto_batch = snapshot->AssignBatch(scenarios).ValueOrDie();
  EXPECT_NE(auto_batch.engine, BatchOptions::Sweep::kAuto);

  for (BatchOptions::Sweep sweep :
       {BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta}) {
    BatchOptions options;
    options.sweep = sweep;
    BatchAssignReport pinned =
        snapshot->AssignBatch(scenarios, options).ValueOrDie();
    EXPECT_EQ(pinned.engine, sweep);
    ExpectBatchBitIdentical(auto_batch, pinned);
  }
}

// ---------------------------------------------------------------- the cache

TEST(BatchPlanTest, ReplayHitsTheCacheAndReturnsTheSamePlan) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 6);

  CompiledSession::PlanCacheStats before = snapshot->plan_cache_stats();
  EXPECT_EQ(before.entries, 0u);

  bool hit = true;
  auto cold = snapshot->PlanBatch(scenarios, {}, &hit).ValueOrDie();
  EXPECT_FALSE(hit);
  auto warm = snapshot->PlanBatch(scenarios, {}, &hit).ValueOrDie();
  EXPECT_TRUE(hit);
  EXPECT_EQ(cold.get(), warm.get());  // literally the same compiled plan

  CompiledSession::PlanCacheStats after = snapshot->plan_cache_stats();
  EXPECT_EQ(after.entries, 1u);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses + 1);

  // AssignBatch reports the hit.
  BatchAssignReport replay = snapshot->AssignBatch(scenarios).ValueOrDie();
  EXPECT_TRUE(replay.plan_cache_hit);

  // The cached-plan table describes the entry.
  std::vector<CompiledSession::CachedPlanInfo> table = snapshot->CachedPlans();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].fingerprint, cold->fingerprint().ToHex());
  EXPECT_EQ(table[0].engine, cold->engine());
  EXPECT_EQ(table[0].lanes, cold->lanes());
  EXPECT_EQ(table[0].tiles, cold->num_tiles());
  EXPECT_EQ(table[0].scenarios, 6u);

  snapshot->ClearPlanCache();
  EXPECT_EQ(snapshot->plan_cache_stats().entries, 0u);
  BatchAssignReport recold = snapshot->AssignBatch(scenarios).ValueOrDie();
  EXPECT_FALSE(recold.plan_cache_hit);
  ExpectBatchBitIdentical(replay, recold);
}

TEST(BatchPlanTest, MutatingTheScenarioSetChangesTheFingerprint) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 4);

  PlanFingerprint original = FingerprintScenarios(scenarios);
  EXPECT_EQ(FingerprintScenarios(scenarios), original);  // content-stable

  bool hit = true;
  snapshot->PlanBatch(scenarios, {}, &hit).ValueOrDie();
  EXPECT_FALSE(hit);
  snapshot->PlanBatch(scenarios, {}, &hit).ValueOrDie();
  EXPECT_TRUE(hit);

  // Mutate after planning: a new delta must change the fingerprint and miss.
  const std::string meta_name = snapshot->meta_vars().front().name;
  scenarios.Add("late-addition").ValueOrDie().Set(meta_name, 0.5);
  EXPECT_NE(FingerprintScenarios(scenarios), original);
  snapshot->PlanBatch(scenarios, {}, &hit).ValueOrDie();
  EXPECT_FALSE(hit);

  // Changing one delta value (same shape) also re-fingerprints.
  ScenarioSet tweaked = MakeScenarios(*snapshot, 4);
  PlanFingerprint base_fp = FingerprintScenarios(tweaked);
  ScenarioSet tweaked2 = MakeScenarios(*snapshot, 4);
  tweaked2.Add(Scenario{"x", {{meta_name, 1.0}}});
  tweaked.Add(Scenario{"x", {{meta_name, 1.0000001}}});
  EXPECT_NE(FingerprintScenarios(tweaked), FingerprintScenarios(tweaked2));
  EXPECT_NE(FingerprintScenarios(tweaked), base_fp);

  // A different base valuation must not reuse the old plan either.
  ScenarioSet replay = MakeScenarios(*snapshot, 4);
  snapshot->PlanBatch(replay, {}, &hit).ValueOrDie();
  prov::Valuation other(snapshot->pool_size());
  for (std::size_t v = 0; v < snapshot->pool_size(); ++v) {
    other.Set(static_cast<prov::VarId>(v), 1.0);
  }
  other.Set(snapshot->meta_vars().front().var, 2.0);
  snapshot->PlanBatch(replay, other, {}, &hit).ValueOrDie();
  EXPECT_FALSE(hit);
}

// --------------------------------------------------------------- validation

TEST(BatchPlanTest, InvalidOptionsNameTheFieldAndAcceptedValues) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 3);

  BatchOptions bad_sweep;
  bad_sweep.sweep = static_cast<BatchOptions::Sweep>(99);
  util::Result<BatchAssignReport> r2 =
      snapshot->AssignBatch(scenarios, bad_sweep);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r2.status().message().find("BatchOptions.sweep"),
            std::string::npos);
  EXPECT_NE(r2.status().message().find("kAuto"), std::string::npos);

  // Validation happens at plan time: PlanBatch reports the same errors.
  EXPECT_FALSE(snapshot->PlanBatch(scenarios, bad_sweep).ok());
  EXPECT_FALSE(snapshot->PlanBatch(ScenarioSet(), BatchOptions()).ok());
}

// -------------------------------------------------------- lanes and layout

// The blocked kernel has one compiled width: every blocked plan runs 16
// lanes (a ragged tail pads up to it) and every scalar plan one. Both read
// the compiled programs' own arrays, so every plan and stream summary
// reports the AoS layout.
TEST(BatchPlanTest, PlansReportTheirLaneCountAndTheAoSLayout) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();

  for (std::size_t n : {1u, 15u, 16u, 17u, 31u, 33u}) {
    ScenarioSet scenarios = MakeScenarios(*snapshot, n);
    BatchOptions blocked;
    blocked.sweep = BatchOptions::Sweep::kBlocked;
    auto blocked_plan = snapshot->PlanBatch(scenarios, blocked).ValueOrDie();
    EXPECT_EQ(blocked_plan->lanes(), 16u) << n;
    EXPECT_EQ(blocked_plan->num_blocks(), (n + 15) / 16) << n;
    EXPECT_EQ(blocked_plan->block_rows().num_blocks(), (n + 15) / 16) << n;
    EXPECT_STREQ(prov::EvalLayoutName(blocked_plan->layout()), "AoS");

    BatchOptions sparse;
    sparse.sweep = BatchOptions::Sweep::kSparseDelta;
    auto sparse_plan = snapshot->PlanBatch(scenarios, sparse).ValueOrDie();
    EXPECT_EQ(sparse_plan->lanes(), 1u) << n;
    EXPECT_EQ(sparse_plan->num_blocks(), n) << n;
    EXPECT_EQ(sparse_plan->block_rows().num_blocks(), 0u) << n;
    EXPECT_STREQ(prov::EvalLayoutName(sparse_plan->layout()), "AoS");
  }

  auto source = ExplicitSource::Create(MakeScenarios(*snapshot, 17))
                    .ValueOrDie();
  for (BatchOptions::Sweep sweep :
       {BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta}) {
    StreamOptions options;
    options.batch.sweep = sweep;
    SweepSummary summary = snapshot->AssignStream(*source, options)
                               .ValueOrDie();
    EXPECT_EQ(summary.block_lanes,
              sweep == BatchOptions::Sweep::kBlocked ? 16u : 1u);
    EXPECT_STREQ(prov::EvalLayoutName(summary.layout), "AoS");
  }
}

// Lowering collapses a scenario's repeated variables with a stable sort and
// a last-value merge, so a scenario carrying tens of thousands of deltas
// plans in O(d log d). The lowered list must be sorted, duplicate-free and
// keep each variable's last value.
TEST(BatchPlanTest, WideScenarioLowersToSortedLastValueOverrides) {
  Session session;
  LoadPaperSession(&session);
  constexpr std::size_t kDistinct = 40000;
  std::vector<std::string> names;
  names.reserve(kDistinct);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    names.push_back("wide-" + std::to_string(i));
    session.mutable_pool()->Intern(names.back());
  }
  auto snapshot = session.Snapshot().ValueOrDie();

  // Every variable once, visited in a scrambled order (7919 is coprime to
  // kDistinct), with a repeat of an earlier variable after every third
  // delta; the repeat's value is the one that must survive.
  ScenarioSet scenarios;
  auto wide = scenarios.Add("wide").ValueOrDie();
  std::vector<double> want(kDistinct);
  for (std::size_t k = 0; k < kDistinct; ++k) {
    const std::size_t i = (k * 7919) % kDistinct;
    want[i] = 1.0 + static_cast<double>(i);
    wide.Set(names[i], want[i]);
    if (k % 3 == 2) {
      const std::size_t j = ((k - 1) * 7919) % kDistinct;
      want[j] = -want[j];
      wide.Set(names[j], want[j]);
    }
  }
  ASSERT_GT(scenarios.scenario(0).deltas.size(), kDistinct);

  auto plan = snapshot->PlanBatch(scenarios).ValueOrDie();
  const std::span<const prov::VarOverride> overrides =
      plan->core()->overrides(0);
  ASSERT_EQ(overrides.size(), kDistinct);
  for (std::size_t o = 0; o < overrides.size(); ++o) {
    if (o > 0) {
      ASSERT_LT(overrides[o - 1].var, overrides[o].var) << "entry " << o;
    }
    const std::string& name = snapshot->pool().Name(overrides[o].var);
    const std::size_t i = std::stoul(name.substr(name.find('-') + 1));
    EXPECT_EQ(overrides[o].value, want[i]) << name;
  }
}

TEST(BatchPlanTest, ExecuteRejectsAForeignPlan) {
  Session a;
  LoadPaperSession(&a);
  auto snapshot_a = a.Snapshot().ValueOrDie();
  Session b;
  LoadPaperSession(&b);
  auto snapshot_b = b.Snapshot().ValueOrDie();

  ScenarioSet scenarios = MakeScenarios(*snapshot_a, 2);
  auto plan = snapshot_a->PlanBatch(scenarios).ValueOrDie();
  EXPECT_TRUE(snapshot_a->Execute(*plan).ok());
  util::Result<BatchAssignReport> foreign = snapshot_b->Execute(*plan);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), util::StatusCode::kInvalidArgument);
}

// Cached plans reference their session weakly: a snapshot that ran
// AssignBatch (so its cache holds plans) must still be destroyed when the
// last external reference drops — a strong back-reference would be a
// shared_ptr cycle and every snapshot generation would leak.
TEST(BatchPlanTest, CachedPlansDoNotKeepTheSessionAlive) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(*snapshot, 4);
  auto plan = snapshot->PlanBatch(scenarios).ValueOrDie();
  EXPECT_EQ(snapshot->plan_cache_stats().entries, 1u);
  EXPECT_NE(plan->session(), nullptr);

  std::weak_ptr<const CompiledSession> weak = snapshot;
  snapshot.reset();
  session.SetBound(4);                // drop the Session's cached snapshot
  session.Compress().ValueOrDie();
  EXPECT_TRUE(weak.expired());        // the plan cache did not pin it
  EXPECT_EQ(plan->session(), nullptr);  // a held plan observes the loss
}

// The session builds its default base's shared state once: plans on the
// default base — through the default overloads or an explicit copy of the
// same valuation — reference it instead of copying the base, while another
// base gets a state of its own that still verifies bit for bit.
TEST(BatchPlanTest, DefaultBasePlansShareOneBaseState) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const std::shared_ptr<const BaseState>& shared =
      snapshot->default_base_state();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(&snapshot->default_meta_valuation(), &shared->values);

  BatchOptions options;
  options.sweep = BatchOptions::Sweep::kBlocked;
  const ScenarioSet a = MakeScenarios(*snapshot, 20);
  const ScenarioSet b = MakeScenarios(*snapshot, 3);
  auto by_default = snapshot->PlanBatch(a, options).ValueOrDie();
  auto by_copy =
      snapshot->PlanBatch(b, snapshot->default_meta_valuation(), options)
          .ValueOrDie();
  EXPECT_EQ(by_default->base_state(), shared);
  EXPECT_EQ(by_copy->base_state(), shared);

  prov::Valuation shifted = snapshot->default_meta_valuation();
  shifted.Set(snapshot->meta_vars().front().var, 2.0);
  auto other = snapshot->PlanBatch(a, shifted, options).ValueOrDie();
  EXPECT_NE(other->base_state(), shared);
  EXPECT_EQ(other->core(), by_default->core());
  const verify::VerifyReport report = verify::VerifyPlan(*other, *snapshot, &a);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// A state built for another base carries base sums only for a blocked plan,
// the one engine that reads them: a scalar plan on that base builds none,
// and both plans verify clean.
TEST(BatchPlanTest, ScalarPlansOnOtherBasesBuildNoProducts) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  prov::Valuation shifted = snapshot->default_meta_valuation();
  shifted.Set(snapshot->meta_vars().front().var, 2.0);
  const ScenarioSet a = MakeScenarios(*snapshot, 20);

  BatchOptions scalar;
  scalar.sweep = BatchOptions::Sweep::kSparseDelta;
  BatchOptions blocked;
  blocked.sweep = BatchOptions::Sweep::kBlocked;
  auto scalar_plan = snapshot->PlanBatch(a, shifted, scalar).ValueOrDie();
  auto blocked_plan = snapshot->PlanBatch(a, shifted, blocked).ValueOrDie();
  EXPECT_TRUE(scalar_plan->base_state()->full.products.empty());
  EXPECT_TRUE(scalar_plan->base_state()->compressed.products.empty());
  EXPECT_EQ(blocked_plan->base_state()->full.products.size(),
            snapshot->sweep_full_program().NumTerms());
  EXPECT_EQ(blocked_plan->base_state()->compressed.products.size(),
            snapshot->compressed_program().NumTerms());
  for (const auto& plan : {scalar_plan, blocked_plan}) {
    const verify::VerifyReport report =
        verify::VerifyPlan(*plan, *snapshot, &a);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

/// A random session for the block-program property test: polynomials whose
/// terms multiply at most one leaf of a two-node tree (the compressor's
/// single-tree rule) with up to two free variables, some squared, one
/// polynomial long enough to be term-split, compressed so that the leaves
/// merge into meta-variables.
void LoadRandomSession(util::Rng* rng, Session* session) {
  const char* const leaves[] = {"a0", "a1", "a2", "b0", "b1"};
  const char* const free_vars[] = {"z0", "z1", "z2"};
  auto factor = [&](const char* var) {
    return std::string(" * ") + var + (rng->NextBool(0.25) ? "^2" : "");
  };
  std::string text;
  const std::size_t polys = 2 + rng->NextBelow(3);
  for (std::size_t p = 0; p < polys; ++p) {
    text += "P" + std::to_string(p) + " = ";
    const std::size_t terms = p == 0 ? 40 : 1 + rng->NextBelow(8);
    for (std::size_t t = 0; t < terms; ++t) {
      if (t > 0) text += " + ";
      text += std::to_string(1 + rng->NextBelow(9)) + "." +
              std::to_string(rng->NextBelow(100));
      if (rng->NextBool(0.8)) {
        text += factor(leaves[rng->NextBelow(std::size(leaves))]);
      }
      const std::size_t extra = rng->NextBelow(3);
      for (std::size_t f = 0; f < extra; ++f) {
        text += factor(free_vars[rng->NextBelow(std::size(free_vars))]);
      }
    }
    text += "\n";
  }
  session->LoadPolynomialsText(text).CheckOK();
  session->SetTreeText("R\n  G\n    a0\n    a1\n    a2\n  H\n    b0\n    b1\n")
      .CheckOK();
  session->SetBound(1);
  session->Compress().ValueOrDie();
}

/// The scalar engine's row for `overrides` on `program` under `schedule`'s
/// split: the unsplit scan everywhere, and for a term-split polynomial its
/// slices' partials added in slice order from 0.0 — what every engine
/// computes for that schedule.
std::vector<double> ScalarRow(const prov::EvalProgram& program,
                              const ProgramSchedule& schedule,
                              const prov::Valuation& base,
                              std::span<const prov::VarOverride> overrides) {
  std::vector<double> row(program.NumPolys());
  program.EvalRangeWithOverrides(base, overrides.data(), overrides.size(), 0,
                                 row.size(), row.data());
  if (schedule.term_slices() > 0) {
    double sum = 0.0;
    for (std::size_t k = 0; k < schedule.term_slices(); ++k) {
      sum += program.EvalTermRangeWithOverrides(
          base, overrides.data(), overrides.size(), schedule.term_bounds[k],
          schedule.term_bounds[k + 1]);
    }
    row[schedule.split_poly] = sum;
  }
  return row;
}

// Randomized block programs through the whole planner, against the scalar
// scans bit for bit: random sessions (multi-factor terms, squared leaves
// the full side remaps to a repeated meta-variable, terms mixing overridden
// and untouched variables), random sets of 1-40 scenarios (so ragged tail
// blocks) that override meta-variables, free variables and merged leaves
// no program reads, and 1-4 threads with term-range slices forced on the
// long polynomial. Every row equals EvalRangeWithOverrides, with a split
// polynomial's slices reduced in slice order; a polynomial no override of
// the scenario reaches reads its base value.
TEST(BatchPlanTest, RandomizedBlockProgramsMatchTheScalarEngine) {
  util::Rng rng(0xB10C5EEDULL);
  std::size_t split_plans = 0;
  std::size_t base_valued_rows = 0;
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Session session;
    LoadRandomSession(&rng, &session);
    auto snapshot = session.Snapshot().ValueOrDie();
    std::vector<std::string> names = {"z0", "z1", "z2", "a0", "b1"};
    for (const MetaVar& meta : snapshot->meta_vars()) {
      names.push_back(meta.name);
    }
    ScenarioSet scenarios;
    const std::size_t n = 1 + rng.NextBelow(40);
    for (std::size_t i = 0; i < n; ++i) {
      auto handle = scenarios.Add("s" + std::to_string(i)).ValueOrDie();
      const std::size_t deltas = rng.NextBelow(4);
      for (std::size_t d = 0; d < deltas; ++d) {
        handle.Set(names[rng.NextBelow(names.size())],
                   rng.NextDoubleInRange(0.5, 1.5));
      }
    }
    const prov::EvalProgram& full_program = snapshot->sweep_full_program();
    const prov::Valuation& base = snapshot->default_meta_valuation();
    const std::vector<double>& base_full =
        snapshot->default_base_state()->full.values;
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      BatchOptions options;
      options.sweep = BatchOptions::Sweep::kBlocked;
      options.num_threads = threads;
      options.partition_min_terms = 1;
      options.split_min_terms = 4;
      auto plan = snapshot->PlanBatch(scenarios, options).ValueOrDie();
      const verify::VerifyReport report =
          verify::VerifyPlan(*plan, *snapshot, &scenarios);
      ASSERT_TRUE(report.ok()) << report.ToString();
      split_plans += plan->full_schedule().term_slices() > 0 ? 1 : 0;
      const BatchAssignReport got = snapshot->Execute(*plan).ValueOrDie();
      ASSERT_EQ(got.reports.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const prov::VarOverride> ov =
            plan->core()->overrides(i);
        const std::vector<double> full =
            ScalarRow(full_program, plan->full_schedule(), base, ov);
        const std::vector<double> compressed =
            ScalarRow(snapshot->compressed_program(),
                      plan->compressed_schedule(), base, ov);
        const std::vector<ResultDelta::Row>& rows = got.reports[i].delta.rows;
        ASSERT_EQ(rows.size(), full.size());
        for (std::size_t g = 0; g < rows.size(); ++g) {
          EXPECT_EQ(std::memcmp(&rows[g].full, &full[g], sizeof(double)), 0)
              << "scenario " << i << " group " << g << " threads " << threads;
          EXPECT_EQ(std::memcmp(&rows[g].compressed, &compressed[g],
                                sizeof(double)),
                    0)
              << "scenario " << i << " group " << g << " threads " << threads;
          // No override of this scenario reaches the group: its base value.
          const std::uint32_t first = full_program.poly_starts()[g];
          const std::uint32_t last = full_program.poly_starts()[g + 1];
          const bool reaches = std::any_of(
              ov.begin(), ov.end(), [&](const prov::VarOverride& o) {
                const std::span<const std::uint32_t> terms =
                    snapshot->sweep_full_term_index().Terms(o.var);
                return std::any_of(terms.begin(), terms.end(),
                                   [&](std::uint32_t t) {
                                     return t >= first && t < last;
                                   });
              });
          if (g != plan->full_schedule().split_poly && !reaches) {
            EXPECT_EQ(
                std::memcmp(&rows[g].full, &base_full[g], sizeof(double)), 0)
                << "scenario " << i << " group " << g;
            ++base_valued_rows;
          }
        }
      }
    }
  }
  EXPECT_GT(split_plans, 0u);
  EXPECT_GT(base_valued_rows, 0u);
}

// The blocks of a CartesianSource window all override the same variables,
// so they share one touched program per side; a block whose union differs
// by one variable gets its own, and so does the block after it.
TEST(BatchPlanTest, EqualUnionsShareOneTouchedProgram) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const std::vector<MetaVar>& meta = snapshot->meta_vars();
  ASSERT_GE(meta.size(), 3u);
  auto source = CartesianSource::Create({LinSpace(meta[0].name, 0.5, 1.5, 8),
                                         LinSpace(meta[1].name, 0.5, 1.5, 8)})
                    .ValueOrDie();
  BatchOptions options;
  options.sweep = BatchOptions::Sweep::kBlocked;
  auto stream = StreamPlan::Create(snapshot, *source, options).ValueOrDie();
  LoweredScenarios window;
  ASSERT_TRUE(
      source->Lower(0, 64, snapshot->resolver(), &window, nullptr).ok());
  auto core = stream->PlanChunk(window, 0).ValueOrDie();
  ASSERT_EQ(core->num_blocks(), 4u);
  for (const ProgramSchedule* side :
       {&core->full_schedule(), &core->compressed_schedule()}) {
    EXPECT_EQ(side->touched.num_programs(), 1u);
    EXPECT_EQ(side->touched.block_programs(),
              (std::vector<std::uint32_t>{0, 0, 0, 0}));
  }

  // Scenario 40 (block 2) also overrides a third variable.
  LoweredScenarios widened;
  for (std::size_t i = 0; i < window.size(); ++i) {
    for (const prov::VarOverride& ov : window.scenario(i)) {
      widened.overrides.push_back(ov);
    }
    if (i == 40) {
      widened.overrides.push_back({meta[2].var, 2.0});
      std::sort(widened.overrides.begin() +
                    static_cast<std::ptrdiff_t>(widened.offsets.back()),
                widened.overrides.end(),
                [](const prov::VarOverride& a, const prov::VarOverride& b) {
                  return a.var < b.var;
                });
    }
    widened.offsets.push_back(widened.overrides.size());
  }
  auto wide = PlanCore::Create(snapshot, std::move(widened), {}, options)
                  .ValueOrDie();
  for (const ProgramSchedule* side :
       {&wide->full_schedule(), &wide->compressed_schedule()}) {
    EXPECT_EQ(side->touched.block_programs(),
              (std::vector<std::uint32_t>{0, 0, 1, 2}));
  }
  const BatchAssignReport report =
      snapshot->Execute(*BatchPlan::FromParts(wide,
                                              snapshot->default_base_state()))
          .ValueOrDie();
  EXPECT_EQ(report.size(), 64u);
}

// A non-finite override is refused when a core is planned — from a
// ScenarioSet and from a source's lowered window alike — in every build,
// naming the scenario and the value.
TEST(BatchPlanTest, NonFiniteOverridesAreRefusedAtPlanning) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const std::string& var = snapshot->meta_vars().front().name;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ScenarioSet scenarios = MakeScenarios(*snapshot, 3);
    scenarios.Add("bad").ValueOrDie().Set(var, bad);
    util::Result<BatchAssignReport> batch = snapshot->AssignBatch(scenarios);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(batch.status().message().find("lowered scenario 3"),
              std::string::npos)
        << batch.status().message();
    EXPECT_NE(batch.status().message().find("non-finite"), std::string::npos)
        << batch.status().message();

    LoweredScenarios lowered;
    ASSERT_TRUE(LowerScenarios(scenarios.scenarios(), snapshot->resolver(),
                               &lowered)
                    .ok());
    util::Result<std::shared_ptr<const PlanCore>> core =
        PlanCore::Create(snapshot, std::move(lowered), {}, {});
    ASSERT_FALSE(core.ok());
    EXPECT_EQ(core.status().code(), util::StatusCode::kInvalidArgument);
  }
}

#ifdef __linux__
// `num_threads = 0` follows the calling thread's CPU mask: pinned to one
// CPU, a fresh plan and a stream both resolve to one worker. The mask is
// restored however the test ends.
TEST(BatchPlanTest, DefaultThreadsFollowTheCpuMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  struct RestoreMask {
    const cpu_set_t* mask;
    ~RestoreMask() { sched_setaffinity(0, sizeof(*mask), mask); }
  } restore{&saved};
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(DefaultSweepThreads(), 1u);

  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  BatchOptions options;
  options.num_threads = 0;
  auto plan =
      snapshot->PlanBatch(MakeScenarios(*snapshot, 40), options).ValueOrDie();
  EXPECT_EQ(plan->num_threads(), 1u);
  auto grid = CartesianSource::Create(
                  {LinSpace(snapshot->meta_vars().front().name, 0.5, 1.5, 40)})
                  .ValueOrDie();
  StreamOptions stream;
  stream.batch = options;
  EXPECT_EQ(snapshot->AssignStream(*grid, stream).ValueOrDie().num_threads, 1u);

  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(DefaultSweepThreads(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

// --------------------------------------------- randomized cold-vs-warm sweep

/// Random scenario sets over the paper session, sized around the 16-lane
/// block boundaries: for every engine (kAuto and the two explicit ones) and
/// 1, 3 and 8 threads, a cold plan (cache cleared), a warm replay (cached
/// plan) and a direct PlanBatch+Execute round must produce exactly the same
/// bits, and the blocked engine's ragged tails must match the scalar one.
TEST(BatchPlanTest, RandomizedColdAndWarmPlansAreBitIdentical) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();
  const std::vector<MetaVar>& meta = snapshot->meta_vars();
  ASSERT_FALSE(meta.empty());

  util::Rng rng(0xBA7C471AULL);
  const std::size_t kCounts[] = {1, 15, 16, 17, 31, 33};
  for (std::size_t iteration = 0; iteration < std::size(kCounts);
       ++iteration) {
    util::Rng it = rng.Fork(static_cast<std::uint64_t>(iteration));
    ScenarioSet scenarios;
    const std::size_t n = kCounts[iteration];
    for (std::size_t s = 0; s < n; ++s) {
      auto handle = scenarios.Add("s" + std::to_string(s)).ValueOrDie();
      const std::size_t overrides =
          static_cast<std::size_t>(it.NextInRange(0, 5));
      for (std::size_t o = 0; o < overrides; ++o) {
        handle.Set(meta[it.NextBelow(meta.size())].name,
                   it.NextDoubleInRange(0.5, 1.5));
      }
    }

    BatchAssignReport reference;
    bool have_reference = false;
    for (BatchOptions::Sweep sweep :
         {BatchOptions::Sweep::kAuto, BatchOptions::Sweep::kBlocked,
          BatchOptions::Sweep::kSparseDelta}) {
      for (std::size_t threads : {1u, 3u, 8u}) {
        BatchOptions options;
        options.sweep = sweep;
        if (it.NextBool(0.3)) options.partition_min_terms = 1;
        options.num_threads = threads;

        snapshot->ClearPlanCache();
        BatchAssignReport cold =
            snapshot->AssignBatch(scenarios, options).ValueOrDie();
        EXPECT_FALSE(cold.plan_cache_hit);
        BatchAssignReport warm =
            snapshot->AssignBatch(scenarios, options).ValueOrDie();
        EXPECT_TRUE(warm.plan_cache_hit);
        ExpectBatchBitIdentical(cold, warm);

        auto plan = snapshot->PlanBatch(scenarios, options).ValueOrDie();
        BatchAssignReport direct = snapshot->Execute(*plan).ValueOrDie();
        ExpectBatchBitIdentical(cold, direct);

        if (!have_reference) {
          reference = cold;
          have_reference = true;
        } else {
          ExpectBatchBitIdentical(reference, cold);
        }
      }
    }
  }
}

// ------------------------------------------------------------- concurrency

/// Eight threads hammer one snapshot's plan cache with overlapping scenario
/// sets — replays (shared-lock hits), novel sets (exclusive-lock inserts)
/// and periodic ClearPlanCache calls — while every result must stay
/// bit-identical to a single-threaded baseline. Run under ThreadSanitizer
/// in CI.
TEST(BatchPlanTest, PlanCacheConcurrentHammer) {
  Session session;
  LoadPaperSession(&session);
  auto snapshot = session.Snapshot().ValueOrDie();

  constexpr std::size_t kSets = 4;
  std::vector<ScenarioSet> sets;
  std::vector<BatchAssignReport> baselines;
  for (std::size_t i = 0; i < kSets; ++i) {
    sets.push_back(MakeScenarios(*snapshot, 3 + i * 2));
    baselines.push_back(snapshot->AssignBatch(sets[i]).ValueOrDie());
  }
  snapshot->ClearPlanCache();

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 24;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w]() {
      for (std::size_t i = 0; i < kIterations && !failed.load(); ++i) {
        const std::size_t which = (w + i) % kSets;
        if (w == 0 && i % 7 == 3) snapshot->ClearPlanCache();
        util::Result<BatchAssignReport> got =
            snapshot->AssignBatch(sets[which]);
        if (!got.ok()) {
          failed.store(true);
          break;
        }
        const BatchAssignReport& want = baselines[which];
        if (got->reports.size() != want.reports.size()) {
          failed.store(true);
          break;
        }
        for (std::size_t s = 0; s < want.reports.size(); ++s) {
          const auto& ra = got->reports[s].delta.rows;
          const auto& rb = want.reports[s].delta.rows;
          if (ra.size() != rb.size()) {
            failed.store(true);
            break;
          }
          for (std::size_t r = 0; r < ra.size(); ++r) {
            if (ra[r].full != rb[r].full ||
                ra[r].compressed != rb[r].compressed) {
              failed.store(true);
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_FALSE(failed.load());
  CompiledSession::PlanCacheStats stats = snapshot->plan_cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace cobra::core
