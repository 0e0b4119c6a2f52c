// Tests for the scenario algebra (core::ScenarioSource and its generator
// combinators) and the streaming sweep (CompiledSession::AssignStream):
// generators must be deterministic and chunking-invariant, streamed rows
// must be bit-identical to materializing the same prefix and running
// AssignBatch, and the top-k/threshold queries must prune work without
// changing the kept results.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "prov/parser.h"
#include "util/rng.h"
#include "verify/verify.h"

namespace cobra::core {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Lowered windows compare bit for bit: offsets, ids and value bits.
bool SameLowered(const LoweredScenarios& a, const LoweredScenarios& b) {
  if (a.offsets != b.offsets || a.overrides.size() != b.overrides.size()) {
    return false;
  }
  for (std::size_t o = 0; o < a.overrides.size(); ++o) {
    if (a.overrides[o].var != b.overrides[o].var ||
        !SameBits(a.overrides[o].value, b.overrides[o].value)) {
      return false;
    }
  }
  return true;
}

/// Entries compare bit for bit: index, name, metric and both rows.
bool SameEntries(const std::vector<StreamEntry>& a,
                 const std::vector<StreamEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].name != b[i].name ||
        !SameBits(a[i].metric, b[i].metric) ||
        a[i].full.size() != b[i].full.size() ||
        a[i].compressed.size() != b[i].compressed.size()) {
      return false;
    }
    for (std::size_t g = 0; g < a[i].full.size(); ++g) {
      if (!SameBits(a[i].full[g], b[i].full[g]) ||
          !SameBits(a[i].compressed[g], b[i].compressed[g])) {
        return false;
      }
    }
  }
  return true;
}

class ScenarioSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_.LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
    session_.SetTreeText(data::kFigure2TreeText).CheckOK();
    session_.SetBound(10);
    session_.Compress().ValueOrDie();
    snapshot_ = session_.Snapshot().ValueOrDie();
    for (const MetaVar& meta : snapshot_->meta_vars()) {
      meta_names_.push_back(meta.name);
    }
    ASSERT_GE(meta_names_.size(), 2u);
  }

  /// Streams `source` under kAll and captures every row, keyed by ordinal.
  struct StreamedRows {
    std::vector<std::vector<double>> full;
    std::vector<std::vector<double>> compressed;
    std::vector<std::string> names;
  };
  StreamedRows StreamAll(const ScenarioSource& source, BatchOptions batch) {
    StreamOptions options;
    options.batch = batch;
    StreamedRows rows;
    auto consumer = [&](const StreamBlockView& view) {
      for (std::size_t i = 0; i < view.count; ++i) {
        EXPECT_EQ(view.full_computed[i], 1);
        rows.full.emplace_back(view.full + i * view.num_groups,
                               view.full + (i + 1) * view.num_groups);
        rows.compressed.emplace_back(
            view.compressed + i * view.num_groups,
            view.compressed + (i + 1) * view.num_groups);
        rows.names.push_back((*view.names)[i]);
      }
      return true;
    };
    util::Result<SweepSummary> summary =
        snapshot_->AssignStream(source, options, consumer);
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->full_rows_skipped, 0u);
    return rows;
  }

  /// Bitwise row comparison against AssignBatch over a materialized set,
  /// both under the same options and under the single-threaded scalar
  /// engine (the reference every engine must reproduce).
  void ExpectBitIdenticalToBatch(const ScenarioSource& source,
                                 BatchOptions batch) {
    const StreamedRows streamed = StreamAll(source, batch);
    ScenarioSet materialized = source.Materialize().ValueOrDie();
    ASSERT_EQ(streamed.full.size(), materialized.size());
    BatchOptions scalar = batch;
    scalar.sweep = BatchOptions::Sweep::kSparseDelta;
    scalar.num_threads = 1;
    for (const BatchOptions& options : {batch, scalar}) {
      util::Result<BatchAssignReport> report =
          snapshot_->AssignBatch(materialized, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      for (std::size_t i = 0; i < materialized.size(); ++i) {
        const ResultDelta& delta = report->reports[i].delta;
        ASSERT_EQ(delta.rows.size(), streamed.full[i].size());
        EXPECT_EQ(streamed.names[i], materialized.scenario(i).name);
        for (std::size_t g = 0; g < delta.rows.size(); ++g) {
          EXPECT_TRUE(SameBits(streamed.full[i][g], delta.rows[g].full))
              << SweepName(options.sweep) << " scenario " << i << " group "
              << g;
          EXPECT_TRUE(
              SameBits(streamed.compressed[i][g], delta.rows[g].compressed))
              << SweepName(options.sweep) << " scenario " << i << " group "
              << g;
        }
      }
      ExpectEntriesMatchBatch(source, batch, materialized, *report);
    }
  }

  /// The entries kTopK and kThreshold queries keep equal the materialized
  /// batch's scenarios: index, name (asked of the source on demand), metric
  /// and both rows, bit for bit. Each query also runs with a consumer, whose
  /// per-window names then name the entries too.
  void ExpectEntriesMatchBatch(const ScenarioSource& source,
                               const BatchOptions& batch,
                               const ScenarioSet& materialized,
                               const BatchAssignReport& report) {
    const std::size_t n = materialized.size();
    std::vector<double> base_comp;
    snapshot_->compressed_program().Eval(snapshot_->default_meta_valuation(),
                                         &base_comp);
    std::vector<double> metrics(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<ResultDelta::Row>& rows = report.reports[i].delta.rows;
      for (std::size_t g = 0; g < rows.size(); ++g) {
        metrics[i] += std::abs(rows[g].compressed - base_comp[g]);
      }
    }
    auto expect_entry = [&](const StreamEntry& entry) {
      ASSERT_LT(entry.index, n);
      const std::size_t i = static_cast<std::size_t>(entry.index);
      EXPECT_EQ(entry.name, materialized.scenario(i).name);
      EXPECT_TRUE(SameBits(entry.metric, metrics[i])) << "scenario " << i;
      const std::vector<ResultDelta::Row>& rows = report.reports[i].delta.rows;
      ASSERT_EQ(entry.full.size(), rows.size());
      ASSERT_EQ(entry.compressed.size(), rows.size());
      for (std::size_t g = 0; g < rows.size(); ++g) {
        EXPECT_TRUE(SameBits(entry.full[g], rows[g].full)) << "scenario " << i;
        EXPECT_TRUE(SameBits(entry.compressed[g], rows[g].compressed))
            << "scenario " << i;
      }
    };

    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return metrics[a] > metrics[b];
                     });
    const StreamConsumer keep_going = [](const StreamBlockView&) {
      return true;
    };
    for (const StreamConsumer& consumer : {StreamConsumer{}, keep_going}) {
      SCOPED_TRACE(consumer ? "with a consumer" : "without a consumer");
      StreamOptions options;
      options.batch = batch;
      options.query.kind = StreamQuery::Kind::kTopK;
      options.query.k = 3;
      util::Result<SweepSummary> top =
          snapshot_->AssignStream(source, options, consumer);
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      ASSERT_EQ(top->entries.size(), std::min<std::size_t>(3, n));
      for (std::size_t r = 0; r < top->entries.size(); ++r) {
        EXPECT_EQ(top->entries[r].index, order[r]) << "rank " << r;
        expect_entry(top->entries[r]);
      }

      options.query.kind = StreamQuery::Kind::kThreshold;
      options.query.cutoff = metrics[order[n / 2]];
      util::Result<SweepSummary> kept =
          snapshot_->AssignStream(source, options, consumer);
      ASSERT_TRUE(kept.ok()) << kept.status().ToString();
      std::vector<std::size_t> matches;
      for (std::size_t i = 0; i < n; ++i) {
        if (metrics[i] >= options.query.cutoff) matches.push_back(i);
      }
      ASSERT_EQ(kept->entries.size(), matches.size());
      for (std::size_t e = 0; e < matches.size(); ++e) {
        EXPECT_EQ(kept->entries[e].index, matches[e]);
        expect_entry(kept->entries[e]);
      }
    }
  }

  Session session_;
  std::shared_ptr<const CompiledSession> snapshot_;
  std::vector<std::string> meta_names_;
};

TEST_F(ScenarioSourceTest, LinSpaceEndpointsAreExact) {
  const ValueAxis axis = LinSpace("v", 0.7, 1.3, 7);
  ASSERT_EQ(axis.values.size(), 7u);
  EXPECT_EQ(axis.values.front(), 0.7);  // exact, not lo + 6*(hi-lo)/6
  EXPECT_EQ(axis.values.back(), 1.3);
  const ValueAxis one = LinSpace("v", 0.5, 2.0, 1);
  ASSERT_EQ(one.values.size(), 1u);
  EXPECT_EQ(one.values[0], 0.5);
}

TEST_F(ScenarioSourceTest, CartesianEnumeratesLastAxisFastest) {
  auto source =
      CartesianSource::Create(
          {ValueAxis{"a", {1.0, 2.0}}, ValueAxis{"b", {10.0, 20.0, 30.0}}})
          .ValueOrDie();
  EXPECT_EQ(source->size(), 6u);
  EXPECT_EQ(source->max_deltas(), 2u);
  ScenarioSet set = source->Materialize().ValueOrDie();
  ASSERT_EQ(set.size(), 6u);
  // i = 4 decomposes as a=digit 1 (value 2.0), b=digit 1 (value 20.0).
  EXPECT_EQ(set.scenario(4).name, "grid-4");
  ASSERT_EQ(set.scenario(4).deltas.size(), 2u);
  EXPECT_EQ(set.scenario(4).deltas[0].var, "a");
  EXPECT_EQ(set.scenario(4).deltas[0].value, 2.0);
  EXPECT_EQ(set.scenario(4).deltas[1].var, "b");
  EXPECT_EQ(set.scenario(4).deltas[1].value, 20.0);
  // The b axis cycles fastest: consecutive scenarios step b, not a.
  EXPECT_EQ(set.scenario(0).deltas[1].value, 10.0);
  EXPECT_EQ(set.scenario(1).deltas[1].value, 20.0);
  EXPECT_EQ(set.scenario(2).deltas[1].value, 30.0);
}

TEST_F(ScenarioSourceTest, CartesianRejectsMalformedAxes) {
  EXPECT_FALSE(CartesianSource::Create({}).ok());
  EXPECT_FALSE(
      CartesianSource::Create({ValueAxis{"", {1.0}}}).ok());
  EXPECT_FALSE(CartesianSource::Create({ValueAxis{"a", {}}}).ok());
  EXPECT_FALSE(CartesianSource::Create(
                   {ValueAxis{"a", {1.0}}, ValueAxis{"a", {2.0}}})
                   .ok());
  EXPECT_FALSE(
      CartesianSource::Create(
          {ValueAxis{"a", {std::numeric_limits<double>::quiet_NaN()}}})
          .ok());
}

TEST_F(ScenarioSourceTest, SampledIsDeterministicAndChunkingInvariant) {
  auto source = SampledSource::Create({RangeAxis{"x", 0.5, 1.5},
                                       RangeAxis{"y", 0.9, 1.1}},
                                      100, /*seed=*/7)
                    .ValueOrDie();
  ScenarioSet whole;
  ASSERT_TRUE(source->Generate(0, 100, &whole).ok());
  // Same window again: bitwise identical.
  ScenarioSet again;
  ASSERT_TRUE(source->Generate(0, 100, &again).ok());
  // Ragged chunking: 100 = 33 + 33 + 34.
  ScenarioSet chunked;
  ASSERT_TRUE(source->Generate(0, 33, &chunked).ok());
  ASSERT_TRUE(source->Generate(33, 33, &chunked).ok());
  ASSERT_TRUE(source->Generate(66, 34, &chunked).ok());
  ASSERT_EQ(whole.size(), 100u);
  ASSERT_EQ(chunked.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    for (const ScenarioSet* other : {&again, &chunked}) {
      EXPECT_EQ(whole.scenario(i).name, other->scenario(i).name);
      ASSERT_EQ(whole.scenario(i).deltas.size(),
                other->scenario(i).deltas.size());
      for (std::size_t d = 0; d < whole.scenario(i).deltas.size(); ++d) {
        EXPECT_TRUE(SameBits(whole.scenario(i).deltas[d].value,
                             other->scenario(i).deltas[d].value));
      }
    }
    for (const Scenario::Delta& delta : whole.scenario(i).deltas) {
      EXPECT_GE(delta.value, 0.5);
      EXPECT_LE(delta.value, 1.5);
    }
  }
  // A different seed is a different spec: fingerprint and values change.
  auto reseeded = SampledSource::Create({RangeAxis{"x", 0.5, 1.5},
                                         RangeAxis{"y", 0.9, 1.1}},
                                        100, /*seed=*/8)
                      .ValueOrDie();
  EXPECT_NE(source->fingerprint(), reseeded->fingerprint());
}

TEST_F(ScenarioSourceTest, ConcatAndComposeEnumerate) {
  auto left = CartesianSource::Create({ValueAxis{"a", {1.0, 2.0}}}, "left")
                  .ValueOrDie();
  auto right =
      CartesianSource::Create({ValueAxis{"b", {5.0}}}, "right").ValueOrDie();
  auto cat = Concat({left, right}).ValueOrDie();
  EXPECT_EQ(cat->size(), 3u);
  ScenarioSet cat_set = cat->Materialize().ValueOrDie();
  EXPECT_EQ(cat_set.scenario(0).name, "left-0");
  EXPECT_EQ(cat_set.scenario(2).name, "right-0");
  // A window straddling the part boundary must agree with Materialize.
  ScenarioSet straddle;
  ASSERT_TRUE(cat->Generate(1, 2, &straddle).ok());
  EXPECT_EQ(straddle.scenario(0).name, "left-1");
  EXPECT_EQ(straddle.scenario(1).name, "right-0");

  auto composed = Compose(left, right).ValueOrDie();
  EXPECT_EQ(composed->size(), 2u);
  EXPECT_EQ(composed->max_deltas(), 2u);
  ScenarioSet comp_set = composed->Materialize().ValueOrDie();
  EXPECT_EQ(comp_set.scenario(1).name, "left-1+right-0");
  ASSERT_EQ(comp_set.scenario(1).deltas.size(), 2u);
  EXPECT_EQ(comp_set.scenario(1).deltas[0].var, "a");
  EXPECT_EQ(comp_set.scenario(1).deltas[0].value, 2.0);
  EXPECT_EQ(comp_set.scenario(1).deltas[1].var, "b");
}

TEST_F(ScenarioSourceTest, ExplicitSourceStreamMatchesAssignBatch) {
  ScenarioSet set;
  set.Reserve(3);
  set.Add("s0").ValueOrDie().Set(meta_names_[0], 1.2);
  set.Add("s1").ValueOrDie().Set(meta_names_[1], 0.8);
  set.Add("s2").ValueOrDie().Set(meta_names_[0], 0.9).Set(meta_names_[1],
                                                          1.1);
  auto source = ExplicitSource::Create(std::move(set)).ValueOrDie();
  BatchOptions batch;
  batch.stream_block_scenarios = 2;  // ragged: 2 + 1
  ExpectBitIdenticalToBatch(*source, batch);
}

// The tentpole property: for randomized generator specs, engines, thread
// counts and window sizes (around the 16-lane block boundaries, so chunks
// end in ragged blocks), the streamed rows and names, and the entries
// top-k and threshold queries keep, are bit-identical to materializing the
// source and running AssignBatch over it. The first trial of each source
// kind runs with `verify_plans`, so the first-window audit (lowering and
// names cross-checked against Generate) runs in release builds too.
TEST_F(ScenarioSourceTest, RandomizedStreamsBitIdenticalToMaterialized) {
  util::Rng rng(0xC0B7A);
  const BatchOptions::Sweep engines[] = {BatchOptions::Sweep::kAuto,
                                         BatchOptions::Sweep::kBlocked,
                                         BatchOptions::Sweep::kSparseDelta};
  const std::size_t threads[] = {1, 3, 8};
  const std::size_t windows[] = {1, 15, 16, 17, 31, 33};
  for (int trial = 0; trial < 12; ++trial) {
    // Random spec: a grid, a sample, or their concat/composition.
    const std::size_t steps = 2 + rng.NextU64() % 5;
    auto grid =
        CartesianSource::Create(
            {LinSpace(meta_names_[0], 0.8, 1.2, steps),
             LinSpace(meta_names_[1], 0.9, 1.1, 1 + rng.NextU64() % 3)},
            "g" + std::to_string(trial))
            .ValueOrDie();
    auto sampled =
        SampledSource::Create({RangeAxis{meta_names_[0], 0.7, 1.3}},
                              5 + rng.NextU64() % 20, rng.NextU64(),
                              "m" + std::to_string(trial))
            .ValueOrDie();
    std::shared_ptr<const ScenarioSource> source;
    switch (trial % 4) {
      case 0: source = grid; break;
      case 1: source = sampled; break;
      case 2: source = Concat({grid, sampled}).ValueOrDie(); break;
      default: source = Compose(sampled, grid).ValueOrDie(); break;
    }
    BatchOptions batch;
    batch.sweep = engines[trial % 3];
    batch.num_threads = threads[(trial / 3) % 3];
    batch.stream_block_scenarios = windows[rng.NextU64() % 6];
    // Term splitting slices one polynomial's sum differently for different
    // chunk geometries; disable it so the FP summation order is fixed.
    batch.split_min_terms = std::size_t{1} << 30;
    batch.verify_plans = trial < 4;
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectBitIdenticalToBatch(*source, batch);
  }
}

TEST_F(ScenarioSourceTest, ConsumerStopEndsStreamAfterPrefix) {
  auto source = CartesianSource::Create(
                    {LinSpace(meta_names_[0], 0.8, 1.2, 10)})
                    .ValueOrDie();
  StreamOptions options;
  options.batch.stream_block_scenarios = 3;
  std::size_t blocks_seen = 0;
  auto consumer = [&](const StreamBlockView& view) {
    ++blocks_seen;
    EXPECT_EQ(view.begin, (blocks_seen - 1) * 3u);
    return blocks_seen < 2;  // stop after the second block
  };
  SweepSummary summary =
      snapshot_->AssignStream(*source, options, consumer).ValueOrDie();
  EXPECT_TRUE(summary.stopped_early);
  EXPECT_EQ(blocks_seen, 2u);
  EXPECT_EQ(summary.scenarios, 6u);
  EXPECT_EQ(summary.chunks, 2u);
  EXPECT_EQ(summary.source_size, 10u);
}

TEST_F(ScenarioSourceTest, TopKMatchesFullRankingAndPrunes) {
  auto source = CartesianSource::Create(
                    {LinSpace(meta_names_[0], 0.5, 1.5, 16),
                     LinSpace(meta_names_[1], 0.5, 1.5, 16)})
                    .ValueOrDie();
  // Reference ranking from a full kAll stream.
  StreamOptions all;
  all.batch.stream_block_scenarios = 64;
  std::vector<double> metrics;
  auto capture = [&](const StreamBlockView& view) {
    metrics.insert(metrics.end(), view.metrics, view.metrics + view.count);
    return true;
  };
  snapshot_->AssignStream(*source, all, capture).ValueOrDie();
  ASSERT_EQ(metrics.size(), 256u);

  StreamOptions topk = all;
  topk.query.kind = StreamQuery::Kind::kTopK;
  topk.query.k = 5;
  SweepSummary summary =
      snapshot_->AssignStream(*source, topk).ValueOrDie();
  ASSERT_EQ(summary.entries.size(), 5u);
  // Expected: the 5 largest metrics, ties broken toward earlier ordinals.
  std::vector<std::size_t> order(metrics.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return metrics[a] > metrics[b];
                   });
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(summary.entries[i].index, order[i]) << "rank " << i;
    EXPECT_TRUE(SameBits(summary.entries[i].metric, metrics[order[i]]));
    EXPECT_FALSE(summary.entries[i].full.empty());
    EXPECT_FALSE(summary.entries[i].compressed.empty());
  }
  // Pruning must actually happen on a selective query over 256 scenarios.
  EXPECT_GT(summary.full_rows_skipped, 0u);
  EXPECT_EQ(summary.full_rows_computed + summary.full_rows_skipped, 256u);
}

TEST_F(ScenarioSourceTest, ThresholdMatchesFilterAndCapsEntries) {
  auto source = CartesianSource::Create(
                    {LinSpace(meta_names_[0], 0.5, 1.5, 32)})
                    .ValueOrDie();
  StreamOptions all;
  all.batch.stream_block_scenarios = 8;
  std::vector<double> metrics;
  auto capture = [&](const StreamBlockView& view) {
    metrics.insert(metrics.end(), view.metrics, view.metrics + view.count);
    return true;
  };
  SweepSummary base = snapshot_->AssignStream(*source, all, capture)
                          .ValueOrDie();
  const double cutoff = (base.metric_min + base.metric_max) / 2.0;
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (metrics[i] >= cutoff) expected.push_back(i);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), metrics.size());

  StreamOptions threshold = all;
  threshold.query.kind = StreamQuery::Kind::kThreshold;
  threshold.query.cutoff = cutoff;
  SweepSummary summary =
      snapshot_->AssignStream(*source, threshold).ValueOrDie();
  EXPECT_EQ(summary.matched, expected.size());
  ASSERT_EQ(summary.entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(summary.entries[i].index, expected[i]);
    EXPECT_FALSE(summary.entries[i].full.empty());
  }
  EXPECT_GT(summary.full_rows_skipped, 0u);

  // max_entries caps the materialized entries but not the match count.
  threshold.query.max_entries = 2;
  SweepSummary capped =
      snapshot_->AssignStream(*source, threshold).ValueOrDie();
  EXPECT_EQ(capped.matched, expected.size());
  ASSERT_EQ(capped.entries.size(), 2u);
  EXPECT_EQ(capped.entries[0].index, expected[0]);
  EXPECT_EQ(capped.entries[1].index, expected[1]);
}

TEST_F(ScenarioSourceTest, SampledSweepIsThreadCountInvariant) {
  auto source = SampledSource::Create(
                    {RangeAxis{meta_names_[0], 0.8, 1.2},
                     RangeAxis{meta_names_[1], 0.9, 1.1}},
                    64, /*seed=*/42)
                    .ValueOrDie();
  BatchOptions one;
  one.num_threads = 1;
  one.stream_block_scenarios = 16;
  one.split_min_terms = std::size_t{1} << 30;
  BatchOptions four = one;
  four.num_threads = 4;
  const StreamedRows a = StreamAll(*source, one);
  const StreamedRows b = StreamAll(*source, four);
  ASSERT_EQ(a.full.size(), b.full.size());
  for (std::size_t i = 0; i < a.full.size(); ++i) {
    EXPECT_EQ(a.names[i], b.names[i]);
    for (std::size_t g = 0; g < a.full[i].size(); ++g) {
      EXPECT_TRUE(SameBits(a.full[i][g], b.full[i][g]));
      EXPECT_TRUE(SameBits(a.compressed[i][g], b.compressed[i][g]));
    }
  }
}

TEST_F(ScenarioSourceTest, ZeroStreamWindowIsRejected) {
  auto source = CartesianSource::Create(
                    {LinSpace(meta_names_[0], 0.9, 1.1, 4)})
                    .ValueOrDie();
  StreamOptions options;
  options.batch.stream_block_scenarios = 0;
  util::Result<SweepSummary> result =
      snapshot_->AssignStream(*source, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("stream_block_scenarios"),
            std::string::npos);
}

TEST_F(ScenarioSourceTest, ScenarioSetReserveAndDuplicateRejection) {
  ScenarioSet set;
  set.Reserve(4);
  set.Add("a").ValueOrDie().Set("x", 1.0);
  util::Result<ScenarioSet::Handle> dup = set.Add("a");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(set.size(), 1u);
  // Clear() forgets the names too.
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.Add("a").ok());
}

// The lowering contract: for every source kind and random windows —
// ragged, and straddling Concat part and Compose outer boundaries — a
// source's Lower equals the shared lowering of its Generate output bit for
// bit, appending windows concatenates them, and Names equals the generated
// names. The grid and the sample list their axes in descending id order, so
// their native lowering must sort; the explicit set repeats a variable, so
// the last value must win.
TEST_F(ScenarioSourceTest, LoweringAndNamesMatchGenerateOnRandomWindows) {
  const VarResolver resolver = snapshot_->resolver();
  std::string high = meta_names_[0];
  std::string low = meta_names_[1];
  if (snapshot_->pool().Find(high) < snapshot_->pool().Find(low)) {
    std::swap(high, low);
  }
  ScenarioSet set;
  for (int i = 0; i < 21; ++i) {
    set.Add("e" + std::to_string(i))
        .ValueOrDie()
        .Set(high, 1.0 + 0.01 * i)
        .Set(low, 0.5)
        .Set(high, 0.9 - 0.001 * i);
  }
  std::shared_ptr<const ScenarioSource> explicit_source =
      ExplicitSource::Create(std::move(set)).ValueOrDie();
  std::shared_ptr<const ScenarioSource> grid =
      CartesianSource::Create(
          {LinSpace(high, 0.8, 1.2, 5), LinSpace(low, 0.9, 1.1, 3)}, "g")
          .ValueOrDie();
  std::shared_ptr<const ScenarioSource> sampled =
      SampledSource::Create(
          {RangeAxis{high, 0.7, 1.3}, RangeAxis{low, 0.9, 1.1}}, 23,
          /*seed=*/7, "m")
          .ValueOrDie();
  std::shared_ptr<const ScenarioSource> concat =
      Concat({grid, sampled, explicit_source}).ValueOrDie();
  std::shared_ptr<const ScenarioSource> compose =
      Compose(sampled, grid).ValueOrDie();

  // (source, windows that straddle its part boundaries)
  const std::vector<std::pair<std::shared_ptr<const ScenarioSource>,
                              std::vector<std::pair<std::uint64_t,
                                                    std::uint64_t>>>>
      cases = {
          {explicit_source, {{0, 21}, {20, 1}}},
          {grid, {{0, 15}, {4, 7}}},
          {sampled, {{0, 23}, {22, 1}}},
          {concat, {{13, 4}, {36, 3}, {14, 25}}},
          {compose, {{13, 4}, {29, 2}, {0, 31}}},
      };
  util::Rng rng(0x10E5);
  for (const auto& [source, boundary_windows] : cases) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows =
        boundary_windows;
    for (int trial = 0; trial < 24; ++trial) {
      const std::uint64_t begin = rng.NextU64() % (source->size() + 1);
      windows.emplace_back(begin,
                           rng.NextU64() % (source->size() - begin + 1));
    }
    for (const auto& [begin, count] : windows) {
      SCOPED_TRACE("window [" + std::to_string(begin) + ", +" +
                   std::to_string(count) + ") of " +
                   source->fingerprint().ToHex());
      ScenarioSet generated;
      ASSERT_TRUE(source->Generate(begin, count, &generated).ok());
      LoweredScenarios want;
      ASSERT_TRUE(
          LowerScenarios(generated.scenarios(), resolver, &want).ok());
      LoweredScenarios got;
      ASSERT_TRUE(source->Lower(begin, count, resolver, &got, nullptr).ok());
      EXPECT_TRUE(SameLowered(got, want));

      // Lower appends: two halves lowered into one buffer, and named into
      // one list, equal the whole.
      const std::uint64_t half = count / 2;
      LoweredScenarios halves;
      std::vector<std::string> lowered_names;
      ASSERT_TRUE(
          source->Lower(begin, half, resolver, &halves, &lowered_names).ok());
      ASSERT_TRUE(source
                      ->Lower(begin + half, count - half, resolver, &halves,
                              &lowered_names)
                      .ok());
      EXPECT_TRUE(SameLowered(halves, want));

      std::vector<std::string> names;
      ASSERT_TRUE(source->Names(begin, count, &names).ok());
      ASSERT_EQ(names.size(), generated.size());
      ASSERT_EQ(lowered_names.size(), generated.size());
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(names[i], generated.scenario(i).name);
        EXPECT_EQ(lowered_names[i], generated.scenario(i).name);
      }
    }
  }
}

// Lower and Names fail where Generate fails: out-of-range windows with the
// same status, and unknown or post-snapshot variables with the message the
// shared lowering gives, naming the variable — on the stream path too.
TEST_F(ScenarioSourceTest, LoweringAndNamesFailWhereGenerateFails) {
  const VarResolver resolver = snapshot_->resolver();
  session_.mutable_pool()->Intern("late_var");
  for (const std::string var : {"no_such_var", "late_var"}) {
    ScenarioSet set;
    set.Add("bad").ValueOrDie().Set(meta_names_[0], 1.1).Set(var, 2.0);
    std::shared_ptr<const ScenarioSource> explicit_source =
        ExplicitSource::Create(std::move(set)).ValueOrDie();
    std::shared_ptr<const ScenarioSource> grid =
        CartesianSource::Create(
            {LinSpace(meta_names_[0], 0.9, 1.1, 3), LinSpace(var, 0.5, 1.5, 2)},
            "g")
            .ValueOrDie();
    std::shared_ptr<const ScenarioSource> sampled =
        SampledSource::Create({RangeAxis{var, 0.5, 1.5}}, 5, /*seed=*/3, "m")
            .ValueOrDie();
    const std::shared_ptr<const ScenarioSource> sources[] = {
        explicit_source, grid, sampled, Concat({grid, sampled}).ValueOrDie(),
        Compose(sampled, grid).ValueOrDie()};
    for (const std::shared_ptr<const ScenarioSource>& source : sources) {
      SCOPED_TRACE(var + " in " + source->fingerprint().ToHex());
      const std::uint64_t size = source->size();
      for (const auto& [begin, count] :
           std::vector<std::pair<std::uint64_t, std::uint64_t>>{
               {size, 1}, {size + 1, 0}, {0, size + 1},
               {1, std::uint64_t{1} << 62}}) {
        ScenarioSet generated;
        LoweredScenarios lowered;
        std::vector<std::string> names;
        const util::Status generate =
            source->Generate(begin, count, &generated);
        const util::Status lower =
            source->Lower(begin, count, resolver, &lowered, &names);
        const util::Status named = source->Names(begin, count, &names);
        ASSERT_FALSE(generate.ok());
        EXPECT_EQ(lower.code(), generate.code());
        EXPECT_EQ(lower.message(), generate.message());
        EXPECT_EQ(named.code(), generate.code());
        EXPECT_EQ(named.message(), generate.message());
      }

      // An empty window lowers cleanly, as an empty generated window does.
      LoweredScenarios empty;
      EXPECT_TRUE(source->Lower(0, 0, resolver, &empty, nullptr).ok());
      EXPECT_EQ(empty.size(), 0u);

      ScenarioSet generated;
      ASSERT_TRUE(source->Generate(0, size, &generated).ok());
      LoweredScenarios want;
      const util::Status reference =
          LowerScenarios(generated.scenarios(), resolver, &want);
      LoweredScenarios got;
      const util::Status lower =
          source->Lower(0, size, resolver, &got, nullptr);
      ASSERT_FALSE(reference.ok());
      EXPECT_EQ(reference.code(), util::StatusCode::kInvalidArgument);
      EXPECT_EQ(lower.code(), reference.code());
      EXPECT_EQ(lower.message(), reference.message());
      EXPECT_NE(lower.message().find(var), std::string::npos)
          << lower.ToString();

      util::Result<SweepSummary> streamed = snapshot_->AssignStream(*source);
      ASSERT_FALSE(streamed.ok());
      EXPECT_EQ(streamed.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(streamed.status().message().find(var), std::string::npos)
          << streamed.status().ToString();
    }
  }
}

/// Wraps a source, passing Generate through and skewing one on-demand
/// output: a lowered value nudged by an ulp (always, or only when `Lower` is
/// asked for names), or the names from `Names` and `Lower`, or from `Lower`
/// alone.
class SkewedSource : public ScenarioSource {
 public:
  enum class Skew { kValue, kValueWhenNamed, kNames, kLowerNames };

  SkewedSource(std::shared_ptr<const ScenarioSource> inner, Skew skew)
      : inner_(std::move(inner)), skew_(skew) {}
  std::uint64_t size() const override { return inner_->size(); }
  std::size_t max_deltas() const override { return inner_->max_deltas(); }
  SourceFingerprint fingerprint() const override {
    return inner_->fingerprint();
  }
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override {
    return inner_->Generate(begin, count, out);
  }
  util::Status Lower(std::uint64_t begin, std::uint64_t count,
                     const VarResolver& resolver, LoweredScenarios* out,
                     std::vector<std::string>* names) const override {
    COBRA_RETURN_IF_ERROR(inner_->Lower(begin, count, resolver, out, names));
    const bool skew_value =
        skew_ == Skew::kValue ||
        (skew_ == Skew::kValueWhenNamed && names != nullptr);
    if (skew_value && !out->overrides.empty()) {
      out->overrides.back().value =
          std::nextafter(out->overrides.back().value, 2.0);
    }
    const bool skew_names =
        skew_ == Skew::kNames || skew_ == Skew::kLowerNames;
    if (skew_names && names != nullptr && !names->empty()) {
      names->back() += "'";
    }
    return util::Status::OK();
  }
  util::Status Names(std::uint64_t begin, std::uint64_t count,
                     std::vector<std::string>* out) const override {
    COBRA_RETURN_IF_ERROR(inner_->Names(begin, count, out));
    if (skew_ == Skew::kNames && !out->empty()) out->back() += "'";
    return util::Status::OK();
  }

 private:
  std::shared_ptr<const ScenarioSource> inner_;
  Skew skew_;
};

// The first-window audit runs on the lowered path and cross-checks it
// against Generate: a source whose lowering or names drift, on either
// entry point, is refused.
TEST_F(ScenarioSourceTest, StreamAuditRefusesDriftFromGenerate) {
  std::shared_ptr<const ScenarioSource> grid =
      CartesianSource::Create({LinSpace(meta_names_[0], 0.9, 1.1, 4),
                               LinSpace(meta_names_[1], 0.8, 1.2, 5)})
          .ValueOrDie();
  StreamOptions options;
  options.batch.verify_plans = true;
  options.batch.stream_block_scenarios = 8;
  EXPECT_TRUE(snapshot_->AssignStream(*grid, options).ok());

  using Skew = SkewedSource::Skew;
  const std::pair<Skew, const char*> cases[] = {
      {Skew::kValue, "does not match"},
      {Skew::kValueWhenNamed, "lowered the window differently"},
      {Skew::kNames, "on-demand name"},
      {Skew::kLowerNames, "from Lower differs"},
  };
  for (const auto& [skew, finding] : cases) {
    SCOPED_TRACE(finding);
    util::Result<SweepSummary> skewed =
        snapshot_->AssignStream(SkewedSource(grid, skew), options);
    ASSERT_FALSE(skewed.ok());
    EXPECT_EQ(skewed.status().code(), util::StatusCode::kInternal);
    EXPECT_NE(skewed.status().message().find(finding), std::string::npos)
        << skewed.status().ToString();
  }
}

// Streams and batches on one session, from 8 threads at once, all on the
// session's one shared default base state: every answer matches its
// single-threaded reference bit for bit, and every cached plan references
// that state. Run under ThreadSanitizer in CI.
TEST_F(ScenarioSourceTest, ConcurrentStreamsAndBatchesShareTheDefaultBase) {
  std::shared_ptr<const ScenarioSource> grid =
      CartesianSource::Create({LinSpace(meta_names_[0], 0.8, 1.2, 8),
                               LinSpace(meta_names_[1], 0.9, 1.1, 8)})
          .ValueOrDie();
  const ScenarioSet set = grid->Materialize().ValueOrDie();
  StreamOptions stream;
  stream.batch.num_threads = 2;
  stream.batch.stream_block_scenarios = 24;
  stream.batch.split_min_terms = std::size_t{1} << 30;
  stream.query.kind = StreamQuery::Kind::kTopK;
  stream.query.k = 4;
  BatchOptions batch = stream.batch;
  batch.sweep = BatchOptions::Sweep::kBlocked;

  const SweepSummary want_stream =
      snapshot_->AssignStream(*grid, stream).ValueOrDie();
  const BatchAssignReport want_batch =
      snapshot_->AssignBatch(set, batch).ValueOrDie();
  snapshot_->ClearPlanCache();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        if (t % 2 == 0) {
          util::Result<SweepSummary> got =
              snapshot_->AssignStream(*grid, stream);
          if (!got.ok() || !SameEntries(got->entries, want_stream.entries)) {
            ++mismatches;
          }
          continue;
        }
        util::Result<BatchAssignReport> got =
            snapshot_->AssignBatch(set, batch);
        if (!got.ok() || got->reports.size() != want_batch.reports.size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t i = 0; i < got->reports.size(); ++i) {
          const auto& a = got->reports[i].delta.rows;
          const auto& b = want_batch.reports[i].delta.rows;
          for (std::size_t g = 0; g < a.size(); ++g) {
            if (!SameBits(a[g].full, b[g].full) ||
                !SameBits(a[g].compressed, b[g].compressed)) {
              ++mismatches;
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const std::vector<std::shared_ptr<const BatchPlan>> plans =
      snapshot_->CachedPlanHandles();
  ASSERT_FALSE(plans.empty());
  for (const std::shared_ptr<const BatchPlan>& plan : plans) {
    EXPECT_EQ(plan->base_state(), snapshot_->default_base_state());
  }
}

// Hostile sources for the VerifySource audit. Each violates exactly one
// clause of the ScenarioSource contract.
class NanDeltaSource : public ScenarioSource {
 public:
  std::uint64_t size() const override { return 8; }
  std::size_t max_deltas() const override { return 1; }
  SourceFingerprint fingerprint() const override { return {1, 2}; }
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override {
    if (begin + count > size()) {
      return util::Status::InvalidArgument("window out of range");
    }
    for (std::uint64_t i = begin; i < begin + count; ++i) {
      out->Add("nan-" + std::to_string(i))
          .ValueOrDie()
          .Set("x", i == 3 ? std::numeric_limits<double>::quiet_NaN()
                           : 1.0);
    }
    return util::Status::OK();
  }
};

class NondeterministicSource : public ScenarioSource {
 public:
  std::uint64_t size() const override { return 8; }
  std::size_t max_deltas() const override { return 1; }
  SourceFingerprint fingerprint() const override { return {3, 4}; }
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override {
    if (begin + count > size()) {
      return util::Status::InvalidArgument("window out of range");
    }
    ++calls_;
    for (std::uint64_t i = begin; i < begin + count; ++i) {
      out->Add("nd-" + std::to_string(i))
          .ValueOrDie()
          .Set("x", static_cast<double>(calls_));
    }
    return util::Status::OK();
  }

 private:
  mutable int calls_ = 0;
};

class ChunkSkewedSource : public ScenarioSource {
 public:
  std::uint64_t size() const override { return 8; }
  std::size_t max_deltas() const override { return 1; }
  SourceFingerprint fingerprint() const override { return {5, 6}; }
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override {
    if (begin + count > size()) {
      return util::Status::InvalidArgument("window out of range");
    }
    for (std::uint64_t i = begin; i < begin + count; ++i) {
      // Depends on the window start, not the ordinal: chunking changes
      // the output, which VerifySource must catch.
      out->Add("cs-" + std::to_string(i))
          .ValueOrDie()
          .Set("x", static_cast<double>(begin) + 1.0);
    }
    return util::Status::OK();
  }
};

TEST_F(ScenarioSourceTest, VerifySourceCatchesContractViolations) {
  auto good = CartesianSource::Create(
                  {LinSpace(meta_names_[0], 0.9, 1.1, 5)})
                  .ValueOrDie();
  EXPECT_TRUE(verify::VerifySource(*good).ok());
  auto sampled = SampledSource::Create({RangeAxis{"x", 0.0, 1.0}}, 1000, 9)
                     .ValueOrDie();
  EXPECT_TRUE(verify::VerifySource(*sampled).ok());

  EXPECT_FALSE(verify::VerifySource(NanDeltaSource()).ok());
  EXPECT_FALSE(verify::VerifySource(NondeterministicSource()).ok());
  EXPECT_FALSE(verify::VerifySource(ChunkSkewedSource()).ok());

  // AssignStream runs the same audit at its trust boundary (always in
  // debug builds, via verify_plans in release).
  StreamOptions options;
  options.batch.verify_plans = true;
  util::Result<SweepSummary> result =
      snapshot_->AssignStream(NanDeltaSource(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(ScenarioSourceTest, FingerprintsDistinguishSpecs) {
  auto a = CartesianSource::Create({LinSpace("x", 0.9, 1.1, 5)})
               .ValueOrDie();
  auto b = CartesianSource::Create({LinSpace("x", 0.9, 1.1, 6)})
               .ValueOrDie();
  auto c = CartesianSource::Create({LinSpace("y", 0.9, 1.1, 5)})
               .ValueOrDie();
  EXPECT_EQ(a->fingerprint(), CartesianSource::Create(
                                  {LinSpace("x", 0.9, 1.1, 5)})
                                  .ValueOrDie()
                                  ->fingerprint());
  EXPECT_NE(a->fingerprint(), b->fingerprint());
  EXPECT_NE(a->fingerprint(), c->fingerprint());
  // Combinators fold their children's fingerprints.
  EXPECT_NE(Concat({a, b}).ValueOrDie()->fingerprint(),
            Concat({b, a}).ValueOrDie()->fingerprint());
  EXPECT_NE(Compose(a, b).ValueOrDie()->fingerprint(),
            Compose(b, a).ValueOrDie()->fingerprint());
}

}  // namespace
}  // namespace cobra::core
