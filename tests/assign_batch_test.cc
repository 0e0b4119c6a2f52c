// Tests for ScenarioSet and the batched assignment engine: AssignBatch over
// N scenarios must be result-identical to N sequential Assign() calls, on
// both the full and the compressed provenance, in single- and multi-tree
// mode, and regardless of the thread count.

#include <gtest/gtest.h>

#include <vector>

#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "data/telephony.h"
#include "prov/parser.h"

namespace cobra::core {
namespace {

class AssignBatchTest : public ::testing::Test {
 protected:
  void Load(Session* session) {
    session->LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
    session->SetTreeText(data::kFigure2TreeText).CheckOK();
  }

  /// Builds `n` scenarios that each perturb one or two of the session's
  /// meta-variables by a scenario-specific factor.
  ScenarioSet MakeScenarios(const Session& session, std::size_t n) {
    const std::vector<MetaVar>& meta = session.meta_vars();
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

  /// Runs each scenario through the sequential path: reset to defaults,
  /// apply the deltas, Assign(). Returns the per-scenario deltas.
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

  void ExpectIdentical(const std::vector<ResultDelta>& sequential,
                       const BatchAssignReport& batch) {
    ASSERT_EQ(batch.reports.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      const ResultDelta& want = sequential[i];
      const ResultDelta& got = batch.reports[i].delta;
      ASSERT_EQ(got.rows.size(), want.rows.size()) << "scenario " << i;
      for (std::size_t r = 0; r < want.rows.size(); ++r) {
        EXPECT_EQ(got.rows[r].label, want.rows[r].label);
        EXPECT_DOUBLE_EQ(got.rows[r].full, want.rows[r].full)
            << "scenario " << i << " row " << r;
        EXPECT_DOUBLE_EQ(got.rows[r].compressed, want.rows[r].compressed)
            << "scenario " << i << " row " << r;
      }
      EXPECT_DOUBLE_EQ(got.max_abs_error, want.max_abs_error);
      EXPECT_DOUBLE_EQ(got.max_rel_error, want.max_rel_error);
    }
  }
};

TEST_F(AssignBatchTest, MatchesSequentialAssignSingleTree) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();

  ScenarioSet scenarios = MakeScenarios(session, 8);
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);
  BatchAssignReport batch = session.AssignBatch(scenarios).ValueOrDie();

  EXPECT_EQ(batch.scenario_names.size(), 8u);
  EXPECT_EQ(batch.scenario_names[0], "scenario-0");
  EXPECT_GE(batch.num_threads, 1u);
  ExpectIdentical(sequential, batch);
  // Sizes mirror the single-scenario report.
  EXPECT_EQ(batch.reports[0].full_size, session.full().TotalMonomials());
  EXPECT_EQ(batch.reports[0].compressed_size,
            session.compressed().TotalMonomials());
}

TEST_F(AssignBatchTest, MatchesSequentialAssignMultiTree) {
  Session session;
  std::string text = "P = ";
  int c = 1;
  for (const char* plan : {"b1", "b2", "e", "p1"}) {
    for (int m = 1; m <= 6; ++m) {
      if (c > 1) text += " + ";
      text += std::to_string(c++) + " * " + plan + " * m" + std::to_string(m);
    }
  }
  text += "\n";
  session.LoadPolynomialsText(text).CheckOK();
  std::vector<AbstractionTree> trees;
  trees.push_back(
      ParseTree(data::kFigure2TreeText, session.mutable_pool()).ValueOrDie());
  trees.push_back(
      ParseTree(data::MonthQuarterTreeText(6), session.mutable_pool())
          .ValueOrDie());
  session.SetTrees(std::move(trees)).CheckOK();
  session.SetBound(8);
  session.Compress().ValueOrDie();

  ScenarioSet scenarios = MakeScenarios(session, 5);
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, scenarios);
  BatchAssignReport batch = session.AssignBatch(scenarios).ValueOrDie();
  ExpectIdentical(sequential, batch);
}

TEST_F(AssignBatchTest, ThreadCountDoesNotChangeResults) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(session, 17);

  BatchOptions one;
  one.num_threads = 1;
  BatchOptions four;
  four.num_threads = 4;
  four.sweep = BatchOptions::Sweep::kSparseDelta;  // 17 scalar tasks
  BatchOptions blocks;
  blocks.num_threads = 4;
  blocks.sweep = BatchOptions::Sweep::kBlocked;  // 17 scenarios -> 2 blocks
  BatchAssignReport a = session.AssignBatch(scenarios, one).ValueOrDie();
  BatchAssignReport b = session.AssignBatch(scenarios, four).ValueOrDie();
  BatchAssignReport c = session.AssignBatch(scenarios, blocks).ValueOrDie();
  EXPECT_EQ(a.num_threads, 1u);
  EXPECT_EQ(b.num_threads, 4u);  // clamped to 17 scenario tasks, 4 < 17
  EXPECT_EQ(c.num_threads, 2u);  // clamped to 2 scenario blocks
  ASSERT_EQ(a.reports.size(), b.reports.size());
  ASSERT_EQ(a.reports.size(), c.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i].delta.rows;
    const auto& rb = b.reports[i].delta.rows;
    const auto& rc = c.reports[i].delta.rows;
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_EQ(ra.size(), rc.size());
    for (std::size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra[r].full, rb[r].full);
      EXPECT_EQ(ra[r].compressed, rb[r].compressed);
      EXPECT_EQ(ra[r].full, rc[r].full);
      EXPECT_EQ(ra[r].compressed, rc[r].compressed);
    }
  }
}

TEST_F(AssignBatchTest, BatchLeavesSessionMetaValuationUntouched) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();
  std::vector<double> before = session.meta_valuation().values();

  ScenarioSet scenarios = MakeScenarios(session, 4);
  session.AssignBatch(scenarios).ValueOrDie();
  EXPECT_EQ(session.meta_valuation().values(), before);
}

TEST_F(AssignBatchTest, UnknownVariableNamesTheScenario) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();

  ScenarioSet scenarios;
  scenarios.Add("bad-scenario").ValueOrDie().Set("no_such_var", 2.0);
  util::Result<BatchAssignReport> result = session.AssignBatch(scenarios);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("bad-scenario"),
            std::string::npos);
}

TEST_F(AssignBatchTest, PreconditionsEnforced) {
  Session session;
  ScenarioSet scenarios;
  scenarios.Add("s");
  EXPECT_EQ(session.AssignBatch(scenarios).status().code(),
            util::StatusCode::kFailedPrecondition);

  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();
  EXPECT_EQ(session.AssignBatch(ScenarioSet()).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(AssignBatchTest, RecompressionRefreshesCachedPrograms) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(session, 3);
  BatchAssignReport loose = session.AssignBatch(scenarios).ValueOrDie();

  // Recompress under a tighter bound: the cached compressed program must be
  // rebuilt, and the new reports must reflect the smaller size.
  session.SetBound(4);
  session.Compress().ValueOrDie();
  ScenarioSet tighter = MakeScenarios(session, 3);
  BatchAssignReport tight = session.AssignBatch(tighter).ValueOrDie();
  EXPECT_LT(tight.reports[0].compressed_size, loose.reports[0].compressed_size);
  EXPECT_EQ(tight.reports[0].compressed_size,
            session.compressed().TotalMonomials());

  // And sequential Assign() agrees with the batch after the swap too.
  std::vector<ResultDelta> sequential = SequentialDeltas(&session, tighter);
  ExpectIdentical(sequential, tight);
}

TEST_F(AssignBatchTest, DuplicateScenarioNamesRejectedAtAddTime) {
  // Duplicates are now refused at the authoring seam, before any planning:
  // the set stays duplicate-free by construction.
  ScenarioSet scenarios;
  scenarios.Add("twin").ValueOrDie().Set("Business", 1.1);
  scenarios.Add("other").ValueOrDie().Set("Business", 0.9);
  util::Result<ScenarioSet::Handle> dup = scenarios.Add("twin");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("twin"), std::string::npos);
  EXPECT_EQ(scenarios.size(), 2u);

  // The Scenario overload enforces the same invariant.
  util::Result<ScenarioSet::Handle> dup2 =
      scenarios.Add(Scenario{"other", {{"Business", 1.2}}});
  ASSERT_FALSE(dup2.ok());
  EXPECT_EQ(dup2.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(scenarios.size(), 2u);
}

// The old Add(std::string) returned a Scenario& into the backing vector,
// which the next Add() could dangle. The handle resolves through the set,
// so chaining Set() after later Add() calls must land on the right
// scenario.
TEST_F(AssignBatchTest, AddHandleStaysValidAcrossLaterAdds) {
  ScenarioSet set;
  auto first = set.Add("first").ValueOrDie();
  // Force reallocation of the scenario vector.
  for (int i = 0; i < 100; ++i) {
    set.Add("filler-" + std::to_string(i)).ValueOrDie().Set("Business", 1.0);
  }
  first.Set("Business", 1.25).Set("Special", 0.75);

  ASSERT_EQ(set.scenario(0).name, "first");
  ASSERT_EQ(set.scenario(0).deltas.size(), 2u);
  EXPECT_EQ(set.scenario(0).deltas[0].var, "Business");
  EXPECT_DOUBLE_EQ(set.scenario(0).deltas[0].value, 1.25);
  EXPECT_EQ(set.scenario(0).deltas[1].var, "Special");
  EXPECT_DOUBLE_EQ(set.scenario(0).deltas[1].value, 0.75);
  EXPECT_EQ(first.index(), 0u);
}

// The dense-copy reference is a loop of per-scenario Assign() calls on the
// snapshot: copy the default valuation, apply the deltas in order, expand
// and evaluate both programs densely. The sparse engine must match it bit
// for bit.
TEST_F(AssignBatchTest, DenseCopySweepMatchesSparseBitForBit) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(session, 9);
  // A repeated delta on one variable: last value must win in both paths.
  scenarios.Add("repeat").ValueOrDie().Set("Business", 1.4).Set("Business", 0.6);

  std::shared_ptr<const CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  BatchOptions sparse;
  sparse.sweep = BatchOptions::Sweep::kSparseDelta;
  BatchAssignReport batch =
      snapshot->AssignBatch(scenarios, sparse).ValueOrDie();
  ASSERT_EQ(batch.reports.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    prov::Valuation meta = snapshot->default_meta_valuation();
    for (const Scenario::Delta& delta : scenarios.scenario(i).deltas) {
      meta.Set(snapshot->pool().Find(delta.var), delta.value);
    }
    const ResultDelta want = snapshot->Assign(meta, 1).ValueOrDie().delta;
    const auto& got = batch.reports[i].delta.rows;
    ASSERT_EQ(got.size(), want.rows.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].full, want.rows[r].full)
          << "scenario " << i << " row " << r;
      EXPECT_EQ(got[r].compressed, want.rows[r].compressed)
          << "scenario " << i << " row " << r;
    }
  }
}

TEST_F(AssignBatchTest, IntraProgramPartitioningDoesNotChangeResults) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();
  // Fewer scenarios than threads forces the program to be split into
  // polynomial ranges; partition_min_terms=1 makes even the tiny example
  // program partitionable.
  ScenarioSet scenarios = MakeScenarios(session, 2);

  BatchOptions serial;
  serial.num_threads = 1;
  BatchOptions partitioned;
  partitioned.num_threads = 8;
  partitioned.partition_min_terms = 1;
  BatchAssignReport a = session.AssignBatch(scenarios, serial).ValueOrDie();
  BatchAssignReport b =
      session.AssignBatch(scenarios, partitioned).ValueOrDie();
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i].delta.rows;
    const auto& rb = b.reports[i].delta.rows;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra[r].full, rb[r].full);
      EXPECT_EQ(ra[r].compressed, rb[r].compressed);
    }
  }
}

TEST_F(AssignBatchTest, ReportRendersSummary) {
  Session session;
  Load(&session);
  session.SetBound(10);
  session.Compress().ValueOrDie();
  ScenarioSet scenarios = MakeScenarios(session, 4);
  BatchAssignReport batch = session.AssignBatch(scenarios).ValueOrDie();
  std::string text = batch.ToString(2, 2);
  EXPECT_NE(text.find("4 scenarios"), std::string::npos);
  EXPECT_NE(text.find("scenario-0"), std::string::npos);
  EXPECT_NE(text.find("more scenarios"), std::string::npos);
}

}  // namespace
}  // namespace cobra::core
