// Tests for serializable serving snapshots (core/io SnapshotPackage +
// CompiledSession::FromSnapshot): round trips must reconstruct a serving
// session with zero recompilation and bit-identical Assign/AssignBatch
// results; malformed files and inconsistent packages must fail with
// descriptive Statuses instead of aborting or misbehaving.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_session.h"
#include "core/io.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "prov/eval_program.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/str.h"

namespace cobra::core {
namespace {

/// Bitwise equality of two doubles — stricter than ==, which would let
/// +0.0 pass for -0.0.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Asserts every result double of two batched reports is bit-identical.
void ExpectBatchBitIdentical(const BatchAssignReport& origin,
                             const BatchAssignReport& replica) {
  ASSERT_EQ(origin.reports.size(), replica.reports.size());
  for (std::size_t i = 0; i < origin.reports.size(); ++i) {
    const auto& a = origin.reports[i].delta.rows;
    const auto& b = replica.reports[i].delta.rows;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(a[r].label, b[r].label);
      EXPECT_TRUE(SameBits(a[r].full, b[r].full))
          << "scenario " << i << " row " << r << ": " << a[r].full << " vs "
          << b[r].full;
      EXPECT_TRUE(SameBits(a[r].compressed, b[r].compressed))
          << "scenario " << i << " row " << r;
    }
  }
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
  scenarios.Add("leafy").ValueOrDie().Set("p1", 0.7).Set("m3", 1.1);
  return scenarios;
}

TEST(SnapshotTest, PackageRoundTripIsBitIdentical) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);

  SnapshotPackage package = MakeSnapshot(*origin);
  std::string encoded = SerializeSnapshot(package);
  SnapshotPackage decoded =
      ParseSnapshot(encoded, "<memory>").ValueOrDie();
  std::shared_ptr<const CompiledSession> replica =
      CompiledSession::FromSnapshot(decoded).ValueOrDie();

  // The replica reproduces the frozen world exactly.
  EXPECT_EQ(replica->pool_size(), origin->pool_size());
  EXPECT_EQ(replica->labels(), origin->labels());
  EXPECT_EQ(replica->full_size(), origin->full_size());
  EXPECT_EQ(replica->compressed_size(), origin->compressed_size());
  EXPECT_EQ(replica->leaf_to_meta(), origin->leaf_to_meta());
  ASSERT_EQ(replica->meta_vars().size(), origin->meta_vars().size());
  for (std::size_t i = 0; i < origin->meta_vars().size(); ++i) {
    EXPECT_EQ(replica->meta_vars()[i].var, origin->meta_vars()[i].var);
    EXPECT_EQ(replica->meta_vars()[i].name, origin->meta_vars()[i].name);
    EXPECT_EQ(replica->meta_vars()[i].leaves, origin->meta_vars()[i].leaves);
  }
  // The rebuilt sweep-side program matches the origin's array for array.
  EXPECT_EQ(replica->sweep_full_program().factors(),
            origin->sweep_full_program().factors());
  EXPECT_EQ(replica->sweep_full_program().coeffs(),
            origin->sweep_full_program().coeffs());

  // Default-scenario results are bit-identical.
  AssignReport origin_assign = origin->Assign(1).ValueOrDie();
  AssignReport replica_assign = replica->Assign(1).ValueOrDie();
  ASSERT_EQ(origin_assign.delta.rows.size(),
            replica_assign.delta.rows.size());
  for (std::size_t r = 0; r < origin_assign.delta.rows.size(); ++r) {
    EXPECT_TRUE(SameBits(origin_assign.delta.rows[r].full,
                         replica_assign.delta.rows[r].full));
    EXPECT_TRUE(SameBits(origin_assign.delta.rows[r].compressed,
                         replica_assign.delta.rows[r].compressed));
  }

  // Batched results are bit-identical under every sweep engine.
  ScenarioSet scenarios = ExampleScenarios();
  for (BatchOptions::Sweep sweep :
       {BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta}) {
    BatchOptions options;
    options.sweep = sweep;
    ExpectBatchBitIdentical(
        origin->AssignBatch(scenarios, options).ValueOrDie(),
        replica->AssignBatch(scenarios, options).ValueOrDie());
  }
}

TEST(SnapshotTest, FileRoundTripAndReplicaIsolation) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  const std::string path = ::testing::TempDir() + "/cobra_snapshot_test.bin";
  ASSERT_TRUE(SaveSnapshot(*origin, path).ok());

  std::shared_ptr<const CompiledSession> replica =
      LoadSnapshot(path).ValueOrDie();
  // The replica's pool is its own: variables interned into the origin pool
  // after the save are unknown to it, like on a real second machine.
  session.mutable_pool()->Intern("later_variable");
  EXPECT_FALSE(replica->pool().Contains("later_variable"));

  ScenarioSet scenarios = ExampleScenarios();
  ExpectBatchBitIdentical(origin->AssignBatch(scenarios).ValueOrDie(),
                          replica->AssignBatch(scenarios).ValueOrDie());
}

TEST(SnapshotTest, LoadReportsMissingEmptyTruncatedAndCorrupted) {
  const std::string dir = ::testing::TempDir();

  // Missing file: the error names the path.
  util::Result<std::shared_ptr<const CompiledSession>> missing =
      LoadSnapshot(dir + "/no_such_snapshot.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("no_such_snapshot.bin"),
            std::string::npos);
  // Classification contract: a missing file is transient (the publisher may
  // not have renamed the artifact into place yet) — retryable.
  EXPECT_EQ(missing.status().code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(util::IsRetryable(missing.status()));

  // Empty file.
  const std::string empty_path = dir + "/empty_snapshot.bin";
  ASSERT_TRUE(util::WriteFile(empty_path, "").ok());
  util::Result<std::shared_ptr<const CompiledSession>> empty =
      LoadSnapshot(empty_path);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find(empty_path), std::string::npos);
  EXPECT_NE(empty.status().message().find("empty"), std::string::npos);
  // An empty file is what an in-progress write looks like: transient.
  EXPECT_EQ(empty.status().code(), util::StatusCode::kUnavailable);

  // Not a snapshot at all.
  const std::string garbage_path = dir + "/garbage_snapshot.bin";
  ASSERT_TRUE(
      util::WriteFile(garbage_path, "this is not a snapshot file at all")
          .ok());
  util::Result<std::shared_ptr<const CompiledSession>> garbage =
      LoadSnapshot(garbage_path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find("magic"), std::string::npos);
  // Wrong magic is permanent corruption, never worth a retry.
  EXPECT_EQ(garbage.status().code(), util::StatusCode::kDataLoss);
  EXPECT_FALSE(util::IsRetryable(garbage.status()));

  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  const std::string full = SerializeSnapshot(MakeSnapshot(*origin));

  // Every proper prefix must fail cleanly (header-truncated, payload-size
  // mismatch, or mid-field truncation after re-stamping the header).
  for (std::size_t cut : {std::size_t{5}, std::size_t{20}, full.size() / 2,
                          full.size() - 1}) {
    const std::string trunc_path = dir + "/truncated_snapshot.bin";
    ASSERT_TRUE(util::WriteFile(trunc_path, full.substr(0, cut)).ok());
    util::Result<std::shared_ptr<const CompiledSession>> truncated =
        LoadSnapshot(trunc_path);
    ASSERT_FALSE(truncated.ok()) << "prefix of " << cut << " bytes";
    EXPECT_NE(truncated.status().message().find(trunc_path),
              std::string::npos);
    // Every proper prefix reads as a torn write still in progress:
    // transient, so a watcher retries instead of quarantining.
    EXPECT_EQ(truncated.status().code(), util::StatusCode::kUnavailable)
        << "prefix of " << cut << " bytes";
  }

  // A flipped payload byte fails the checksum.
  std::string corrupted = full;
  corrupted[corrupted.size() - 1] ^= 0x40;
  const std::string corrupt_path = dir + "/corrupted_snapshot.bin";
  ASSERT_TRUE(util::WriteFile(corrupt_path, corrupted).ok());
  util::Result<std::shared_ptr<const CompiledSession>> corrupt =
      LoadSnapshot(corrupt_path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos);
  // A checksum mismatch at full length is permanent corruption.
  EXPECT_EQ(corrupt.status().code(), util::StatusCode::kDataLoss);
  EXPECT_FALSE(util::IsRetryable(corrupt.status()));

  // A future format version is rejected up front (byte 8 is the version's
  // little-endian low byte).
  std::string future = full;
  future[8] = 99;
  util::Result<SnapshotPackage> versioned = ParseSnapshot(future, "<test>");
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.status().message().find("version"), std::string::npos);
  EXPECT_EQ(versioned.status().code(), util::StatusCode::kDataLoss);
}

TEST(SnapshotTest, FromSnapshotRejectsInconsistentPackages) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  const SnapshotPackage good = MakeSnapshot(*origin);
  ASSERT_TRUE(CompiledSession::FromSnapshot(good).ok());

  {
    SnapshotPackage bad = good;
    bad.pool_names[2] = bad.pool_names[1];  // duplicate name
    util::Result<std::shared_ptr<const CompiledSession>> result =
        CompiledSession::FromSnapshot(bad);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("duplicate"), std::string::npos);
  }
  {
    SnapshotPackage bad = good;
    bad.leaf_to_meta.pop_back();  // remap shorter than the pool
    EXPECT_FALSE(CompiledSession::FromSnapshot(bad).ok());
  }
  {
    SnapshotPackage bad = good;
    bad.leaf_to_meta[0] = static_cast<prov::VarId>(bad.pool_names.size());
    EXPECT_FALSE(CompiledSession::FromSnapshot(bad).ok());
  }
  {
    SnapshotPackage bad = good;
    bad.labels.push_back("extra_group");
    EXPECT_FALSE(CompiledSession::FromSnapshot(bad).ok());
  }
  {
    SnapshotPackage bad = good;
    bad.default_meta.pop_back();
    EXPECT_FALSE(CompiledSession::FromSnapshot(bad).ok());
  }
  {
    SnapshotPackage bad = good;
    ASSERT_FALSE(bad.meta_vars.empty());
    bad.meta_vars[0].leaves.push_back(
        static_cast<prov::VarId>(bad.pool_names.size() + 7));
    EXPECT_FALSE(CompiledSession::FromSnapshot(bad).ok());
  }
  {
    SnapshotPackage bad = good;
    // Program references a variable beyond the pool.
    ASSERT_FALSE(bad.full_program.factors.empty());
    bad.full_program.factors[0] =
        static_cast<prov::VarId>(bad.pool_names.size());
    EXPECT_FALSE(CompiledSession::FromSnapshot(bad).ok());
  }
  {
    SnapshotPackage bad = good;
    // Malformed compiled arrays are caught by EvalProgram::FromParts.
    bad.compressed_program.poly_starts.back() += 1;
    util::Result<std::shared_ptr<const CompiledSession>> result =
        CompiledSession::FromSnapshot(bad);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("compressed program"),
              std::string::npos);
  }
}

TEST(SnapshotTest, EvalProgramFromPartsValidatesInvariants) {
  // A well-formed single-poly program: 2*x0*x1 + 3*x2.
  std::vector<std::uint32_t> poly_starts = {0, 2};
  std::vector<std::uint32_t> term_starts = {0, 2, 3};
  std::vector<double> coeffs = {2.0, 3.0};
  std::vector<prov::VarId> factors = {0, 1, 2};
  util::Result<prov::EvalProgram> ok = prov::EvalProgram::FromParts(
      poly_starts, term_starts, coeffs, factors);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->NumPolys(), 1u);
  EXPECT_EQ(ok->NumTerms(), 2u);
  EXPECT_EQ(ok->MinValuationSize(), 3u);
  prov::Valuation v(3);
  v.Set(0, 2.0);
  v.Set(2, 5.0);
  std::vector<double> out;
  ok->Eval(v, &out);
  EXPECT_EQ(out, (std::vector<double>{2.0 * 2.0 * 1.0 + 3.0 * 5.0}));

  EXPECT_FALSE(
      prov::EvalProgram::FromParts({}, term_starts, coeffs, factors).ok());
  EXPECT_FALSE(
      prov::EvalProgram::FromParts({0, 3}, term_starts, coeffs, factors)
          .ok());  // poly_starts ends past the terms
  EXPECT_FALSE(
      prov::EvalProgram::FromParts(poly_starts, {0, 2}, coeffs, factors)
          .ok());  // term_starts entry count wrong
  EXPECT_FALSE(
      prov::EvalProgram::FromParts(poly_starts, {0, 2, 9}, coeffs, factors)
          .ok());  // term_starts ends past the factors
  EXPECT_FALSE(prov::EvalProgram::FromParts(poly_starts, {0, 3, 2}, coeffs,
                                            factors)
                   .ok());  // not monotone
  EXPECT_FALSE(prov::EvalProgram::FromParts(poly_starts, term_starts, coeffs,
                                            {0, prov::kInvalidVar, 2})
                   .ok());
}

/// Randomized end-to-end property: random pools, trees, polynomials, bounds
/// and override lists; save -> load -> AssignBatch must be bit-identical to
/// the origin snapshot under all three sweep engines.
TEST(SnapshotTest, RandomizedRoundTripIsBitIdenticalAcrossEngines) {
  util::Rng rng(0xC0BA8A8ULL);
  for (int iteration = 0; iteration < 10; ++iteration) {
    util::Rng it = rng.Fork(static_cast<std::uint64_t>(iteration));

    // Random bucketed abstraction tree over num_vars leaves.
    const std::size_t num_vars =
        static_cast<std::size_t>(it.NextInRange(4, 40));
    const std::size_t bucket = static_cast<std::size_t>(it.NextInRange(2, 6));
    std::string tree_text = "root\n";
    for (std::size_t v = 0; v < num_vars; ++v) {
      if (v % bucket == 0) {
        tree_text += "  G" + std::to_string(v / bucket) + "\n";
      }
      tree_text += "    x" + std::to_string(v) + "\n";
    }

    // Random polynomials: each term is one tree variable (single-tree mode
    // allows at most one per monomial) times a few off-tree multipliers —
    // the shape of the paper's plan × month provenance.
    const std::size_t num_offtree =
        static_cast<std::size_t>(it.NextInRange(1, 4));
    const std::size_t num_polys =
        static_cast<std::size_t>(it.NextInRange(1, 5));
    std::string poly_text;
    for (std::size_t p = 0; p < num_polys; ++p) {
      poly_text += "P" + std::to_string(p) + " =";
      const std::size_t num_terms =
          static_cast<std::size_t>(it.NextInRange(1, 12));
      for (std::size_t t = 0; t < num_terms; ++t) {
        if (t > 0) poly_text += " +";
        poly_text += " " + util::FormatDouble(
                               it.NextDoubleInRange(0.25, 8.0), 6);
        poly_text += " * x" + std::to_string(it.NextBelow(num_vars));
        const std::size_t num_multipliers =
            static_cast<std::size_t>(it.NextInRange(0, 2));
        for (std::size_t f = 0; f < num_multipliers; ++f) {
          poly_text += " * m" + std::to_string(it.NextBelow(num_offtree));
        }
      }
      poly_text += "\n";
    }

    Session session;
    ASSERT_TRUE(session.LoadPolynomialsText(poly_text).ok()) << poly_text;
    ASSERT_TRUE(session.SetTreeText(tree_text).ok()) << tree_text;
    const std::size_t monomials = session.full().TotalMonomials();
    session.SetBound(std::max<std::size_t>(
        1, monomials * static_cast<std::size_t>(it.NextInRange(40, 100)) /
               100));
    util::Result<CompressionReport> report =
        session.Compress(Algorithm::kGreedy);
    if (!report.ok()) {
      session.SetBound(monomials);
      report = session.Compress(Algorithm::kGreedy);
    }
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    std::shared_ptr<const CompiledSession> origin =
        session.Snapshot().ValueOrDie();
    std::shared_ptr<const CompiledSession> replica =
        CompiledSession::FromSnapshot(
            ParseSnapshot(SerializeSnapshot(MakeSnapshot(*origin)),
                          "<property>")
                .ValueOrDie())
            .ValueOrDie();

    // Random override lists over meta-variables and raw pool variables.
    ScenarioSet scenarios;
    const std::size_t num_scenarios =
        static_cast<std::size_t>(it.NextInRange(1, 20));
    const std::vector<MetaVar>& meta = origin->meta_vars();
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      auto handle = scenarios.Add("s" + std::to_string(s)).ValueOrDie();
      const std::size_t num_overrides =
          static_cast<std::size_t>(it.NextInRange(0, 4));
      for (std::size_t o = 0; o < num_overrides; ++o) {
        std::string var;
        if (!meta.empty() && it.NextBool(0.7)) {
          var = meta[it.NextBelow(meta.size())].name;
        } else {
          var = "x" + std::to_string(it.NextBelow(num_vars));
        }
        handle.Set(var, it.NextDoubleInRange(0.5, 1.5));
      }
    }

    for (BatchOptions::Sweep sweep :
         {BatchOptions::Sweep::kBlocked, BatchOptions::Sweep::kSparseDelta}) {
      BatchOptions options;
      options.sweep = sweep;
      // Exercise the partitioning/splitting schedulers now and then.
      if (it.NextBool(0.3)) options.partition_min_terms = 1;
      if (it.NextBool(0.3)) options.split_min_terms = 1;
      ExpectBatchBitIdentical(
          origin->AssignBatch(scenarios, options).ValueOrDie(),
          replica->AssignBatch(scenarios, options).ValueOrDie());
    }
  }
}

}  // namespace
}  // namespace cobra::core
