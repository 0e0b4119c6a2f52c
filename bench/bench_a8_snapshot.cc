// Ablation A8 — serializable serving snapshots (load vs recompile).
//
// COBRA's premise is compress-once / evaluate-many: the compression runs on
// powerful hardware and the artifact ships to weaker machines. Before this
// bench's feature, the *compiled* serving artifact (CompiledSession) was
// per-process — every replica had to re-run compression. A8 measures what
// the snapshot format buys on the per-order TPC-H workload of A7:
//
//   (1) origin cost:   provenance -> Compress() -> Session::Snapshot()
//   (2) save cost:     SaveSnapshot() (serialize + write)
//   (3) replica cost:  LoadSnapshot() (read + parse + rebuild, NO
//                      recompilation)
//
// then verifies that the loaded replica's AssignBatch results are
// bit-identical to the origin snapshot under both explicit sweep engines
// (kBlocked / kSparseDelta), and exits non-zero unless load is
// >= 5x faster than compress+snapshot (the ISSUE acceptance gate). A
// machine-readable BENCH_a8.json lands next to the human output.
//
// Cross-process mode (used by CI): COBRA_A8_MODE=save compresses, writes
// the snapshot to COBRA_A8_PATH, serves the scenario batch and stores the
// results' exact IEEE-754 bit patterns to <path>.expected; a second
// invocation with COBRA_A8_MODE=load reconstructs the session from the file
// alone and fails unless its results match the origin process bit for bit.
//
// Knobs: COBRA_A8_SCENARIOS (256), COBRA_A8_SF (0.01, TPC-H scale factor),
//        COBRA_A8_BUCKET (128 orders per tree bucket), COBRA_A8_BOUND_PCT
//        (60), COBRA_A8_LOADS (5, timed LoadSnapshot repetitions; the
//        minimum is reported), COBRA_A8_PATH (SNAPSHOT_a8.bin),
//        COBRA_A8_MODE (full | save | load).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.h"
#include "core/compiled_session.h"
#include "core/io.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "rel/sql/planner.h"
#include "util/csv.h"
#include "util/timer.h"

namespace {

using namespace cobra;

/// Deterministic scenario mix over the snapshot's meta-variables — both the
/// save and the load process generate the identical set, so cross-process
/// comparisons need no scenario shipping.
core::ScenarioSet MakeScenarios(const core::CompiledSession& snapshot,
                                std::size_t n) {
  const std::vector<core::MetaVar>& meta = snapshot.meta_vars();
  if (meta.empty()) {
    std::fprintf(stderr, "no meta-variables to perturb (leaf-only cut?)\n");
    std::exit(1);
  }
  core::ScenarioSet set;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = set.Add("whatif-" + std::to_string(i)).ValueOrDie();
    s.Set(meta[i % meta.size()].name,
          1.0 + 0.01 * static_cast<double>(i % 40 + 1));
    if (meta.size() > 1) {
      s.Set(meta[(i + 7) % meta.size()].name,
            1.0 - 0.005 * static_cast<double>(i % 20 + 1));
    }
  }
  return set;
}

/// Renders every result double of `batch` as its exact bit pattern, one
/// hex word per line — the cross-process identity certificate.
std::string ResultBits(const core::BatchAssignReport& batch) {
  std::string out;
  char line[40];  // 16 hex + ' ' + 16 hex + '\n' + NUL = 35 bytes.
  for (const core::AssignReport& report : batch.reports) {
    for (const core::ResultDelta::Row& row : report.delta.rows) {
      std::uint64_t full_bits, compressed_bits;
      std::memcpy(&full_bits, &row.full, sizeof full_bits);
      std::memcpy(&compressed_bits, &row.compressed, sizeof compressed_bits);
      std::snprintf(line, sizeof line, "%016" PRIx64 " %016" PRIx64 "\n",
                    full_bits, compressed_bits);
      out += line;
    }
  }
  return out;
}

/// Largest absolute per-group difference between two batched reports.
double MaxBatchDifference(const core::BatchAssignReport& a,
                          const core::BatchAssignReport& b) {
  if (a.reports.size() != b.reports.size()) return HUGE_VAL;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i].delta.rows;
    const auto& rb = b.reports[i].delta.rows;
    if (ra.size() != rb.size()) return HUGE_VAL;
    for (std::size_t r = 0; r < ra.size(); ++r) {
      max_diff = std::max(max_diff, std::fabs(ra[r].full - rb[r].full));
      max_diff =
          std::max(max_diff, std::fabs(ra[r].compressed - rb[r].compressed));
    }
  }
  return max_diff;
}

core::BatchOptions WithSweep(core::BatchOptions::Sweep sweep) {
  core::BatchOptions options;
  options.sweep = sweep;
  return options;
}

/// Builds the A7-style per-order TPC-H workload, compresses it, and returns
/// the authoring session (its pool stays alive through the shared_ptr).
std::unique_ptr<core::Session> BuildOrigin(double scale_factor,
                                           std::size_t bucket_size,
                                           std::size_t bound_pct,
                                           double* compress_seconds) {
  data::TpchConfig config;
  config.scale_factor = scale_factor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByOrder(&db).CheckOK();

  const char* sql =
      "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
      "FROM lineitem "
      "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
      "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24 "
      "GROUP BY l_returnflag";
  prov::PolySet provenance =
      rel::sql::RunSql(db, sql).ValueOrDie().Provenance(0);
  std::printf("workload: per-order Q6 at SF %.3g — %zu monomials, pool %zu\n",
              scale_factor, provenance.TotalMonomials(),
              db.var_pool()->size());

  auto session = std::make_unique<core::Session>(db.var_pool());
  session->LoadPolynomials(std::move(provenance));
  session->SetTreeText(
             data::OrderBucketTreeText(config.NumOrders(), bucket_size))
      .CheckOK();
  session->SetBound(std::max<std::size_t>(
      1, session->full().TotalMonomials() * bound_pct / 100));

  // The origin-side cost the snapshot amortizes away: compression plus
  // program compilation (Snapshot() compiles on first call).
  util::Timer timer;
  core::CompressionReport report =
      session->Compress(core::Algorithm::kGreedy).ValueOrDie();
  session->Snapshot().ValueOrDie();
  *compress_seconds = timer.ElapsedSeconds();
  std::printf("compressed: %zu -> %zu monomials (%zu meta-vars)\n",
              report.original_size, report.compressed_size,
              session->meta_vars().size());
  return session;
}

}  // namespace

int main() {
  const std::size_t num_scenarios = bench::EnvSize("COBRA_A8_SCENARIOS", 256);
  const double scale_factor = bench::EnvDouble("COBRA_A8_SF", 0.01);
  const std::size_t bucket_size = bench::EnvSize("COBRA_A8_BUCKET", 128);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A8_BOUND_PCT", 60);
  const std::size_t load_reps = bench::EnvSize("COBRA_A8_LOADS", 5);
  const char* path_env = std::getenv("COBRA_A8_PATH");
  const std::string path =
      path_env != nullptr && *path_env != '\0' ? path_env : "SNAPSHOT_a8.bin";
  const char* mode_env = std::getenv("COBRA_A8_MODE");
  const std::string mode =
      mode_env != nullptr && *mode_env != '\0' ? mode_env : "full";

  if (mode == "load") {
    // Replica process: everything it knows comes from the snapshot file.
    bench::Header("A8: replica load (cross-process)");
    util::Timer timer;
    std::shared_ptr<const core::CompiledSession> replica =
        core::LoadSnapshot(path).ValueOrDie();
    std::printf("loaded %s in %.1fms (pool %zu, %zu -> %zu monomials)\n",
                path.c_str(), timer.ElapsedSeconds() * 1e3,
                replica->pool_size(), replica->full_size(),
                replica->compressed_size());
    core::ScenarioSet scenarios = MakeScenarios(*replica, num_scenarios);
    std::string bits = ResultBits(
        replica->AssignBatch(scenarios).ValueOrDie());
    std::string expected = util::ReadFile(path + ".expected").ValueOrDie();
    const bool identical = bits == expected;
    std::printf("cross-process result check: %s (%zu scenarios)\n",
                identical ? "IDENTICAL" : "MISMATCH", scenarios.size());
    return identical ? 0 : 1;
  }

  bench::Header(mode == "save"
                    ? "A8: origin save (cross-process)"
                    : "A8: snapshot load vs recompile (per-order TPC-H)");

  double compress_seconds = 0.0;
  std::unique_ptr<core::Session> session =
      BuildOrigin(scale_factor, bucket_size, bound_pct, &compress_seconds);
  std::shared_ptr<const core::CompiledSession> origin =
      session->Snapshot().ValueOrDie();
  core::ScenarioSet scenarios = MakeScenarios(*origin, num_scenarios);

  const double save_seconds = bench::TimeSeconds(
      [&] { core::SaveSnapshot(*origin, path).CheckOK(); });
  const std::size_t snapshot_bytes = util::ReadFile(path).ValueOrDie().size();

  if (mode == "save") {
    util::WriteFile(path + ".expected",
                    ResultBits(origin->AssignBatch(scenarios).ValueOrDie()))
        .CheckOK();
    std::printf(
        "saved %s (%zu bytes) + %s.expected; run COBRA_A8_MODE=load next\n",
        path.c_str(), snapshot_bytes, path.c_str());
    return 0;
  }

  // Replica-side load, repeated: min over repetitions isolates the parse +
  // rebuild cost from filesystem-cache warmup noise.
  std::shared_ptr<const core::CompiledSession> replica;
  const double load_seconds =
      bench::BestOfSeconds(std::max<std::size_t>(1, load_reps), [&] {
        replica = core::LoadSnapshot(path).ValueOrDie();
      });

  // Bit-identity between origin and replica sessions (the CI save/load
  // steps additionally cover two separate processes), per sweep engine.
  double max_diff = 0.0;
  for (core::BatchOptions::Sweep sweep :
       {core::BatchOptions::Sweep::kBlocked,
        core::BatchOptions::Sweep::kSparseDelta}) {
    core::BatchAssignReport origin_batch =
        origin->AssignBatch(scenarios, WithSweep(sweep)).ValueOrDie();
    core::BatchAssignReport replica_batch =
        replica->AssignBatch(scenarios, WithSweep(sweep)).ValueOrDie();
    max_diff =
        std::max(max_diff, MaxBatchDifference(origin_batch, replica_batch));
  }

  const double speedup = bench::Ratio(compress_seconds, load_seconds);
  std::printf("\n%-28s %12.2fms\n", "compress + snapshot (origin)",
              compress_seconds * 1e3);
  std::printf("%-28s %12.2fms  (%zu bytes)\n", "save snapshot",
              save_seconds * 1e3, snapshot_bytes);
  std::printf("%-28s %12.2fms  (min of %zu)\n", "load snapshot (replica)",
              load_seconds * 1e3, load_reps);
  std::printf("\nload vs recompile: %.1fx  max |diff| across engines: %g\n",
              speedup, max_diff);
  std::printf("result check: %s\n",
              max_diff == 0.0 ? "IDENTICAL" : "MISMATCH");

  bench::JsonObject json;
  json.Add("bench", std::string("a8_snapshot"));
  json.Add("scenarios", num_scenarios);
  json.Add("scale_factor", scale_factor);
  json.Add("monomials_full", origin->full_size());
  json.Add("monomials_compressed", origin->compressed_size());
  json.Add("pool_size", origin->pool_size());
  json.Add("snapshot_bytes", snapshot_bytes);
  json.Add("compress_seconds", compress_seconds);
  json.Add("save_seconds", save_seconds);
  json.Add("load_seconds", load_seconds);
  json.Add("load_vs_recompile", speedup);
  json.Add("max_diff", max_diff);
  json.Add("identical", max_diff == 0.0);
  json.WriteFile("BENCH_a8.json");

  bench::GateSet gates;
  gates.Require("identical", max_diff == 0.0);
  gates.Require("load_vs_recompile>=5x", speedup >= 5.0);
  gates.Print();
  return gates.ExitCode();
}
