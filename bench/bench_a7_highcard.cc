// Ablation A7 — high-cardinality batched serving (per-order TPC-H).
//
// bench_a6 runs TPC-H Q6 with ship-month provenance: ~84 date variables, so
// the legacy "one full-pool Valuation copy per scenario per side" cost is
// negligible next to the scan. This bench flips that ratio: every lineitem
// is tagged with its *order* variable (tens of thousands of variables at
// bench scale factors) while a Q6-style filter keeps the surviving
// provenance small, so the copy-based sweep is dominated by pool-sized
// copies — memory bandwidth — and the sparse-delta sweep, which touches
// only the surviving monomials plus a handful of overrides per scenario,
// pulls far ahead.
//
// The bench runs N scenarios through one immutable CompiledSession snapshot
//
//   (a) with a bench-local dense-copy loop: per scenario, copy the base
//       valuation, apply the overrides, expand it to the full side and run
//       a dense Eval of both programs, at the sparse run's thread count;
//   (b) with the scalar sparse-delta engine (kSparseDelta);
//   (c) with the scenario-blocked kernel (kBlocked, 16 lanes): one scan of
//       the compiled program serves a whole block of scenario lanes;
//
// verifies (a) == (b) == (c) bit-for-bit for every scenario, spot-checks a
// sample against sequential Session::Assign(), and exits non-zero unless
// the sparse sweep is >= 2x the dense loop AND the blocked sweep is >= 2x
// the scalar sparse one (the acceptance gates). A machine-readable
// BENCH_a7.json lands next to the human output for cross-PR tracking.
//
// Knobs: COBRA_A7_SCENARIOS (1024), COBRA_A7_SF (0.01, TPC-H scale factor),
//        COBRA_A7_THREADS (0 = hardware), COBRA_A7_BUCKET (128 orders per
//        tree bucket), COBRA_A7_BOUND_PCT (60), COBRA_A7_CHECK (16
//        scenarios cross-checked against sequential Assign()),
//        COBRA_A7_MT_THREADS (hardware, floored at 2 — the extra blocked
//        run exercising the multi-threaded tile pool).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "prov/eval_program.h"
#include "rel/sql/planner.h"
#include "util/timer.h"

namespace {

using namespace cobra;

core::ScenarioSet MakeScenarios(const core::Session& session, std::size_t n) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
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

/// Per-scenario (full, compressed) result rows of the dense-copy loop.
struct DenseRows {
  std::vector<std::vector<double>> full;
  std::vector<std::vector<double>> compressed;
};

/// The dense-copy reference: every scenario copies the pool-sized base,
/// applies its overrides in order, expands to the full side and evaluates
/// both programs densely — the pool-sized copies the sparse engine avoids.
/// Scenarios are split into `threads` contiguous chunks.
DenseRows DenseCopySweep(const core::CompiledSession& snapshot,
                         const core::ScenarioSet& scenarios,
                         std::size_t threads) {
  const std::size_t n = scenarios.size();
  DenseRows rows;
  rows.full.resize(n);
  rows.compressed.resize(n);
  auto worker = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      prov::Valuation meta = snapshot.default_meta_valuation();
      for (const core::Scenario::Delta& delta :
           scenarios.scenario(i).deltas) {
        meta.Set(snapshot.pool().Find(delta.var), delta.value);
      }
      snapshot.full_program().Eval(snapshot.ExpandValuation(meta),
                                   &rows.full[i]);
      snapshot.compressed_program().Eval(meta, &rows.compressed[i]);
    }
  };
  threads = std::max<std::size_t>(1, std::min(threads, n));
  const std::size_t chunk = (n + threads - 1) / threads;
  std::vector<std::thread> pool;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    pool.emplace_back(worker, begin, std::min(n, begin + chunk));
  }
  for (std::thread& th : pool) th.join();
  return rows;
}

/// Largest absolute per-group difference between the dense rows and a
/// batched report.
double MaxDenseDifference(const DenseRows& dense,
                          const core::BatchAssignReport& batch) {
  if (dense.full.size() != batch.reports.size()) return HUGE_VAL;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < dense.full.size(); ++i) {
    const auto& rows = batch.reports[i].delta.rows;
    if (rows.size() != dense.full[i].size()) return HUGE_VAL;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      max_diff = std::max(max_diff, std::fabs(dense.full[i][r] - rows[r].full));
      max_diff = std::max(
          max_diff, std::fabs(dense.compressed[i][r] - rows[r].compressed));
    }
  }
  return max_diff;
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

}  // namespace

int main() {
  const std::size_t num_scenarios = bench::EnvSize("COBRA_A7_SCENARIOS", 1024);
  const double scale_factor = bench::EnvDouble("COBRA_A7_SF", 0.01);
  const std::size_t num_threads = bench::EnvSize("COBRA_A7_THREADS", 0);
  const std::size_t bucket_size = bench::EnvSize("COBRA_A7_BUCKET", 128);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A7_BOUND_PCT", 60);
  const std::size_t check = bench::EnvSize("COBRA_A7_CHECK", 16);

  bench::Header("A7: high-cardinality batched serving (per-order TPC-H)");
  std::printf("blocked kernel isa: %s\n", prov::BlockedKernelIsa());

  data::TpchConfig config;
  config.scale_factor = scale_factor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByOrder(&db).CheckOK();
  const std::size_t num_orders = config.NumOrders();

  // Q6's selective filter over per-order-instrumented lineitems: the pool
  // holds one variable per order but only a few percent of lineitems
  // survive, so valuations are huge relative to the provenance that scans.
  const char* sql =
      "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
      "FROM lineitem "
      "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
      "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24 "
      "GROUP BY l_returnflag";
  prov::PolySet provenance =
      rel::sql::RunSql(db, sql).ValueOrDie().Provenance(0);
  std::printf(
      "workload: per-order Q6 at SF %.3g — %zu monomials, %zu distinct "
      "variables, pool %zu\n",
      scale_factor, provenance.TotalMonomials(),
      provenance.NumDistinctVariables(), db.var_pool()->size());

  core::Session session(db.var_pool());
  session.LoadPolynomials(std::move(provenance));
  session.SetTreeText(data::OrderBucketTreeText(num_orders, bucket_size))
      .CheckOK();
  std::size_t bound = std::max<std::size_t>(
      1, session.full().TotalMonomials() * bound_pct / 100);
  session.SetBound(bound);
  // Greedy, not the DP: the order tree has one leaf per order, and cut
  // quality is not what this bench measures.
  core::CompressionReport report =
      session.Compress(core::Algorithm::kGreedy).ValueOrDie();
  std::printf("compressed: %zu -> %zu monomials (bound %zu, %zu meta-vars)\n",
              report.original_size, report.compressed_size, bound,
              session.meta_vars().size());

  std::shared_ptr<const core::CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  core::ScenarioSet scenarios = MakeScenarios(session, num_scenarios);

  core::BatchOptions sparse;
  sparse.num_threads = num_threads;
  sparse.sweep = core::BatchOptions::Sweep::kSparseDelta;
  core::BatchOptions blocked;
  blocked.num_threads = num_threads;
  blocked.sweep = core::BatchOptions::Sweep::kBlocked;

  // Wall-clock around the whole call: the dense loop's cost is precisely
  // the per-scenario valuation materialization, and the blocked engine's
  // includes its per-block override-table construction.
  core::BatchAssignReport sparse_batch;
  const double sparse_seconds = bench::TimeSeconds([&] {
    sparse_batch = snapshot->AssignBatch(scenarios, sparse).ValueOrDie();
  });
  DenseRows dense_rows;
  const double dense_seconds = bench::TimeSeconds([&] {
    dense_rows =
        DenseCopySweep(*snapshot, scenarios, sparse_batch.num_threads);
  });
  core::BatchAssignReport blocked_batch;
  const double blocked_seconds = bench::TimeSeconds([&] {
    blocked_batch = snapshot->AssignBatch(scenarios, blocked).ValueOrDie();
  });

  // Multi-threaded coverage: the same blocked sweep with threads > 1 drives
  // the work-stealing tile pool (a single-threaded run never spawns it) and
  // must stay bit-identical — the fixed-order partial reduction makes the
  // result schedule-independent. COBRA_A7_MT_THREADS (default: hardware,
  // floored at 2 so single-core hosts still exercise the pool).
  const std::size_t mt_threads = std::max<std::size_t>(
      2, bench::EnvSize("COBRA_A7_MT_THREADS",
                        std::thread::hardware_concurrency()));
  core::BatchOptions blocked_mt = blocked;
  blocked_mt.num_threads = mt_threads;
  core::BatchAssignReport blocked_mt_batch;
  const double blocked_mt_seconds = bench::TimeSeconds([&] {
    blocked_mt_batch = snapshot->AssignBatch(scenarios, blocked_mt).ValueOrDie();
  });

  double max_diff = MaxDenseDifference(dense_rows, sparse_batch);
  max_diff = std::max(max_diff,
                      MaxBatchDifference(sparse_batch, blocked_batch));
  max_diff = std::max(max_diff,
                      MaxBatchDifference(blocked_batch, blocked_mt_batch));

  // Spot-check a sample against the sequential interactive path.
  const std::size_t sample = std::min(check, num_scenarios);
  for (std::size_t i = 0; i < sample; ++i) {
    session.ResetMetaValues().CheckOK();
    for (const core::Scenario::Delta& delta :
         scenarios.scenario(i).deltas) {
      session.SetMetaValue(delta.var, delta.value).CheckOK();
    }
    core::AssignReport want = session.Assign(1).ValueOrDie();
    const auto& got = blocked_batch.reports[i].delta.rows;
    if (got.size() != want.delta.rows.size()) {
      max_diff = HUGE_VAL;
      break;
    }
    for (std::size_t r = 0; r < got.size(); ++r) {
      max_diff = std::max(
          max_diff, std::fabs(got[r].full - want.delta.rows[r].full));
      max_diff = std::max(max_diff, std::fabs(got[r].compressed -
                                              want.delta.rows[r].compressed));
    }
  }
  session.ResetMetaValues().CheckOK();

  const double sparse_vs_dense = bench::Ratio(dense_seconds, sparse_seconds);
  const double blocked_vs_sparse =
      bench::Ratio(sparse_seconds, blocked_seconds);
  std::printf("\n%-28s %12s %16s\n", "mode", "total (ms)", "per scenario");
  std::printf("%-28s %12.2f %14.2fus\n", "dense-copy loop",
              dense_seconds * 1e3,
              dense_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus\n", "sparse-delta sweep",
              sparse_seconds * 1e3,
              sparse_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus\n", "blocked sweep",
              blocked_seconds * 1e3,
              blocked_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus  (threads=%zu)\n", "blocked sweep (mt)",
              blocked_mt_seconds * 1e3,
              blocked_mt_seconds * 1e6 / static_cast<double>(num_scenarios),
              blocked_mt_batch.num_threads);
  std::printf(
      "\nscenarios=%zu threads=%zu lanes=%zu  scenarios/sec: dense=%.0f "
      "sparse=%.0f blocked=%.0f\n"
      "sparse vs copy=%.1fx  blocked vs sparse=%.1fx  max |diff|=%g\n",
      num_scenarios, blocked_batch.num_threads, blocked_batch.block_lanes,
      bench::Ratio(static_cast<double>(num_scenarios), dense_seconds),
      bench::Ratio(static_cast<double>(num_scenarios), sparse_seconds),
      bench::Ratio(static_cast<double>(num_scenarios), blocked_seconds),
      sparse_vs_dense, blocked_vs_sparse, max_diff);
  std::printf("result check: %s (sequential sample: %zu)\n",
              max_diff == 0.0 ? "IDENTICAL" : "MISMATCH", sample);

  bench::JsonObject json;
  json.Add("bench", std::string("a7_highcard"));
  json.Add("scenarios", num_scenarios);
  json.Add("threads", blocked_batch.num_threads);
  json.Add("block_lanes", blocked_batch.block_lanes);
  json.Add("kernel_isa", std::string(prov::BlockedKernelIsa()));
  json.Add("scale_factor", scale_factor);
  json.Add("monomials_full", snapshot->full_size());
  json.Add("monomials_compressed", snapshot->compressed_size());
  json.Add("dense_seconds", dense_seconds);
  json.Add("sparse_seconds", sparse_seconds);
  json.Add("blocked_seconds", blocked_seconds);
  json.Add("threads_mt", blocked_mt_batch.num_threads);
  json.Add("blocked_seconds_mt", blocked_mt_seconds);
  json.Add("sparse_vs_dense", sparse_vs_dense);
  json.Add("blocked_vs_sparse", blocked_vs_sparse);
  json.Add("max_diff", max_diff);
  json.Add("identical", max_diff == 0.0);
  json.WriteFile("BENCH_a7.json");

  bench::GateSet gates;
  gates.Require("identical", max_diff == 0.0);
  gates.Require("sparse_vs_dense>=2x", sparse_vs_dense >= 2.0);
  gates.Require("blocked_vs_sparse>=2x", blocked_vs_sparse >= 2.0);
  gates.Print();
  return gates.ExitCode();
}
