// Ablation A9 — plan-once/execute-many: the BatchPlan cache.
//
// COBRA's premise is paying a one-time abstraction cost so that many
// hypothetical scenarios evaluate cheaply. The BatchPlan layer applies the
// same idea to the serving path itself: scenario compilation (name→id
// resolution into sorted override lists), the per-block override-union
// tables, the adaptive engine choice and the tile schedule are *planned
// once* and cached on the CompiledSession keyed by the scenario set's
// content fingerprint, so a serving tier replaying the same scenario set —
// a replica refreshing answers against new defaults, a dashboard polling
// the same what-if panel — skips straight to the sweep.
//
// The bench builds the high-cardinality per-order TPC-H workload (large
// variable pool, small surviving provenance — the shape where planning is
// a real fraction of a batch call), then measures
//
//   (a) cold AssignBatch: plan cache cleared before every call, so each
//       call re-fingerprints, recompiles every scenario, rebuilds block
//       tables and schedules;
//   (b) warm AssignBatch: the same call again with the plan cached — one
//       fingerprint pass plus the sweep;
//
// best-of-R for both, and exits non-zero unless warm is >= 1.5x cold at the
// default 1024 scenarios AND results are bit-identical across
// kAuto/kBlocked/kSparseDelta and across cold vs warm plans.
// A machine-readable BENCH_a9.json lands next to the human output.
//
// Knobs: COBRA_A9_SCENARIOS (1024), COBRA_A9_SF (0.01, TPC-H scale factor),
//        COBRA_A9_THREADS (0 = hardware), COBRA_A9_BUCKET (128 orders per
//        tree bucket), COBRA_A9_BOUND_PCT (60), COBRA_A9_DELTAS (12
//        overrides per scenario), COBRA_A9_REPS (5 best-of repetitions),
//        COBRA_A9_MT_THREADS (hardware, floored at 2 — the extra warm run
//        exercising the multi-threaded tile pool).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "rel/sql/planner.h"
#include "util/timer.h"

namespace {

using namespace cobra;

/// Scenarios with wide override lists: `deltas` perturbations each, cycling
/// through the meta-variables — the planning-heavy shape (every delta is one
/// name→id resolution at plan time).
core::ScenarioSet MakeScenarios(const core::Session& session, std::size_t n,
                                std::size_t deltas) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
  if (meta.empty()) {
    std::fprintf(stderr, "no meta-variables to perturb (leaf-only cut?)\n");
    std::exit(1);
  }
  core::ScenarioSet set;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = set.Add("replay-" + std::to_string(i)).ValueOrDie();
    for (std::size_t d = 0; d < deltas; ++d) {
      s.Set(meta[(i * 7 + d * 13) % meta.size()].name,
            1.0 + 0.01 * static_cast<double>((i + d) % 40 + 1));
    }
  }
  return set;
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
  const std::size_t num_scenarios = bench::EnvSize("COBRA_A9_SCENARIOS", 1024);
  const double scale_factor = bench::EnvDouble("COBRA_A9_SF", 0.01);
  const std::size_t num_threads = bench::EnvSize("COBRA_A9_THREADS", 0);
  const std::size_t bucket_size = bench::EnvSize("COBRA_A9_BUCKET", 128);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A9_BOUND_PCT", 60);
  const std::size_t deltas = bench::EnvSize("COBRA_A9_DELTAS", 12);
  const std::size_t reps = std::max<std::size_t>(
      1, bench::EnvSize("COBRA_A9_REPS", 5));

  bench::Header("A9: plan-once/execute-many (BatchPlan cache)");

  data::TpchConfig config;
  config.scale_factor = scale_factor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByOrder(&db).CheckOK();
  const std::size_t num_orders = config.NumOrders();

  const char* sql =
      "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
      "FROM lineitem "
      "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
      "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24 "
      "GROUP BY l_returnflag";
  prov::PolySet provenance =
      rel::sql::RunSql(db, sql).ValueOrDie().Provenance(0);
  std::printf(
      "workload: per-order Q6 at SF %.3g — %zu monomials, pool %zu\n",
      scale_factor, provenance.TotalMonomials(), db.var_pool()->size());

  core::Session session(db.var_pool());
  session.LoadPolynomials(std::move(provenance));
  session.SetTreeText(data::OrderBucketTreeText(num_orders, bucket_size))
      .CheckOK();
  std::size_t bound = std::max<std::size_t>(
      1, session.full().TotalMonomials() * bound_pct / 100);
  session.SetBound(bound);
  core::CompressionReport report =
      session.Compress(core::Algorithm::kGreedy).ValueOrDie();
  std::printf("compressed: %zu -> %zu monomials (%zu meta-vars), %zu deltas "
              "per scenario\n",
              report.original_size, report.compressed_size,
              session.meta_vars().size(), deltas);

  std::shared_ptr<const core::CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  core::ScenarioSet scenarios = MakeScenarios(session, num_scenarios, deltas);

  core::BatchOptions options;  // Sweep::kAuto — the adaptive default
  options.num_threads = num_threads;

  // Warm-up + bit-identity corpus: one kAuto batch (cold), its replay
  // (warm), and every explicit engine.
  core::BatchAssignReport auto_cold =
      snapshot->AssignBatch(scenarios, options).ValueOrDie();
  core::BatchAssignReport auto_warm =
      snapshot->AssignBatch(scenarios, options).ValueOrDie();
  if (!auto_warm.plan_cache_hit) {
    std::fprintf(stderr, "expected the replay to hit the plan cache\n");
    return 1;
  }
  double max_diff = MaxBatchDifference(auto_cold, auto_warm);
  for (core::BatchOptions::Sweep sweep :
       {core::BatchOptions::Sweep::kBlocked,
        core::BatchOptions::Sweep::kSparseDelta}) {
    core::BatchOptions pinned = options;
    pinned.sweep = sweep;
    core::BatchAssignReport batch =
        snapshot->AssignBatch(scenarios, pinned).ValueOrDie();
    max_diff = std::max(max_diff, MaxBatchDifference(auto_cold, batch));
  }

  // Best-of-R cold (cache cleared before each call) vs warm (cached plan).
  double cold_seconds = HUGE_VAL;
  double warm_seconds = HUGE_VAL;
  for (std::size_t r = 0; r < reps; ++r) {
    snapshot->ClearPlanCache();
    core::BatchAssignReport cold;
    cold_seconds = std::min(cold_seconds, bench::TimeSeconds([&] {
      cold = snapshot->AssignBatch(scenarios, options).ValueOrDie();
    }));
    if (cold.plan_cache_hit) {
      std::fprintf(stderr, "cold call unexpectedly hit the plan cache\n");
      return 1;
    }
    core::BatchAssignReport warm;
    warm_seconds = std::min(warm_seconds, bench::TimeSeconds([&] {
      warm = snapshot->AssignBatch(scenarios, options).ValueOrDie();
    }));
    if (!warm.plan_cache_hit) {
      std::fprintf(stderr, "warm call missed the plan cache\n");
      return 1;
    }
    max_diff = std::max(max_diff, MaxBatchDifference(cold, warm));
  }

  // Multi-threaded coverage: one warm replay with threads > 1 drives the
  // work-stealing tile pool (a single-threaded run never spawns it) and
  // must stay bit-identical — the fixed-order partial reduction makes the
  // result schedule-independent. COBRA_A9_MT_THREADS (default: hardware,
  // floored at 2 so single-core hosts still exercise the pool).
  const std::size_t mt_threads = std::max<std::size_t>(
      2, bench::EnvSize("COBRA_A9_MT_THREADS",
                        std::thread::hardware_concurrency()));
  core::BatchOptions options_mt = options;
  options_mt.num_threads = mt_threads;
  snapshot->AssignBatch(scenarios, options_mt).ValueOrDie();  // plan + warm
  core::BatchAssignReport warm_mt;
  const double warm_mt_seconds = bench::TimeSeconds([&] {
    warm_mt = snapshot->AssignBatch(scenarios, options_mt).ValueOrDie();
  });
  if (!warm_mt.plan_cache_hit) {
    std::fprintf(stderr, "multi-threaded warm call missed the plan cache\n");
    return 1;
  }
  max_diff = std::max(max_diff, MaxBatchDifference(auto_cold, warm_mt));

  const double warm_speedup = bench::Ratio(cold_seconds, warm_seconds);
  const core::CompiledSession::PlanCacheStats stats =
      snapshot->plan_cache_stats();

  std::printf("\n%-28s %12s %16s\n", "mode", "total (ms)", "per scenario");
  std::printf("%-28s %12.3f %14.2fus\n", "cold (plan + execute)",
              cold_seconds * 1e3,
              cold_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.3f %14.2fus\n", "warm (cached plan)",
              warm_seconds * 1e3,
              warm_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.3f %14.2fus  (threads=%zu)\n", "warm (mt)",
              warm_mt_seconds * 1e3,
              warm_mt_seconds * 1e6 / static_cast<double>(num_scenarios),
              warm_mt.num_threads);
  std::printf(
      "\nscenarios=%zu threads=%zu engine=%s lanes=%zu  warm vs cold=%.2fx\n"
      "plan cache: %zu entries, %llu hits, %llu misses  max |diff|=%g\n",
      num_scenarios, auto_warm.num_threads, core::SweepName(auto_warm.engine),
      auto_warm.block_lanes, warm_speedup, stats.entries,
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses), max_diff);
  std::printf("result check: %s (kAuto/kBlocked/kSparseDelta, cold vs "
              "warm)\n",
              max_diff == 0.0 ? "IDENTICAL" : "MISMATCH");

  bench::JsonObject json;
  json.Add("bench", std::string("a9_plan_cache"));
  json.Add("scenarios", num_scenarios);
  json.Add("threads", auto_warm.num_threads);
  json.Add("deltas_per_scenario", deltas);
  json.Add("scale_factor", scale_factor);
  json.Add("engine", std::string(core::SweepName(auto_warm.engine)));
  json.Add("lanes", auto_warm.block_lanes);
  json.Add("monomials_full", snapshot->full_size());
  json.Add("monomials_compressed", snapshot->compressed_size());
  json.Add("cold_seconds", cold_seconds);
  json.Add("warm_seconds", warm_seconds);
  json.Add("threads_mt", warm_mt.num_threads);
  json.Add("warm_seconds_mt", warm_mt_seconds);
  json.Add("warm_speedup", warm_speedup);
  json.Add("max_diff", max_diff);
  json.Add("identical", max_diff == 0.0);
  json.WriteFile("BENCH_a9.json");

  bench::GateSet gates;
  gates.Require("identical", max_diff == 0.0);
  gates.Require("warm_vs_cold>=1.5x", warm_speedup >= 1.5);
  gates.Print();
  return gates.ExitCode();
}
