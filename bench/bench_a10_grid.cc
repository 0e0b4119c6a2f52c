// Ablation A10 — base-invariant plans: the scenario × base grid sweep.
//
// A9 shows the plan cache amortizing planning across *replays of the same
// call*. This bench amortizes across the other axis: one scenario set
// evaluated under many per-user base valuations — the "same what-if panel,
// different customer defaults" workload. Before plans split into a
// base-free core and a per-base state the base hash was part of the
// plan-cache key, so every base change was a full cache miss: name→id
// scenario compilation, engine choice, block program and tile schedules
// were all redone per base. AssignGrid plans the shared PlanCore once and
// runs it on each base as it is — the loop builds only the base's state
// (pool-sized copy and base sums) — writing cells straight into one
// (base × scenario × group) matrix with no per-scenario report
// materialization.
//
// The bench builds the high-cardinality per-order TPC-H workload (the shape
// where planning is a real fraction of a batch call), then measures
//
//   (a) the naive per-base AssignBatch loop with the plan cache cleared
//       before every call — the pre-split cost model, where a new base
//       could never reuse another base's plan;
//   (b) the same loop warm — today's cost model, where each base core-hits
//       and builds its base state but still materializes per-scenario
//       reports;
//   (c) AssignGrid over the same scenarios × bases;
//
// all three pinned to the 16-lane blocked kernel, best-of-R each. It
// verifies every grid cell is bit-identical to the per-base AssignBatch
// reports, and exits non-zero unless the grid is >= 3x the naive
// re-planning loop (the acceptance gate). A machine-readable
// BENCH_a10.json lands next to the human output.
//
// Knobs: COBRA_A10_SCENARIOS (1024), COBRA_A10_BASES (64),
//        COBRA_A10_SF (0.01, TPC-H scale factor), COBRA_A10_THREADS
//        (0 = hardware), COBRA_A10_BUCKET (128), COBRA_A10_BOUND_PCT (60),
//        COBRA_A10_DELTAS (12 overrides per scenario), COBRA_A10_REPS (3).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "prov/valuation.h"
#include "rel/sql/planner.h"
#include "util/timer.h"

namespace {

using namespace cobra;

/// Scenarios with wide override lists: `deltas` perturbations each — the
/// planning-heavy shape whose re-compilation the grid amortizes away.
core::ScenarioSet MakeScenarios(const core::Session& session, std::size_t n,
                                std::size_t deltas) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
  if (meta.empty()) {
    std::fprintf(stderr, "no meta-variables to perturb (leaf-only cut?)\n");
    std::exit(1);
  }
  core::ScenarioSet set;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = set.Add("grid-" + std::to_string(i)).ValueOrDie();
    for (std::size_t d = 0; d < deltas; ++d) {
      s.Set(meta[(i * 7 + d * 13) % meta.size()].name,
            1.0 + 0.01 * static_cast<double>((i + d) % 40 + 1));
    }
  }
  return set;
}

/// Per-user default valuations: pool-sized, each moving every meta-variable
/// by a distinct per-base factor.
std::vector<prov::Valuation> MakeBases(const core::CompiledSession& snapshot,
                                       std::size_t count) {
  const std::vector<core::MetaVar>& meta = snapshot.meta_vars();
  std::vector<prov::Valuation> bases;
  bases.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    prov::Valuation base(snapshot.pool_size());
    for (std::size_t m = 0; m < meta.size(); ++m) {
      base.Set(meta[m].var,
               1.0 + 0.002 * static_cast<double>((b * 11 + m * 3) % 50 + 1));
    }
    bases.push_back(std::move(base));
  }
  return bases;
}

/// Largest absolute difference between grid cells and a per-base report.
double MaxGridDifference(const core::GridAssignReport& grid, std::size_t b,
                         const core::BatchAssignReport& batch) {
  if (batch.reports.size() != grid.num_scenarios()) return HUGE_VAL;
  double max_diff = 0.0;
  for (std::size_t s = 0; s < grid.num_scenarios(); ++s) {
    const auto& rows = batch.reports[s].delta.rows;
    if (rows.size() != grid.num_groups) return HUGE_VAL;
    for (std::size_t g = 0; g < grid.num_groups; ++g) {
      max_diff = std::max(
          max_diff, std::fabs(grid.full_value(b, s, g) - rows[g].full));
      max_diff =
          std::max(max_diff, std::fabs(grid.compressed_value(b, s, g) -
                                       rows[g].compressed));
    }
  }
  return max_diff;
}

}  // namespace

int main() {
  const std::size_t num_scenarios =
      bench::EnvSize("COBRA_A10_SCENARIOS", 1024);
  const std::size_t num_bases = bench::EnvSize("COBRA_A10_BASES", 64);
  const double scale_factor = bench::EnvDouble("COBRA_A10_SF", 0.01);
  const std::size_t num_threads = bench::EnvSize("COBRA_A10_THREADS", 0);
  const std::size_t bucket_size = bench::EnvSize("COBRA_A10_BUCKET", 128);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A10_BOUND_PCT", 60);
  const std::size_t deltas = bench::EnvSize("COBRA_A10_DELTAS", 12);
  const std::size_t reps =
      std::max<std::size_t>(1, bench::EnvSize("COBRA_A10_REPS", 3));

  bench::Header("A10: scenario x base grid sweeps (base-invariant plans)");

  data::TpchConfig config;
  config.scale_factor = scale_factor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByOrder(&db).CheckOK();
  const std::size_t num_orders = config.NumOrders();

  const char* sql =
      "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
      "FROM lineitem "
      "WHERE l_shipdate >= 19940101 AND l_shipdate < 19940401 "
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
              "per scenario, %zu bases\n",
              report.original_size, report.compressed_size,
              session.meta_vars().size(), deltas, num_bases);

  std::shared_ptr<const core::CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  core::ScenarioSet scenarios = MakeScenarios(session, num_scenarios, deltas);
  std::vector<prov::Valuation> bases = MakeBases(*snapshot, num_bases);

  // Pinned to the blocked kernel (like A7): kAuto's policy is not what this
  // bench measures, and the blocked engine is the serving default for grid
  // workloads — it exercises both halves of the split, the shared block
  // program and the per-base states.
  core::BatchOptions options;
  options.sweep = core::BatchOptions::Sweep::kBlocked;
  options.num_threads = num_threads;

  // Bit-identity corpus: one grid, checked cell-by-cell against a warm
  // per-base AssignBatch for every base.
  core::GridAssignReport grid =
      snapshot->AssignGrid(scenarios, bases, options).ValueOrDie();
  double max_diff = 0.0;
  for (std::size_t b = 0; b < num_bases; ++b) {
    core::BatchAssignReport batch =
        snapshot->AssignBatch(scenarios, bases[b], options).ValueOrDie();
    max_diff = std::max(max_diff, MaxGridDifference(grid, b, batch));
  }

  // Best-of-R: naive cold loop (cache cleared per call — the pre-split cost
  // model), naive warm loop (core hits, base states, full reports), and the
  // grid.
  double naive_seconds = HUGE_VAL;
  double warm_seconds = HUGE_VAL;
  double grid_seconds = HUGE_VAL;
  for (std::size_t r = 0; r < reps; ++r) {
    naive_seconds = std::min(naive_seconds, bench::TimeSeconds([&] {
      for (const prov::Valuation& base : bases) {
        snapshot->ClearPlanCache();
        snapshot->AssignBatch(scenarios, base, options).ValueOrDie();
      }
    }));

    snapshot->ClearPlanCache();
    snapshot->AssignBatch(scenarios, bases[0], options).ValueOrDie();
    warm_seconds = std::min(warm_seconds, bench::TimeSeconds([&] {
      for (const prov::Valuation& base : bases) {
        snapshot->AssignBatch(scenarios, base, options).ValueOrDie();
      }
    }));

    snapshot->ClearPlanCache();
    core::GridAssignReport timed;
    grid_seconds = std::min(grid_seconds, bench::TimeSeconds([&] {
      timed = snapshot->AssignGrid(scenarios, bases, options).ValueOrDie();
    }));
    if (timed.plan_cache_hit) {
      std::fprintf(stderr, "grid unexpectedly hit a cleared plan cache\n");
      return 1;
    }
  }

  const double grid_vs_naive = bench::Ratio(naive_seconds, grid_seconds);
  const double grid_vs_warm = bench::Ratio(warm_seconds, grid_seconds);
  const double cells = static_cast<double>(grid.cells());

  std::printf("\n%-32s %12s %16s\n", "mode", "total (ms)", "per (s,b) pair");
  std::printf("%-32s %12.2f %14.2fus\n", "naive loop (re-plan per base)",
              naive_seconds * 1e3,
              naive_seconds * 1e6 /
                  static_cast<double>(num_scenarios * num_bases));
  std::printf("%-32s %12.2f %14.2fus\n", "warm loop (core-hit per base)",
              warm_seconds * 1e3,
              warm_seconds * 1e6 /
                  static_cast<double>(num_scenarios * num_bases));
  std::printf("%-32s %12.2f %14.2fus\n", "AssignGrid (plan once)",
              grid_seconds * 1e3,
              grid_seconds * 1e6 /
                  static_cast<double>(num_scenarios * num_bases));
  std::printf(
      "\nscenarios=%zu bases=%zu cells=%.0f threads=%zu engine=%s lanes=%zu\n"
      "grid vs naive=%.2fx  grid vs warm=%.2fx  max |diff|=%g\n",
      num_scenarios, num_bases, cells, grid.num_threads,
      core::SweepName(grid.engine), grid.block_lanes, grid_vs_naive,
      grid_vs_warm, max_diff);
  std::printf("result check: %s (every grid cell vs per-base AssignBatch)\n",
              max_diff == 0.0 ? "IDENTICAL" : "MISMATCH");

  bench::JsonObject json;
  json.Add("bench", std::string("a10_grid"));
  json.Add("scenarios", num_scenarios);
  json.Add("bases", num_bases);
  json.Add("threads", grid.num_threads);
  json.Add("deltas_per_scenario", deltas);
  json.Add("scale_factor", scale_factor);
  json.Add("engine", std::string(core::SweepName(grid.engine)));
  json.Add("lanes", grid.block_lanes);
  json.Add("monomials_full", snapshot->full_size());
  json.Add("monomials_compressed", snapshot->compressed_size());
  json.Add("plan_seconds", grid.plan_seconds);
  json.Add("full_sweep_seconds", grid.full_sweep_seconds);
  json.Add("compressed_sweep_seconds", grid.compressed_sweep_seconds);
  json.Add("naive_seconds", naive_seconds);
  json.Add("warm_seconds", warm_seconds);
  json.Add("grid_seconds", grid_seconds);
  json.Add("grid_vs_naive", grid_vs_naive);
  json.Add("grid_vs_warm", grid_vs_warm);
  json.Add("max_diff", max_diff);
  json.Add("identical", max_diff == 0.0);
  json.WriteFile("BENCH_a10.json");

  bench::GateSet gates;
  gates.Require("identical", max_diff == 0.0);
  gates.Require("grid_vs_naive>=3x", grid_vs_naive >= 3.0);
  gates.Print();
  return gates.ExitCode();
}
