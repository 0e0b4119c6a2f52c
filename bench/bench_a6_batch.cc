// Ablation A6 — batched multi-scenario assignment (the serving path).
//
// COBRA's value proposition is that one compression serves *many*
// hypothetical scenarios. This bench measures that: on the TPC-H Q6
// workload (ship-month provenance, year->quarter->month tree) it runs N
// what-if scenarios
//
//   (a) sequentially, one Session::Assign() per scenario — each call pays
//       the per-scenario result comparison plus a calibrated
//       assignment-timing measurement (this is what the interactive demo
//       does today, and the bulk of its cost is that timing harness);
//   (b) as N one-scenario AssignBatch() calls — no timing harness, so the
//       contrast with (c) isolates what batching itself buys;
//   (c) in one Session::AssignBatch() sweep — compiled EvalPrograms are
//       cached, every scenario is evaluated exactly once per side, the
//       sweep is thread-parallel, and scenarios are evaluated a block at a
//       time by the scenario-blocked kernel (the default engine);
//
// then re-runs the batch with the scalar sparse engine as the A/B
// reference, verifies the per-scenario results are bit-identical across
// every path, and reports the speedups. The exit-code gate (the
// acceptance criterion) is on (a) vs (c). A machine-readable BENCH_a6.json
// lands next to the human output.
//
// Knobs: COBRA_A6_SCENARIOS (64), COBRA_A6_SF (0.05, TPC-H scale factor),
//        COBRA_A6_THREADS (0 = hardware), COBRA_A6_BOUND_PCT (50).

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "rel/sql/planner.h"
#include "util/timer.h"

namespace {

using namespace cobra;

/// One scenario per meta-variable (cycling), each nudging that variable by
/// a scenario-specific factor — the "thousands of analysts, one
/// compression" traffic shape.
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
      s.Set(meta[(i + 3) % meta.size()].name,
            1.0 - 0.005 * static_cast<double>(i % 20 + 1));
    }
  }
  return set;
}

/// Largest absolute difference between the sequential and batched results,
/// over every scenario, group, and side.
double MaxResultDifference(const std::vector<core::ResultDelta>& sequential,
                           const core::BatchAssignReport& batch) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const auto& want = sequential[i].rows;
    const auto& got = batch.reports[i].delta.rows;
    if (want.size() != got.size()) return HUGE_VAL;
    for (std::size_t r = 0; r < want.size(); ++r) {
      max_diff = std::max(max_diff, std::fabs(want[r].full - got[r].full));
      max_diff = std::max(max_diff,
                          std::fabs(want[r].compressed - got[r].compressed));
    }
  }
  return max_diff;
}

}  // namespace

int main() {
  const std::size_t num_scenarios = bench::EnvSize("COBRA_A6_SCENARIOS", 64);
  const double scale_factor = bench::EnvDouble("COBRA_A6_SF", 0.05);
  const std::size_t num_threads = bench::EnvSize("COBRA_A6_THREADS", 0);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A6_BOUND_PCT", 50);

  bench::Header("A6: batched multi-scenario assignment (TPC-H Q6)");

  data::TpchConfig config;
  config.scale_factor = scale_factor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByShipMonth(&db).CheckOK();
  data::TpchQuerySpec q6 = data::TpchQueryById("Q6").ValueOrDie();
  prov::PolySet provenance =
      rel::sql::RunSql(db, q6.sql).ValueOrDie().Provenance(q6.provenance_agg);
  std::printf("workload: %s at SF %.3g — %zu monomials, %zu variables\n",
              q6.id.c_str(), scale_factor, provenance.TotalMonomials(),
              provenance.NumDistinctVariables());

  core::Session session(db.var_pool());
  session.LoadPolynomials(std::move(provenance));
  session.SetTreeText(q6.tree_text).CheckOK();
  std::size_t bound =
      std::max<std::size_t>(1, session.full().TotalMonomials() * bound_pct / 100);
  session.SetBound(bound);
  core::CompressionReport report = session.Compress().ValueOrDie();
  std::printf("compressed: %zu -> %zu monomials (bound %zu, cut %s)\n",
              report.original_size, report.compressed_size, bound,
              report.cut_description.c_str());

  core::ScenarioSet scenarios = MakeScenarios(session, num_scenarios);

  // (a) Sequential: one Assign() per scenario, defaults restored between
  // scenarios so each one is independent (the semantics AssignBatch gives).
  std::vector<core::ResultDelta> sequential;
  sequential.reserve(num_scenarios);
  const double sequential_seconds = bench::TimeSeconds([&] {
    for (const core::Scenario& scenario : scenarios.scenarios()) {
      session.ResetMetaValues().CheckOK();
      for (const core::Scenario::Delta& delta : scenario.deltas) {
        session.SetMetaValue(delta.var, delta.value).CheckOK();
      }
      sequential.push_back(session.Assign(1).ValueOrDie().delta);
    }
  });
  session.ResetMetaValues().CheckOK();

  core::BatchOptions options;
  options.num_threads = num_threads;
  // Pin the blocked kernel: this bench A/Bs the engines explicitly, so the
  // adaptive kAuto policy must not re-route the "blocked" rows.
  options.sweep = core::BatchOptions::Sweep::kBlocked;

  // (b) N one-scenario batches: same engine, no amortization. The contrast
  // with (c) is the honest measure of batching proper (per-call overhead,
  // shared valuation prep, one sweep instead of N), with the timing-harness
  // cost of (a) out of the picture.
  std::vector<core::ResultDelta> one_at_a_time;
  one_at_a_time.reserve(num_scenarios);
  const double single_seconds = bench::TimeSeconds([&] {
    for (const core::Scenario& scenario : scenarios.scenarios()) {
      core::ScenarioSet single;
      single.Add(scenario);
      one_at_a_time.push_back(session.AssignBatch(single, options)
                                  .ValueOrDie()
                                  .reports[0]
                                  .delta);
    }
  });

  // (c) Batched: one sweep with the default scenario-blocked kernel.
  core::BatchAssignReport batch;
  const double batch_seconds = bench::TimeSeconds([&] {
    batch = session.AssignBatch(scenarios, options).ValueOrDie();
  });

  // (d) Batched with the scalar sparse-delta engine — isolates what the
  // blocked kernel buys over one-program-scan-per-scenario.
  core::BatchOptions sparse = options;
  sparse.sweep = core::BatchOptions::Sweep::kSparseDelta;
  core::BatchAssignReport sparse_batch;
  const double sparse_seconds = bench::TimeSeconds([&] {
    sparse_batch = session.AssignBatch(scenarios, sparse).ValueOrDie();
  });

  double max_diff = MaxResultDifference(sequential, batch);
  max_diff = std::max(max_diff, MaxResultDifference(one_at_a_time, batch));
  max_diff = std::max(max_diff, MaxResultDifference(sequential, sparse_batch));
  const double speedup = bench::Ratio(sequential_seconds, batch_seconds);
  const double batching_speedup = bench::Ratio(single_seconds, batch_seconds);

  std::printf("\n%-28s %12s %16s\n", "mode", "total (ms)", "per scenario");
  std::printf("%-28s %12.2f %14.2fms\n", "sequential Assign() x N",
              sequential_seconds * 1e3,
              sequential_seconds * 1e3 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus\n", "AssignBatch(1) x N",
              single_seconds * 1e3,
              single_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus\n", "AssignBatch(N) blocked",
              batch_seconds * 1e3,
              batch_seconds * 1e6 / static_cast<double>(num_scenarios));
  std::printf("%-28s %12.2f %14.2fus\n", "AssignBatch(N) sparse scalar",
              sparse_seconds * 1e3,
              sparse_seconds * 1e6 / static_cast<double>(num_scenarios));
  const double blocked_vs_sparse = bench::Ratio(sparse_seconds, batch_seconds);
  std::printf(
      "\nscenarios=%zu threads=%zu  speedup vs Assign()=%.1fx  "
      "vs one-at-a-time batches=%.1fx  blocked vs sparse=%.2fx  "
      "max |diff|=%g\n",
      num_scenarios, batch.num_threads, speedup, batching_speedup,
      blocked_vs_sparse, max_diff);
  std::printf("result check: %s\n",
              max_diff == 0.0 ? "IDENTICAL" : "MISMATCH");
  std::printf("\n%s", batch.ToString(2, 3).c_str());

  bench::JsonObject json;
  json.Add("bench", std::string("a6_batch"));
  json.Add("scenarios", num_scenarios);
  json.Add("threads", batch.num_threads);
  json.Add("scale_factor", scale_factor);
  json.Add("sequential_seconds", sequential_seconds);
  json.Add("single_batches_seconds", single_seconds);
  json.Add("blocked_seconds", batch_seconds);
  json.Add("sparse_seconds", sparse_seconds);
  json.Add("speedup_vs_sequential", speedup);
  json.Add("blocked_vs_sparse", blocked_vs_sparse);
  json.Add("max_diff", max_diff);
  json.Add("identical", max_diff == 0.0);
  json.WriteFile("BENCH_a6.json");

  bench::GateSet gates;
  gates.Require("identical", max_diff == 0.0);
  gates.Require("speedup_vs_sequential>=5x", speedup >= 5.0);
  gates.Print();
  return gates.ExitCode();
}
