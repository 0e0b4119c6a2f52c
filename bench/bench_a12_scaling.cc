// Ablation A12 — the 16-lane blocked kernel: bit-identity and multi-core
// scaling (per-order TPC-H).
//
// The blocked kernel (kBlocked) evaluates 16 scenario lanes per scan of the
// compiled program. This bench runs it on the A7 workload with wide
// override unions at 1, hw/2 and hw threads (best-of-R each). Every run must
// stay bit-identical to the scalar sparse-delta engine (the reference
// semantics). When the host has >= 2 hardware threads the hw-thread sweep
// must also be >= 1.6x the single-thread one; on a 1-core box the gate
// cannot be armed and is skipped with a visible notice (CI greps for it and
// surfaces a ::notice annotation).
//
// It also records the cold plan: the best-of-R time of one PlanBatch on
// the blocked engine after ClearPlanCache, i.e. everything a batch nobody
// planned before pays before its sweep (lowering, block program, tile
// schedules). Recorded, not gated.
//
// It prints which blocked-kernel body ran ("blocked kernel isa: avx2" or
// "baseline", prov::BlockedKernelIsa()); CI surfaces a ::notice when the
// runner ran the baseline body. A machine-readable BENCH_a12.json, which
// records it as kernel_isa, lands next to the human output.
//
// Knobs: COBRA_A12_SCENARIOS (1024), COBRA_A12_SF (0.03, TPC-H scale
//        factor), COBRA_A12_BUCKET (128 orders per tree bucket),
//        COBRA_A12_BOUND_PCT (60), COBRA_A12_DELTAS (32, overrides per
//        scenario), COBRA_A12_REPS (11, best-of timing rounds),
//        COBRA_A12_MIN_MT (1.6).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
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

namespace {

using namespace cobra;

core::ScenarioSet MakeScenarios(const core::Session& session, std::size_t n,
                                std::size_t deltas) {
  const std::vector<core::MetaVar>& meta = session.meta_vars();
  if (meta.empty()) {
    std::fprintf(stderr, "no meta-variables to perturb (leaf-only cut?)\n");
    std::exit(1);
  }
  core::ScenarioSet set;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = set.Add("whatif-" + std::to_string(i)).ValueOrDie();
    for (std::size_t d = 0; d < std::max<std::size_t>(1, deltas); ++d) {
      s.Set(meta[(i + d * 131) % meta.size()].name,
            1.0 + 0.01 * static_cast<double>((i + d) % 40 + 1));
    }
  }
  return set;
}

/// Bitwise comparison between two batched reports (the sweep contract is
/// bit-identity, not tolerance).
bool BitIdentical(const core::BatchAssignReport& a,
                  const core::BatchAssignReport& b) {
  if (a.reports.size() != b.reports.size()) return false;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i].delta.rows;
    const auto& rb = b.reports[i].delta.rows;
    if (ra.size() != rb.size()) return false;
    for (std::size_t r = 0; r < ra.size(); ++r) {
      if (std::memcmp(&ra[r].full, &rb[r].full, sizeof(double)) != 0 ||
          std::memcmp(&ra[r].compressed, &rb[r].compressed,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  const std::size_t num_scenarios =
      bench::EnvSize("COBRA_A12_SCENARIOS", 1024);
  const double scale_factor = bench::EnvDouble("COBRA_A12_SF", 0.03);
  const std::size_t bucket_size = bench::EnvSize("COBRA_A12_BUCKET", 128);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A12_BOUND_PCT", 60);
  const std::size_t reps = bench::EnvSize("COBRA_A12_REPS", 11);
  const std::size_t deltas = bench::EnvSize("COBRA_A12_DELTAS", 32);
  const double min_mt = bench::EnvDouble("COBRA_A12_MIN_MT", 1.6);

  bench::Header("A12: 16-lane blocked kernel, multi-core scaling");
  std::printf("blocked kernel isa: %s\n", prov::BlockedKernelIsa());

  data::TpchConfig config;
  config.scale_factor = scale_factor;
  rel::Database db = data::GenerateTpch(config);
  data::InstrumentTpchByOrder(&db).CheckOK();
  const std::size_t num_orders = config.NumOrders();

  // The A7 workload: per-order instrumentation (high-cardinality pool),
  // Q6-style filter — the program is large enough that the sweep is a
  // long contiguous scan for the worker threads to share.
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
  session.SetBound(std::max<std::size_t>(
      1, session.full().TotalMonomials() * bound_pct / 100));
  core::CompressionReport report =
      session.Compress(core::Algorithm::kGreedy).ValueOrDie();
  std::printf("compressed: %zu -> %zu monomials (%zu meta-vars)\n",
              report.original_size, report.compressed_size,
              session.meta_vars().size());

  std::shared_ptr<const core::CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  core::ScenarioSet scenarios = MakeScenarios(session, num_scenarios, deltas);

  // Reference semantics: the scalar sparse-delta engine.
  core::BatchOptions sparse;
  sparse.num_threads = 1;
  sparse.sweep = core::BatchOptions::Sweep::kSparseDelta;
  core::BatchAssignReport reference =
      snapshot->AssignBatch(scenarios, sparse).ValueOrDie();

  // Thread counts 1, hw/2 and hw; duplicates collapse on small hosts.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts = {1};
  if (hw / 2 > 1) thread_counts.push_back(hw / 2);
  if (hw > 1) thread_counts.push_back(hw);
  core::BatchOptions blocked;
  blocked.sweep = core::BatchOptions::Sweep::kBlocked;

  // Cold plan, single-threaded: the cache is cleared (and the evicted plan
  // freed) outside the timed region.
  double cold_plan_seconds = HUGE_VAL;
  {
    core::BatchOptions options = blocked;
    options.num_threads = 1;
    for (std::size_t r = 0; r < std::max<std::size_t>(1, reps); ++r) {
      snapshot->ClearPlanCache();
      cold_plan_seconds = std::min(cold_plan_seconds, bench::TimeSeconds([&] {
        snapshot->PlanBatch(scenarios, options).ValueOrDie();
      }));
    }
    snapshot->ClearPlanCache();
  }
  std::printf("cold plan (1 thread, best of %zu): %.3f ms\n",
              std::max<std::size_t>(1, reps), cold_plan_seconds * 1e3);

  std::printf("\n%-24s %12s %16s\n", "threads", "best (ms)", "scenarios/sec");
  bool identical = true;
  double t1_seconds = 0.0;
  double thw_seconds = 0.0;
  for (std::size_t threads : thread_counts) {
    core::BatchOptions options = blocked;
    options.num_threads = threads;
    core::BatchAssignReport batch;
    const double elapsed =
        bench::BestOfSeconds(std::max<std::size_t>(1, reps), [&] {
          batch = snapshot->AssignBatch(scenarios, options).ValueOrDie();
        });
    identical = identical && BitIdentical(reference, batch);
    if (threads == 1) t1_seconds = elapsed;
    if (threads == hw) thw_seconds = elapsed;
    std::printf("%-24zu %12.2f %16.0f\n", threads, elapsed * 1e3,
                bench::Ratio(static_cast<double>(num_scenarios), elapsed));
  }
  const bool mt_gate_armed = hw >= 2;
  const double mt_scaling =
      mt_gate_armed ? bench::Ratio(t1_seconds, thw_seconds) : 0.0;

  bench::JsonObject json;
  json.Add("bench", std::string("a12_scaling"));
  json.Add("scenarios", num_scenarios);
  json.Add("scale_factor", scale_factor);
  json.Add("monomials_full", snapshot->full_size());
  json.Add("monomials_compressed", snapshot->compressed_size());
  json.Add("pool_size", snapshot->pool_size());
  json.Add("hardware_threads", hw);
  json.Add("kernel_isa", std::string(prov::BlockedKernelIsa()));
  json.Add("t1_seconds", t1_seconds);
  json.Add("thw_seconds", thw_seconds);
  json.Add("cold_plan_seconds", cold_plan_seconds);
  json.Add("mt_gate_armed", mt_gate_armed);
  json.Add("mt_scaling", mt_scaling);
  json.Add("identical", identical);
  json.WriteFile("BENCH_a12.json");

  bench::GateSet gates;
  gates.Require("identical", identical);
  if (mt_gate_armed) {
    gates.Require("multi_core_scaling>=1.6x", mt_scaling >= min_mt);
  } else {
    gates.Skip("multi_core_scaling>=1.6x",
               "host has 1 hardware thread; nothing to scale across");
  }
  gates.Print();
  return gates.ExitCode();
}
