// Ablation A11 — streaming sweeps: scenario algebra + top-k/threshold
// early exit over a million-scenario space.
//
// A6-A10 all materialize their ScenarioSet up front, so the swept space is
// bounded by memory. This bench sweeps a CartesianSource grid of
// steps x steps scenarios (default 1024 x 1024 = 1,048,576) through
// CompiledSession::AssignStream, which generates, lowers, and sweeps one
// window (BatchOptions::stream_block_scenarios) at a time. It measures and
// gates the three claims the streaming refactor makes:
//
//   (a) bit-identity — the first COBRA_A11_PREFIX streamed rows equal
//       materializing that prefix and running AssignBatch over it, bit for
//       bit (the streamed path is the same sweep kernel, re-chunked), and
//       the names the stream asks of the source on demand — the consumer's
//       per-block names and the top-k entries' names — equal Generate's;
//   (b) flat memory — the peak-RSS delta of streaming the full space is a
//       window, not the space: materializing the same source must cost
//       more than 2x the streaming delta (gated only when materializing
//       costs >= 16 MiB, so shrunk CI runs don't gate on noise);
//   (c) early exit — a selective kThreshold query (cutoff at the 95th
//       percentile of the observed metric range) must run >= 2x faster
//       than the exhaustive kAll sweep, because pruned blocks skip the
//       expensive full-side program entirely; a kTopK query must skip
//       > 50% of full-side rows.
//
// The workload is the per-order TPC-H Q6 shape from A7/A10 — the
// compressed program is the cheap metric side, the full per-order program
// is the expensive side that pruning avoids. Exits non-zero if any gate
// fails; emits BENCH_a11.json.
//
// Knobs: COBRA_A11_AXIS_STEPS (1024; scenarios = steps^2),
//        COBRA_A11_WINDOW (4096), COBRA_A11_PREFIX (512),
//        COBRA_A11_SF (0.01), COBRA_A11_THREADS (0 = hardware),
//        COBRA_A11_BUCKET (2048), COBRA_A11_BOUND_PCT (20),
//        COBRA_A11_TOPK (16).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "prov/poly_set.h"
#include "rel/sql/planner.h"
#include "util/timer.h"

namespace {

using namespace cobra;

/// Peak resident set (VmHWM) in bytes from /proc/self/status, or 0 when
/// unavailable (non-Linux); the memory gate is skipped in that case. VmHWM
/// is monotone, so deltas between successive readings attribute peak
/// growth to the phase in between — which is why streaming runs first.
std::size_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

int main() {
  const std::size_t steps = bench::EnvSize("COBRA_A11_AXIS_STEPS", 1024);
  const std::size_t window = bench::EnvSize("COBRA_A11_WINDOW", 4096);
  const std::size_t prefix = bench::EnvSize("COBRA_A11_PREFIX", 512);
  const double scale_factor = bench::EnvDouble("COBRA_A11_SF", 0.01);
  const std::size_t num_threads = bench::EnvSize("COBRA_A11_THREADS", 0);
  const std::size_t bucket_size = bench::EnvSize("COBRA_A11_BUCKET", 2048);
  const std::size_t bound_pct = bench::EnvSize("COBRA_A11_BOUND_PCT", 20);
  const std::size_t topk = bench::EnvSize("COBRA_A11_TOPK", 16);

  bench::Header("A11: streaming sweeps over a generated scenario space");

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

  core::Session session(db.var_pool());
  session.LoadPolynomials(std::move(provenance));
  session.SetTreeText(data::OrderBucketTreeText(num_orders, bucket_size))
      .CheckOK();
  const std::size_t bound = std::max<std::size_t>(
      1, session.full().TotalMonomials() * bound_pct / 100);
  session.SetBound(bound);
  core::CompressionReport report =
      session.Compress(core::Algorithm::kGreedy).ValueOrDie();
  std::shared_ptr<const core::CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();

  const std::vector<core::MetaVar>& meta = snapshot->meta_vars();
  if (meta.size() < 2) {
    std::fprintf(stderr, "need >= 2 meta-variables, got %zu\n", meta.size());
    return 1;
  }
  // Most meta-variables at a deep cut cover orders filtered out by the
  // query and move nothing. Probe the widest merges (most leaves) with one
  // small batch and take the two whose perturbation moves the groups most.
  std::vector<std::size_t> candidates(meta.size());
  for (std::size_t m = 0; m < meta.size(); ++m) candidates[m] = m;
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return meta[a].leaves.size() > meta[b].leaves.size();
            });
  candidates.resize(std::min<std::size_t>(16, candidates.size()));
  core::ScenarioSet probes;
  probes.Reserve(candidates.size());
  for (std::size_t m : candidates) {
    probes.Add("probe-" + meta[m].name)
        .ValueOrDie()
        .Set(meta[m].name, 2.0);
  }
  core::BatchAssignReport probe_report =
      snapshot->AssignBatch(probes, core::BatchOptions{}).ValueOrDie();
  std::vector<std::pair<double, std::size_t>> impact;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    double sum = 0.0;
    for (const auto& row : probe_report.reports[i].delta.rows) {
      sum += std::fabs(row.full);
    }
    impact.emplace_back(sum, candidates[i]);
  }
  std::sort(impact.begin(), impact.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (impact.size() < 2 || impact[1].first == 0.0) {
    std::fprintf(stderr, "fewer than 2 meta-variables move the result\n");
    return 1;
  }
  const core::MetaVar& axis0 = meta[impact[0].second];
  const core::MetaVar& axis1 = meta[impact[1].second];
  // Two axes, symmetric around 1.0: the best metrics sit at the corners of
  // the grid, so top-k/threshold survivors appear both early and late in
  // the stream — pruning must work on a non-monotone metric sequence.
  auto source =
      core::CartesianSource::Create(
          {core::LinSpace(axis0.name, 0.5, 1.5, steps),
           core::LinSpace(axis1.name, 0.5, 1.5, steps)},
          "a11")
          .ValueOrDie();
  const std::size_t total = static_cast<std::size_t>(source->size());
  std::printf(
      "workload: per-order Q6 at SF %.3g — %zu -> %zu monomials, "
      "%zu meta-vars\nspace: %zux%zu grid = %zu scenarios, window %zu\n",
      scale_factor, report.original_size, report.compressed_size,
      meta.size(), steps, steps, total, window);

  core::StreamOptions options;
  options.batch.num_threads = num_threads;
  options.batch.stream_block_scenarios = window;
  // One polynomial's term-slice boundaries change with chunk geometry, and
  // with them the FP summation order; disable splitting so the prefix
  // comparison below can demand bitwise equality.
  options.batch.split_min_terms = std::size_t{1} << 30;

  // (1) Exhaustive kAll stream: the throughput/memory baseline. The
  // consumer captures the first `prefix` rows for the bit-identity check.
  const std::size_t hwm_before_stream = PeakRssBytes();
  std::vector<std::vector<double>> prefix_full;
  std::vector<std::vector<double>> prefix_comp;
  std::vector<std::string> prefix_names;
  auto capture = [&](const core::StreamBlockView& view) {
    for (std::size_t i = 0;
         i < view.count && view.begin + i < prefix; ++i) {
      prefix_full.emplace_back(view.full + i * view.num_groups,
                               view.full + (i + 1) * view.num_groups);
      prefix_comp.emplace_back(view.compressed + i * view.num_groups,
                               view.compressed + (i + 1) * view.num_groups);
      prefix_names.push_back((*view.names)[i]);
    }
    return true;
  };
  core::SweepSummary all;
  const double all_seconds = bench::TimeSeconds([&] {
    all = snapshot->AssignStream(*source, options, capture).ValueOrDie();
  });
  const std::size_t hwm_after_stream = PeakRssBytes();
  std::printf("\nkAll stream: %.2fs (%.2fus/scenario), engine=%s lanes=%zu "
              "threads=%zu chunks=%llu\n",
              all_seconds, all_seconds * 1e6 / static_cast<double>(total),
              core::SweepName(all.engine), all.block_lanes, all.num_threads,
              static_cast<unsigned long long>(all.chunks));

  // (2) Selective threshold at the 95th percentile of the observed range:
  // nearly every block prunes its full-side sweep.
  core::StreamOptions selective = options;
  selective.query.kind = core::StreamQuery::Kind::kThreshold;
  selective.query.cutoff =
      all.metric_min + 0.95 * (all.metric_max - all.metric_min);
  selective.query.max_entries = 64;
  core::SweepSummary threshold;
  const double threshold_seconds = bench::TimeSeconds([&] {
    threshold = snapshot->AssignStream(*source, selective).ValueOrDie();
  });
  const double threshold_speedup =
      bench::Ratio(all_seconds, threshold_seconds);
  std::printf("threshold:   %.2fs (%.2fx vs kAll) matched=%llu "
              "rows computed=%llu skipped=%llu\n",
              threshold_seconds, threshold_speedup,
              static_cast<unsigned long long>(threshold.matched),
              static_cast<unsigned long long>(threshold.full_rows_computed),
              static_cast<unsigned long long>(threshold.full_rows_skipped));

  // (3) Top-k: keep the k best scenarios of the whole space.
  core::StreamOptions best = options;
  best.query.kind = core::StreamQuery::Kind::kTopK;
  best.query.k = topk;
  core::SweepSummary top;
  const double topk_seconds = bench::TimeSeconds([&] {
    top = snapshot->AssignStream(*source, best).ValueOrDie();
  });
  const double topk_skip_fraction =
      static_cast<double>(top.full_rows_skipped) /
      static_cast<double>(total);
  std::printf("top-%zu:      %.2fs, skipped %.1f%% of full rows\n", topk,
              topk_seconds, topk_skip_fraction * 100.0);
  for (std::size_t i = 0; i < std::min<std::size_t>(3, top.entries.size());
       ++i) {
    std::printf("  #%llu %-12s metric=%.6g\n",
                static_cast<unsigned long long>(top.entries[i].index),
                top.entries[i].name.c_str(), top.entries[i].metric);
  }

  // (4) Bit-identity: materialize the prefix, AssignBatch it, compare.
  core::ScenarioSet prefix_set;
  prefix_set.Reserve(prefix);
  source->Generate(0, std::min<std::uint64_t>(prefix, total), &prefix_set)
      .CheckOK();
  core::BatchAssignReport batch =
      snapshot->AssignBatch(prefix_set, options.batch).ValueOrDie();
  double max_diff = 0.0;
  bool bits_identical = prefix_full.size() == prefix_set.size();
  for (std::size_t i = 0; i < prefix_set.size() && bits_identical; ++i) {
    if (prefix_names[i] != prefix_set.scenario(i).name) bits_identical = false;
    const auto& rows = batch.reports[i].delta.rows;
    for (std::size_t g = 0; g < rows.size(); ++g) {
      if (!SameBits(prefix_full[i][g], rows[g].full) ||
          !SameBits(prefix_comp[i][g], rows[g].compressed)) {
        bits_identical = false;
      }
      max_diff = std::max(max_diff,
                          std::fabs(prefix_full[i][g] - rows[g].full));
    }
  }
  // The kept entries' names, asked of the source on demand, against the
  // names Generate gives the same ordinals.
  bool names_identical = true;
  for (const core::StreamEntry& entry : top.entries) {
    core::ScenarioSet one;
    source->Generate(entry.index, 1, &one).CheckOK();
    if (entry.name != one.scenario(0).name) names_identical = false;
  }
  bits_identical = bits_identical && names_identical;
  std::printf("prefix check: %s (%zu rows and names vs materialized "
              "AssignBatch, %zu top-k names vs Generate)\n",
              bits_identical ? "IDENTICAL" : "MISMATCH", prefix_set.size(),
              top.entries.size());

  // (5) Memory: materializing the whole space dwarfs the streaming delta.
  const std::size_t hwm_before_mat = PeakRssBytes();
  std::size_t materialized_size = 0;
  {
    core::ScenarioSet everything = source->Materialize().ValueOrDie();
    materialized_size = everything.size();
  }
  const std::size_t hwm_after_mat = PeakRssBytes();
  const std::size_t stream_delta = hwm_after_stream - hwm_before_stream;
  const std::size_t mat_delta = hwm_after_mat - hwm_before_mat;
  const bool gate_memory = hwm_after_mat > 0 && mat_delta >= (16u << 20);
  const bool memory_flat = !gate_memory || stream_delta * 2 <= mat_delta;
  std::printf("memory: stream delta %.1f MiB vs materialize delta %.1f MiB "
              "(%zu scenarios)%s\n",
              static_cast<double>(stream_delta) / (1 << 20),
              static_cast<double>(mat_delta) / (1 << 20), materialized_size,
              gate_memory ? "" : " [delta too small to gate]");

  bench::GateSet gates;
  gates.Require("identical", bits_identical);
  gates.Require("threshold_speedup>=2x", threshold_speedup >= 2.0);
  gates.Require("topk_skip>50%", topk_skip_fraction > 0.5);
  if (gate_memory) {
    gates.Require("memory_flat", memory_flat);
  } else {
    gates.Skip("memory_flat", "materialize delta under 16 MiB");
  }
  gates.Print();

  bench::JsonObject json;
  json.Add("bench", std::string("a11_stream"));
  json.Add("scenarios", total);
  json.Add("window", window);
  json.Add("prefix", prefix);
  json.Add("scale_factor", scale_factor);
  json.Add("engine", std::string(core::SweepName(all.engine)));
  json.Add("lanes", all.block_lanes);
  json.Add("threads", all.num_threads);
  json.Add("chunks", static_cast<std::size_t>(all.chunks));
  json.Add("monomials_full", snapshot->full_size());
  json.Add("monomials_compressed", snapshot->compressed_size());
  json.Add("source_fingerprint", all.source_fingerprint.ToHex());
  json.Add("all_seconds", all_seconds);
  json.Add("generate_seconds", all.generate_seconds);
  json.Add("plan_seconds", all.plan_seconds);
  json.Add("full_sweep_seconds", all.full_sweep_seconds);
  json.Add("compressed_sweep_seconds", all.compressed_sweep_seconds);
  json.Add("threshold_seconds", threshold_seconds);
  json.Add("threshold_speedup", threshold_speedup);
  json.Add("threshold_matched", static_cast<std::size_t>(threshold.matched));
  json.Add("topk_seconds", topk_seconds);
  json.Add("topk_skip_fraction", topk_skip_fraction);
  json.Add("stream_peak_delta_bytes", stream_delta);
  json.Add("materialize_peak_delta_bytes", mat_delta);
  json.Add("memory_gated", gate_memory);
  json.Add("max_diff", max_diff);
  json.Add("identical", bits_identical);
  json.WriteFile("BENCH_a11.json");

  return gates.ExitCode();
}
