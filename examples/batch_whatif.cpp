// Example: serving many hypothetical scenarios from one compression.
//
// Loads the paper's running-example provenance (P1/P2 of Example 2),
// compresses it under the Figure 2 plan tree, then takes an immutable
// CompiledSession snapshot — the artifact a production deployment shares
// across its serving threads — and answers a whole batch of named what-if
// scenarios in one AssignBatch() sweep. Each scenario compiles to a small
// override list resolved during the scan, so adding analysts costs no
// full-pool valuation copies.
//
// With a snapshot path, the example demonstrates the *multi-node* flow: if
// the file exists it is loaded and served from directly — no tree, no
// source polynomials, no compression, exactly what a replica process does —
// otherwise the compression runs once and the snapshot is written for the
// next invocation:
//
//   batch_whatif 1000 snap.bin     # first run: compress + save snap.bin
//   batch_whatif 1000 snap.bin     # replica run: load, zero recompilation
//
// With --repeat N the batch is replayed N times against the same snapshot —
// the plan-once/execute-many serving pattern: the first call compiles a
// BatchPlan (scenario lowering, engine choice, block tables, tile
// schedule), every replay serves from the plan cache. Each batch prints the
// engine and lane count the adaptive kAuto policy chose and whether the
// plan came from the cache:
//
//   batch_whatif 1000 --repeat 5   # 1 cold plan + 4 cached replays
//
// With --bases N the same scenario set is additionally evaluated under N
// per-user base valuations in one AssignGrid() call — the 2-D grid
// workload. The base-invariant PlanCore (scenario lowering, engine, block
// program, tile schedule) is planned once and runs on each base as it is:
//
//   batch_whatif 1000 --bases 16   # one plan, 16 bases, N x 16 grid cells
//
// With --strict a snapshot that fails to load or verify is fatal (exit 1)
// instead of falling back to in-process compression — the replica-fleet
// behavior, where silently recompiling would hide a corrupt artifact:
//
//   batch_whatif 1000 snap.bin --strict   # exit 1 if snap.bin is bad
//
// With --sweep-grid the tool streams a Cartesian grid of axis values
// through AssignStream() instead of materializing scenarios: each axis is
// `var=lo:hi:steps`, the product space is generated window by window, and
// only the top-8 scenarios by compressed-side movement are kept — the
// million-scenario sweep pattern at example scale:
//
//   batch_whatif --sweep-grid Business=0.5:1.5:50,Special=0.8:1.2:40
//
// Usage: batch_whatif [num_scenarios] [snapshot_file] [--repeat N]
//                     [--bases N] [--sweep-grid SPEC] [--strict]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/io.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "prov/valuation.h"
#include "util/csv.h"
#include "util/status.h"
#include "util/timer.h"
#include "verify/verify.h"

namespace {

using namespace cobra;

/// Compresses the running example and returns its serving snapshot; when
/// `save_path` is non-empty the snapshot is also written to disk.
std::shared_ptr<const core::CompiledSession> CompressAndSnapshot(
    const std::string& save_path) {
  core::Session session;
  session.LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session.SetTreeText(data::kFigure2TreeText).CheckOK();
  session.SetBound(6);  // cut {Business, Special, p1, p2}
  core::CompressionReport report = session.Compress().ValueOrDie();
  std::printf("compressed %zu -> %zu monomials under cut %s\n",
              report.original_size, report.compressed_size,
              report.cut_description.c_str());
  std::shared_ptr<const core::CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  if (!save_path.empty()) {
    core::SaveSnapshot(*snapshot, save_path).CheckOK();
    std::printf("snapshot saved to %s — rerun to serve from it\n",
                save_path.c_str());
  }
  return snapshot;
}

/// Parses a --sweep-grid spec "var=lo:hi:steps[,var=lo:hi:steps...]" into
/// Cartesian axes. Returns false (with a message) on malformed input.
bool ParseSweepGrid(const std::string& spec,
                    std::vector<core::ValueAxis>* axes) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string axis = spec.substr(pos, comma - pos);
    const std::size_t eq = axis.find('=');
    const std::size_t c1 = axis.find(':', eq == std::string::npos ? 0 : eq);
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : axis.find(':', c1 + 1);
    if (eq == std::string::npos || eq == 0 || c2 == std::string::npos) {
      std::fprintf(stderr, "bad --sweep-grid axis '%s' "
                   "(want var=lo:hi:steps)\n", axis.c_str());
      return false;
    }
    const double lo = std::strtod(axis.c_str() + eq + 1, nullptr);
    const double hi = std::strtod(axis.c_str() + c1 + 1, nullptr);
    const std::size_t steps = std::strtoul(axis.c_str() + c2 + 1, nullptr, 10);
    if (steps == 0) {
      std::fprintf(stderr, "bad --sweep-grid axis '%s': steps must be > 0\n",
                   axis.c_str());
      return false;
    }
    axes->push_back(core::LinSpace(axis.substr(0, eq), lo, hi, steps));
    pos = comma + 1;
  }
  return !axes->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t extra = 0;
  std::string snapshot_path;
  std::size_t repeat = 1;
  std::size_t num_bases = 0;
  std::string sweep_grid;
  bool strict = false;
  std::vector<const char*> positional;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--strict") == 0) {
      strict = true;
      continue;
    }
    const bool is_repeat = std::strcmp(argv[a], "--repeat") == 0;
    const bool is_bases = std::strcmp(argv[a], "--bases") == 0;
    const bool is_sweep = std::strcmp(argv[a], "--sweep-grid") == 0;
    if (is_repeat || is_bases || is_sweep) {
      if (a + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [num_scenarios] [snapshot_file] [--repeat N] "
                     "[--bases N] [--sweep-grid var=lo:hi:steps[,...]] "
                     "[--strict]\n",
                     argv[0]);
        return 2;
      }
      if (is_sweep) {
        sweep_grid = argv[++a];
        continue;
      }
      const std::size_t value = std::strtoul(argv[++a], nullptr, 10);
      if (is_repeat) repeat = std::max<std::size_t>(1, value);
      if (is_bases) num_bases = value;
    } else {
      positional.push_back(argv[a]);
    }
  }
  if (!positional.empty()) extra = std::strtoul(positional[0], nullptr, 10);
  if (positional.size() > 1) snapshot_path = positional[1];

  // The immutable serving snapshot: compiled programs + frozen pool +
  // default valuations. Safe to hand to any number of threads. A replica
  // reconstructs it from the snapshot file alone; results are bit-identical
  // to the origin process.
  std::shared_ptr<const core::CompiledSession> snapshot;
  if (!snapshot_path.empty()) {
    // A snapshot file is external input: parse it, run the static verifier
    // over the decoded package, and only then admit it into the serving
    // path. FromSnapshot re-verifies (the check is mandatory there), but
    // verifying explicitly lets the tool print the finding table instead of
    // just a refusal line.
    util::Result<std::shared_ptr<const core::CompiledSession>> loaded =
        [&]() -> util::Result<std::shared_ptr<const core::CompiledSession>> {
      util::Result<std::string> bytes = util::ReadFile(snapshot_path);
      if (!bytes.ok()) return bytes.status();
      util::Result<core::SnapshotPackage> package =
          core::ParseSnapshot(*bytes, snapshot_path);
      if (!package.ok()) return package.status();
      verify::VerifyReport report = verify::VerifySnapshot(*package);
      if (!report.ok()) {
        std::printf("%s", report.ToString().c_str());
        return util::Status::InvalidArgument(
            snapshot_path + ": snapshot failed verification");
      }
      return core::CompiledSession::FromSnapshot(*package);
    }();
    if (loaded.ok()) {
      snapshot = *loaded;
      std::printf(
          "serving from snapshot %s (verified; pool %zu, %zu -> %zu "
          "monomials) — no recompilation\n",
          snapshot_path.c_str(), snapshot->pool_size(),
          snapshot->full_size(), snapshot->compressed_size());
    } else if (strict) {
      // Replica behavior: a bad snapshot is an operational failure, not an
      // excuse to recompute locally (which would mask the corruption).
      std::fprintf(stderr,
                   "snapshot fallback refused (--strict): %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    } else {
      // Missing on the first run, or stale/corrupted/rejected: fall back to
      // the origin path, which rewrites the file for the next invocation.
      // The Status says exactly why serving from the file was not possible.
      std::printf("cannot serve from snapshot: %s — compressing instead\n",
                  loaded.status().ToString().c_str());
    }
  }
  if (snapshot == nullptr) snapshot = CompressAndSnapshot(snapshot_path);
  std::printf("\n");

  // Named scenarios, each an independent set of deltas over the defaults.
  // Add() returns an index-stable handle, so earlier handles survive later
  // Add() calls.
  core::ScenarioSet scenarios;
  auto boom = scenarios.Add("business boom").ValueOrDie();
  scenarios.Add("business slump").ValueOrDie().Set("Business", 0.8);
  scenarios.Add("special plans cheaper").ValueOrDie().Set("Special", 0.9);
  scenarios.Add("boom + standard churn")
      .ValueOrDie()
      .Set("Business", 1.25)
      .Set("p1", 0.7);
  boom.Set("Business", 1.25);  // still valid after the Adds above
  // Synthetic load: more analysts probing the same compression.
  const std::vector<core::MetaVar>& meta = snapshot->meta_vars();
  for (std::size_t i = 0; i < extra && !meta.empty(); ++i) {
    scenarios.Add("analyst-" + std::to_string(i))
        .ValueOrDie()
        .Set(meta[i % meta.size()].name,
             1.0 + 0.01 * static_cast<double>(i % 50));
  }

  // Replay mode: the first call plans (compiles scenarios, resolves the
  // kAuto engine, builds block tables and the tile schedule), every further
  // call reuses the cached plan — watch the "cached" column flip.
  core::BatchAssignReport batch;
  for (std::size_t r = 0; r < repeat; ++r) {
    util::Timer timer;
    batch = snapshot->AssignBatch(scenarios).ValueOrDie();
    if (repeat > 1) {
      std::printf(
          "batch %2zu/%zu: engine=%-12s lanes=%zu cached=%-3s %8.3fms\n",
          r + 1, repeat, core::SweepName(batch.engine), batch.block_lanes,
          batch.plan_cache_hit ? "yes" : "no",
          timer.ElapsedSeconds() * 1e3);
    }
  }
  if (repeat > 1) {
    core::CompiledSession::PlanCacheStats stats =
        snapshot->plan_cache_stats();
    std::printf("plan cache: %zu cores (%zu bases), %llu hits, "
                "%llu core hits, %llu misses\n\n",
                stats.entries, stats.bases,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.core_hits),
                static_cast<unsigned long long>(stats.misses));
  }
  std::printf("%s", batch.ToString(4, 2).c_str());

  // Grid mode: the same scenarios under N per-user bases. The shared
  // PlanCore is planned once (or served from the cache — the loop above
  // already warmed it) and runs on each base as it is.
  if (num_bases > 0 && !meta.empty()) {
    std::vector<prov::Valuation> bases;
    bases.reserve(num_bases);
    for (std::size_t b = 0; b < num_bases; ++b) {
      prov::Valuation base(snapshot->pool_size());
      base.Set(meta[b % meta.size()].var,
               1.0 + 0.05 * static_cast<double>(b % 10 + 1));
      bases.push_back(std::move(base));
    }
    util::Timer timer;
    core::GridAssignReport grid =
        snapshot->AssignGrid(scenarios, bases).ValueOrDie();
    std::printf("\ngrid: %zu scenarios x %zu bases in %.3fms\n%s",
                grid.num_scenarios(), grid.num_bases,
                timer.ElapsedSeconds() * 1e3, grid.ToString().c_str());
  }

  // Sweep mode: stream the Cartesian product of the axes through
  // AssignStream instead of materializing it — the generator is the
  // scenario set, one window at a time, and the top-k query lets the
  // kernel skip the full-side program for everything that cannot rank.
  if (!sweep_grid.empty()) {
    std::vector<core::ValueAxis> axes;
    if (!ParseSweepGrid(sweep_grid, &axes)) return 2;
    util::Result<std::shared_ptr<const core::CartesianSource>> source =
        core::CartesianSource::Create(std::move(axes), "sweep");
    if (!source.ok()) {
      std::fprintf(stderr, "--sweep-grid: %s\n",
                   source.status().ToString().c_str());
      return 2;
    }
    core::StreamOptions stream;
    stream.query.kind = core::StreamQuery::Kind::kTopK;
    stream.query.k = 8;
    util::Timer timer;
    util::Result<core::SweepSummary> summary =
        snapshot->AssignStream(**source, stream);
    if (!summary.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   summary.status().ToString().c_str());
      return 1;
    }
    std::printf("\nsweep: %llu scenarios in %.3fms\n%s",
                static_cast<unsigned long long>((*source)->size()),
                timer.ElapsedSeconds() * 1e3,
                summary->ToString().c_str());
  }
  return 0;
}
