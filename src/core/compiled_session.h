#ifndef COBRA_CORE_COMPILED_SESSION_H_
#define COBRA_CORE_COMPILED_SESSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/apply.h"
#include "core/batch_plan.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "prov/eval_program.h"
#include "prov/poly_set.h"
#include "prov/valuation.h"
#include "prov/variable.h"
#include "util/status.h"

namespace cobra::core {

struct SnapshotPackage;  // core/io.h

/// Outcome of one hypothetical-scenario assignment through the session:
/// everything the demo UI displays (result deltas, provenance sizes, and
/// the assignment speedup).
struct AssignReport {
  ResultDelta delta;         ///< Full-vs-compressed answers per group.
  AssignmentTiming timing;   ///< Measured assignment cost both ways.
  std::size_t full_size = 0;
  std::size_t compressed_size = 0;

  /// Renders the report as the demo's results panel.
  std::string ToString(std::size_t max_rows = 10) const;
};

/// Outcome of one `AssignBatch` call: per-scenario reports plus the
/// aggregate sweep timing. `reports[i]` corresponds to
/// `scenario_names[i]` and is result-identical to what a sequential
/// `Assign()` under that scenario would produce; its timing fields carry
/// the batch per-scenario average (repetitions = 1) rather than a
/// calibrated per-scenario microbenchmark.
struct BatchAssignReport {
  std::vector<std::string> scenario_names;
  std::vector<AssignReport> reports;

  /// Wall-clock seconds for evaluating every scenario on each side
  /// (includes the thread-parallel sweep, excludes program compilation —
  /// compiled programs live on the snapshot).
  double full_sweep_seconds = 0.0;
  double compressed_sweep_seconds = 0.0;

  /// Per-scenario averages over the sweeps (`full_sweep_seconds / N`, ...).
  AssignmentTiming aggregate;

  /// Worker threads actually used.
  std::size_t num_threads = 1;

  /// The engine the sweep actually ran (never kAuto — the plan resolves the
  /// adaptive policy before execution) and its lane count (16 blocked, 1
  /// scalar).
  BatchOptions::Sweep engine = BatchOptions::Sweep::kSparseDelta;
  std::size_t block_lanes = 1;

  /// Whether AssignBatch served this call from a cached BatchPlan for this
  /// very base (always false for direct Execute() calls).
  bool plan_cache_hit = false;

  /// Whether at least the base-independent plan core came from the cache
  /// (true on every full hit, and also when the core was paired with a new
  /// base — the same-scenarios/different-base warm path).
  bool plan_core_hit = false;

  std::size_t size() const { return reports.size(); }

  /// Renders the batch summary plus the first `max_scenarios` scenarios
  /// (each truncated to `max_rows` result rows).
  std::string ToString(std::size_t max_scenarios = 5,
                       std::size_t max_rows = 3) const;
};

/// Outcome of one `AssignGrid` call: the full (scenario × base) result
/// matrix for both program sides, plus plan accounting and a deterministic
/// fixed-order error reduction.
///
/// Cell (b, s, g) — base b, scenario s, output group g — lives at flat
/// index `(b * num_scenarios() + s) * num_groups + g` in `full_values` /
/// `compressed_values`. Every cell is bit-identical to the corresponding
/// entry of `AssignBatch(scenarios, bases[b], options)`: the grid runs the
/// same kernels over the same plan, it only skips the per-base re-planning
/// and per-scenario report materialization. The error aggregates are
/// reduced in fixed (base, scenario, group) order, so they are
/// deterministic regardless of the thread schedule.
struct GridAssignReport {
  std::vector<std::string> scenario_names;
  std::vector<std::string> labels;  ///< Output group labels, in cell order.
  std::size_t num_bases = 0;
  std::size_t num_groups = 0;

  /// Row-major (base, scenario, group) result matrices; see the class
  /// comment for the cell layout.
  std::vector<double> full_values;
  std::vector<double> compressed_values;

  /// The engine the sweep ran (never kAuto), its lane count, and the
  /// maximum worker threads any per-base sweep used.
  BatchOptions::Sweep engine = BatchOptions::Sweep::kSparseDelta;
  std::size_t block_lanes = 1;
  std::size_t num_threads = 1;

  /// Whether the shared plan core came from the plan cache (no scenario
  /// re-lowering), and whether the first base's full plan did.
  bool plan_core_hit = false;
  bool plan_cache_hit = false;

  /// Planning cost: the shared core and every base's state.
  double plan_seconds = 0.0;

  /// Wall-clock seconds summed over every per-base sweep on each side.
  double full_sweep_seconds = 0.0;
  double compressed_sweep_seconds = 0.0;

  /// Fixed-order reductions over all cells: max and mean |full -
  /// compressed|.
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;

  std::size_t num_scenarios() const { return scenario_names.size(); }
  std::size_t cells() const {
    return num_bases * scenario_names.size() * num_groups;
  }

  double full_value(std::size_t base, std::size_t scenario,
                    std::size_t group) const {
    return full_values[(base * scenario_names.size() + scenario) * num_groups +
                       group];
  }
  double compressed_value(std::size_t base, std::size_t scenario,
                          std::size_t group) const {
    return compressed_values[(base * scenario_names.size() + scenario) *
                                 num_groups +
                             group];
  }

  /// Renders the grid summary (dimensions, engine, cache accounting,
  /// timings, error aggregates).
  std::string ToString() const;
};

/// Early-exit query for a streaming sweep (`CompiledSession::AssignStream`).
///
/// Every streamed scenario first gets a cheap per-scenario *metric* from the
/// compressed-side program — COBRA's whole premise is that the compressed
/// artifact is a fast proxy for the full provenance — and only scenarios the
/// query still cares about have their block's expensive full-side sweep run:
///
///   - `kAll`: no pruning; every scenario's full row is computed (and
///     delivered through the consumer). The mode whose streamed rows are
///     bit-identical to a materialized `AssignBatch` prefix.
///   - `kTopK`: keep the `k` scenarios with the LARGEST metric. A block's
///     full side runs only when one of its lanes beats the current k-th
///     best (ties keep the earlier scenario, so the result is deterministic
///     and order-independent of nothing — the stream order is fixed).
///   - `kThreshold`: keep scenarios with metric >= `cutoff`; blocks with no
///     qualifying lane skip the full side entirely.
struct StreamQuery {
  enum class Kind { kAll, kTopK, kThreshold };

  /// The per-scenario ranking metric, from the compressed row vs the base
  /// compressed row.
  enum class Metric {
    kSumAbsDelta,  ///< sum over groups of |value - base value|
    kMaxAbsDelta,  ///< max over groups of |value - base value|
    kGroupValue,   ///< the raw compressed value of group `group`
  };

  Kind kind = Kind::kAll;
  Metric metric = Metric::kSumAbsDelta;
  std::size_t k = 16;       ///< kTopK: how many scenarios to keep.
  double cutoff = 0.0;      ///< kThreshold: keep metric >= cutoff.
  std::size_t group = 0;    ///< kGroupValue: which output group.
  /// kThreshold: cap on materialized entries (0 = unbounded). Matches past
  /// the cap still count in `SweepSummary::matched`, they just don't carry
  /// result rows — the knob that keeps an unselective cutoff memory-safe.
  std::size_t max_entries = 0;
};

/// Everything `AssignStream` takes besides the source: the batch execution
/// knobs (engine, threads, `stream_block_scenarios` window) plus the query.
struct StreamOptions {
  BatchOptions batch;
  StreamQuery query;
};

/// One swept streamed block, as seen by a `StreamConsumer`. All pointers
/// borrow from per-chunk buffers owned by AssignStream and are valid only
/// during the callback — copy what you keep. Row `i` of the block is
/// scenario `begin + i` of the source.
struct StreamBlockView {
  std::uint64_t begin = 0;      ///< Source ordinal of row 0.
  std::size_t count = 0;        ///< Scenarios in this block.
  std::size_t num_groups = 0;   ///< Output groups per row.
  /// `count` names, lowered and named by the source in one call, for this
  /// view and the block's kept entries.
  const std::vector<std::string>* names = nullptr;
  const double* metrics = nullptr;       ///< `count` per-scenario metrics.
  /// Per-scenario flag: full row `i` was computed (its block survived the
  /// early-exit test). Always 1 under `StreamQuery::Kind::kAll`.
  const std::uint8_t* full_computed = nullptr;
  const double* full = nullptr;        ///< count × num_groups, row-major.
  const double* compressed = nullptr;  ///< count × num_groups, row-major.
};

/// Per-block callback; return false to stop the stream (the summary then
/// has `stopped_early = true`). An empty function is allowed.
using StreamConsumer = std::function<bool(const StreamBlockView&)>;

/// One scenario kept by a kTopK/kThreshold query: its source ordinal, name,
/// metric, and both result rows. Every kept entry carries its full row: a
/// block whose full side was pruned holds no kept scenario (kThreshold
/// matches past `max_entries` are counted in `SweepSummary::matched` but get
/// no entry).
struct StreamEntry {
  std::uint64_t index = 0;
  std::string name;
  double metric = 0.0;
  std::vector<double> full;
  std::vector<double> compressed;
};

/// Outcome of one `AssignStream` call: fixed-order running aggregates over
/// the whole stream, per-group compressed-side extrema, the query's kept
/// entries, and pruning/timing accounting. Memory is O(groups + entries) —
/// never O(source size); per-scenario rows flow through the consumer.
struct SweepSummary {
  std::uint64_t scenarios = 0;     ///< Scenarios swept (== source_size
                                   ///  unless the consumer stopped early).
  std::uint64_t source_size = 0;
  std::uint64_t chunks = 0;        ///< Streamed blocks (windows) processed.
  SourceFingerprint source_fingerprint;

  BatchOptions::Sweep engine = BatchOptions::Sweep::kSparseDelta;
  std::size_t block_lanes = 1;     ///< 16 blocked, 1 scalar.
  /// Always `kAoS` (the enum's zero value): the kernels read the compiled
  /// programs' own arrays. Kept for callers that report it; slated for
  /// removal.
  prov::EvalLayout layout{};
  std::size_t num_threads = 1;
  std::size_t window = 0;          ///< Scenarios per streamed block.
  bool stopped_early = false;

  /// Early-exit accounting: how many scenarios' full-side rows actually ran
  /// vs were pruned. Under kAll, skipped == 0.
  std::uint64_t full_rows_computed = 0;
  std::uint64_t full_rows_skipped = 0;

  /// kThreshold: scenarios meeting the cutoff (including ones past
  /// `max_entries` that carry no entry).
  std::uint64_t matched = 0;

  /// Fixed-order (stream-order) aggregates of the per-scenario metric:
  /// deterministic regardless of thread count or chunking.
  double metric_sum = 0.0;
  double metric_min = 0.0;
  double metric_max = 0.0;
  std::uint64_t metric_argmin = 0;  ///< Source ordinal of metric_min.
  std::uint64_t metric_argmax = 0;  ///< Source ordinal of metric_max.

  /// Per-group extrema of the compressed-side values across the stream,
  /// aligned with `labels`.
  std::vector<std::string> labels;
  std::vector<double> group_min;
  std::vector<double> group_max;

  /// kTopK: the k best, metric-descending (ties by ascending ordinal);
  /// kThreshold: matches in stream order (truncated at `max_entries`);
  /// kAll: empty.
  std::vector<StreamEntry> entries;

  /// Time the source spent lowering windows (`ScenarioSource::Lower`) and
  /// naming what leaves the call (`ScenarioSource::Names`).
  double generate_seconds = 0.0;
  double plan_seconds = 0.0;       ///< Per-chunk planning time.
  double full_sweep_seconds = 0.0;
  double compressed_sweep_seconds = 0.0;

  /// Renders the summary plus the first `max_rows` kept entries.
  std::string ToString(std::size_t max_rows = 10) const;
};

/// An immutable snapshot of a compressed session — the serving layer.
///
/// `Session` is the mutable authoring surface (load, set trees, compress,
/// tweak meta values) and is single-threaded by contract. A
/// `CompiledSession`, produced by `Session::Snapshot()` after `Compress()`,
/// freezes everything the assignment phase needs:
///
///   - the compiled `EvalProgram`s for the full and compressed provenance,
///     plus a full-side program whose factors are pre-translated through
///     the abstraction's leaf→meta mapping (so scenario sweeps never
///     materialize an expanded full-pool valuation);
///   - the default compressed-side (meta) valuation and its full-side
///     expansion;
///   - a shared reference to the (append-only, internally synchronized)
///     variable pool for name→id resolution, together with the pool size at
///     snapshot time — variables interned later are rejected by scenario
///     compilation, so the snapshot behaves as a frozen pool without paying
///     a deep copy per snapshot;
///   - the abstraction metadata (meta-variables, group labels, sizes).
///
/// The compiled state is deeply immutable after construction and every
/// method is `const`, so one snapshot may serve any number of threads
/// concurrently through a `std::shared_ptr<const CompiledSession>`. The
/// evaluation paths themselves are lock-free; the only synchronized state
/// is the batch *plan cache* (PlanBatch/AssignBatch), a fingerprint-keyed
/// map guarded by a `shared_mutex` so concurrent servers replaying
/// overlapping scenario sets share compiled plans instead of re-planning.
/// Results are bit-identical to the equivalent `Session` calls (tested), so
/// a serving tier can hand one snapshot to a fleet of workers while the
/// authoring session keeps evolving.
class CompiledSession
    : public std::enable_shared_from_this<CompiledSession> {
 public:
  /// Builds a snapshot from a compression result. `pool` is shared (not
  /// copied — `VarPool` is append-only and internally synchronized, and the
  /// snapshot captures its size, so the builder may keep interning into it);
  /// `default_meta_valuation` is copied; `full` and `abstraction.compressed`
  /// are compiled but not retained.
  static util::Result<std::shared_ptr<const CompiledSession>> Create(
      const prov::PolySet& full, const Abstraction& abstraction,
      std::shared_ptr<const prov::VarPool> pool,
      const prov::Valuation& default_meta_valuation);

  /// Reconstructs a serving session from a deserialized `SnapshotPackage`
  /// (core/io.h) — the replica-side factory. Nothing is recompiled: the
  /// pool is rebuilt by re-interning the frozen names in id order, the
  /// full/compressed programs are restored from their compiled arrays, and
  /// the sweep-side program is re-derived by the same deterministic
  /// `RemapFactors(leaf_to_meta)` the origin used — so `Assign` and
  /// `AssignBatch` results are bit-identical to the origin process under
  /// every `BatchOptions::Sweep` engine. Structural inconsistencies
  /// (duplicate pool names, ids outside the pool, label/program group-count
  /// mismatches, malformed program arrays) are rejected with a Status.
  static util::Result<std::shared_ptr<const CompiledSession>> FromSnapshot(
      const SnapshotPackage& snapshot);

  /// Returns a snapshot sharing this one's compiled programs and metadata
  /// but with a different default meta valuation (cheap: no recompilation).
  std::shared_ptr<const CompiledSession> WithDefaultMetaValuation(
      const prov::Valuation& meta) const;

  /// The shared variable pool (data + meta variables) used for scenario
  /// name→id resolution. Shared with the authoring `Session`, not copied;
  /// scenario compilation only accepts ids below `pool_size()`, so the
  /// snapshot's behavior is frozen at creation.
  const prov::VarPool& pool() const { return *artifacts_->pool; }

  /// The pool size captured when the snapshot was created. Variables
  /// interned afterwards are invisible to this snapshot.
  std::size_t pool_size() const { return artifacts_->frozen_pool_size; }

  /// Resolves scenario variable names against this snapshot's frozen pool —
  /// what a `ScenarioSource` lowers its windows through.
  VarResolver resolver() const {
    return VarResolver(*artifacts_->pool, artifacts_->frozen_pool_size);
  }

  /// The meta-variables offered to analysts.
  const std::vector<MetaVar>& meta_vars() const {
    return artifacts_->meta_vars;
  }

  /// Group labels, aligned with every evaluation's output order.
  const std::vector<std::string>& labels() const { return artifacts_->labels; }

  /// Compiled full-provenance program (original variable ids).
  const prov::EvalProgram& full_program() const {
    return artifacts_->full_program;
  }

  /// Compiled compressed-provenance program.
  const prov::EvalProgram& compressed_program() const {
    return artifacts_->compressed_program;
  }

  /// Full-provenance program with the leaf→meta indirection baked into the
  /// factor array: evaluating it under a compressed-side valuation is
  /// bit-identical to evaluating `full_program()` under that valuation's
  /// expansion. This is the sparse sweep's full side.
  const prov::EvalProgram& sweep_full_program() const {
    return artifacts_->sweep_full_program;
  }

  /// Var→term indexes of `sweep_full_program()` and `compressed_program()`:
  /// the planner maps each scenario block's override union through them to
  /// the terms the blocked kernel re-evaluates per lane. Derived at
  /// construction (never serialized), like the sweep-side program.
  const prov::VarTermIndex& sweep_full_term_index() const {
    return artifacts_->sweep_full_index;
  }
  const prov::VarTermIndex& compressed_term_index() const {
    return artifacts_->compressed_index;
  }

  /// mapping[v] = the variable that replaced v (identity off the trees),
  /// extended by identity to the pool size.
  const std::vector<prov::VarId>& leaf_to_meta() const {
    return artifacts_->remap;
  }

  /// The default compressed-side valuation scenarios are applied on top of
  /// (pool-sized).
  const prov::Valuation& default_meta_valuation() const {
    return default_base_->values;
  }

  /// The shared per-base state of the default valuation, built once at
  /// construction: every default-base plan, grid base and stream on this
  /// session references it.
  const std::shared_ptr<const BaseState>& default_base_state() const {
    return default_base_;
  }

  /// Builds the shared per-base state of `base`: a pool-sized copy, its
  /// fingerprint (`precomputed_fingerprint` when non-null, which must be
  /// `FingerprintBase(base, pool_size())`) and, when `with_products`, both
  /// programs' term products (which only blocked plans read).
  std::shared_ptr<const BaseState> MakeBaseState(
      const prov::Valuation& base,
      const BaseFingerprint* precomputed_fingerprint = nullptr,
      bool with_products = true) const;

  /// The full-side expansion of the default meta valuation.
  const prov::Valuation& default_full_valuation() const {
    return default_full_;
  }

  /// Monomial counts (the sizes `AssignReport` carries).
  std::size_t full_size() const { return artifacts_->full_monomials; }
  std::size_t compressed_size() const {
    return artifacts_->compressed_monomials;
  }

  /// Expands a compressed-side valuation to full-side semantics: every
  /// original variable under a meta-variable takes that meta-variable's
  /// value; everything else keeps its value from `meta`.
  prov::Valuation ExpandValuation(const prov::Valuation& meta) const;

  /// Evaluates `meta_valuation` on both sides, measures the speedup, and
  /// reports the deltas — the single-scenario assignment of the paper.
  /// The valuation is extended neutrally (1.0) if it does not cover the
  /// pool.
  util::Result<AssignReport> Assign(const prov::Valuation& meta_valuation,
                                    std::size_t timing_reps = 5) const;

  /// Assign() under the snapshot's default meta valuation.
  util::Result<AssignReport> Assign(std::size_t timing_reps = 5) const;

  /// Like Assign(), but the full side evaluates `base_valuation` unexpanded
  /// (measures pure information loss of the compression under
  /// `meta_valuation`).
  util::Result<AssignReport> AssignAgainstBase(
      const prov::Valuation& base_valuation,
      const prov::Valuation& meta_valuation,
      std::size_t timing_reps = 5) const;

  /// Evaluates every scenario in `scenarios` against both sides in one
  /// sweep, each scenario's deltas applied independently on top of
  /// `base_meta_valuation`. Scenario names must be unique and every delta
  /// variable must resolve in `pool()` to an id the snapshot knows (interned
  /// before the snapshot was taken). A thin plan-then-execute wrapper:
  /// equivalent to `Execute(**PlanBatch(scenarios, base, options))`, with
  /// the plan served from the fingerprint-keyed cache when this (scenario
  /// set, base, options) triple was planned before. The default
  /// `Sweep::kAuto` picks the engine and lane count adaptively (see
  /// `BatchOptions::Sweep`); results are bit-identical to sequential
  /// `Assign()` for every engine (term splitting, when it triggers, is
  /// deterministic but may regroup additions — see
  /// `BatchOptions::split_min_terms`).
  util::Result<BatchAssignReport> AssignBatch(
      const ScenarioSet& scenarios,
      const prov::Valuation& base_meta_valuation,
      const BatchOptions& options = {}) const;

  /// AssignBatch() on top of the snapshot's default meta valuation.
  util::Result<BatchAssignReport> AssignBatch(
      const ScenarioSet& scenarios, const BatchOptions& options = {}) const;

  /// Evaluates every scenario against every base valuation — the 2-D grid
  /// sweep (one scenario set × many per-user defaults). The shared plan
  /// core (scenario lowering, engine choice, block program, tile schedules)
  /// is planned once through the plan cache; the inner loop only builds each
  /// base's `BaseState` (none for the session default) and runs the
  /// existing blocked/sparse kernels straight into the grid's flat result
  /// matrices. Per-cell results are bit-identical to the per-base
  /// `AssignBatch` loop; the report's error aggregates use a deterministic
  /// fixed-order reduction. The grid inserts only the first base's plan
  /// into the cache, so a 10^4-base sweep cannot flush the serving cache.
  util::Result<GridAssignReport> AssignGrid(
      const ScenarioSet& scenarios, std::span<const prov::Valuation> bases,
      const BatchOptions& options = {}) const;

  /// Sweeps a generated scenario space as a stream of
  /// `BatchOptions::stream_block_scenarios`-sized blocks, on top of
  /// `base_meta_valuation`: the source lowers each block straight to pool
  /// ids (`ScenarioSource::Lower`), the lowered window is planned as a
  /// window-sized chunk (same block program, same tile schedules as
  /// `AssignBatch` — the engine is resolved once up front and pinned), swept
  /// through the shared kernels, folded into the running `SweepSummary`, and
  /// handed to `consumer` before the next block is lowered. Names are asked
  /// of the source only for kept entries and for a consumer's views. Peak
  /// memory is bounded by the window — a 10^8-scenario grid sweeps in the
  /// same footprint as a 10^4 one.
  ///
  /// Equivalence contract: under `StreamQuery::Kind::kAll`, the full and
  /// compressed rows delivered for scenarios [0, P) are bit-identical to
  /// materializing those P scenarios and calling `AssignBatch` (for every
  /// engine; the one caveat is `split_min_terms` term-splitting, whose
  /// regrouped additions may differ in the last ulp when the chunking
  /// changes the block count — pin `split_min_terms = 0` for strict
  /// identity on dominant-poly shapes, exactly as documented there).
  ///
  /// kTopK/kThreshold queries prune: a block whose lanes all fail the
  /// current cutoff skips its full-side sweep entirely (the compressed side
  /// always runs — it is the metric). Pruning never changes kept results,
  /// only the work spent on discarded ones.
  util::Result<SweepSummary> AssignStream(
      const ScenarioSource& source,
      const prov::Valuation& base_meta_valuation,
      const StreamOptions& options = {},
      const StreamConsumer& consumer = {}) const;

  /// AssignStream() on top of the snapshot's default meta valuation, whose
  /// shared state is neither copied nor re-hashed.
  util::Result<SweepSummary> AssignStream(
      const ScenarioSource& source, const StreamOptions& options = {},
      const StreamConsumer& consumer = {}) const;

  /// Compiles (or fetches from the plan cache) the execution plan for this
  /// (scenario set, base valuation, options) triple: per-scenario sorted
  /// override lists, the resolved engine and lane count, the block program
  /// and the tile schedules for both program sides — the plan-once half of
  /// plan-once/execute-many. The cache keys the base-*invariant* plan core
  /// on the scenario set's content fingerprint plus the options, and keeps
  /// beside it one plan per distinct base hash — so replaying known
  /// scenarios against a new base reuses the core instead of re-planning.
  /// The cache is guarded by a `shared_mutex` (shared for lookups,
  /// exclusive only to insert), so concurrent callers replaying known
  /// scenario sets proceed in parallel. If `cache_hit` is non-null it is set
  /// to whether the plan for this very base came from the cache; a
  /// core-only hit reports false there but is visible in
  /// `plan_cache_stats().core_hits`.
  util::Result<std::shared_ptr<const BatchPlan>> PlanBatch(
      const ScenarioSet& scenarios,
      const prov::Valuation& base_meta_valuation,
      const BatchOptions& options = {}, bool* cache_hit = nullptr) const;

  /// PlanBatch() on top of the snapshot's default meta valuation.
  util::Result<std::shared_ptr<const BatchPlan>> PlanBatch(
      const ScenarioSet& scenarios, const BatchOptions& options = {},
      bool* cache_hit = nullptr) const;

  /// Executes a compiled plan: the execute-many half. The plan must have
  /// been built by this session's PlanBatch (rejected with InvalidArgument
  /// otherwise); it may be executed any number of times, concurrently, and
  /// results are bit-identical to the equivalent AssignBatch call.
  util::Result<BatchAssignReport> Execute(const BatchPlan& plan) const;

  /// Aggregate plan-cache counters. Every PlanBatch lookup (AssignBatch and
  /// AssignGrid go through the same cache) lands in exactly one bucket:
  /// `hits` (a plan for this core and base was cached), `core_hits` (core
  /// cached, paired with a new base — the same-scenarios/different-base
  /// warm path), or `misses` (full planning). `entries` counts cached
  /// cores, `bases` the per-base plans kept across them.
  struct PlanCacheStats {
    std::size_t entries = 0;
    std::size_t bases = 0;
    std::uint64_t hits = 0;
    std::uint64_t core_hits = 0;
    std::uint64_t misses = 0;
  };
  PlanCacheStats plan_cache_stats() const;

  /// One row of the cached-plan table (shell `plan` command, diagnostics).
  struct CachedPlanInfo {
    std::string fingerprint;  ///< Scenario-set fingerprint, 32 hex digits.
    BatchOptions::Sweep engine = BatchOptions::Sweep::kSparseDelta;
    std::size_t lanes = 0;
    std::size_t tiles = 0;
    std::size_t scenarios = 0;
    std::size_t bases = 0;  ///< Per-base plans kept beside this core.
  };
  /// The cached plans, in unspecified order.
  std::vector<CachedPlanInfo> CachedPlans() const;

  /// Shared handles to the cached plans themselves, in unspecified order —
  /// for tooling that inspects plans (the static verifier's session pass).
  /// The handles stay valid even if the cache evicts them afterwards.
  std::vector<std::shared_ptr<const BatchPlan>> CachedPlanHandles() const;

  /// Drops every cached plan (counters keep accumulating). For operational
  /// tooling and cold-path benchmarks; plans already handed out stay valid.
  void ClearPlanCache() const;

 private:
  /// The valuation-independent (and most expensive) part of a snapshot,
  /// shared between sibling snapshots that differ only in defaults.
  struct Artifacts {
    // Declaration order is initialization order: `frozen_pool_size` must
    // precede `remap` (extended to the frozen size), which must precede
    // `sweep_full_program` (built from `full_program` + `remap`); the two
    // indexes follow the programs they index.
    std::shared_ptr<const prov::VarPool> pool;
    std::size_t frozen_pool_size = 0;  ///< pool->size() at creation.
    std::vector<std::string> labels;
    std::vector<MetaVar> meta_vars;
    std::vector<prov::VarId> remap;  ///< leaf→replacement, identity-extended.
    prov::EvalProgram full_program;
    prov::EvalProgram sweep_full_program;
    prov::EvalProgram compressed_program;
    prov::VarTermIndex sweep_full_index;
    prov::VarTermIndex compressed_index;
    std::size_t full_monomials = 0;
    std::size_t compressed_monomials = 0;

    Artifacts(const prov::PolySet& full, const Abstraction& abstraction,
              std::shared_ptr<const prov::VarPool> pool);

    /// Deserialization path: assembles the artifacts from pre-built pieces
    /// (FromSnapshot). `sweep_full_program` and the two var→term indexes
    /// are re-derived exactly as the compiling constructor derives them,
    /// and the monomial counts from the programs' term counts.
    Artifacts(std::shared_ptr<const prov::VarPool> pool,
              std::size_t frozen_pool_size, std::vector<std::string> labels,
              std::vector<MetaVar> meta_vars, std::vector<prov::VarId> remap,
              prov::EvalProgram full, prov::EvalProgram compressed);
  };

  CompiledSession(std::shared_ptr<const Artifacts> artifacts,
                  prov::Valuation default_meta);

  /// Copies `v` and extends it neutrally to the pool size.
  prov::Valuation PoolSized(const prov::Valuation& v) const;

  /// The shared state for a base whose fingerprint is `fingerprint`, to
  /// serve a plan on `engine`: the session default's when the fingerprints
  /// match, else a fresh one, with term products only for kBlocked.
  std::shared_ptr<const BaseState> BaseStateFor(
      const prov::Valuation& base, const BaseFingerprint& fingerprint,
      BatchOptions::Sweep engine) const;

  /// The shared implementation behind both PlanBatch overloads (and the
  /// grid's core acquisition): the default-base overload passes the
  /// fingerprint precomputed at construction so the warm path never
  /// rehashes the (immutable) default valuation, and a plan miss on it
  /// references the default base state instead of copying it. `core_hit`,
  /// when non-null, reports whether at least the plan core came from the
  /// cache.
  util::Result<std::shared_ptr<const BatchPlan>> PlanBatchImpl(
      const ScenarioSet& scenarios,
      const prov::Valuation& base_meta_valuation,
      const BaseFingerprint& base_fingerprint, const BatchOptions& options,
      bool* cache_hit, bool* core_hit) const;

  /// The streaming sweep behind both AssignStream overloads; like
  /// PlanBatchImpl, the default-base overload passes the precomputed
  /// fingerprint, so it streams on the session's default base state.
  util::Result<SweepSummary> StreamImpl(
      const ScenarioSource& source, const prov::Valuation& base_meta_valuation,
      const BaseFingerprint& base_fingerprint, const StreamOptions& options,
      const StreamConsumer& consumer) const;

  /// A program side of a sweep.
  enum class Side { kFull, kCompressed };

  /// Runs the sparse/blocked sweep of one program side for every scenario
  /// of `core` on `base`, writing the scenario-major result matrix
  /// (num_scenarios × NumPolys(), row-major) to `flat` — the execution core
  /// shared by Execute(), AssignGrid() and AssignStream(). Performs exactly
  /// the same tile dispatch, kernel calls and fixed-order partial reduction
  /// regardless of the caller, so grid cells and streamed rows are
  /// bit-identical to batch results. `used_threads` is raised (never
  /// lowered) to the worker count used. `block_mask`, when non-null, has one
  /// byte per scenario block; a block whose byte is 0 is skipped entirely
  /// (its rows in `flat` are left untouched) — the streaming early-exit
  /// hook. Computed blocks run the identical kernel path, so masking never
  /// perturbs surviving rows.
  void SweepPlanProgram(const PlanCore& core, const BaseState& base,
                        Side side, double* flat, std::size_t* used_threads,
                        const std::uint8_t* block_mask = nullptr) const;

  /// Base-invariant identity of one planned batch: the scenario-set
  /// fingerprint plus the options a core is derived from — deliberately
  /// *without* the base valuation, which only selects a plan inside the
  /// entry. The map's bucket hash only routes; key equality compares the
  /// options fields exactly and the 128-bit content digest (two
  /// independently-seeded chains), because an equality collision would
  /// silently replay the wrong plan, and 64 bits is not enough to stake
  /// correctness on.
  struct PlanCacheKey {
    PlanFingerprint scenarios;
    std::uint32_t sweep = 0;
    std::uint64_t num_threads = 0;
    std::uint64_t partition_min_terms = 0;
    std::uint64_t split_min_terms = 0;

    bool operator==(const PlanCacheKey&) const = default;
  };
  struct PlanCacheKeyHash {
    std::size_t operator()(const PlanCacheKey& key) const;
  };

  /// One cached core plus its per-base plans (all sharing `core`) in
  /// insertion order, keyed by base fingerprint. The list is small and
  /// scanned linearly — base churn beyond kMaxBasesPerEntry evicts FIFO
  /// without touching the core.
  struct PlanCacheEntry {
    std::shared_ptr<const PlanCore> core;
    std::vector<std::pair<BaseFingerprint, std::shared_ptr<const BatchPlan>>>
        plans;
  };

  /// Builds the base-invariant cache key for (scenarios, options).
  static PlanCacheKey MakePlanCacheKey(const ScenarioSet& scenarios,
                                       const BatchOptions& options);

  /// Cached cores are bounded, as are the per-base plans kept beside each
  /// one; a server cycling through more distinct scenario sets (or bases)
  /// than this simply re-plans the excess (correctness never depends on the
  /// cache).
  static constexpr std::size_t kPlanCacheMaxEntries = 64;
  static constexpr std::size_t kMaxBasesPerEntry = 8;

  std::shared_ptr<const Artifacts> artifacts_;
  /// The default meta valuation's shared state (pool-sized values,
  /// fingerprint, term products), built at construction.
  std::shared_ptr<const BaseState> default_base_;
  prov::Valuation default_full_;

  /// The plan cache: the one synchronized corner of the serving layer.
  /// Lookups take the lock shared; only a miss's insert takes it exclusive.
  /// `plan_cache_order_` records insertion order so core eviction at
  /// capacity is FIFO (oldest core first) instead of whatever the map's
  /// bucket layout puts at begin(); evicting a core drops all its plans.
  mutable std::shared_mutex plan_mutex_;
  mutable std::unordered_map<PlanCacheKey, PlanCacheEntry, PlanCacheKeyHash>
      plan_cache_;
  mutable std::deque<PlanCacheKey> plan_cache_order_;
  mutable std::atomic<std::uint64_t> plan_cache_hits_{0};
  mutable std::atomic<std::uint64_t> plan_cache_core_hits_{0};
  mutable std::atomic<std::uint64_t> plan_cache_misses_{0};
};

}  // namespace cobra::core

#endif  // COBRA_CORE_COMPILED_SESSION_H_
