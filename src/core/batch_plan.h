#ifndef COBRA_CORE_BATCH_PLAN_H_
#define COBRA_CORE_BATCH_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "prov/eval_program.h"
#include "prov/valuation.h"
#include "util/status.h"

namespace cobra::core {

class CompiledSession;

/// 128-bit content fingerprint of a `ScenarioSet`: a hash over the scenario
/// names and their override lists (variable names and IEEE-754 value bit
/// patterns, in order). Two sets with the same content — including delta
/// order — fingerprint identically; mutating a set after planning (adding a
/// scenario, changing a delta) changes the fingerprint, so a stale plan can
/// never be replayed for the mutated set. The fingerprint is computed from
/// the raw set without resolving variable names against the pool, which is
/// what makes a warm plan-cache hit cheap: one pass over the bytes instead
/// of recompiling every scenario. A streamed chunk's core carries
/// `FingerprintWindow` instead.
struct PlanFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const PlanFingerprint& a, const PlanFingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const PlanFingerprint& a, const PlanFingerprint& b) {
    return !(a == b);
  }

  /// 32 hex digits, for display (shell `plan` table, bench JSON).
  std::string ToHex() const;
};

/// Computes the content fingerprint of `scenarios` (see PlanFingerprint).
PlanFingerprint FingerprintScenarios(const ScenarioSet& scenarios);

/// 128-bit content hash of a base valuation as seen through a frozen pool —
/// the per-base half of the plan-cache key. Like the scenario fingerprint,
/// plan *identity* rests on its equality, so it is two independently-seeded
/// 64-bit chains, not one.
struct BaseFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const BaseFingerprint& a, const BaseFingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const BaseFingerprint& a, const BaseFingerprint& b) {
    return !(a == b);
  }
};

/// Hashes exactly `pool_size` entries of `base`: positions past
/// `base.size()` hash as the neutral 1.0 the `Valuation` contract extends
/// with, and entries beyond the frozen pool are ignored (the kernels never
/// read them). A short valuation and its pool-sized extension therefore
/// fingerprint identically and share one cached plan.
BaseFingerprint FingerprintBase(const prov::Valuation& base,
                                std::size_t pool_size);

/// The plan fingerprint of window `[begin, begin + count)` of a source: a
/// 128-bit hash of the source's spec fingerprint and the window bounds.
/// Equal specs generate equal windows, so a streamed chunk is keyed without
/// hashing a single scenario.
PlanFingerprint FingerprintWindow(const SourceFingerprint& source,
                                  std::uint64_t begin, std::uint64_t count);

/// The worker count `BatchOptions::num_threads = 0` stands for: the number
/// of CPUs in the calling thread's affinity mask, or
/// `std::thread::hardware_concurrency()` where the mask cannot be read;
/// never 0.
std::size_t DefaultSweepThreads();

/// The tile schedule for one compiled program: whole-polynomial ranges,
/// plus (when one polynomial dominates and whole-poly splitting could not
/// fill the requested partitions) term-range slices of that polynomial
/// whose partial sums are reduced in fixed slice order after the sweep, and
/// the blocked kernel's per-block touched programs for this side. Derived
/// once at planning time from the program shape, the thread budget, the
/// partitioning knobs and the scenario blocks; execution only reads it.
struct ProgramSchedule {
  /// Whole-poly [begin, end) ranges; every polynomial not term-split is
  /// covered by exactly one range.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;

  /// The term-split polynomial, or `num_polys` when no splitting applies.
  std::size_t split_poly = 0;

  /// NumPolys() of the scheduled program (the "no split" sentinel value).
  std::size_t num_polys = 0;

  /// Absolute term bounds of the split polynomial's slices (empty when
  /// split_poly == num_polys).
  std::vector<std::uint32_t> term_bounds;

  /// Blocked engine only (no blocks otherwise): per scenario block, this
  /// program's terms with a variable of the block's override union and the
  /// row each of their factors reads, built from the core's block rows
  /// through the session's var→term index. The kernel re-evaluates only
  /// these per lane; every other term adds its base product (BaseState) to
  /// all lanes. Base-free, so every base the core runs on reuses them.
  prov::TouchedPrograms touched;

  std::size_t term_slices() const {
    return term_bounds.empty() ? 0 : term_bounds.size() - 1;
  }

  /// Tiles per scenario block for this program.
  std::size_t slices() const { return ranges.size() + term_slices(); }
};

/// The adaptive engine policy: picks the sweep engine from the combined
/// program weight (terms + factors of both sides), the scenario count, and
/// the widest per-scenario override list. Deliberately independent of the
/// thread count (and of anything else nondeterministic), so the same
/// workload always plans the same way.
///
/// The thresholds are fit from the accumulated BENCH_a6/a7 measurements
/// (blocked-vs-sparse ratio 0.79x at 64 scenarios, 3.5x at 1024 on the CI
/// box): the blocked kernel's per-batch fixed costs — block-table
/// sort/unique/index builds, tile dispatch — only amortize once there are a
/// couple hundred scenarios to spread them over. Policy table:
///
///   scenarios < 128, weight < 2048, or weight < 32 x override width
///                      -> kSparseDelta (scalar, 1 lane)
///   otherwise          -> kBlocked, 16 lanes
BatchOptions::Sweep ChooseAutoEngine(std::size_t program_weight,
                                     std::size_t num_scenarios,
                                     std::size_t max_override_width);

/// Everything about one base valuation that every plan on it shares: the
/// pool-sized base, its content fingerprint, and per program side the base
/// sums the blocked kernel reads. Built by `CompiledSession::MakeBaseState`
/// and immutable afterwards. A session builds one for its default base when
/// it is constructed, and every default-base plan, grid base and stream
/// call references it, so no call re-hashes or copies the default base. A
/// state built for another base serves one plan's engine, and only the
/// blocked engine reads the sums, so a scalar plan's state leaves them
/// empty.
struct BaseState {
  /// The base valuation both program sides evaluate under, pool-sized (the
  /// kernels index it with any factor id the programs carry).
  prov::Valuation values{0};

  /// FingerprintBase(values, frozen pool size) — the plan cache's per-base
  /// key.
  BaseFingerprint fingerprint;

  /// `EvalProgram::BaseSumsUnder(values)` of the sweep-side full program
  /// and of the compressed program: each term's product and in-polynomial
  /// prefix, and each polynomial's value. 16 bytes per term and 8 per
  /// polynomial per side.
  prov::BaseSums full;
  prov::BaseSums compressed;
};

/// The base-independent core of a plan: everything derived from the
/// (lowered scenarios, options, session) triple alone — the scenarios'
/// sorted override lists in one flat `LoweredScenarios` array, the resolved
/// engine/lane/thread choice, and for the blocked engine one base-free
/// *block program*: per block the override rows (`block_rows()`), and per
/// program side the touched programs, inside the (scenario-block ×
/// poly-range) tile schedules. A plan is this core plus a `BaseState`, so a
/// grid sweep or a per-user-defaults serving tier compiles the core once
/// and runs it on each base as it is.
///
/// A core is deeply immutable after construction and references its origin
/// session through a weak_ptr (plans live in the session's own cache, so a
/// strong back-reference would make every snapshot that ever planned a
/// batch immortal).
class PlanCore {
 public:
  /// Compiles the base-independent half of a named scenario set (non-empty;
  /// `ScenarioSet` keeps its names unique): lowers it through the session's
  /// resolver (every delta variable must be known to the snapshot), and
  /// builds the core from the lowered form, keeping the names. A caller
  /// that already fingerprinted the set (the plan cache keys on it before
  /// planning) may pass the digest to skip the second content pass; null
  /// recomputes it.
  static util::Result<std::shared_ptr<const PlanCore>> Create(
      std::shared_ptr<const CompiledSession> session,
      const ScenarioSet& scenarios, const BatchOptions& options,
      const PlanFingerprint* precomputed_fingerprint = nullptr);

  /// Compiles the base-independent half from an already-lowered window —
  /// the path every core takes. Validates `options` (naming the offending
  /// field and the accepted values) and the window (non-empty; every list
  /// strictly ascending inside the frozen pool) once, here — execution never
  /// re-validates. `names` is empty (a streamed chunk, named on demand by its
  /// source) or holds one name per scenario. `session` must be non-null.
  static util::Result<std::shared_ptr<const PlanCore>> Create(
      std::shared_ptr<const CompiledSession> session, LoweredScenarios lowered,
      const PlanFingerprint& fingerprint, const BatchOptions& options,
      std::vector<std::string> names = {});

  /// The session this core was built against, or null if that session has
  /// since been destroyed (see the class comment). The weak_ptr makes the
  /// check ABA-safe: a new session reusing the old one's address still
  /// fails to lock the old control block.
  std::shared_ptr<const CompiledSession> session() const {
    return session_.lock();
  }

  /// Content fingerprint of the planned scenario set.
  const PlanFingerprint& fingerprint() const { return fingerprint_; }

  /// The resolved engine — never `kAuto` (the policy resolves it at
  /// planning time so the choice is inspectable and cacheable).
  BatchOptions::Sweep engine() const { return engine_; }

  /// Scenario lanes per block: 16 for the blocked kernel, 1 for the scalar
  /// engine.
  std::size_t lanes() const { return lanes_; }

  /// Worker threads the sweep will use (the resolved `num_threads`).
  std::size_t num_threads() const { return num_threads_; }

  std::size_t num_scenarios() const { return lowered_.size(); }

  /// Scenario blocks of the sweep (== ceil(scenarios / lanes)).
  std::size_t num_blocks() const { return num_blocks_; }

  /// Total (block × range) tiles across both program sides — the unit of
  /// work the sweep's worker threads claim.
  std::size_t num_tiles() const {
    return num_blocks_ *
           (full_schedule_.slices() + compressed_schedule_.slices());
  }

  /// One name per scenario for a core planned from a `ScenarioSet`; empty
  /// for a streamed chunk, whose source names entries on demand.
  const std::vector<std::string>& scenario_names() const {
    return scenario_names_;
  }

  /// The scenarios' sorted, duplicate-free override lists.
  const LoweredScenarios& lowered() const { return lowered_; }

  /// Scenario `i`'s override list.
  std::span<const prov::VarOverride> overrides(std::size_t i) const {
    return lowered_.scenario(i);
  }

  /// Per-block override rows (no blocks unless engine() == kBlocked). One
  /// set serves both program sides: the rows are valuation-level, and both
  /// sides evaluate under the same compressed-side base.
  const prov::BlockRows& block_rows() const { return block_rows_; }

  /// Tile schedule of the sweep-side full program.
  const ProgramSchedule& full_schedule() const { return full_schedule_; }

  /// Tile schedule of the compressed program.
  const ProgramSchedule& compressed_schedule() const {
    return compressed_schedule_;
  }

 private:
  PlanCore() = default;

  std::weak_ptr<const CompiledSession> session_;
  PlanFingerprint fingerprint_;
  BatchOptions::Sweep engine_ = BatchOptions::Sweep::kSparseDelta;
  std::size_t lanes_ = 1;
  std::size_t num_threads_ = 1;
  std::size_t num_blocks_ = 0;
  std::vector<std::string> scenario_names_;
  LoweredScenarios lowered_;
  prov::BlockRows block_rows_;
  ProgramSchedule full_schedule_;
  ProgramSchedule compressed_schedule_;
};

/// The plan-time half of a streaming sweep: everything about evaluating a
/// `ScenarioSource` that does NOT depend on the scenarios themselves —
/// the resolved engine/lane/thread choice (made once, from the program
/// shapes, the source's size and its `max_deltas()` bound) and the
/// streaming window. The per-scenario half (block program, tile schedules)
/// is deferred to `PlanChunk`, which compiles one window-sized
/// `PlanCore` at a time from the source's lowered window — so plan memory,
/// like sweep memory, is bounded by `BatchOptions::stream_block_scenarios`
/// and never by `size()`.
///
/// Engine/lane decisions are pinned at Create time: every chunk's core is
/// compiled with the same resolved engine, so a streamed sweep behaves like
/// one large batch cut into windows (and is bit-identical to it on any
/// materialized prefix).
class StreamPlan {
 public:
  /// Resolves the stream-invariant plan half. Validates `options` like
  /// `PlanCore::Create` (plus `stream_block_scenarios > 0`) and rejects a
  /// null session or an empty source.
  static util::Result<std::shared_ptr<const StreamPlan>> Create(
      std::shared_ptr<const CompiledSession> session,
      const ScenarioSource& source, const BatchOptions& options);

  /// Compiles the per-scenario plan half for the source's lowered window
  /// starting at ordinal `begin` — block program, tile schedules — under
  /// the pinned engine. The core carries no names, and its
  /// fingerprint is `FingerprintWindow` of the source spec and the window.
  /// Fails with `FailedPrecondition` when the origin session has been
  /// destroyed.
  util::Result<std::shared_ptr<const PlanCore>> PlanChunk(
      LoweredScenarios window, std::uint64_t begin) const;

  /// The session this plan was built against, or null if destroyed.
  std::shared_ptr<const CompiledSession> session() const {
    return session_.lock();
  }

  /// The resolved engine — never `kAuto`.
  BatchOptions::Sweep engine() const { return resolved_.sweep; }

  /// Scenario lanes per block (16 blocked, 1 scalar).
  std::size_t lanes() const { return lanes_; }

  /// Resolved worker thread count.
  std::size_t num_threads() const { return resolved_.num_threads; }

  /// Scenarios generated/lowered/swept per streamed block:
  /// min(stream_block_scenarios, source size).
  std::size_t window() const { return window_; }

  /// The streamed space's spec fingerprint and size, recorded at Create.
  const SourceFingerprint& source_fingerprint() const {
    return source_fingerprint_;
  }
  std::uint64_t source_size() const { return source_size_; }

  /// The options every chunk core is compiled with: the caller's options
  /// with `sweep`/`num_threads` pinned to the resolved choice.
  const BatchOptions& resolved_options() const { return resolved_; }

 private:
  StreamPlan() = default;

  std::weak_ptr<const CompiledSession> session_;
  BatchOptions resolved_;
  std::size_t lanes_ = 1;
  std::size_t window_ = 0;
  SourceFingerprint source_fingerprint_;
  std::uint64_t source_size_ = 0;
};

/// An immutable, reusable execution plan for one (scenario set, base meta
/// valuation, BatchOptions) triple against one `CompiledSession` — the
/// plan-once / execute-many half of the batched serving path.
///
/// A plan is a shared, base-independent `PlanCore` (lowered scenarios,
/// engine/lane resolution, block program, tile schedules) plus the shared
/// `BaseState` of its base. The plan cache keys cores on the scenario
/// fingerprint and options alone and keeps a few per-base plans beside each
/// core, so replaying the same scenario set against a different base — the
/// grid / per-user-defaults workload — reuses the whole core and pays at
/// most a `BaseState`. `CompiledSession::Execute` runs the sweep reading
/// only this plan; `AssignBatch` is a thin PlanBatch + Execute wrapper;
/// `AssignGrid` runs one core on each base in turn.
///
/// A plan is deeply immutable after construction and may be executed
/// concurrently from any number of threads. Like its core it references the
/// origin session through a weak_ptr — `Execute` rejects a plan whose
/// origin is gone or different.
class BatchPlan {
 public:
  /// Pairs a core with a base state (both non-null). The base state should
  /// come from the core's session (`MakeBaseState`); `VerifyPlan` audits the
  /// pairing.
  static std::shared_ptr<const BatchPlan> FromParts(
      std::shared_ptr<const PlanCore> core,
      std::shared_ptr<const BaseState> base);

  /// The shared base-independent half.
  const std::shared_ptr<const PlanCore>& core() const { return core_; }

  /// The shared per-base half.
  const std::shared_ptr<const BaseState>& base_state() const { return base_; }

  /// @name Flat accessors (delegating to the core/base pair).
  /// @{
  std::shared_ptr<const CompiledSession> session() const {
    return core_->session();
  }
  const PlanFingerprint& fingerprint() const { return core_->fingerprint(); }
  BatchOptions::Sweep engine() const { return core_->engine(); }
  std::size_t lanes() const { return core_->lanes(); }
  /// Always `kAoS`: the kernels read the compiled programs' own arrays.
  /// Kept for callers that report it; slated for removal.
  prov::EvalLayout layout() const {
    using enum prov::EvalLayout;
    return kAoS;
  }
  std::size_t num_threads() const { return core_->num_threads(); }
  std::size_t num_scenarios() const { return core_->num_scenarios(); }
  std::size_t num_blocks() const { return core_->num_blocks(); }
  std::size_t num_tiles() const { return core_->num_tiles(); }
  const std::vector<std::string>& scenario_names() const {
    return core_->scenario_names();
  }
  const LoweredScenarios& lowered() const { return core_->lowered(); }

  /// The pool-sized base meta valuation scenarios apply on top of.
  const prov::Valuation& base() const { return base_->values; }

  /// Per-block override rows (no blocks unless engine() == kBlocked).
  const prov::BlockRows& block_rows() const { return core_->block_rows(); }

  const ProgramSchedule& full_schedule() const {
    return core_->full_schedule();
  }
  const ProgramSchedule& compressed_schedule() const {
    return core_->compressed_schedule();
  }
  /// @}

 private:
  BatchPlan(std::shared_ptr<const PlanCore> core,
            std::shared_ptr<const BaseState> base)
      : core_(std::move(core)), base_(std::move(base)) {}

  std::shared_ptr<const PlanCore> core_;
  std::shared_ptr<const BaseState> base_;
};

}  // namespace cobra::core

#endif  // COBRA_CORE_BATCH_PLAN_H_
