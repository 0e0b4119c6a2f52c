#ifndef COBRA_CORE_SCENARIO_H_
#define COBRA_CORE_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "prov/eval_program.h"
#include "prov/variable.h"
#include "util/status.h"

namespace cobra::core {

/// One named hypothetical scenario: a set of variable deltas applied on top
/// of the session's current (default) meta valuation. Variables are named —
/// typically meta-variable names such as "Business" or "1994q2"; a pooled
/// variable outside the abstraction also works, but a delta on a leaf that
/// was abstracted *under* a meta-variable is overridden by that
/// meta-variable's value during expansion and has no effect — target the
/// meta-variable instead. Values are the multiplicative change factors of
/// the paper (1.0 = no change, 0.8 = "decrease by 20%").
struct Scenario {
  /// One `variable := value` override.
  struct Delta {
    std::string var;
    double value = 1.0;
  };

  std::string name;            ///< Display name ("Q2 slump", "ASIA +10%"...).
  std::vector<Delta> deltas;   ///< Applied in order over the defaults.

  /// Appends one override; chainable:
  ///   set.Add("slump").ValueOrDie().Set("Business", 0.9).Set("Special", 0.8);
  Scenario& Set(std::string var, double value) {
    deltas.push_back({std::move(var), value});
    return *this;
  }
};

/// An ordered batch of named scenarios for `Session::AssignBatch` /
/// `CompiledSession::AssignBatch`. Each scenario is independent: deltas
/// never leak from one scenario to the next (unlike repeated
/// `Session::SetMetaValue` calls, which mutate the one shared meta
/// valuation). Scenario names must be unique within a set — `Add` rejects a
/// duplicate name with `InvalidArgument` (and the batch planner re-checks at
/// admission as defense in depth).
class ScenarioSet {
 public:
  ScenarioSet() = default;

  /// Index-stable reference to one scenario inside a set, for delta
  /// chaining. Unlike a `Scenario&` (which the vector's growth on a later
  /// Add() would dangle), a handle stays valid across Add() calls:
  ///
  ///   auto boom = set.Add("boom").ValueOrDie();
  ///   set.Add("slump").ValueOrDie().Set("Business", 0.8);
  ///   boom.Set("Business", 1.25);   // safe: resolved through the set
  ///
  /// A handle refers to the set *object* it came from: copying or moving
  /// the ScenarioSet does not retarget outstanding handles, so finish
  /// chaining before returning a set by value.
  class Handle {
   public:
    /// Appends one override to the referenced scenario; chainable.
    Handle& Set(std::string var, double value) {
      set_->scenarios_[index_].Set(std::move(var), value);
      return *this;
    }

    /// The referenced scenario (invalidated like any reference — prefer
    /// keeping the handle).
    const Scenario& scenario() const { return set_->scenarios_[index_]; }

    /// Position of the referenced scenario in the set.
    std::size_t index() const { return index_; }

   private:
    friend class ScenarioSet;
    Handle(ScenarioSet* set, std::size_t index) : set_(set), index_(index) {}

    ScenarioSet* set_;
    std::size_t index_;
  };

  /// Appends an empty scenario and returns an index-stable handle for delta
  /// chaining. The handle remains valid across later Add() calls. Fails with
  /// `InvalidArgument` (and leaves the set unchanged) when the name is empty
  /// or already taken.
  util::Result<Handle> Add(std::string name);

  /// Appends a fully-built scenario and returns an index-stable handle, like
  /// the name overload. Fails with `InvalidArgument` (set unchanged) when
  /// the scenario's name is empty or already taken.
  util::Result<Handle> Add(Scenario scenario);

  /// Pre-allocates capacity for `n` scenarios (names and storage); purely an
  /// allocation hint, like `std::vector::reserve`.
  void Reserve(std::size_t n);

  /// Removes every scenario and forgets every name. Outstanding handles are
  /// invalidated. Only the scenario vector keeps its capacity: each
  /// scenario's strings and the name index are freed.
  void Clear();

  std::size_t size() const { return scenarios_.size(); }
  bool empty() const { return scenarios_.empty(); }

  const Scenario& scenario(std::size_t index) const {
    return scenarios_[index];
  }
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  /// The scenario names, in order.
  std::vector<std::string> Names() const;

 private:
  std::vector<Scenario> scenarios_;
  std::unordered_set<std::string> names_;  ///< Uniqueness index over `scenarios_`.
};

/// A window of scenarios lowered to pool ids, as one flat array: scenario
/// `i` overrides `overrides[offsets[i], offsets[i + 1])`, sorted by variable
/// id with one entry per variable (a variable's last delta wins). This is
/// the form the batch planner builds every plan core from.
struct LoweredScenarios {
  std::vector<std::size_t> offsets{0};  ///< size() + 1 ascending bounds.
  std::vector<prov::VarOverride> overrides;

  std::size_t size() const { return offsets.size() - 1; }

  /// Scenario `i`'s override list.
  std::span<const prov::VarOverride> scenario(std::size_t i) const {
    return {overrides.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }

  /// Closes the scenario whose overrides were appended since the last call.
  void EndScenario() { offsets.push_back(overrides.size()); }

  /// Closes the scenario whose overrides were appended since the last call
  /// in delta order, where a variable may repeat: sorts them by variable id
  /// and keeps each variable's last value, the list the kernels need. Every
  /// lowering of named deltas ends its scenarios here.
  void EndUnsortedScenario();
};

/// Resolves scenario variable names against one session's frozen pool
/// (`CompiledSession::resolver()`). Sources lower their windows through it,
/// so every id they emit is one the session's programs can index. It
/// borrows the pool: use it only while the session is alive.
class VarResolver {
 public:
  VarResolver(const prov::VarPool& pool, std::size_t frozen_size)
      : pool_(&pool), frozen_size_(frozen_size) {}

  /// The id of `var`. Fails with `InvalidArgument` naming `var` when the
  /// pool does not know it, or interned it after the snapshot was taken.
  util::Result<prov::VarId> Resolve(std::string_view var) const;

 private:
  const prov::VarPool* pool_;
  std::size_t frozen_size_;
};

/// Appends `scenarios`, each lowered through `resolver`, to `out` — the one
/// lowering that `ScenarioSource::Lower`'s default and
/// `PlanCore::Create(ScenarioSet)` share. Fails with `InvalidArgument`
/// naming the scenario and the variable; `out` then holds a partial window.
util::Status LowerScenarios(std::span<const Scenario> scenarios,
                            const VarResolver& resolver,
                            LoweredScenarios* out);

/// The failure a lowering reports when `resolver` refuses a delta of
/// scenario `scenario`: `cause`, attributed to the scenario by name.
util::Status LoweringError(std::string_view scenario,
                           const util::Status& cause);

/// Checks a source window `[begin, begin + count)` against the source's
/// `size`. Fails with `InvalidArgument` naming the source kind `what`, the
/// window and the size — the one message every source's entry points give.
util::Status CheckWindow(std::uint64_t begin, std::uint64_t count,
                         std::uint64_t size, const char* what);

/// 128-bit content fingerprint of a scenario *generator spec* (not of the
/// scenarios it produces): two sources with equal fingerprints generate
/// identical scenario streams, so a fingerprint keys plans and caches for a
/// generated space without materializing it. Deterministic across processes
/// and platforms (fed from explicit integer/bit-pattern encodings, never
/// from pointers or iteration order of unordered containers).
struct SourceFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const SourceFingerprint& a,
                         const SourceFingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const SourceFingerprint& a,
                         const SourceFingerprint& b) {
    return !(a == b);
  }

  /// 32 lowercase hex chars.
  std::string ToHex() const;
};

/// A pull-based producer of scenarios: defines a finite, ordered scenario
/// space of `size()` entries and generates any contiguous window of it on
/// demand. This is the streaming counterpart of `ScenarioSet` — a
/// 10^6-scenario grid is a ~100-byte spec here, and
/// `CompiledSession::AssignStream` evaluates it one
/// `BatchOptions::stream_block_scenarios`-sized block at a time, so sweep
/// memory is bounded by the window, never by `size()`.
///
/// Contract for implementations:
///  - `Generate(begin, count, out)` APPENDS scenarios `[begin, begin+count)`
///    to `out`, in order.
///  - Generation is deterministic and chunking-invariant:
///    `Generate(0, n)` produces exactly the concatenation of
///    `Generate(0, k)` and `Generate(k, n - k)` for any split `k` — the
///    property the streaming sweep's bit-identity guarantee rests on.
///  - Scenario names are unique across the whole space (generators suffix
///    the ordinal index to guarantee this).
///  - `fingerprint()` is a pure function of the spec: equal fingerprints
///    imply equal streams.
///  - `Lower` and `Names` agree with `Generate` on every window, bit for
///    bit (the defaults derive both from `Generate`).
class ScenarioSource {
 public:
  virtual ~ScenarioSource() = default;

  /// Total number of scenarios in the space. Always finite and > 0 for
  /// sources built by the factory functions below.
  virtual std::uint64_t size() const = 0;

  /// Upper bound on the delta count of any generated scenario — the engine
  /// policy input that replaces `max_override_width` for materialized sets.
  virtual std::size_t max_deltas() const = 0;

  /// Deterministic 128-bit spec fingerprint (see SourceFingerprint).
  virtual SourceFingerprint fingerprint() const = 0;

  /// Appends scenarios `[begin, begin + count)` to `out`. Fails with
  /// `InvalidArgument` when the window exceeds `size()`.
  virtual util::Status Generate(std::uint64_t begin, std::uint64_t count,
                                ScenarioSet* out) const = 0;

  /// Appends scenarios `[begin, begin + count)` to `out` lowered through
  /// `resolver` — what `AssignStream` plans each window from — and, when
  /// `names` is non-null, their names to `names` (a stream with a consumer
  /// reads every name of the window). Must equal `LowerScenarios` over
  /// `Generate`'s output for the same window, and its names, and fail where
  /// that fails. The default does exactly that from one `Generate`; a
  /// generator that knows its axes overrides it to emit ids without
  /// building names it was not asked for.
  virtual util::Status Lower(std::uint64_t begin, std::uint64_t count,
                             const VarResolver& resolver,
                             LoweredScenarios* out,
                             std::vector<std::string>* names) const;

  /// Appends the names of scenarios `[begin, begin + count)` to `out`, equal
  /// to `Generate`'s. The default generates the window.
  virtual util::Status Names(std::uint64_t begin, std::uint64_t count,
                             std::vector<std::string>* out) const;

  /// Materializes the whole space into one flat set — the bridge back to
  /// `AssignBatch`. Memory is proportional to `size()`; prefer
  /// `AssignStream` for large spaces.
  util::Result<ScenarioSet> Materialize() const;
};

/// Wraps an already-materialized `ScenarioSet` as a source, so the streaming
/// path and the batch path share one entry point. `AssignStream` over an
/// ExplicitSource is bit-identical to `AssignBatch` over the wrapped set.
class ExplicitSource : public ScenarioSource {
 public:
  /// Fails with `InvalidArgument` on an empty set.
  static util::Result<std::shared_ptr<const ExplicitSource>> Create(
      ScenarioSet scenarios);

  std::uint64_t size() const override;
  std::size_t max_deltas() const override;
  SourceFingerprint fingerprint() const override;
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override;

  const ScenarioSet& scenarios() const { return scenarios_; }

 private:
  explicit ExplicitSource(ScenarioSet scenarios);

  ScenarioSet scenarios_;
  std::size_t max_deltas_ = 0;
  SourceFingerprint fingerprint_;
};

/// One axis of a cartesian grid: a variable swept over an explicit value
/// list.
struct ValueAxis {
  std::string var;
  std::vector<double> values;
};

/// `steps` evenly spaced values over `[lo, hi]` inclusive (both endpoints
/// exact; `steps == 1` yields just `lo`) — the `--sweep-grid var=lo:hi:steps`
/// building block.
ValueAxis LinSpace(std::string var, double lo, double hi, std::size_t steps);

/// The cartesian product of per-variable value axes: scenario `i` decomposes
/// mixed-radix over the axis sizes with the LAST axis varying fastest (row
/// major), and sets one delta per axis. Names are `<prefix>-<i>`. `Lower`
/// resolves each axis once per window and `Names` formats the requested
/// ordinals, so neither builds a scenario.
class CartesianSource : public ScenarioSource {
 public:
  /// Validates the spec: at least one axis, non-empty variable names and
  /// value lists, all values finite, no repeated variable across axes, and a
  /// product that fits in 62 bits. Fails with `InvalidArgument` otherwise.
  static util::Result<std::shared_ptr<const CartesianSource>> Create(
      std::vector<ValueAxis> axes, std::string name_prefix = "grid");

  std::uint64_t size() const override { return size_; }
  std::size_t max_deltas() const override { return axes_.size(); }
  SourceFingerprint fingerprint() const override;
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override;
  util::Status Lower(std::uint64_t begin, std::uint64_t count,
                     const VarResolver& resolver, LoweredScenarios* out,
                     std::vector<std::string>* names) const override;
  util::Status Names(std::uint64_t begin, std::uint64_t count,
                     std::vector<std::string>* out) const override;

  const std::vector<ValueAxis>& axes() const { return axes_; }

 private:
  CartesianSource(std::vector<ValueAxis> axes, std::string name_prefix,
                  std::uint64_t size);

  std::vector<ValueAxis> axes_;
  std::string name_prefix_;
  std::uint64_t size_ = 0;
};

/// One axis of a Monte-Carlo draw: a variable sampled uniformly from
/// `[lo, hi]`.
struct RangeAxis {
  std::string var;
  double lo = 0.0;
  double hi = 1.0;
};

/// Seeded Monte-Carlo what-if: `count` scenarios, each drawing one uniform
/// value per axis. Scenario `i` is generated from its own decorrelated
/// stream `Rng(seed).Fork(i)`, so the draw for a given index is a pure
/// function of (seed, i) — identical across chunkings, thread counts, and
/// processes. Names are `<prefix>-<i>`.
class SampledSource : public ScenarioSource {
 public:
  /// Validates the spec: `count > 0`, at least one axis, non-empty variable
  /// names, finite `lo <= hi`, no repeated variable across axes. Fails with
  /// `InvalidArgument` otherwise.
  static util::Result<std::shared_ptr<const SampledSource>> Create(
      std::vector<RangeAxis> axes, std::uint64_t count, std::uint64_t seed,
      std::string name_prefix = "mc");

  std::uint64_t size() const override { return count_; }
  std::size_t max_deltas() const override { return axes_.size(); }
  SourceFingerprint fingerprint() const override;
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override;

  std::uint64_t seed() const { return seed_; }

 private:
  SampledSource(std::vector<RangeAxis> axes, std::uint64_t count,
                std::uint64_t seed, std::string name_prefix);

  std::vector<RangeAxis> axes_;
  std::uint64_t count_ = 0;
  std::uint64_t seed_ = 0;
  std::string name_prefix_;
};

/// Concatenation: the scenario spaces of `parts`, back to back, in order.
/// Part names must already be globally unique (the built-in generators'
/// index-suffixed names are — wrap distinct prefixes when concatenating two
/// generators of the same kind).
class ConcatSource : public ScenarioSource {
 public:
  /// Fails with `InvalidArgument` on an empty part list, a null part, or a
  /// total size overflowing 62 bits.
  static util::Result<std::shared_ptr<const ConcatSource>> Create(
      std::vector<std::shared_ptr<const ScenarioSource>> parts);

  std::uint64_t size() const override { return size_; }
  std::size_t max_deltas() const override { return max_deltas_; }
  SourceFingerprint fingerprint() const override;
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override;

 private:
  ConcatSource(std::vector<std::shared_ptr<const ScenarioSource>> parts,
               std::uint64_t size, std::size_t max_deltas);

  std::vector<std::shared_ptr<const ScenarioSource>> parts_;
  std::uint64_t size_ = 0;
  std::size_t max_deltas_ = 0;
};

/// Delta composition: every pairing of an `outer` and an `inner` scenario,
/// outer-major (`i = outer_index * inner->size() + inner_index`). The
/// composed scenario applies the outer deltas then the inner deltas —
/// last-value-wins, matching the batch engine's per-scenario dedupe — and is
/// named `<outer name><sep><inner name>`.
class ComposeSource : public ScenarioSource {
 public:
  /// Fails with `InvalidArgument` on null children or a product overflowing
  /// 62 bits.
  static util::Result<std::shared_ptr<const ComposeSource>> Create(
      std::shared_ptr<const ScenarioSource> outer,
      std::shared_ptr<const ScenarioSource> inner, std::string name_sep = "+");

  std::uint64_t size() const override { return size_; }
  std::size_t max_deltas() const override { return max_deltas_; }
  SourceFingerprint fingerprint() const override;
  util::Status Generate(std::uint64_t begin, std::uint64_t count,
                        ScenarioSet* out) const override;

 private:
  ComposeSource(std::shared_ptr<const ScenarioSource> outer,
                std::shared_ptr<const ScenarioSource> inner,
                std::string name_sep, std::uint64_t size,
                std::size_t max_deltas);

  std::shared_ptr<const ScenarioSource> outer_;
  std::shared_ptr<const ScenarioSource> inner_;
  std::string name_sep_;
  std::uint64_t size_ = 0;
  std::size_t max_deltas_ = 0;
};

/// Sugar for the combinators, mirroring the algebra in the paper's
/// hypothetical-reasoning framing: `Concat` unions scenario spaces,
/// `Compose` crosses their deltas.
util::Result<std::shared_ptr<const ScenarioSource>> Concat(
    std::vector<std::shared_ptr<const ScenarioSource>> parts);
util::Result<std::shared_ptr<const ScenarioSource>> Compose(
    std::shared_ptr<const ScenarioSource> outer,
    std::shared_ptr<const ScenarioSource> inner, std::string name_sep = "+");

/// Execution knobs for the batched scenario sweep.
struct BatchOptions {
  /// Sweep implementation. Every engine is bit-identical to per-scenario
  /// `CompiledSession::Assign()`.
  enum class Sweep {
    /// Adaptive policy (default): the batch planner picks the engine from
    /// the compiled program sizes, the scenario count, and the override
    /// width — the blocked kernel whenever the program scan dominates,
    /// falling back to `kSparseDelta` for small batches and tiny programs
    /// where the per-batch fixed costs (block tables, tile dispatch) would
    /// dominate. The choice is deterministic and independent of the thread
    /// count, so `kAuto` never changes results — pin one of the explicit
    /// engines below to A/B against it.
    kAuto,
    /// Scenario-blocked kernel: scenarios are grouped into blocks of
    /// `prov::EvalProgram::kMaxLanes` (16) lanes and each (block ×
    /// poly-range) tile evaluates all lanes in ONE scan of the compiled
    /// program — the base value is broadcast per factor, a per-block
    /// override-union table patches individual lanes, and the lane
    /// accumulators advance in lockstep, so per-scenario results stay
    /// bit-identical to the scalar path while the factor/coeff arrays are
    /// read once per block instead of once per scenario. A trailing ragged
    /// block runs padded to 16 lanes; padding lanes are discarded. The
    /// lanes run in AVX2 registers on an x86-64 CPU with AVX2 and at the
    /// build's baseline width otherwise (SSE2 on x86-64), chosen at run
    /// time with identical results (`prov::BlockedKernelIsa()`).
    kBlocked,
    /// Scalar sparse engine: each scenario is a small sorted (VarId, value)
    /// override list resolved during its own scan — no per-scenario
    /// valuation copies, but one full program read per scenario. The
    /// bit-identity reference for the blocked kernel.
    kSparseDelta,
  };

  /// Worker threads for the scenario sweep; 0 means one per CPU the calling
  /// thread may run on (its `sched_getaffinity` mask, so `taskset` and
  /// container cpusets narrow it; `std::thread::hardware_concurrency()`
  /// where the mask is unavailable). Clamped to the number of sweep tasks
  /// (scenario blocks × program partitions).
  std::size_t num_threads = 0;

  Sweep sweep = Sweep::kAuto;

  /// Intra-program partitioning (blocked + sparse sweeps): when there are
  /// fewer scenario blocks than worker threads, each program is split into
  /// contiguous polynomial ranges of at least this many terms so the spare
  /// threads share one block's scan; per-scenario results stay bit-identical
  /// because every polynomial is evaluated whole by exactly one thread.
  /// 0 disables partitioning.
  std::size_t partition_min_terms = 1024;

  /// Term-range splitting fallback: when partitioning is active but one
  /// polynomial dominates the program (more than half its evaluation weight,
  /// e.g. an ungrouped aggregate) and has at least this many terms, that
  /// polynomial's term range is split across threads and its value is
  /// recovered by a fixed-order reduction of the slices' partial sums. The
  /// reduction order is deterministic (independent of the thread schedule),
  /// but regrouping the additions may differ from the unsplit scan in the
  /// last ulp — hence the dedicated knob: 0 disables splitting and keeps
  /// strict bit-identity with the sequential path even for dominant-poly
  /// shapes.
  std::size_t split_min_terms = 4096;

  /// Streaming window for `CompiledSession::AssignStream`: how many
  /// scenarios are generated, lowered, and swept per streamed block. Peak
  /// sweep memory scales with this window (times the per-scenario row
  /// width), never with the source size. Must be > 0.
  std::size_t stream_block_scenarios = 4096;

  /// Runs the static plan verifier (verify/verify.h) on every freshly
  /// compiled plan before it enters the plan cache, failing the call with
  /// `Internal` if the plan is inconsistent with its session or scenario
  /// set. Always on in debug builds; this knob opts release builds in.
  /// Deliberately NOT part of the plan-cache key: the verifier does not
  /// change what is planned, so two option sets differing only here share
  /// a cache entry (and a cache hit skips verification — the plan was
  /// verified when it was inserted).
  bool verify_plans = false;
};

/// Human-readable engine name ("kAuto", "kBlocked", ...); "?" for values
/// outside the enum.
const char* SweepName(BatchOptions::Sweep sweep);

}  // namespace cobra::core

#endif  // COBRA_CORE_SCENARIO_H_
