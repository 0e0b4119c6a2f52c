#include "core/compiled_session.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "core/io.h"
#include "util/hash.h"
#include "util/str.h"
#include "util/timer.h"
#include "verify/verify.h"

namespace cobra::core {

namespace {

/// Extends `mapping` by identity so it covers `size` variables.
std::vector<prov::VarId> ExtendIdentity(std::vector<prov::VarId> mapping,
                                        std::size_t size) {
  std::size_t old = mapping.size();
  if (size > old) {
    mapping.resize(size);
    for (std::size_t v = old; v < size; ++v) {
      mapping[v] = static_cast<prov::VarId>(v);
    }
  }
  return mapping;
}

}  // namespace

std::string AssignReport::ToString(std::size_t max_rows) const {
  std::string out = delta.ToString(max_rows);
  out += util::StrFormat(
      "provenance size:  %zu -> %zu monomials\n", full_size, compressed_size);
  out += util::StrFormat(
      "assignment time:  full=%.3gus compressed=%.3gus speedup=%.0f%%\n",
      timing.full_seconds * 1e6, timing.compressed_seconds * 1e6,
      timing.SpeedupPercent());
  return out;
}

std::string BatchAssignReport::ToString(std::size_t max_scenarios,
                                        std::size_t max_rows) const {
  std::string out = util::StrFormat(
      "batch:            %zu scenarios on %zu thread(s)\n", reports.size(),
      num_threads);
  out += util::StrFormat("engine:           %s, %zu lane(s)%s\n",
                         SweepName(engine), block_lanes,
                         plan_cache_hit
                             ? ", cached plan"
                             : (plan_core_hit ? ", cached core" : ""));
  out += util::StrFormat(
      "sweep time:       full=%.3gms compressed=%.3gms\n",
      full_sweep_seconds * 1e3, compressed_sweep_seconds * 1e3);
  out += util::StrFormat(
      "per scenario:     full=%.3gus compressed=%.3gus speedup=%.0f%%\n",
      aggregate.full_seconds * 1e6, aggregate.compressed_seconds * 1e6,
      aggregate.SpeedupPercent());
  std::size_t shown = std::min(max_scenarios, reports.size());
  for (std::size_t i = 0; i < shown; ++i) {
    // The struct is public; tolerate hand-built reports whose name list is
    // shorter than the report list.
    out += util::StrFormat("-- %s --\n",
                           i < scenario_names.size()
                               ? scenario_names[i].c_str()
                               : ("scenario " + std::to_string(i)).c_str());
    out += reports[i].delta.ToString(max_rows);
  }
  if (shown < reports.size()) {
    out += util::StrFormat("... (%zu more scenarios)\n",
                           reports.size() - shown);
  }
  return out;
}

std::string GridAssignReport::ToString() const {
  std::string out = util::StrFormat(
      "grid:             %zu scenarios x %zu bases (%zu groups, %zu cells)\n",
      num_scenarios(), num_bases, num_groups, cells());
  out += util::StrFormat("engine:           %s, %zu lane(s), %zu thread(s)\n",
                         SweepName(engine), block_lanes, num_threads);
  out += util::StrFormat(
      "plan:             core %s, first base %s, %.3gms\n",
      plan_core_hit ? "cached" : "compiled",
      plan_cache_hit ? "cached" : "built", plan_seconds * 1e3);
  out += util::StrFormat(
      "sweep time:       full=%.3gms compressed=%.3gms\n",
      full_sweep_seconds * 1e3, compressed_sweep_seconds * 1e3);
  out += util::StrFormat(
      "errors:           max_abs=%.3g mean_abs=%.3g (fixed-order)\n",
      max_abs_error, mean_abs_error);
  return out;
}

CompiledSession::Artifacts::Artifacts(
    const prov::PolySet& full, const Abstraction& abstraction,
    std::shared_ptr<const prov::VarPool> pool_in)
    : pool(std::move(pool_in)),
      frozen_pool_size(pool->size()),
      labels(full.labels()),
      meta_vars(abstraction.meta_vars),
      remap(ExtendIdentity(abstraction.mapping, frozen_pool_size)),
      full_program(full),
      sweep_full_program(full_program.RemapFactors(remap)),
      compressed_program(abstraction.compressed),
      sweep_full_index(sweep_full_program),
      compressed_index(compressed_program),
      full_monomials(full.TotalMonomials()),
      compressed_monomials(abstraction.compressed.TotalMonomials()) {}

CompiledSession::Artifacts::Artifacts(
    std::shared_ptr<const prov::VarPool> pool_in,
    std::size_t frozen_pool_size_in, std::vector<std::string> labels_in,
    std::vector<MetaVar> meta_vars_in, std::vector<prov::VarId> remap_in,
    prov::EvalProgram full, prov::EvalProgram compressed)
    : pool(std::move(pool_in)),
      frozen_pool_size(frozen_pool_size_in),
      labels(std::move(labels_in)),
      meta_vars(std::move(meta_vars_in)),
      remap(std::move(remap_in)),
      full_program(std::move(full)),
      sweep_full_program(full_program.RemapFactors(remap)),
      compressed_program(std::move(compressed)),
      sweep_full_index(sweep_full_program),
      compressed_index(compressed_program),
      full_monomials(full_program.NumTerms()),
      compressed_monomials(compressed_program.NumTerms()) {}

CompiledSession::CompiledSession(std::shared_ptr<const Artifacts> artifacts,
                                 prov::Valuation default_meta)
    : artifacts_(std::move(artifacts)), default_full_(0) {
  default_base_ = MakeBaseState(default_meta);
  default_full_ = ExpandValuation(default_base_->values);
}

std::shared_ptr<const BaseState> CompiledSession::MakeBaseState(
    const prov::Valuation& base,
    const BaseFingerprint* precomputed_fingerprint, bool with_products) const {
  auto state = std::make_shared<BaseState>();
  state->values = PoolSized(base);
  state->fingerprint =
      precomputed_fingerprint != nullptr
          ? *precomputed_fingerprint
          : FingerprintBase(state->values, artifacts_->frozen_pool_size);
  if (with_products) {
    state->full = artifacts_->sweep_full_program.BaseSumsUnder(state->values);
    state->compressed =
        artifacts_->compressed_program.BaseSumsUnder(state->values);
  }
  return state;
}

std::shared_ptr<const BaseState> CompiledSession::BaseStateFor(
    const prov::Valuation& base, const BaseFingerprint& fingerprint,
    BatchOptions::Sweep engine) const {
  if (fingerprint == default_base_->fingerprint) return default_base_;
  return MakeBaseState(base, &fingerprint,
                       engine == BatchOptions::Sweep::kBlocked);
}

util::Result<std::shared_ptr<const CompiledSession>> CompiledSession::Create(
    const prov::PolySet& full, const Abstraction& abstraction,
    std::shared_ptr<const prov::VarPool> pool,
    const prov::Valuation& default_meta_valuation) {
  if (pool == nullptr) {
    return util::Status::InvalidArgument("CompiledSession: null pool");
  }
  if (full.size() != abstraction.compressed.size()) {
    return util::Status::Internal(util::StrFormat(
        "CompiledSession: group count mismatch (full=%zu compressed=%zu)",
        full.size(), abstraction.compressed.size()));
  }
  auto artifacts =
      std::make_shared<const Artifacts>(full, abstraction, std::move(pool));
  if (artifacts->full_program.MinValuationSize() >
          artifacts->frozen_pool_size ||
      artifacts->sweep_full_program.MinValuationSize() >
          artifacts->frozen_pool_size ||
      artifacts->compressed_program.MinValuationSize() >
          artifacts->frozen_pool_size) {
    return util::Status::Internal(
        "CompiledSession: compiled programs reference variables outside the "
        "pool");
  }
  return std::shared_ptr<const CompiledSession>(new CompiledSession(
      std::move(artifacts), default_meta_valuation));
}

util::Result<std::shared_ptr<const CompiledSession>>
CompiledSession::FromSnapshot(const SnapshotPackage& snapshot) {
  auto invalid = [](std::string msg) {
    return util::Status::InvalidArgument("CompiledSession::FromSnapshot: " +
                                         std::move(msg));
  };
  const std::size_t pool_size = snapshot.pool_names.size();

  // Trust boundary: the snapshot crossed a process (or machine) boundary,
  // so it is statically verified before anything is built from it. The
  // checksum already proved the *bytes* arrived intact; the verifier proves
  // the *content* is internally consistent, and a refusal names the
  // offending section instead of surfacing later as a wrong answer.
  const verify::VerifyReport report = verify::VerifySnapshot(snapshot);
  if (!report.ok()) {
    const verify::Finding& first = *report.FirstError();
    return invalid(util::StrFormat(
        "snapshot failed verification with %zu error finding(s); first: %s",
        report.num_errors(), first.ToString().c_str()));
  }

  // Rebuild the frozen pool: interning the names in id order must reproduce
  // a dense 0..n-1 id sequence, which fails exactly when a name repeats.
  auto pool = std::make_shared<prov::VarPool>();
  for (std::size_t i = 0; i < pool_size; ++i) {
    const std::string& name = snapshot.pool_names[i];
    if (name.empty()) {
      return invalid(util::StrFormat("pool name %zu is empty", i));
    }
    if (pool->Intern(name) != i) {
      return invalid(util::StrFormat("duplicate pool name \"%s\" (id %zu)",
                                     name.c_str(), i));
    }
  }

  util::Result<prov::EvalProgram> full = prov::EvalProgram::FromParts(
      snapshot.full_program.poly_starts, snapshot.full_program.term_starts,
      snapshot.full_program.coeffs, snapshot.full_program.factors);
  if (!full.ok()) {
    return invalid("full program: " + full.status().message());
  }
  util::Result<prov::EvalProgram> compressed = prov::EvalProgram::FromParts(
      snapshot.compressed_program.poly_starts,
      snapshot.compressed_program.term_starts,
      snapshot.compressed_program.coeffs,
      snapshot.compressed_program.factors);
  if (!compressed.ok()) {
    return invalid("compressed program: " + compressed.status().message());
  }

  if (full->NumPolys() != compressed->NumPolys()) {
    return invalid(util::StrFormat(
        "group count mismatch (full=%zu compressed=%zu)", full->NumPolys(),
        compressed->NumPolys()));
  }
  if (snapshot.labels.size() != full->NumPolys()) {
    return invalid(util::StrFormat(
        "label count %zu does not match the %zu polynomial groups",
        snapshot.labels.size(), full->NumPolys()));
  }
  if (snapshot.leaf_to_meta.size() != pool_size) {
    return invalid(util::StrFormat(
        "leaf_to_meta covers %zu variables but the pool holds %zu",
        snapshot.leaf_to_meta.size(), pool_size));
  }
  for (prov::VarId mapped : snapshot.leaf_to_meta) {
    if (mapped >= pool_size) {
      return invalid(util::StrFormat(
          "leaf_to_meta references variable id %u outside the pool", mapped));
    }
  }
  for (const MetaVar& mv : snapshot.meta_vars) {
    if (mv.var >= pool_size) {
      return invalid(util::StrFormat(
          "meta-variable \"%s\" has id %u outside the pool", mv.name.c_str(),
          mv.var));
    }
    for (prov::VarId leaf : mv.leaves) {
      if (leaf >= pool_size) {
        return invalid(util::StrFormat(
            "meta-variable \"%s\" leaf id %u is outside the pool",
            mv.name.c_str(), leaf));
      }
    }
  }
  if (snapshot.default_meta.size() != pool_size) {
    return invalid(util::StrFormat(
        "default valuation covers %zu variables but the pool holds %zu",
        snapshot.default_meta.size(), pool_size));
  }
  if (full->MinValuationSize() > pool_size ||
      compressed->MinValuationSize() > pool_size) {
    return invalid("compiled programs reference variables outside the pool");
  }

  auto artifacts = std::make_shared<const Artifacts>(
      std::move(pool), pool_size, snapshot.labels, snapshot.meta_vars,
      snapshot.leaf_to_meta, std::move(*full), std::move(*compressed));
  prov::Valuation default_meta(pool_size);
  for (prov::VarId v = 0; v < pool_size; ++v) {
    default_meta.Set(v, snapshot.default_meta[v]);
  }
  return std::shared_ptr<const CompiledSession>(
      new CompiledSession(std::move(artifacts), std::move(default_meta)));
}

std::shared_ptr<const CompiledSession>
CompiledSession::WithDefaultMetaValuation(const prov::Valuation& meta) const {
  return std::shared_ptr<const CompiledSession>(
      new CompiledSession(artifacts_, meta));
}

prov::Valuation CompiledSession::PoolSized(const prov::Valuation& v) const {
  prov::Valuation out = v;
  out.Resize(artifacts_->frozen_pool_size);
  return out;
}

prov::Valuation CompiledSession::ExpandValuation(
    const prov::Valuation& meta) const {
  // Original variables take their meta-variable's assigned value; variables
  // outside the abstraction keep their value from the meta valuation (which
  // inherits the base valuation for them). Meta-variable ids are never
  // leaves of other meta-variables, so reading from the copy is safe.
  prov::Valuation full_valuation = PoolSized(meta);
  for (const MetaVar& mv : artifacts_->meta_vars) {
    double v = full_valuation.Get(mv.var);
    for (prov::VarId leaf : mv.leaves) full_valuation.Set(leaf, v);
  }
  return full_valuation;
}

util::Result<AssignReport> CompiledSession::Assign(
    const prov::Valuation& meta_valuation, std::size_t timing_reps) const {
  prov::Valuation meta = PoolSized(meta_valuation);
  prov::Valuation full_valuation = ExpandValuation(meta);
  AssignReport report;
  report.delta = CompareResults(*this, full_valuation, meta);
  report.timing = MeasureAssignment(*this, full_valuation, meta, timing_reps);
  report.full_size = artifacts_->full_monomials;
  report.compressed_size = artifacts_->compressed_monomials;
  return report;
}

util::Result<AssignReport> CompiledSession::Assign(
    std::size_t timing_reps) const {
  return Assign(default_base_->values, timing_reps);
}

util::Result<AssignReport> CompiledSession::AssignAgainstBase(
    const prov::Valuation& base_valuation,
    const prov::Valuation& meta_valuation, std::size_t timing_reps) const {
  prov::Valuation base = PoolSized(base_valuation);
  prov::Valuation meta = PoolSized(meta_valuation);
  AssignReport report;
  report.delta = CompareResults(*this, base, meta);
  report.timing = MeasureAssignment(*this, base, meta, timing_reps);
  report.full_size = artifacts_->full_monomials;
  report.compressed_size = artifacts_->compressed_monomials;
  return report;
}

std::size_t CompiledSession::PlanCacheKeyHash::operator()(
    const PlanCacheKey& key) const {
  std::uint64_t h = key.scenarios.lo;
  h = util::HashCombine(h, key.scenarios.hi);
  h = util::HashCombine(h, key.sweep);
  h = util::HashCombine(h, key.num_threads);
  h = util::HashCombine(h, key.partition_min_terms);
  h = util::HashCombine(h, key.split_min_terms);
  return static_cast<std::size_t>(h);
}

CompiledSession::PlanCacheKey CompiledSession::MakePlanCacheKey(
    const ScenarioSet& scenarios, const BatchOptions& options) {
  // The core is fully determined by (scenario content, options); the base
  // valuation only selects a plan *inside* the entry, so base churn —
  // the grid / per-user-defaults workload — can neither evict cores nor
  // split one scenario set across entries.
  PlanCacheKey key;
  key.scenarios = FingerprintScenarios(scenarios);
  key.sweep = static_cast<std::uint32_t>(options.sweep);
  key.num_threads = options.num_threads;
  key.partition_min_terms = options.partition_min_terms;
  key.split_min_terms = options.split_min_terms;
  return key;
}

util::Result<std::shared_ptr<const BatchPlan>> CompiledSession::PlanBatchImpl(
    const ScenarioSet& scenarios, const prov::Valuation& base_meta_valuation,
    const BaseFingerprint& base_fingerprint, const BatchOptions& options,
    bool* cache_hit, bool* core_hit) const {
  PlanCacheKey key = MakePlanCacheKey(scenarios, options);

  std::shared_ptr<const PlanCore> core;
  {
    std::shared_lock<std::shared_mutex> lock(plan_mutex_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      for (const auto& [fp, cached] : it->second.plans) {
        if (fp == base_fingerprint) {
          plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
          if (cache_hit != nullptr) *cache_hit = true;
          if (core_hit != nullptr) *core_hit = true;
          return cached;
        }
      }
      core = it->second.core;
    }
  }
  if (cache_hit != nullptr) *cache_hit = false;
  if (core_hit != nullptr) *core_hit = core != nullptr;
  if (core != nullptr) {
    plan_cache_core_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  // Plan outside any lock: compilation is the expensive part, and two
  // threads racing to plan the same set merely duplicate work once. A core
  // hit pairs the cached core with the base's state — no scenario
  // re-lowering, no block program, no schedule derivation — and on the
  // default base not even the base is copied.
  if (core == nullptr) {
    util::Result<std::shared_ptr<const PlanCore>> fresh = PlanCore::Create(
        shared_from_this(), scenarios, options, &key.scenarios);
    if (!fresh.ok()) return fresh.status();
    core = *fresh;
  }
  std::shared_ptr<const BatchPlan> plan = BatchPlan::FromParts(
      core,
      BaseStateFor(base_meta_valuation, base_fingerprint, core->engine()));

  // Trust boundary: verify the freshly compiled plan before it enters the
  // cache (and gets replayed indefinitely). Always in debug builds, opt-in
  // for release via `verify_plans`. A failure here is a planner bug, not a
  // caller error — hence Internal.
#ifdef NDEBUG
  const bool verify_plan = options.verify_plans;
#else
  const bool verify_plan = true;
#endif
  if (verify_plan) {
    const verify::VerifyReport report =
        verify::VerifyPlan(*plan, *this, &scenarios);
    if (!report.ok()) {
      return util::Status::Internal(util::StrFormat(
          "CompiledSession::PlanBatch: freshly compiled plan failed "
          "verification with %zu error finding(s); first: %s",
          report.num_errors(), report.FirstError()->ToString().c_str()));
    }
  }

  {
    std::unique_lock<std::shared_mutex> lock(plan_mutex_);
    auto it = plan_cache_.find(key);
    if (it == plan_cache_.end()) {
      if (plan_cache_.size() >= kPlanCacheMaxEntries) {
        plan_cache_.erase(plan_cache_order_.front());  // FIFO: oldest first
        plan_cache_order_.pop_front();
      }
      it = plan_cache_.emplace(key, PlanCacheEntry{}).first;
      it->second.core = core;
      plan_cache_order_.push_back(key);
    }
    PlanCacheEntry& entry = it->second;
    for (const auto& [fp, cached] : entry.plans) {
      if (fp == base_fingerprint) return cached;  // lost the insert race
    }
    if (entry.plans.size() >= kMaxBasesPerEntry) {
      entry.plans.erase(entry.plans.begin());  // FIFO: oldest first
    }
    entry.plans.emplace_back(base_fingerprint, plan);
  }
  return plan;
}

util::Result<std::shared_ptr<const BatchPlan>> CompiledSession::PlanBatch(
    const ScenarioSet& scenarios, const prov::Valuation& base_meta_valuation,
    const BatchOptions& options, bool* cache_hit) const {
  return PlanBatchImpl(
      scenarios, base_meta_valuation,
      FingerprintBase(base_meta_valuation, artifacts_->frozen_pool_size),
      options, cache_hit, nullptr);
}

util::Result<std::shared_ptr<const BatchPlan>> CompiledSession::PlanBatch(
    const ScenarioSet& scenarios, const BatchOptions& options,
    bool* cache_hit) const {
  return PlanBatchImpl(scenarios, default_base_->values,
                       default_base_->fingerprint, options, cache_hit,
                       nullptr);
}

CompiledSession::PlanCacheStats CompiledSession::plan_cache_stats() const {
  PlanCacheStats stats;
  {
    std::shared_lock<std::shared_mutex> lock(plan_mutex_);
    stats.entries = plan_cache_.size();
    for (const auto& [key, entry] : plan_cache_) {
      stats.bases += entry.plans.size();
    }
  }
  stats.hits = plan_cache_hits_.load(std::memory_order_relaxed);
  stats.core_hits = plan_cache_core_hits_.load(std::memory_order_relaxed);
  stats.misses = plan_cache_misses_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<CompiledSession::CachedPlanInfo> CompiledSession::CachedPlans()
    const {
  std::vector<CachedPlanInfo> out;
  std::shared_lock<std::shared_mutex> lock(plan_mutex_);
  out.reserve(plan_cache_.size());
  for (const auto& [key, entry] : plan_cache_) {
    CachedPlanInfo info;
    info.fingerprint = entry.core->fingerprint().ToHex();
    info.engine = entry.core->engine();
    info.lanes = entry.core->lanes();
    info.tiles = entry.core->num_tiles();
    info.scenarios = entry.core->num_scenarios();
    info.bases = entry.plans.size();
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<std::shared_ptr<const BatchPlan>>
CompiledSession::CachedPlanHandles() const {
  std::vector<std::shared_ptr<const BatchPlan>> out;
  std::shared_lock<std::shared_mutex> lock(plan_mutex_);
  for (const auto& [key, entry] : plan_cache_) {
    for (const auto& [fp, plan] : entry.plans) out.push_back(plan);
  }
  return out;
}

void CompiledSession::ClearPlanCache() const {
  std::unique_lock<std::shared_mutex> lock(plan_mutex_);
  plan_cache_.clear();
  plan_cache_order_.clear();
}

util::Result<BatchAssignReport> CompiledSession::Execute(
    const BatchPlan& plan) const {
  if (plan.session().get() != this) {
    return util::Status::InvalidArgument(
        "CompiledSession::Execute: the BatchPlan was built against a "
        "different (or since-destroyed) CompiledSession");
  }
  const std::size_t n = plan.num_scenarios();
  const PlanCore& core = *plan.core();
  const BaseState& base = *plan.base_state();

  BatchAssignReport batch;
  batch.scenario_names = plan.scenario_names();
  batch.engine = plan.engine();
  batch.block_lanes = plan.lanes();

  // The shared sweep core (SweepPlanProgram) fills a scenario-major flat
  // matrix per side, then the rows are lifted into per-scenario report
  // vectors.
  std::vector<std::vector<double>> full_values(n);
  std::vector<std::vector<double>> compressed_values(n);
  std::size_t used_threads = 1;
  auto sweep = [&](Side side, std::vector<std::vector<double>>* out) {
    const std::size_t polys = artifacts_->labels.size();
    std::vector<double> flat(n * polys, 0.0);
    SweepPlanProgram(core, base, side, flat.data(), &used_threads);
    for (std::size_t i = 0; i < n; ++i) {
      (*out)[i].assign(flat.begin() + i * polys,
                       flat.begin() + (i + 1) * polys);
    }
  };
  util::Timer timer;
  sweep(Side::kFull, &full_values);
  batch.full_sweep_seconds = timer.ElapsedSeconds();
  timer.Reset();
  sweep(Side::kCompressed, &compressed_values);
  batch.compressed_sweep_seconds = timer.ElapsedSeconds();
  batch.num_threads = used_threads;

  batch.aggregate.repetitions = n;
  batch.aggregate.full_seconds =
      batch.full_sweep_seconds / static_cast<double>(n);
  batch.aggregate.compressed_seconds =
      batch.compressed_sweep_seconds / static_cast<double>(n);

  batch.reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AssignReport report;
    report.delta = DeltaFromValues(artifacts_->labels, full_values[i],
                                   compressed_values[i]);
    report.timing = batch.aggregate;
    report.timing.repetitions = 1;
    report.full_size = artifacts_->full_monomials;
    report.compressed_size = artifacts_->compressed_monomials;
    batch.reports.push_back(std::move(report));
  }
  return batch;
}

void CompiledSession::SweepPlanProgram(const PlanCore& core,
                                       const BaseState& base, Side side,
                                       double* flat,
                                       std::size_t* used_threads,
                                       const std::uint8_t* block_mask) const {
  // Every scenario is a small override list; the full side evaluates the
  // meta-indirected program under the shared compressed-side base, so
  // nothing pool-sized is copied per scenario. The blocked engine
  // additionally groups scenarios into blocks of `lanes` lanes: one scan of
  // the compiled arrays serves the whole block, its override rows patching
  // individual lanes, and only the block's touched terms are multiplied out
  // per lane — every other term adds its base product to all lanes, from
  // the base prefix of the block's first touched term on. Work runs as the
  // core's (scenario-block × poly-range | term-range) tiles; disjoint tiles
  // touch disjoint output cells, so the sweep is race-free and the merged
  // result is schedule-independent. A blocked tile writes `lanes` adjacent
  // rows of the scenario-major matrix with stride `polys`.
  const bool full = side == Side::kFull;
  const prov::EvalProgram& program = full ? artifacts_->sweep_full_program
                                          : artifacts_->compressed_program;
  const ProgramSchedule& schedule =
      full ? core.full_schedule() : core.compressed_schedule();
  const prov::BaseSums& sums = full ? base.full : base.compressed;
  const prov::BlockRows& rows = core.block_rows();
  const prov::Valuation& values = base.values;
  const std::size_t n = core.num_scenarios();
  const std::size_t threads = core.num_threads();
  const bool use_blocks = core.engine() == BatchOptions::Sweep::kBlocked;
  const std::size_t lanes = core.lanes();
  const std::size_t num_blocks = core.num_blocks();
  const std::size_t polys = program.NumPolys();

  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges =
      schedule.ranges;
  const std::vector<std::uint32_t>& term_bounds = schedule.term_bounds;
  const std::size_t term_slices = schedule.term_slices();
  const std::size_t slices = schedule.slices();
  // Scenario-major partial sums of the split polynomial, one slot per term
  // slice; reduced in fixed slice order after the join.
  std::vector<double> partials(term_slices == 0 ? 0 : n * term_slices, 0.0);

  const std::size_t tasks = num_blocks * slices;
  auto run_task = [&](std::size_t t) {
    const std::size_t block = t / slices;
    // Early-exit mask (streaming queries): a pruned block's tiles are
    // no-ops, its rows stay untouched. Workers still claim the task ids —
    // the test is one load, far cheaper than compacting the tile list.
    if (block_mask != nullptr && block_mask[block] == 0) return;
    const std::size_t s = t % slices;
    const std::size_t i0 = block * lanes;
    if (use_blocks) {
      if (s < ranges.size()) {
        program.EvalRangeBlocked(values, sums, rows, schedule.touched, block,
                                 ranges[s].first, ranges[s].second,
                                 flat + i0 * polys, polys);
      } else {
        const std::size_t k = s - ranges.size();
        program.EvalTermRangeBlocked(values, sums, rows, schedule.touched,
                                     block, term_bounds[k], term_bounds[k + 1],
                                     partials.data() + i0 * term_slices + k,
                                     term_slices);
      }
    } else {
      const std::span<const prov::VarOverride> ov = core.overrides(i0);
      if (s < ranges.size()) {
        program.EvalRangeWithOverrides(values, ov.data(), ov.size(),
                                       ranges[s].first, ranges[s].second,
                                       flat + i0 * polys);
      } else {
        const std::size_t k = s - ranges.size();
        partials[i0 * term_slices + k] = program.EvalTermRangeWithOverrides(
            values, ov.data(), ov.size(), term_bounds[k], term_bounds[k + 1]);
      }
    }
  };
  const std::size_t workers = std::min(threads, tasks);
  *used_threads = std::max(*used_threads, workers);
  if (workers <= 1) {
    for (std::size_t t = 0; t < tasks; ++t) run_task(t);
  } else {
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (std::size_t t = next.fetch_add(1); t < tasks;
           t = next.fetch_add(1)) {
        run_task(t);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  if (term_slices > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (block_mask != nullptr && block_mask[i / lanes] == 0) continue;
      double sum = 0.0;
      for (std::size_t k = 0; k < term_slices; ++k) {
        sum += partials[i * term_slices + k];
      }
      flat[i * polys + schedule.split_poly] = sum;
    }
  }
}

util::Result<GridAssignReport> CompiledSession::AssignGrid(
    const ScenarioSet& scenarios, std::span<const prov::Valuation> bases,
    const BatchOptions& options) const {
  if (bases.empty()) {
    return util::Status::InvalidArgument("AssignGrid: empty base list");
  }

  GridAssignReport grid;
  grid.num_bases = bases.size();
  grid.labels = artifacts_->labels;
  grid.num_groups = artifacts_->labels.size();

  // Plan the shared core once, through the plan cache — the first base's
  // plan is the one insertion the grid makes, so a huge base sweep warms
  // the cache for follow-up AssignBatch calls without flushing it.
  util::Timer plan_timer;
  bool cache_hit = false;
  bool core_hit = false;
  util::Result<std::shared_ptr<const BatchPlan>> first = PlanBatchImpl(
      scenarios, bases[0],
      FingerprintBase(bases[0], artifacts_->frozen_pool_size), options,
      &cache_hit, &core_hit);
  if (!first.ok()) return first.status();
  grid.plan_seconds = plan_timer.ElapsedSeconds();
  grid.plan_cache_hit = cache_hit;
  grid.plan_core_hit = core_hit;

  const PlanCore& core = *(*first)->core();
  const std::size_t n = core.num_scenarios();
  grid.scenario_names = core.scenario_names();
  grid.engine = core.engine();
  grid.block_lanes = core.lanes();

  const std::size_t polys = grid.num_groups;
  grid.full_values.assign(bases.size() * n * polys, 0.0);
  grid.compressed_values.assign(bases.size() * n * polys, 0.0);

  std::size_t used_threads = 1;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    // The core runs on each base as it is; only the base's state is built
    // (or, for the session default, shared).
    std::shared_ptr<const BaseState> base = (*first)->base_state();
    if (b > 0) {
      plan_timer.Reset();
      base = BaseStateFor(
          bases[b], FingerprintBase(bases[b], artifacts_->frozen_pool_size),
          core.engine());
      grid.plan_seconds += plan_timer.ElapsedSeconds();
    }

    util::Timer timer;
    SweepPlanProgram(core, *base, Side::kFull,
                     grid.full_values.data() + b * n * polys, &used_threads);
    grid.full_sweep_seconds += timer.ElapsedSeconds();
    timer.Reset();
    SweepPlanProgram(core, *base, Side::kCompressed,
                     grid.compressed_values.data() + b * n * polys,
                     &used_threads);
    grid.compressed_sweep_seconds += timer.ElapsedSeconds();
  }
  grid.num_threads = used_threads;

  // Deterministic fixed-order reduction: cells are visited in (base,
  // scenario, group) order regardless of how the sweeps were threaded.
  double sum_abs = 0.0;
  const std::size_t total = grid.cells();
  for (std::size_t c = 0; c < total; ++c) {
    const double abs_err =
        std::abs(grid.full_values[c] - grid.compressed_values[c]);
    if (abs_err > grid.max_abs_error) grid.max_abs_error = abs_err;
    sum_abs += abs_err;
  }
  grid.mean_abs_error =
      total == 0 ? 0.0 : sum_abs / static_cast<double>(total);
  return grid;
}

util::Result<BatchAssignReport> CompiledSession::AssignBatch(
    const ScenarioSet& scenarios, const prov::Valuation& base_meta_valuation,
    const BatchOptions& options) const {
  bool cache_hit = false;
  bool core_hit = false;
  util::Result<std::shared_ptr<const BatchPlan>> plan = PlanBatchImpl(
      scenarios, base_meta_valuation,
      FingerprintBase(base_meta_valuation, artifacts_->frozen_pool_size),
      options, &cache_hit, &core_hit);
  if (!plan.ok()) return plan.status();
  util::Result<BatchAssignReport> report = Execute(**plan);
  if (!report.ok()) return report.status();
  report->plan_cache_hit = cache_hit;
  report->plan_core_hit = core_hit;
  return report;
}

util::Result<BatchAssignReport> CompiledSession::AssignBatch(
    const ScenarioSet& scenarios, const BatchOptions& options) const {
  // Routed through the default base state built at construction, so no
  // call rehashes the (immutable) default valuation and no miss copies it.
  bool cache_hit = false;
  bool core_hit = false;
  util::Result<std::shared_ptr<const BatchPlan>> plan = PlanBatchImpl(
      scenarios, default_base_->values, default_base_->fingerprint, options,
      &cache_hit, &core_hit);
  if (!plan.ok()) return plan.status();
  util::Result<BatchAssignReport> report = Execute(**plan);
  if (!report.ok()) return report.status();
  report->plan_cache_hit = cache_hit;
  report->plan_core_hit = core_hit;
  return report;
}

std::string SweepSummary::ToString(std::size_t max_rows) const {
  std::string out = util::StrFormat(
      "stream:      %llu/%llu scenario(s) in %llu block(s) of %zu%s\n"
      "engine:      %s, %zu lane(s), %zu thread(s)\n"
      "source:      fp=%s\n"
      "full rows:   computed=%llu skipped=%llu matched=%llu\n"
      "metric:      sum=%.6g min=%.6g@%llu max=%.6g@%llu\n"
      "time:        generate=%.1fms plan=%.1fms full=%.1fms "
      "compressed=%.1fms\n",
      static_cast<unsigned long long>(scenarios),
      static_cast<unsigned long long>(source_size),
      static_cast<unsigned long long>(chunks), window,
      stopped_early ? " (stopped early)" : "", SweepName(engine), block_lanes,
      num_threads, source_fingerprint.ToHex().c_str(),
      static_cast<unsigned long long>(full_rows_computed),
      static_cast<unsigned long long>(full_rows_skipped),
      static_cast<unsigned long long>(matched), metric_sum, metric_min,
      static_cast<unsigned long long>(metric_argmin), metric_max,
      static_cast<unsigned long long>(metric_argmax), generate_seconds * 1e3,
      plan_seconds * 1e3, full_sweep_seconds * 1e3,
      compressed_sweep_seconds * 1e3);
  for (std::size_t g = 0; g < labels.size(); ++g) {
    out += util::StrFormat("group:       %-24s [%.6g, %.6g]\n",
                           labels[g].c_str(), group_min[g], group_max[g]);
  }
  const std::size_t rows = std::min(max_rows, entries.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const StreamEntry& e = entries[i];
    out += util::StrFormat("entry:       #%-10llu %-24s metric=%.6g\n",
                           static_cast<unsigned long long>(e.index),
                           e.name.c_str(), e.metric);
  }
  if (entries.size() > rows) {
    out += util::StrFormat("entry:       ... %zu more\n",
                           entries.size() - rows);
  }
  return out;
}

util::Result<SweepSummary> CompiledSession::AssignStream(
    const ScenarioSource& source, const prov::Valuation& base_meta_valuation,
    const StreamOptions& options, const StreamConsumer& consumer) const {
  return StreamImpl(
      source, base_meta_valuation,
      FingerprintBase(base_meta_valuation, artifacts_->frozen_pool_size),
      options, consumer);
}

util::Result<SweepSummary> CompiledSession::AssignStream(
    const ScenarioSource& source, const StreamOptions& options,
    const StreamConsumer& consumer) const {
  return StreamImpl(source, default_base_->values, default_base_->fingerprint,
                    options, consumer);
}

util::Result<SweepSummary> CompiledSession::StreamImpl(
    const ScenarioSource& source, const prov::Valuation& base_meta_valuation,
    const BaseFingerprint& base_fingerprint, const StreamOptions& options,
    const StreamConsumer& consumer) const {
  const StreamQuery& query = options.query;
  switch (query.kind) {
    case StreamQuery::Kind::kAll:
    case StreamQuery::Kind::kTopK:
    case StreamQuery::Kind::kThreshold:
      break;
    default:
      return util::Status::InvalidArgument(util::StrFormat(
          "AssignStream: invalid StreamQuery.kind = %d (accepted: kAll, "
          "kTopK, kThreshold)",
          static_cast<int>(query.kind)));
  }
  switch (query.metric) {
    case StreamQuery::Metric::kSumAbsDelta:
    case StreamQuery::Metric::kMaxAbsDelta:
      break;
    case StreamQuery::Metric::kGroupValue:
      if (query.group >= artifacts_->labels.size()) {
        return util::Status::InvalidArgument(util::StrFormat(
            "AssignStream: StreamQuery.group = %zu out of range (the "
            "session has %zu output group(s))",
            query.group, artifacts_->labels.size()));
      }
      break;
    default:
      return util::Status::InvalidArgument(util::StrFormat(
          "AssignStream: invalid StreamQuery.metric = %d (accepted: "
          "kSumAbsDelta, kMaxAbsDelta, kGroupValue)",
          static_cast<int>(query.metric)));
  }
  if (query.kind == StreamQuery::Kind::kTopK && query.k == 0) {
    return util::Status::InvalidArgument(
        "AssignStream: StreamQuery.k = 0 (a top-k query must keep at least "
        "one scenario)");
  }

  util::Result<std::shared_ptr<const StreamPlan>> plan_result =
      StreamPlan::Create(shared_from_this(), source, options.batch);
  if (!plan_result.ok()) return plan_result.status();
  const StreamPlan& plan = **plan_result;

  // Trust boundary, mirroring PlanBatch: audit the generator spec (and,
  // below, the first chunk's freshly compiled plan, cross-checked against
  // the source's Generate) before a million-row sweep replays it. Always in
  // debug builds, opt-in via `verify_plans`.
#ifdef NDEBUG
  const bool audit = options.batch.verify_plans;
#else
  const bool audit = true;
#endif
  if (audit) {
    const verify::VerifyReport report = verify::VerifySource(source);
    if (!report.ok()) {
      return util::Status::InvalidArgument(util::StrFormat(
          "AssignStream: scenario source failed verification with %zu "
          "error finding(s); first: %s",
          report.num_errors(), report.FirstError()->ToString().c_str()));
    }
  }

  SweepSummary summary;
  summary.source_size = plan.source_size();
  summary.source_fingerprint = plan.source_fingerprint();
  summary.engine = plan.engine();
  summary.block_lanes = plan.lanes();
  summary.num_threads = plan.num_threads();
  summary.window = plan.window();
  summary.labels = artifacts_->labels;
  const std::size_t groups = summary.labels.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  summary.group_min.assign(groups, kInf);
  summary.group_max.assign(groups, -kInf);
  summary.metric_min = kInf;
  summary.metric_max = -kInf;

  // The base compressed row is the metric's reference point, shared by
  // every chunk; every chunk's core runs on the one shared base state.
  const std::shared_ptr<const BaseState> base =
      BaseStateFor(base_meta_valuation, base_fingerprint, plan.engine());
  std::vector<double> base_comp;
  artifacts_->compressed_program.Eval(base->values, &base_comp);
  const VarResolver resolver = this->resolver();

  // Names are asked of the source only for what leaves the call — kept
  // entries and consumer views — at most once per window, and timed with
  // generation. A consumer reads every name of the window, so there the
  // window is lowered and named in one call (one `Generate` for a source
  // that lowers by default).
  std::vector<std::string> names;
  auto fetch_names = [&](std::uint64_t first,
                         std::size_t count) -> util::Status {
    names.clear();
    COBRA_RETURN_IF_ERROR(source.Names(first, count, &names));
    if (names.size() != count) {
      return util::Status::Internal(util::StrFormat(
          "AssignStream: source named %zu scenario(s) for window [%llu, "
          "%llu) — sources must name the window exactly",
          names.size(), static_cast<unsigned long long>(first),
          static_cast<unsigned long long>(first + count)));
    }
    return util::Status::OK();
  };

  const std::size_t polys_full = artifacts_->sweep_full_program.NumPolys();
  const std::size_t polys_comp = artifacts_->compressed_program.NumPolys();

  auto metric_of = [&](const double* comp_row) -> double {
    switch (query.metric) {
      case StreamQuery::Metric::kMaxAbsDelta: {
        double m = 0.0;
        for (std::size_t g = 0; g < groups; ++g) {
          m = std::max(m, std::abs(comp_row[g] - base_comp[g]));
        }
        return m;
      }
      case StreamQuery::Metric::kGroupValue:
        return comp_row[query.group];
      case StreamQuery::Metric::kSumAbsDelta:
      default: {
        double m = 0.0;
        for (std::size_t g = 0; g < groups; ++g) {
          m += std::abs(comp_row[g] - base_comp[g]);
        }
        return m;
      }
    }
  };

  // kTopK working set, unsorted; `worst` tracks the current eviction
  // candidate so the common reject path is one compare. Ties break toward
  // the earlier ordinal (a later equal metric never evicts).
  std::vector<StreamEntry> top;
  std::size_t worst = 0;
  auto recompute_worst = [&]() {
    worst = 0;
    for (std::size_t j = 1; j < top.size(); ++j) {
      if (top[j].metric < top[worst].metric ||
          (top[j].metric == top[worst].metric &&
           top[j].index > top[worst].index)) {
        worst = j;
      }
    }
  };

  std::vector<double> full_flat;
  std::vector<double> comp_flat;
  std::vector<double> metrics;
  std::vector<std::uint8_t> need_full;
  std::vector<std::uint8_t> mask;
  util::Timer timer;

  std::uint64_t begin = 0;
  while (begin < summary.source_size) {
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(summary.window, summary.source_size - begin));

    timer.Reset();
    LoweredScenarios window;
    names.clear();
    COBRA_RETURN_IF_ERROR(source.Lower(begin, count, resolver, &window,
                                       consumer ? &names : nullptr));
    if (window.size() != count || names.size() != (consumer ? count : 0)) {
      return util::Status::Internal(util::StrFormat(
          "AssignStream: source lowered %zu scenario(s) and %zu name(s) for "
          "window [%llu, %llu) — sources must fill the window exactly",
          window.size(), names.size(), static_cast<unsigned long long>(begin),
          static_cast<unsigned long long>(begin + count)));
    }
    summary.generate_seconds += timer.ElapsedSeconds();

    timer.Reset();
    util::Result<std::shared_ptr<const PlanCore>> core_result =
        plan.PlanChunk(std::move(window), begin);
    if (!core_result.ok()) return core_result.status();
    const PlanCore& core = **core_result;
    summary.plan_seconds += timer.ElapsedSeconds();

    if (audit && summary.chunks == 0) {
      const std::shared_ptr<const BatchPlan> first_plan =
          BatchPlan::FromParts(*core_result, base);
      const verify::VerifyReport report =
          verify::VerifyStreamWindow(*first_plan, *this, source, begin);
      if (!report.ok()) {
        return util::Status::Internal(util::StrFormat(
            "AssignStream: freshly compiled first-chunk plan failed "
            "verification with %zu error finding(s); first: %s",
            report.num_errors(), report.FirstError()->ToString().c_str()));
      }
    }

    // The compressed side always runs in full: it IS the metric, and
    // COBRA's premise makes it the cheap side.
    comp_flat.assign(count * polys_comp, 0.0);
    std::size_t used_threads = 1;
    timer.Reset();
    SweepPlanProgram(core, *base, Side::kCompressed, comp_flat.data(),
                     &used_threads);
    summary.compressed_sweep_seconds += timer.ElapsedSeconds();

    // Fixed-order metric pass: aggregates and early-exit decisions walk
    // scenarios in stream order, so every running statistic is
    // deterministic across thread counts and chunkings.
    metrics.assign(count, 0.0);
    need_full.assign(count, 1);
    std::vector<std::uint8_t> keep(
        query.kind == StreamQuery::Kind::kThreshold ? count : 0, 0);
    std::size_t kept_this_chunk = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const double* comp_row = comp_flat.data() + i * polys_comp;
      const double m = metric_of(comp_row);
      metrics[i] = m;
      const std::uint64_t ordinal = begin + i;
      summary.metric_sum += m;
      if (m < summary.metric_min) {
        summary.metric_min = m;
        summary.metric_argmin = ordinal;
      }
      if (m > summary.metric_max) {
        summary.metric_max = m;
        summary.metric_argmax = ordinal;
      }
      for (std::size_t g = 0; g < groups; ++g) {
        summary.group_min[g] = std::min(summary.group_min[g], comp_row[g]);
        summary.group_max[g] = std::max(summary.group_max[g], comp_row[g]);
      }
      switch (query.kind) {
        case StreamQuery::Kind::kAll:
          break;
        case StreamQuery::Kind::kThreshold: {
          const bool hit = m >= query.cutoff;
          if (hit) ++summary.matched;
          const bool carry =
              hit && (query.max_entries == 0 ||
                      summary.entries.size() + kept_this_chunk <
                          query.max_entries);
          keep[i] = carry ? 1 : 0;
          if (carry) ++kept_this_chunk;
          need_full[i] = carry ? 1 : 0;
          break;
        }
        case StreamQuery::Kind::kTopK: {
          if (top.size() < query.k) {
            top.push_back({ordinal, {}, m, {}, {}});
            recompute_worst();
          } else if (m > top[worst].metric) {
            top[worst] = {ordinal, {}, m, {}, {}};
            recompute_worst();
          } else {
            need_full[i] = 0;
          }
          break;
        }
      }
    }

    // Full side, pruned at block granularity: a block runs iff any of its
    // lanes still matters to the query.
    full_flat.assign(count * polys_full, 0.0);
    timer.Reset();
    if (query.kind == StreamQuery::Kind::kAll) {
      SweepPlanProgram(core, *base, Side::kFull, full_flat.data(),
                       &used_threads);
      summary.full_rows_computed += count;
    } else {
      const std::size_t lanes = core.lanes();
      const std::size_t num_blocks = core.num_blocks();
      mask.assign(num_blocks, 0);
      bool any = false;
      for (std::size_t i = 0; i < count; ++i) {
        if (need_full[i] != 0) {
          mask[i / lanes] = 1;
          any = true;
        }
      }
      std::uint64_t rows_run = 0;
      for (std::size_t b = 0; b < num_blocks; ++b) {
        if (mask[b] != 0) {
          rows_run += std::min(lanes, count - b * lanes);
        }
      }
      summary.full_rows_computed += rows_run;
      summary.full_rows_skipped += count - rows_run;
      if (any) {
        SweepPlanProgram(core, *base, Side::kFull, full_flat.data(),
                         &used_threads, mask.data());
      }
      // Report rows the consumer may read: only surviving blocks' rows.
      for (std::size_t i = 0; i < count; ++i) {
        need_full[i] = mask[i / lanes];
      }
    }
    summary.full_sweep_seconds += timer.ElapsedSeconds();

    // Without a consumer, this chunk's threshold entries are named by one
    // Names call over their span. Row `i` is `names[begin + i -
    // named_first]` either way.
    std::uint64_t named_first = begin;
    if (!consumer && kept_this_chunk > 0) {
      std::size_t first = 0;
      std::size_t last = count;
      while (keep[first] == 0) ++first;
      while (keep[last - 1] == 0) --last;
      named_first = begin + first;
      timer.Reset();
      COBRA_RETURN_IF_ERROR(fetch_names(named_first, last - first));
      summary.generate_seconds += timer.ElapsedSeconds();
    }

    switch (query.kind) {
      case StreamQuery::Kind::kThreshold:
        for (std::size_t i = 0; i < count; ++i) {
          if (keep[i] == 0) continue;
          StreamEntry entry;
          entry.index = begin + i;
          entry.name =
              names[static_cast<std::size_t>(entry.index - named_first)];
          entry.metric = metrics[i];
          entry.full.assign(full_flat.begin() + i * polys_full,
                            full_flat.begin() + (i + 1) * polys_full);
          entry.compressed.assign(comp_flat.begin() + i * polys_comp,
                                  comp_flat.begin() + (i + 1) * polys_comp);
          summary.entries.push_back(std::move(entry));
        }
        break;
      case StreamQuery::Kind::kTopK:
        // Backfill rows for survivors born in this chunk. A scenario kept
        // then evicted within the same chunk wasted its block's full rows —
        // harmless, and bounded by the window.
        for (StreamEntry& e : top) {
          if (!e.full.empty()) continue;
          if (e.index < begin || e.index >= begin + count) continue;
          const std::size_t i = static_cast<std::size_t>(e.index - begin);
          if (consumer) e.name = names[i];
          e.full.assign(full_flat.begin() + i * polys_full,
                        full_flat.begin() + (i + 1) * polys_full);
          e.compressed.assign(comp_flat.begin() + i * polys_comp,
                              comp_flat.begin() + (i + 1) * polys_comp);
        }
        break;
      case StreamQuery::Kind::kAll:
        break;
    }

    summary.scenarios += count;
    ++summary.chunks;
    begin += count;

    if (consumer) {
      StreamBlockView view;
      view.begin = begin - count;
      view.count = count;
      view.num_groups = groups;
      view.names = &names;
      view.metrics = metrics.data();
      view.full_computed = need_full.data();
      view.full = full_flat.data();
      view.compressed = comp_flat.data();
      if (!consumer(view)) {
        summary.stopped_early = true;
        break;
      }
    }
  }

  if (query.kind == StreamQuery::Kind::kTopK) {
    std::sort(top.begin(), top.end(),
              [](const StreamEntry& a, const StreamEntry& b) {
                if (a.metric != b.metric) return a.metric > b.metric;
                return a.index < b.index;
              });
    // With a consumer every survivor was named from its window; otherwise
    // each of the k is named here, one ordinal at a time.
    if (!consumer) {
      timer.Reset();
      for (StreamEntry& entry : top) {
        COBRA_RETURN_IF_ERROR(fetch_names(entry.index, 1));
        entry.name = std::move(names[0]);
      }
      summary.generate_seconds += timer.ElapsedSeconds();
    }
    summary.entries = std::move(top);
  }
  return summary;
}

}  // namespace cobra::core
