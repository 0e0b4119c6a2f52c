#include "core/batch_plan.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "core/compiled_session.h"
#include "util/hash.h"
#include "util/str.h"

namespace cobra::core {

namespace {

/// Below this combined program weight (terms + factors, both sides) the
/// adaptive policy always picks the scalar sparse engine: the blocked
/// kernel's per-batch fixed costs (block programs, tile dispatch) are not
/// amortized by so short a scan.
constexpr std::size_t kAutoMinBlockedWeight = 2048;

/// The blocked kernel's per-block fixed cost grows with the override-union
/// width; the policy requires the program scan to outweigh it by this
/// factor before blocking pays.
constexpr std::size_t kAutoOverrideWeightFactor = 32;

/// Below this many scenarios the adaptive policy stays on the scalar sparse
/// engine even for heavy programs. Fit from the accumulated bench record:
/// BENCH_a6 measured blocked at 0.79x sparse with 64 scenarios while
/// BENCH_a7 measured 3.5x at 1024 — the block-table builds and tile
/// dispatch only amortize once a couple hundred scenarios share them, so
/// the old crossover (blocked from 2 scenarios up) was wrong on both
/// workloads.
constexpr std::size_t kAutoMinBlockedScenarios = 128;

/// Builds the tile schedule for one program: whole-poly ranges sized by
/// PartitionPolys, with the dominant-polynomial term-splitting fallback —
/// exactly the tiling AssignBatch used to rebuild per call, now derived
/// once at planning time.
ProgramSchedule MakeSchedule(const prov::EvalProgram& program,
                             std::size_t threads, std::size_t num_blocks,
                             const BatchOptions& options) {
  ProgramSchedule schedule;
  schedule.num_polys = program.NumPolys();
  schedule.split_poly = schedule.num_polys;

  std::size_t parts = 1;
  if (threads > num_blocks && options.partition_min_terms > 0) {
    const std::size_t want = (threads + num_blocks - 1) / num_blocks;
    const std::size_t cap =
        program.NumTerms() / options.partition_min_terms + 1;
    parts = std::min(want, cap);
  }
  const std::vector<std::uint32_t> bounds = program.PartitionPolys(parts);

  if (parts > bounds.size() - 1 && options.split_min_terms > 0) {
    schedule.split_poly = program.DominantPoly(options.split_min_terms);
  }
  if (schedule.split_poly < schedule.num_polys) {
    const std::uint32_t sp = static_cast<std::uint32_t>(schedule.split_poly);
    for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
      const std::uint32_t begin = bounds[r];
      const std::uint32_t end = bounds[r + 1];
      if (sp >= begin && sp < end) {
        if (sp > begin) schedule.ranges.emplace_back(begin, sp);
        if (sp + 1 < end) schedule.ranges.emplace_back(sp + 1, end);
      } else {
        schedule.ranges.emplace_back(begin, end);
      }
    }
    const std::size_t spare = parts > schedule.ranges.size()
                                  ? parts - schedule.ranges.size()
                                  : 2;
    schedule.term_bounds = program.PartitionTerms(
        schedule.split_poly, std::max<std::size_t>(2, spare));
  } else {
    for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
      schedule.ranges.emplace_back(bounds[r], bounds[r + 1]);
    }
  }
  return schedule;
}

/// Validates the engine knobs once, at planning time; every rejection names
/// the offending BatchOptions field and the accepted values. Shared by the
/// batch path (PlanCore::Create) and the streaming path (StreamPlan::Create).
util::Status ValidateSweepOptions(const BatchOptions& options) {
  switch (options.sweep) {
    case BatchOptions::Sweep::kAuto:
    case BatchOptions::Sweep::kBlocked:
    case BatchOptions::Sweep::kSparseDelta:
      break;
    default:
      return util::Status::InvalidArgument(util::StrFormat(
          "AssignBatch: invalid BatchOptions.sweep = %d (accepted: kAuto, "
          "kBlocked, kSparseDelta)",
          static_cast<int>(options.sweep)));
  }
  return util::Status::OK();
}

/// Checks a lowered window's shape before anything indexes with it: the
/// offsets must bound the override array, every list must be strictly
/// ascending inside the frozen pool (the planner merges the lists and the
/// kernels index the base with their ids), and every value must be finite.
/// A source's `Lower` may be user code, so this is an input check, not an
/// assertion.
util::Status CheckLowered(const LoweredScenarios& lowered,
                          std::size_t frozen_pool_size) {
  const std::vector<std::size_t>& offsets = lowered.offsets;
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != lowered.overrides.size()) {
    return util::Status::InvalidArgument(
        "AssignBatch: lowered scenarios' offsets do not bound their "
        "override array");
  }
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return util::Status::InvalidArgument(util::StrFormat(
          "AssignBatch: lowered scenario %zu has a negative extent", i));
    }
    for (std::size_t o = offsets[i]; o < offsets[i + 1]; ++o) {
      const prov::VarId var = lowered.overrides[o].var;
      if (var >= frozen_pool_size ||
          (o > offsets[i] && lowered.overrides[o - 1].var >= var)) {
        return util::Status::InvalidArgument(util::StrFormat(
            "AssignBatch: lowered scenario %zu is not a strictly ascending "
            "override list inside the frozen pool (%zu variables)",
            i, frozen_pool_size));
      }
      if (!std::isfinite(lowered.overrides[o].value)) {
        return util::Status::InvalidArgument(util::StrFormat(
            "AssignBatch: lowered scenario %zu overrides variable %u with "
            "the non-finite value %g",
            i, var, lowered.overrides[o].value));
      }
    }
  }
  return util::Status::OK();
}

}  // namespace

std::size_t DefaultSweepThreads() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<std::size_t>(cpus);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::string PlanFingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

PlanFingerprint FingerprintScenarios(const ScenarioSet& scenarios) {
  // A 128-bit digest (util::Hash128): a plan silently replayed for the
  // wrong scenario set would corrupt results, so 64 bits of collision
  // resistance is not enough to stake correctness on. Names are fed
  // word-wise into both chains — never pre-collapsed to one 64-bit hash.
  util::Hash128 hash(0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL);
  hash.Feed(scenarios.size());
  for (const Scenario& scenario : scenarios.scenarios()) {
    hash.FeedBytes(scenario.name);
    hash.Feed(scenario.deltas.size());
    for (const Scenario::Delta& delta : scenario.deltas) {
      hash.FeedBytes(delta.var);
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(delta.value));
      std::memcpy(&bits, &delta.value, sizeof(bits));
      hash.Feed(bits);
    }
  }
  return {hash.lo(), hash.hi()};
}

PlanFingerprint FingerprintWindow(const SourceFingerprint& source,
                                  std::uint64_t begin, std::uint64_t count) {
  // Its own seed pair, so a window key can never equal a scenario-set key
  // by feeding the same words.
  util::Hash128 hash(0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL);
  hash.Feed(source.lo);
  hash.Feed(source.hi);
  hash.Feed(begin);
  hash.Feed(count);
  return {hash.lo(), hash.hi()};
}

BaseFingerprint FingerprintBase(const prov::Valuation& base,
                                std::size_t pool_size) {
  // 128-bit (util::Hash128) because cached-plan *identity* relies on it —
  // same correctness standard as the scenario fingerprint. Hashing the
  // pool-normalized view (short valuations extend neutrally, tails past the
  // frozen pool are invisible to the kernels) means equal-behaving bases
  // always share one cached plan.
  util::Hash128 hash(0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL);
  hash.Feed(pool_size);
  const std::vector<double>& values = base.values();
  const std::size_t covered = std::min(values.size(), pool_size);
  for (std::size_t v = 0; v < covered; ++v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(values[v]));
    std::memcpy(&bits, &values[v], sizeof(bits));
    hash.Feed(bits);
  }
  if (covered < pool_size) {
    std::uint64_t neutral_bits = 0;
    const double neutral = 1.0;
    std::memcpy(&neutral_bits, &neutral, sizeof(neutral_bits));
    for (std::size_t v = covered; v < pool_size; ++v) hash.Feed(neutral_bits);
  }
  return {hash.lo(), hash.hi()};
}

BatchOptions::Sweep ChooseAutoEngine(std::size_t program_weight,
                                     std::size_t num_scenarios,
                                     std::size_t max_override_width) {
  // Policy table (fit from BENCH_a6/a7; see the header comment):
  //   n < 128, weight < 2048, or weight < 32 x override width -> sparse
  //   otherwise -> blocked, 16 lanes
  if (num_scenarios < kAutoMinBlockedScenarios ||
      program_weight < kAutoMinBlockedWeight ||
      program_weight < kAutoOverrideWeightFactor * max_override_width) {
    return BatchOptions::Sweep::kSparseDelta;
  }
  return BatchOptions::Sweep::kBlocked;
}

util::Result<std::shared_ptr<const PlanCore>> PlanCore::Create(
    std::shared_ptr<const CompiledSession> session,
    const ScenarioSet& scenarios, const BatchOptions& options,
    const PlanFingerprint* precomputed_fingerprint) {
  if (session == nullptr) {
    return util::Status::InvalidArgument("BatchPlan: null session");
  }
  COBRA_RETURN_IF_ERROR(ValidateSweepOptions(options));
  if (scenarios.empty()) {
    return util::Status::InvalidArgument("AssignBatch: empty scenario set");
  }
  // Names are unique and non-empty by construction: ScenarioSet::Add
  // refuses anything else.
  LoweredScenarios lowered;
  COBRA_RETURN_IF_ERROR(
      LowerScenarios(scenarios.scenarios(), session->resolver(), &lowered));
  const PlanFingerprint fingerprint = precomputed_fingerprint != nullptr
                                          ? *precomputed_fingerprint
                                          : FingerprintScenarios(scenarios);
  return Create(std::move(session), std::move(lowered), fingerprint, options,
                scenarios.Names());
}

util::Result<std::shared_ptr<const PlanCore>> PlanCore::Create(
    std::shared_ptr<const CompiledSession> session, LoweredScenarios lowered,
    const PlanFingerprint& fingerprint, const BatchOptions& options,
    std::vector<std::string> names) {
  if (session == nullptr) {
    return util::Status::InvalidArgument("BatchPlan: null session");
  }

  // Options are validated here, once, and never mid-sweep.
  COBRA_RETURN_IF_ERROR(ValidateSweepOptions(options));

  const std::size_t frozen_pool_size = session->pool_size();
  COBRA_RETURN_IF_ERROR(CheckLowered(lowered, frozen_pool_size));
  const std::size_t n = lowered.size();
  if (n == 0) {
    return util::Status::InvalidArgument("AssignBatch: empty scenario set");
  }
  if (!names.empty() && names.size() != n) {
    return util::Status::InvalidArgument(util::StrFormat(
        "AssignBatch: %zu scenario names for %zu lowered scenarios",
        names.size(), n));
  }

  auto core = std::shared_ptr<PlanCore>(new PlanCore());
  core->session_ = session;
  core->fingerprint_ = fingerprint;
  core->scenario_names_ = std::move(names);
  core->lowered_ = std::move(lowered);

  std::size_t max_override_width = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_override_width =
        std::max(max_override_width, core->lowered_.scenario(i).size());
  }

  const prov::EvalProgram& sweep_full = session->sweep_full_program();
  const prov::EvalProgram& compressed = session->compressed_program();

  // Resolve the engine. The kAuto policy reads only the program shapes, the
  // scenario count and the override width — never the thread count — so the
  // choice is deterministic for a given workload.
  const std::size_t weight = sweep_full.NumTerms() +
                             sweep_full.factors().size() +
                             compressed.NumTerms() +
                             compressed.factors().size();
  core->engine_ = options.sweep == BatchOptions::Sweep::kAuto
                     ? ChooseAutoEngine(weight, n, max_override_width)
                     : options.sweep;
  core->lanes_ = core->engine_ == BatchOptions::Sweep::kBlocked
                     ? prov::EvalProgram::kMaxLanes
                     : 1;

  const std::size_t threads =
      options.num_threads == 0 ? DefaultSweepThreads() : options.num_threads;
  core->num_threads_ = threads;
  core->num_blocks_ = (n + core->lanes_ - 1) / core->lanes_;

  core->full_schedule_ =
      MakeSchedule(sweep_full, threads, core->num_blocks_, options);
  core->compressed_schedule_ =
      MakeSchedule(compressed, threads, core->num_blocks_, options);

  // The block program (blocked kernel only): per block, the override rows,
  // and per side, the terms the block's override union touches with each
  // of their factors' rows — the only terms the kernel re-evaluates per
  // lane. None of it reads a base, so every base, grid cell and replay of
  // this core reuses it.
  if (core->engine_ == BatchOptions::Sweep::kBlocked) {
    std::vector<prov::OverrideSpan> lanes(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const prov::VarOverride> ov = core->lowered_.scenario(i);
      lanes[i] = {ov.data(), ov.size()};
    }
    core->block_rows_ = prov::BlockRows(lanes);
    core->full_schedule_.touched = prov::TouchedPrograms(
        sweep_full, session->sweep_full_term_index(), core->block_rows_);
    core->compressed_schedule_.touched = prov::TouchedPrograms(
        compressed, session->compressed_term_index(), core->block_rows_);
  }

  return std::shared_ptr<const PlanCore>(std::move(core));
}

util::Result<std::shared_ptr<const StreamPlan>> StreamPlan::Create(
    std::shared_ptr<const CompiledSession> session,
    const ScenarioSource& source, const BatchOptions& options) {
  if (session == nullptr) {
    return util::Status::InvalidArgument("AssignStream: null session");
  }
  COBRA_RETURN_IF_ERROR(ValidateSweepOptions(options));
  if (options.stream_block_scenarios == 0) {
    return util::Status::InvalidArgument(
        "AssignStream: invalid BatchOptions.stream_block_scenarios = 0 "
        "(the streaming window must hold at least one scenario)");
  }
  if (source.size() == 0) {
    return util::Status::InvalidArgument("AssignStream: empty scenario source");
  }

  auto plan = std::shared_ptr<StreamPlan>(new StreamPlan());
  plan->session_ = session;
  plan->source_fingerprint_ = source.fingerprint();
  plan->source_size_ = source.size();
  plan->window_ = static_cast<std::size_t>(
      std::min<std::uint64_t>(options.stream_block_scenarios, source.size()));

  // Resolve the engine ONCE for the whole stream, from the same inputs the
  // batch policy reads — with the source's size (clamped to the window: a
  // chunk never sees more scenarios than that) standing in for the scenario
  // count and its max_deltas() bound for the measured override width. Every
  // chunk core is then compiled with the pinned choice, so chunk boundaries
  // can never flip the engine mid-stream.
  plan->resolved_ = options;
  if (options.sweep == BatchOptions::Sweep::kAuto) {
    const prov::EvalProgram& sweep_full = session->sweep_full_program();
    const prov::EvalProgram& compressed = session->compressed_program();
    const std::size_t weight = sweep_full.NumTerms() +
                               sweep_full.factors().size() +
                               compressed.NumTerms() +
                               compressed.factors().size();
    plan->resolved_.sweep =
        ChooseAutoEngine(weight, plan->window_, source.max_deltas());
  }
  plan->lanes_ = plan->resolved_.sweep == BatchOptions::Sweep::kBlocked
                     ? prov::EvalProgram::kMaxLanes
                     : 1;
  if (plan->resolved_.num_threads == 0) {
    plan->resolved_.num_threads = DefaultSweepThreads();
  }
  return std::shared_ptr<const StreamPlan>(std::move(plan));
}

util::Result<std::shared_ptr<const PlanCore>> StreamPlan::PlanChunk(
    LoweredScenarios window, std::uint64_t begin) const {
  std::shared_ptr<const CompiledSession> session = session_.lock();
  if (session == nullptr) {
    return util::Status::FailedPrecondition(
        "AssignStream: the plan's origin session has been destroyed");
  }
  // The pinned options make this exactly the per-chunk slice of batch
  // planning: the block program and tile schedules for this window only.
  const PlanFingerprint fingerprint =
      FingerprintWindow(source_fingerprint_, begin, window.size());
  return PlanCore::Create(std::move(session), std::move(window), fingerprint,
                          resolved_);
}

std::shared_ptr<const BatchPlan> BatchPlan::FromParts(
    std::shared_ptr<const PlanCore> core,
    std::shared_ptr<const BaseState> base) {
  COBRA_CHECK_MSG(core != nullptr && base != nullptr,
                  "BatchPlan::FromParts: null core or base state");
  return std::shared_ptr<const BatchPlan>(
      new BatchPlan(std::move(core), std::move(base)));
}

}  // namespace cobra::core
