#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/hash.h"
#include "util/rng.h"

namespace cobra::core {
namespace {

// All source fingerprints share one seed pair and lead with a kind tag, so
// two different generator kinds can never collide by feeding the same spec
// words. The seeds differ from the plan-layer scenario/base fingerprint
// seeds (batch_plan.cc), keeping the two fingerprint families disjoint.
constexpr std::uint64_t kSourceSeedLo = 0x452821e638d01377ULL;
constexpr std::uint64_t kSourceSeedHi = 0xbe5466cf34e90c6cULL;

enum class SourceKind : std::uint64_t {
  kExplicit = 1,
  kCartesian = 2,
  kSampled = 3,
  kConcat = 4,
  kCompose = 5,
};

util::Hash128 NewSourceHash(SourceKind kind) {
  util::Hash128 hash(kSourceSeedLo, kSourceSeedHi);
  hash.Feed(static_cast<std::uint64_t>(kind));
  return hash;
}

std::uint64_t DoubleBits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void FeedScenario(util::Hash128* hash, const Scenario& scenario) {
  hash->FeedBytes(scenario.name);
  hash->Feed(scenario.deltas.size());
  for (const Scenario::Delta& delta : scenario.deltas) {
    hash->FeedBytes(delta.var);
    hash->Feed(DoubleBits(delta.value));
  }
}

SourceFingerprint Finish(const util::Hash128& hash) {
  return SourceFingerprint{hash.lo(), hash.hi()};
}

// Sources cap their space at 2^62 so begin+count arithmetic in Generate and
// outer*inner products in ComposeSource cannot overflow uint64.
constexpr std::uint64_t kMaxSourceSize = 1ULL << 62;

/// `prefix-<i>`, the generators' scenario name for ordinal `i`.
std::string OrdinalName(const std::string& prefix, std::uint64_t i) {
  return prefix + "-" + std::to_string(i);
}

/// Resolves every axis variable once, for a window whose first scenario is
/// `first_name` (named in a failure, as the default lowering would name
/// it), and returns the (id, axis) pairs in id order. Axis variables are
/// distinct, so their ids are too, and emitting the axes in this order
/// makes every lowered list sorted and duplicate-free.
util::Result<std::vector<std::pair<prov::VarId, std::size_t>>> AxisOrder(
    const std::vector<ValueAxis>& axes, const VarResolver& resolver,
    std::string_view first_name) {
  std::vector<std::pair<prov::VarId, std::size_t>> order;
  order.reserve(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    util::Result<prov::VarId> id = resolver.Resolve(axes[a].var);
    if (!id.ok()) return LoweringError(first_name, id.status());
    order.emplace_back(*id, a);
  }
  std::sort(order.begin(), order.end());
  return order;
}

/// Generates window `[begin, begin + count)` of `source` into `window`,
/// reserving room only for a window inside the source: an out-of-range one
/// must fail in `Generate`, as a direct call would, not in the allocator.
util::Status GenerateWindow(const ScenarioSource& source, std::uint64_t begin,
                            std::uint64_t count, ScenarioSet* window) {
  if (begin <= source.size() && count <= source.size() - begin) {
    window->Reserve(static_cast<std::size_t>(count));
  }
  return source.Generate(begin, count, window);
}

/// Appends the names of `window`'s scenarios to `out`, in order.
void AppendNames(const ScenarioSet& window, std::vector<std::string>* out) {
  out->reserve(out->size() + window.size());
  for (const Scenario& scenario : window.scenarios()) {
    out->push_back(scenario.name);
  }
}

}  // namespace

// ---------------------------------------------------------------- lowering

util::Result<prov::VarId> VarResolver::Resolve(std::string_view var) const {
  const prov::VarId id = pool_->Find(var);
  if (id == prov::kInvalidVar) {
    return util::Status::InvalidArgument("unknown variable: " +
                                         std::string(var));
  }
  if (id >= frozen_size_) {
    // The pool is shared with the (still-mutable) authoring session; names
    // interned after this snapshot was taken are not part of its frozen
    // world.
    return util::Status::InvalidArgument(
        "variable " + std::string(var) +
        " was interned after this snapshot was taken");
  }
  return id;
}

util::Status CheckWindow(std::uint64_t begin, std::uint64_t count,
                         std::uint64_t size, const char* what) {
  if (begin > size || count > size - begin) {
    return util::Status::InvalidArgument(
        std::string(what) + ": window [" + std::to_string(begin) + ", " +
        std::to_string(begin + count) + ") exceeds source size " +
        std::to_string(size));
  }
  return util::Status::OK();
}

util::Status LoweringError(std::string_view scenario,
                           const util::Status& cause) {
  return util::Status::InvalidArgument("AssignBatch scenario \"" +
                                       std::string(scenario) +
                                       "\": " + cause.message());
}

void LoweredScenarios::EndUnsortedScenario() {
  // Deltas apply in order, so a repeated variable keeps its last value. A
  // stable sort keeps each variable's deltas in input order; collapsing
  // every run to its last entry leaves the duplicate-free list the kernels
  // need, in O(d log d) for d deltas.
  const std::size_t first = offsets.back();
  prov::VarOverride* list = overrides.data() + first;
  const std::size_t n = overrides.size() - first;
  std::stable_sort(list, list + n,
                   [](const prov::VarOverride& a, const prov::VarOverride& b) {
                     return a.var < b.var;
                   });
  std::size_t kept = 0;
  for (std::size_t o = 0; o < n; ++o) {
    if (kept > 0 && list[kept - 1].var == list[o].var) {
      list[kept - 1].value = list[o].value;
    } else {
      list[kept++] = list[o];
    }
  }
  overrides.resize(first + kept);
  EndScenario();
}

util::Status LowerScenarios(std::span<const Scenario> scenarios,
                            const VarResolver& resolver,
                            LoweredScenarios* out) {
  out->offsets.reserve(out->offsets.size() + scenarios.size());
  for (const Scenario& scenario : scenarios) {
    for (const Scenario::Delta& delta : scenario.deltas) {
      util::Result<prov::VarId> id = resolver.Resolve(delta.var);
      if (!id.ok()) return LoweringError(scenario.name, id.status());
      out->overrides.push_back({*id, delta.value});
    }
    out->EndUnsortedScenario();
  }
  return util::Status::OK();
}

// ---------------------------------------------------------------- ScenarioSet

util::Result<ScenarioSet::Handle> ScenarioSet::Add(std::string name) {
  return Add(Scenario{std::move(name), {}});
}

util::Result<ScenarioSet::Handle> ScenarioSet::Add(Scenario scenario) {
  if (scenario.name.empty()) {
    return util::Status::InvalidArgument(
        "ScenarioSet: empty scenario name (scenario " +
        std::to_string(scenarios_.size()) + ")");
  }
  if (!names_.insert(scenario.name).second) {
    return util::Status::InvalidArgument("ScenarioSet: duplicate scenario name \"" +
                                         scenario.name + "\"");
  }
  scenarios_.push_back(std::move(scenario));
  return Handle(this, scenarios_.size() - 1);
}

void ScenarioSet::Reserve(std::size_t n) {
  scenarios_.reserve(n);
  names_.reserve(n);
}

void ScenarioSet::Clear() {
  scenarios_.clear();
  names_.clear();
}

std::vector<std::string> ScenarioSet::Names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const Scenario& s : scenarios_) names.push_back(s.name);
  return names;
}

// ---------------------------------------------------------- SourceFingerprint

std::string SourceFingerprint::ToHex() const {
  char buffer[33];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buffer);
}

// ------------------------------------------------------------- ScenarioSource

util::Status ScenarioSource::Lower(std::uint64_t begin, std::uint64_t count,
                                   const VarResolver& resolver,
                                   LoweredScenarios* out,
                                   std::vector<std::string>* names) const {
  ScenarioSet window;
  COBRA_RETURN_IF_ERROR(GenerateWindow(*this, begin, count, &window));
  COBRA_RETURN_IF_ERROR(LowerScenarios(window.scenarios(), resolver, out));
  if (names != nullptr) AppendNames(window, names);
  return util::Status::OK();
}

util::Status ScenarioSource::Names(std::uint64_t begin, std::uint64_t count,
                                   std::vector<std::string>* out) const {
  ScenarioSet window;
  COBRA_RETURN_IF_ERROR(GenerateWindow(*this, begin, count, &window));
  AppendNames(window, out);
  return util::Status::OK();
}

util::Result<ScenarioSet> ScenarioSource::Materialize() const {
  const std::uint64_t n = size();
  ScenarioSet out;
  out.Reserve(static_cast<std::size_t>(n));
  COBRA_RETURN_IF_ERROR(Generate(0, n, &out));
  return out;
}

// ------------------------------------------------------------- ExplicitSource

ExplicitSource::ExplicitSource(ScenarioSet scenarios)
    : scenarios_(std::move(scenarios)) {
  util::Hash128 hash = NewSourceHash(SourceKind::kExplicit);
  hash.Feed(scenarios_.size());
  for (const Scenario& s : scenarios_.scenarios()) {
    max_deltas_ = std::max(max_deltas_, s.deltas.size());
    FeedScenario(&hash, s);
  }
  fingerprint_ = Finish(hash);
}

util::Result<std::shared_ptr<const ExplicitSource>> ExplicitSource::Create(
    ScenarioSet scenarios) {
  if (scenarios.empty()) {
    return util::Status::InvalidArgument(
        "ExplicitSource: empty scenario set");
  }
  return std::shared_ptr<const ExplicitSource>(
      new ExplicitSource(std::move(scenarios)));
}

std::uint64_t ExplicitSource::size() const { return scenarios_.size(); }

std::size_t ExplicitSource::max_deltas() const { return max_deltas_; }

SourceFingerprint ExplicitSource::fingerprint() const { return fingerprint_; }

util::Status ExplicitSource::Generate(std::uint64_t begin, std::uint64_t count,
                                      ScenarioSet* out) const {
  COBRA_RETURN_IF_ERROR(CheckWindow(begin, count, size(), "ExplicitSource"));
  for (std::uint64_t i = begin; i < begin + count; ++i) {
    util::Result<ScenarioSet::Handle> added =
        out->Add(scenarios_.scenario(static_cast<std::size_t>(i)));
    if (!added.ok()) return added.status();
  }
  return util::Status::OK();
}

// ------------------------------------------------------------ CartesianSource

ValueAxis LinSpace(std::string var, double lo, double hi, std::size_t steps) {
  ValueAxis axis;
  axis.var = std::move(var);
  axis.values.reserve(steps);
  for (std::size_t j = 0; j < steps; ++j) {
    // Endpoints are exact (no accumulated increment error): the last value
    // is `hi` itself, not lo + (steps-1)*step.
    axis.values.push_back(
        j + 1 == steps && steps > 1
            ? hi
            : lo + (hi - lo) * static_cast<double>(j) /
                  static_cast<double>(steps > 1 ? steps - 1 : 1));
  }
  return axis;
}

CartesianSource::CartesianSource(std::vector<ValueAxis> axes,
                                 std::string name_prefix, std::uint64_t size)
    : axes_(std::move(axes)),
      name_prefix_(std::move(name_prefix)),
      size_(size) {}

util::Result<std::shared_ptr<const CartesianSource>> CartesianSource::Create(
    std::vector<ValueAxis> axes, std::string name_prefix) {
  if (axes.empty()) {
    return util::Status::InvalidArgument("CartesianSource: no axes");
  }
  std::unordered_set<std::string> vars;
  std::uint64_t size = 1;
  for (const ValueAxis& axis : axes) {
    if (axis.var.empty()) {
      return util::Status::InvalidArgument(
          "CartesianSource: empty axis variable name");
    }
    if (!vars.insert(axis.var).second) {
      return util::Status::InvalidArgument(
          "CartesianSource: variable \"" + axis.var +
          "\" appears on more than one axis");
    }
    if (axis.values.empty()) {
      return util::Status::InvalidArgument(
          "CartesianSource: axis \"" + axis.var + "\" has no values");
    }
    for (double v : axis.values) {
      if (!std::isfinite(v)) {
        return util::Status::InvalidArgument(
            "CartesianSource: axis \"" + axis.var +
            "\" contains a non-finite value");
      }
    }
    if (size > kMaxSourceSize / axis.values.size()) {
      return util::Status::InvalidArgument(
          "CartesianSource: grid size overflows 2^62 scenarios");
    }
    size *= axis.values.size();
  }
  return std::shared_ptr<const CartesianSource>(new CartesianSource(
      std::move(axes), std::move(name_prefix), size));
}

SourceFingerprint CartesianSource::fingerprint() const {
  util::Hash128 hash = NewSourceHash(SourceKind::kCartesian);
  hash.FeedBytes(name_prefix_);
  hash.Feed(axes_.size());
  for (const ValueAxis& axis : axes_) {
    hash.FeedBytes(axis.var);
    hash.Feed(axis.values.size());
    for (double v : axis.values) hash.Feed(DoubleBits(v));
  }
  return Finish(hash);
}

util::Status CartesianSource::Generate(std::uint64_t begin,
                                       std::uint64_t count,
                                       ScenarioSet* out) const {
  COBRA_RETURN_IF_ERROR(CheckWindow(begin, count, size_, "CartesianSource"));
  const std::size_t num_axes = axes_.size();
  std::vector<std::size_t> digits(num_axes, 0);
  for (std::uint64_t i = begin; i < begin + count; ++i) {
    // Mixed-radix decomposition, last axis fastest (row major).
    std::uint64_t rem = i;
    for (std::size_t a = num_axes; a-- > 0;) {
      const std::uint64_t radix = axes_[a].values.size();
      digits[a] = static_cast<std::size_t>(rem % radix);
      rem /= radix;
    }
    Scenario scenario;
    scenario.name = OrdinalName(name_prefix_, i);
    scenario.deltas.reserve(num_axes);
    for (std::size_t a = 0; a < num_axes; ++a) {
      scenario.deltas.push_back({axes_[a].var, axes_[a].values[digits[a]]});
    }
    util::Result<ScenarioSet::Handle> added = out->Add(std::move(scenario));
    if (!added.ok()) return added.status();
  }
  return util::Status::OK();
}

util::Status CartesianSource::Lower(std::uint64_t begin, std::uint64_t count,
                                    const VarResolver& resolver,
                                    LoweredScenarios* out,
                                    std::vector<std::string>* names) const {
  COBRA_RETURN_IF_ERROR(CheckWindow(begin, count, size_, "CartesianSource"));
  if (count == 0) return util::Status::OK();
  util::Result<std::vector<std::pair<prov::VarId, std::size_t>>> order =
      AxisOrder(axes_, resolver, OrdinalName(name_prefix_, begin));
  if (!order.ok()) return order.status();
  // The mixed-radix digits of `begin`, then an odometer step per scenario
  // (last axis fastest), instead of a division per axis and scenario.
  const std::size_t num_axes = axes_.size();
  std::vector<std::size_t> digits(num_axes, 0);
  std::uint64_t rem = begin;
  for (std::size_t a = num_axes; a-- > 0;) {
    const std::uint64_t radix = axes_[a].values.size();
    digits[a] = static_cast<std::size_t>(rem % radix);
    rem /= radix;
  }
  out->overrides.reserve(out->overrides.size() +
                         static_cast<std::size_t>(count) * num_axes);
  out->offsets.reserve(out->offsets.size() + static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    for (const auto& [id, a] : *order) {
      out->overrides.push_back({id, axes_[a].values[digits[a]]});
    }
    out->EndScenario();
    for (std::size_t a = num_axes; a-- > 0;) {
      if (++digits[a] < axes_[a].values.size()) break;
      digits[a] = 0;
    }
  }
  return names != nullptr ? Names(begin, count, names) : util::Status::OK();
}

util::Status CartesianSource::Names(std::uint64_t begin, std::uint64_t count,
                                    std::vector<std::string>* out) const {
  COBRA_RETURN_IF_ERROR(CheckWindow(begin, count, size_, "CartesianSource"));
  out->reserve(out->size() + static_cast<std::size_t>(count));
  for (std::uint64_t i = begin; i < begin + count; ++i) {
    out->push_back(OrdinalName(name_prefix_, i));
  }
  return util::Status::OK();
}

// -------------------------------------------------------------- SampledSource

SampledSource::SampledSource(std::vector<RangeAxis> axes, std::uint64_t count,
                             std::uint64_t seed, std::string name_prefix)
    : axes_(std::move(axes)),
      count_(count),
      seed_(seed),
      name_prefix_(std::move(name_prefix)) {}

util::Result<std::shared_ptr<const SampledSource>> SampledSource::Create(
    std::vector<RangeAxis> axes, std::uint64_t count, std::uint64_t seed,
    std::string name_prefix) {
  if (count == 0) {
    return util::Status::InvalidArgument("SampledSource: count must be > 0");
  }
  if (count > kMaxSourceSize) {
    return util::Status::InvalidArgument(
        "SampledSource: count overflows 2^62 scenarios");
  }
  if (axes.empty()) {
    return util::Status::InvalidArgument("SampledSource: no axes");
  }
  std::unordered_set<std::string> vars;
  for (const RangeAxis& axis : axes) {
    if (axis.var.empty()) {
      return util::Status::InvalidArgument(
          "SampledSource: empty axis variable name");
    }
    if (!vars.insert(axis.var).second) {
      return util::Status::InvalidArgument(
          "SampledSource: variable \"" + axis.var +
          "\" appears on more than one axis");
    }
    if (!std::isfinite(axis.lo) || !std::isfinite(axis.hi) ||
        axis.lo > axis.hi) {
      return util::Status::InvalidArgument(
          "SampledSource: axis \"" + axis.var +
          "\" range is not a finite [lo, hi] interval");
    }
  }
  return std::shared_ptr<const SampledSource>(new SampledSource(
      std::move(axes), count, seed, std::move(name_prefix)));
}

SourceFingerprint SampledSource::fingerprint() const {
  util::Hash128 hash = NewSourceHash(SourceKind::kSampled);
  hash.FeedBytes(name_prefix_);
  hash.Feed(count_);
  hash.Feed(seed_);
  hash.Feed(axes_.size());
  for (const RangeAxis& axis : axes_) {
    hash.FeedBytes(axis.var);
    hash.Feed(DoubleBits(axis.lo));
    hash.Feed(DoubleBits(axis.hi));
  }
  return Finish(hash);
}

util::Status SampledSource::Generate(std::uint64_t begin, std::uint64_t count,
                                     ScenarioSet* out) const {
  COBRA_RETURN_IF_ERROR(CheckWindow(begin, count, count_, "SampledSource"));
  for (std::uint64_t i = begin; i < begin + count; ++i) {
    // One decorrelated stream per ordinal: the draw depends only on
    // (seed, i), so any chunking of the space samples identically.
    util::Rng rng = util::Rng(seed_).Fork(i);
    Scenario scenario;
    scenario.name = OrdinalName(name_prefix_, i);
    scenario.deltas.reserve(axes_.size());
    for (const RangeAxis& axis : axes_) {
      scenario.deltas.push_back(
          {axis.var, rng.NextDoubleInRange(axis.lo, axis.hi)});
    }
    util::Result<ScenarioSet::Handle> added = out->Add(std::move(scenario));
    if (!added.ok()) return added.status();
  }
  return util::Status::OK();
}

// --------------------------------------------------------------- ConcatSource

ConcatSource::ConcatSource(
    std::vector<std::shared_ptr<const ScenarioSource>> parts,
    std::uint64_t size, std::size_t max_deltas)
    : parts_(std::move(parts)), size_(size), max_deltas_(max_deltas) {}

util::Result<std::shared_ptr<const ConcatSource>> ConcatSource::Create(
    std::vector<std::shared_ptr<const ScenarioSource>> parts) {
  if (parts.empty()) {
    return util::Status::InvalidArgument("ConcatSource: no parts");
  }
  std::uint64_t size = 0;
  std::size_t max_deltas = 0;
  for (const std::shared_ptr<const ScenarioSource>& part : parts) {
    if (part == nullptr) {
      return util::Status::InvalidArgument("ConcatSource: null part");
    }
    if (part->size() > kMaxSourceSize - size) {
      return util::Status::InvalidArgument(
          "ConcatSource: total size overflows 2^62 scenarios");
    }
    size += part->size();
    max_deltas = std::max(max_deltas, part->max_deltas());
  }
  return std::shared_ptr<const ConcatSource>(
      new ConcatSource(std::move(parts), size, max_deltas));
}

SourceFingerprint ConcatSource::fingerprint() const {
  util::Hash128 hash = NewSourceHash(SourceKind::kConcat);
  hash.Feed(parts_.size());
  for (const std::shared_ptr<const ScenarioSource>& part : parts_) {
    SourceFingerprint fp = part->fingerprint();
    hash.Feed(fp.lo);
    hash.Feed(fp.hi);
  }
  return Finish(hash);
}

util::Status ConcatSource::Generate(std::uint64_t begin, std::uint64_t count,
                                    ScenarioSet* out) const {
  COBRA_RETURN_IF_ERROR(CheckWindow(begin, count, size_, "ConcatSource"));
  std::uint64_t part_begin = 0;
  for (const std::shared_ptr<const ScenarioSource>& part : parts_) {
    if (count == 0) break;
    const std::uint64_t part_end = part_begin + part->size();
    if (begin < part_end) {
      const std::uint64_t local = begin - part_begin;
      const std::uint64_t take = std::min(count, part->size() - local);
      COBRA_RETURN_IF_ERROR(part->Generate(local, take, out));
      begin += take;
      count -= take;
    }
    part_begin = part_end;
  }
  return util::Status::OK();
}

// -------------------------------------------------------------- ComposeSource

ComposeSource::ComposeSource(std::shared_ptr<const ScenarioSource> outer,
                             std::shared_ptr<const ScenarioSource> inner,
                             std::string name_sep, std::uint64_t size,
                             std::size_t max_deltas)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      name_sep_(std::move(name_sep)),
      size_(size),
      max_deltas_(max_deltas) {}

util::Result<std::shared_ptr<const ComposeSource>> ComposeSource::Create(
    std::shared_ptr<const ScenarioSource> outer,
    std::shared_ptr<const ScenarioSource> inner, std::string name_sep) {
  if (outer == nullptr || inner == nullptr) {
    return util::Status::InvalidArgument("ComposeSource: null child source");
  }
  if (outer->size() == 0 || inner->size() == 0) {
    return util::Status::InvalidArgument("ComposeSource: empty child source");
  }
  if (outer->size() > kMaxSourceSize / inner->size()) {
    return util::Status::InvalidArgument(
        "ComposeSource: product overflows 2^62 scenarios");
  }
  const std::uint64_t size = outer->size() * inner->size();
  const std::size_t max_deltas = outer->max_deltas() + inner->max_deltas();
  return std::shared_ptr<const ComposeSource>(
      new ComposeSource(std::move(outer), std::move(inner),
                        std::move(name_sep), size, max_deltas));
}

SourceFingerprint ComposeSource::fingerprint() const {
  util::Hash128 hash = NewSourceHash(SourceKind::kCompose);
  hash.FeedBytes(name_sep_);
  const SourceFingerprint a = outer_->fingerprint();
  const SourceFingerprint b = inner_->fingerprint();
  hash.Feed(a.lo);
  hash.Feed(a.hi);
  hash.Feed(b.lo);
  hash.Feed(b.hi);
  return Finish(hash);
}

util::Status ComposeSource::Generate(std::uint64_t begin, std::uint64_t count,
                                     ScenarioSet* out) const {
  COBRA_RETURN_IF_ERROR(CheckWindow(begin, count, size_, "ComposeSource"));
  const std::uint64_t inner_n = inner_->size();
  std::uint64_t i = begin;
  const std::uint64_t end = begin + count;
  while (i < end) {
    // One outer scenario covers the contiguous run [oi*inner_n,
    // (oi+1)*inner_n); generate it once and cross it with the inner slice.
    const std::uint64_t oi = i / inner_n;
    const std::uint64_t inner_lo = i % inner_n;
    const std::uint64_t inner_hi = std::min(inner_n, inner_lo + (end - i));
    ScenarioSet outer_one;
    COBRA_RETURN_IF_ERROR(outer_->Generate(oi, 1, &outer_one));
    ScenarioSet inner_slice;
    inner_slice.Reserve(static_cast<std::size_t>(inner_hi - inner_lo));
    COBRA_RETURN_IF_ERROR(
        inner_->Generate(inner_lo, inner_hi - inner_lo, &inner_slice));
    const Scenario& outer_scenario = outer_one.scenario(0);
    for (const Scenario& inner_scenario : inner_slice.scenarios()) {
      Scenario composed;
      composed.name = outer_scenario.name + name_sep_ + inner_scenario.name;
      composed.deltas.reserve(outer_scenario.deltas.size() +
                              inner_scenario.deltas.size());
      composed.deltas.insert(composed.deltas.end(),
                             outer_scenario.deltas.begin(),
                             outer_scenario.deltas.end());
      composed.deltas.insert(composed.deltas.end(),
                             inner_scenario.deltas.begin(),
                             inner_scenario.deltas.end());
      util::Result<ScenarioSet::Handle> added = out->Add(std::move(composed));
      if (!added.ok()) return added.status();
    }
    i += inner_hi - inner_lo;
  }
  return util::Status::OK();
}

// ---------------------------------------------------------------- combinators

util::Result<std::shared_ptr<const ScenarioSource>> Concat(
    std::vector<std::shared_ptr<const ScenarioSource>> parts) {
  util::Result<std::shared_ptr<const ConcatSource>> source =
      ConcatSource::Create(std::move(parts));
  if (!source.ok()) return source.status();
  return std::shared_ptr<const ScenarioSource>(*source);
}

util::Result<std::shared_ptr<const ScenarioSource>> Compose(
    std::shared_ptr<const ScenarioSource> outer,
    std::shared_ptr<const ScenarioSource> inner, std::string name_sep) {
  util::Result<std::shared_ptr<const ComposeSource>> source =
      ComposeSource::Create(std::move(outer), std::move(inner),
                            std::move(name_sep));
  if (!source.ok()) return source.status();
  return std::shared_ptr<const ScenarioSource>(*source);
}

const char* SweepName(BatchOptions::Sweep sweep) {
  switch (sweep) {
    case BatchOptions::Sweep::kAuto:
      return "kAuto";
    case BatchOptions::Sweep::kBlocked:
      return "kBlocked";
    case BatchOptions::Sweep::kSparseDelta:
      return "kSparseDelta";
  }
  return "?";
}

}  // namespace cobra::core
