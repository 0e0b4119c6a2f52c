#include "verify/verify.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "prov/variable.h"
#include "util/str.h"

namespace cobra::verify {

namespace {

/// Bitwise double equality: override values are content, so -0.0 and +0.0
/// (or two different NaN payloads) must not compare equal.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Verifies one side's tile schedule against the program it will scan: the
/// whole-poly ranges must be sorted, disjoint, non-empty and — together
/// with the term-split polynomial, when one exists — cover [0, NumPolys())
/// exactly once; the term slices must exactly tile the split polynomial's
/// term range.
void VerifySchedule(const core::ProgramSchedule& schedule,
                    const prov::EvalProgram& program,
                    std::string_view artifact, VerifyReport* report) {
  const std::size_t num_polys = program.NumPolys();
  if (schedule.num_polys != num_polys) {
    report->AddError(artifact, 0,
                     util::StrFormat(
                         "schedule is for %zu polynomials but the program "
                         "compiles %zu",
                         schedule.num_polys, num_polys));
    return;  // Everything below keys off the poly count.
  }
  const bool split = schedule.split_poly < num_polys;
  if (!split && schedule.split_poly != num_polys) {
    report->AddError(artifact, 0,
                     util::StrFormat(
                         "split_poly %zu is outside [0, %zu] (NumPolys is "
                         "the no-split sentinel)",
                         schedule.split_poly, num_polys));
    return;
  }

  // The ranges as planned are already in scan order; verify without
  // re-sorting so an out-of-order schedule is itself a finding.
  std::size_t next = 0;
  auto skip_split = [&] {
    if (split && next == schedule.split_poly) ++next;
  };
  skip_split();
  for (std::size_t r = 0; r < schedule.ranges.size(); ++r) {
    const auto [begin, end] = schedule.ranges[r];
    if (begin >= end || end > num_polys) {
      report->AddError(artifact, r,
                       util::StrFormat("range %zu [%u, %u) is empty or "
                                       "exceeds the %zu polynomials",
                                       r, begin, end, num_polys));
      return;
    }
    if (begin != next) {
      report->AddError(
          artifact, r,
          util::StrFormat("range %zu starts at poly %u but poly %zu is the "
                          "next uncovered (ranges must tile the program "
                          "exactly once)",
                          r, begin, next));
      return;
    }
    next = end;
    skip_split();
  }
  if (next != num_polys) {
    report->AddError(artifact, schedule.ranges.size(),
                     util::StrFormat("ranges cover polys [0, %zu) but the "
                                     "program has %zu",
                                     next, num_polys));
  }

  // Term slices: present exactly when a polynomial is split, and exactly
  // tiling its term range.
  if (!split) {
    if (!schedule.term_bounds.empty()) {
      report->AddError(artifact, 0,
                       "term_bounds present without a split polynomial");
    }
    return;
  }
  const std::vector<std::uint32_t>& starts = program.poly_starts();
  const std::uint32_t term_begin = starts[schedule.split_poly];
  const std::uint32_t term_end = starts[schedule.split_poly + 1];
  if (schedule.term_bounds.size() < 2) {
    report->AddError(artifact, 0,
                     util::StrFormat("split polynomial %zu has no term "
                                     "slices",
                                     schedule.split_poly));
    return;
  }
  if (schedule.term_bounds.front() != term_begin ||
      schedule.term_bounds.back() != term_end) {
    report->AddError(
        artifact, 0,
        util::StrFormat("term slices cover [%u, %u) but split polynomial "
                        "%zu owns terms [%u, %u)",
                        schedule.term_bounds.front(),
                        schedule.term_bounds.back(), schedule.split_poly,
                        term_begin, term_end));
    return;
  }
  for (std::size_t k = 0; k + 1 < schedule.term_bounds.size(); ++k) {
    if (schedule.term_bounds[k] >= schedule.term_bounds[k + 1]) {
      report->AddError(artifact, k,
                       util::StrFormat("term slice %zu [%u, %u) is empty or "
                                       "out of order",
                                       k, schedule.term_bounds[k],
                                       schedule.term_bounds[k + 1]));
      return;
    }
  }
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Finding::ToString() const {
  return util::StrFormat("%s %s[%zu]: %s", SeverityName(severity),
                         artifact.c_str(), offset, message.c_str());
}

void VerifyReport::AddError(std::string_view artifact, std::size_t offset,
                            std::string message) {
  findings_.push_back(Finding{Severity::kError, std::string(artifact), offset,
                              std::move(message)});
  ++num_errors_;
}

void VerifyReport::AddWarning(std::string_view artifact, std::size_t offset,
                              std::string message) {
  findings_.push_back(Finding{Severity::kWarning, std::string(artifact),
                              offset, std::move(message)});
}

void VerifyReport::Merge(const VerifyReport& other) {
  findings_.insert(findings_.end(), other.findings_.begin(),
                   other.findings_.end());
  num_errors_ += other.num_errors_;
}

const Finding* VerifyReport::FirstError() const {
  for (const Finding& finding : findings_) {
    if (finding.severity == Severity::kError) return &finding;
  }
  return nullptr;
}

std::string VerifyReport::ToString() const {
  std::string out;
  if (!findings_.empty()) {
    out += util::StrFormat("%-8s %-24s %8s  %s\n", "severity", "artifact",
                           "offset", "message");
    for (const Finding& finding : findings_) {
      out += util::StrFormat("%-8s %-24s %8zu  %s\n",
                             SeverityName(finding.severity),
                             finding.artifact.c_str(), finding.offset,
                             finding.message.c_str());
    }
  }
  out += util::StrFormat("%zu finding(s): %zu error(s), %zu warning(s)%s\n",
                         findings_.size(), num_errors(), num_warnings(),
                         ok() ? " — artifact is servable" : "");
  return out;
}

namespace {

/// The shared single walk over the four compiled arrays (used for both an
/// `EvalProgram` and a raw snapshot image). Returns max(factor id) + 1 so
/// the EvalProgram entry point can cross-check the cached MinValuationSize,
/// or kNoPoolBound when a factor check already failed.
std::size_t VerifyProgramArrays(const std::vector<std::uint32_t>& poly_starts,
                                const std::vector<std::uint32_t>& term_starts,
                                const std::vector<double>& coeffs,
                                const std::vector<prov::VarId>& factors,
                                std::size_t pool_size,
                                std::string_view artifact,
                                VerifyReport* out) {
  VerifyReport& report = *out;
  // Polynomial term ranges: contiguous, non-overlapping, covering.
  if (poly_starts.empty() || poly_starts.front() != 0) {
    report.AddError(artifact, 0,
                    "poly_starts must be non-empty and start at 0");
  } else {
    for (std::size_t p = 0; p + 1 < poly_starts.size(); ++p) {
      if (poly_starts[p] > poly_starts[p + 1]) {
        report.AddError(artifact, p + 1,
                        util::StrFormat("poly_starts decreases at entry %zu "
                                        "(%u after %u): term ranges would "
                                        "overlap",
                                        p + 1, poly_starts[p + 1],
                                        poly_starts[p]));
        break;
      }
    }
    if (poly_starts.back() != coeffs.size()) {
      report.AddError(artifact, poly_starts.size() - 1,
                      util::StrFormat("poly_starts ends at %u but the "
                                      "program has %zu terms: term ranges "
                                      "must cover the term array exactly",
                                      poly_starts.back(), coeffs.size()));
    }
  }

  // Term factor ranges: one entry per term plus a bound, partitioning the
  // factor array.
  if (term_starts.size() != coeffs.size() + 1 || term_starts.front() != 0) {
    report.AddError(artifact, 0,
                    util::StrFormat("term_starts has %zu entries for %zu "
                                    "terms (want terms + 1, starting at 0)",
                                    term_starts.size(), coeffs.size()));
  } else {
    for (std::size_t t = 0; t + 1 < term_starts.size(); ++t) {
      if (term_starts[t] > term_starts[t + 1]) {
        report.AddError(artifact, t + 1,
                        util::StrFormat("term_starts decreases at entry %zu "
                                        "(%u after %u): factor ranges would "
                                        "overlap",
                                        t + 1, term_starts[t + 1],
                                        term_starts[t]));
        break;
      }
    }
    if (term_starts.back() != factors.size()) {
      report.AddError(artifact, term_starts.size() - 1,
                      util::StrFormat("term_starts ends at %u but the "
                                      "program has %zu factors",
                                      term_starts.back(), factors.size()));
    }
  }

  // Coefficient literals: finite, or evaluation would launder NaN/Inf into
  // every answer the polynomial touches.
  for (std::size_t t = 0; t < coeffs.size(); ++t) {
    if (!std::isfinite(coeffs[t])) {
      report.AddError(artifact, t,
                      util::StrFormat("coefficient %zu is %s (literals must "
                                      "be finite)",
                                      t, std::isnan(coeffs[t]) ? "NaN"
                                                               : "infinite"));
      break;
    }
  }

  // Factor ids: valid, and inside the pool when a bound is known.
  std::size_t max_factor_plus_one = 0;
  for (std::size_t f = 0; f < factors.size(); ++f) {
    if (factors[f] == prov::kInvalidVar) {
      report.AddError(artifact, f,
                      util::StrFormat("factor %zu is kInvalidVar", f));
      return kNoPoolBound;
    }
    max_factor_plus_one = std::max(
        max_factor_plus_one, static_cast<std::size_t>(factors[f]) + 1);
    if (pool_size != kNoPoolBound && factors[f] >= pool_size) {
      report.AddError(artifact, f,
                      util::StrFormat("factor %zu references variable id %u "
                                      "outside the pool (%zu variables)",
                                      f, factors[f], pool_size));
      return kNoPoolBound;
    }
  }
  return max_factor_plus_one;
}

/// The union row of `var` in the ascending `vars`, or kBaseRow.
std::uint32_t RowOf(std::span<const prov::VarId> vars, prov::VarId var) {
  const auto it = std::lower_bound(vars.begin(), vars.end(), var);
  return it != vars.end() && *it == var
             ? static_cast<std::uint32_t>(it - vars.begin())
             : prov::TouchedPrograms::kBaseRow;
}

/// Audits the block rows of a blocked plan: one block per scenario block
/// with the real lane count, each union exactly the ascending union of its
/// lanes' lowered override variables, and every lane value and mask word
/// re-derived from those lanes' overrides (the value and an all-ones mask
/// where the lane overrides the row's variable, 0.0 and an all-zeros mask
/// everywhere else, padding lanes included). A missing union entry or a
/// flipped mask silently serves the base value for an overridden variable.
void VerifyBlockRows(const core::BatchPlan& plan, std::size_t pool_size,
                     VerifyReport* report) {
  const prov::BlockRows& rows = plan.block_rows();
  const std::size_t n = plan.num_scenarios();
  const std::size_t lanes = plan.lanes();
  if (rows.num_blocks() != plan.num_blocks()) {
    report->AddError("plan", 0,
                     util::StrFormat("%zu blocks of override rows for %zu "
                                     "scenario blocks",
                                     rows.num_blocks(), plan.num_blocks()));
    return;
  }
  constexpr std::size_t kWidth = prov::EvalProgram::kMaxLanes;
  for (std::size_t b = 0; b < rows.num_blocks(); ++b) {
    const std::size_t first = b * lanes;
    // A block count that does not match the scenarios is already a finding.
    const std::size_t want = first < n ? std::min(lanes, n - first) : 0;
    if (rows.num_lanes(b) != want) {
      report->AddError("plan block", b,
                       util::StrFormat("rows carry %zu lanes (want %zu)",
                                       rows.num_lanes(b), want));
    }
    std::vector<prov::VarId> expected;
    for (std::size_t i = first; i < first + want; ++i) {
      for (const prov::VarOverride& ov : plan.lowered().scenario(i)) {
        expected.push_back(ov.var);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    const std::span<const prov::VarId> vars = rows.vars(b);
    if (!std::ranges::equal(vars, expected)) {
      report->AddError("plan block", b,
                       util::StrFormat("override union holds %zu variables "
                                       "but is not the ascending union of "
                                       "the %zu distinct variables the "
                                       "block's lanes override",
                                       vars.size(), expected.size()));
      continue;
    }
    if (!vars.empty() && vars.back() >= pool_size) {
      report->AddError("plan block", b,
                       util::StrFormat("override union reaches variable id "
                                       "%u outside the frozen pool (%zu)",
                                       vars.back(), pool_size));
    }
    const std::span<const double> values = rows.values(b);
    const std::span<const std::uint64_t> masks = rows.masks(b);
    for (std::size_t r = 0; r < vars.size(); ++r) {
      for (std::size_t l = 0; l < kWidth; ++l) {
        double value = 0.0;
        std::uint64_t mask = 0;
        if (l < want) {
          for (const prov::VarOverride& ov :
               plan.lowered().scenario(first + l)) {
            if (ov.var == vars[r]) {
              value = ov.value;
              mask = ~std::uint64_t{0};
            }
          }
        }
        const std::size_t at = r * kWidth + l;
        if (masks[at] != mask || !SameBits(values[at], value)) {
          report->AddError(
              "plan block", b,
              util::StrFormat("%s of row %zu lane %zu does not re-derive "
                              "from the lane's overrides",
                              masks[at] != mask ? "mask word" : "value", r,
                              l));
          r = vars.size();  // One finding per block.
          break;
        }
      }
    }
  }
}

/// Audits one program side's touched programs against the plan's block
/// rows. Per block: a program shared with an earlier block must belong to
/// an equal union; otherwise the program's terms must be, ascending,
/// exactly the terms with a factor in the block's union — found here by
/// scanning the factors, not through the var→term index the planner used,
/// so the index is checked too — and each of their factors must read its
/// variable's union row, or the base where the union lacks it.
void VerifyTouchedSide(const core::BatchPlan& plan,
                       const prov::EvalProgram& program,
                       const prov::TouchedPrograms& touched, const char* side,
                       VerifyReport* report) {
  const prov::BlockRows& rows = plan.block_rows();
  if (touched.num_blocks() != rows.num_blocks()) {
    report->AddError("plan", 0,
                     util::StrFormat("%s side: %zu touched programs for %zu "
                                     "blocks",
                                     side, touched.num_blocks(),
                                     rows.num_blocks()));
    return;
  }
  const std::vector<std::uint32_t>& term_starts = program.term_starts();
  const std::vector<prov::VarId>& factors = program.factors();
  const std::vector<std::uint32_t>& factor_rows = touched.factor_rows();
  // The first block that ran each program, whose union the others must
  // share.
  std::unordered_map<std::uint32_t, std::size_t> first_block;
  for (std::size_t b = 0; b < touched.num_blocks(); ++b) {
    const std::uint32_t p = touched.block_programs()[b];
    if (p >= touched.num_programs()) {
      report->AddError("plan block", b,
                       util::StrFormat("%s side: touched program %u of %zu",
                                       side, p, touched.num_programs()));
      continue;
    }
    const auto [it, fresh] = first_block.emplace(p, b);
    const std::span<const prov::VarId> vars = rows.vars(b);
    if (!fresh) {
      if (!std::ranges::equal(vars, rows.vars(it->second))) {
        report->AddError("plan block", b,
                         util::StrFormat("%s side: shares block %zu's "
                                         "touched program, whose override "
                                         "union differs",
                                         side, it->second));
      }
      continue;  // Equal unions: the program was audited with block it.
    }
    const std::span<const prov::TouchedTerm> listed = touched.terms(b);
    std::size_t next = 0;
    bool ok = true;
    for (std::uint32_t t = 0; ok && t < program.NumTerms(); ++t) {
      bool is_touched = false;
      for (std::uint32_t f = term_starts[t];
           !is_touched && f < term_starts[t + 1]; ++f) {
        is_touched = RowOf(vars, factors[f]) != prov::TouchedPrograms::kBaseRow;
      }
      const bool has = next < listed.size() && listed[next].term == t;
      if (is_touched != has) {
        report->AddError(
            "plan block", b,
            util::StrFormat(is_touched ? "%s side: touched set misses term "
                                         "%u, which has a factor in the "
                                         "block's override union"
                                       : "%s side: touched set lists term "
                                         "%u, which has no factor in the "
                                         "block's override union",
                            side, t));
        ok = false;
      } else if (has) {
        const prov::TouchedTerm& entry = listed[next++];
        const std::size_t width = term_starts[t + 1] - term_starts[t];
        if (entry.rows > factor_rows.size() ||
            width > factor_rows.size() - entry.rows) {
          report->AddError("plan block", b,
                           util::StrFormat("%s side: term %u's factor rows "
                                           "run past the side's %zu",
                                           side, t, factor_rows.size()));
          ok = false;
          continue;
        }
        for (std::size_t f = 0; ok && f < width; ++f) {
          const std::uint32_t want = RowOf(vars, factors[term_starts[t] + f]);
          if (factor_rows[entry.rows + f] != want) {
            report->AddError(
                "plan block", b,
                util::StrFormat("%s side: factor %zu of term %u reads row "
                                "%u, but its variable's row is %u",
                                side, f, t, factor_rows[entry.rows + f],
                                want));
            ok = false;
          }
        }
      }
    }
    if (ok && next != listed.size()) {
      report->AddError("plan block", b,
                       util::StrFormat("%s side: touched set is not "
                                       "strictly ascending inside the "
                                       "program's %zu terms",
                                       side, program.NumTerms()));
    }
  }
}

/// Audits one program side's base sums against the plan's base: every term
/// product, in-polynomial prefix and polynomial value must recompute bit for
/// bit (the kernel adds a product, unchecked, for every untouched term,
/// starts each lane at a prefix, and writes a value for every untouched
/// polynomial).
void VerifyBaseSums(const prov::EvalProgram& program,
                    const prov::BaseSums& sums, const prov::Valuation& base,
                    const char* side, VerifyReport* report) {
  if (sums.products.size() != program.NumTerms() ||
      sums.prefix.size() != program.NumTerms() ||
      sums.values.size() != program.NumPolys()) {
    report->AddError("plan base", 0,
                     util::StrFormat("%s side: base sums cover %zu/%zu terms "
                                     "and %zu polynomials (want %zu and %zu)",
                                     side, sums.products.size(),
                                     sums.prefix.size(), sums.values.size(),
                                     program.NumTerms(), program.NumPolys()));
    return;
  }
  // An undersized base is already a finding; re-deriving would read past it.
  if (base.size() < program.MinValuationSize()) return;
  const std::vector<std::uint32_t>& poly_starts = program.poly_starts();
  const std::vector<std::uint32_t>& term_starts = program.term_starts();
  for (std::size_t p = 0; p < program.NumPolys(); ++p) {
    double sum = 0.0;
    for (std::uint32_t t = poly_starts[p]; t < poly_starts[p + 1]; ++t) {
      double product = program.coeffs()[t];
      for (std::uint32_t f = term_starts[t]; f < term_starts[t + 1]; ++f) {
        product *= base.values()[program.factors()[f]];
      }
      const char* wrong = !SameBits(sums.products[t], product) ? "product"
                          : !SameBits(sums.prefix[t], sum)     ? "prefix"
                                                               : nullptr;
      if (wrong != nullptr) {
        report->AddError("plan base", t,
                         util::StrFormat("%s side: base %s of term %u does "
                                         "not re-derive from the plan's base",
                                         side, wrong, t));
        return;
      }
      sum += product;
    }
    if (!SameBits(sums.values[p], sum)) {
      report->AddError("plan base", p,
                       util::StrFormat("%s side: base value of polynomial %zu "
                                       "does not re-derive from the plan's "
                                       "base",
                                       side, p));
      return;
    }
  }
}

/// Re-lowers every scenario of `scenarios` (the set `plan` claims to serve)
/// and demands the plan's lowered list matches it bit for bit. The
/// re-lowering goes through a last-value map rather than the planner's
/// sort-merge, so the cross-check does not share the planner's algorithm.
void VerifyLowering(const core::BatchPlan& plan,
                    const core::CompiledSession& session,
                    const core::ScenarioSet& scenarios,
                    VerifyReport* report) {
  const std::size_t n = plan.num_scenarios();
  if (scenarios.size() != n) {
    report->AddError("plan", 0,
                     util::StrFormat("plan compiles %zu scenarios but the "
                                     "set holds %zu",
                                     n, scenarios.size()));
    return;
  }
  const prov::VarPool& pool = session.pool();
  const std::size_t pool_size = session.pool_size();
  for (std::size_t i = 0; i < n; ++i) {
    const core::Scenario& scenario = scenarios.scenario(i);
    std::unordered_map<prov::VarId, double> last;
    last.reserve(scenario.deltas.size());
    for (const core::Scenario::Delta& delta : scenario.deltas) {
      const prov::VarId id = pool.Find(delta.var);
      if (id == prov::kInvalidVar || id >= pool_size) {
        report->AddError("plan scenario", i,
                         util::StrFormat("delta variable \"%s\" does not "
                                         "resolve in the frozen pool",
                                         delta.var.c_str()));
        last.clear();
        break;
      }
      last[id] = delta.value;
    }
    std::vector<prov::VarOverride> expected;
    expected.reserve(last.size());
    for (const auto& [var, value] : last) expected.push_back({var, value});
    std::sort(expected.begin(), expected.end(),
              [](const prov::VarOverride& a, const prov::VarOverride& b) {
                return a.var < b.var;
              });
    const std::span<const prov::VarOverride> lowered =
        plan.core()->overrides(i);
    bool match = lowered.size() == expected.size();
    for (std::size_t o = 0; match && o < expected.size(); ++o) {
      match = lowered[o].var == expected[o].var &&
              SameBits(lowered[o].value, expected[o].value);
    }
    if (!match) {
      report->AddError("plan scenario", i,
                       "compiled override list does not match the "
                       "scenario's lowered deltas");
    }
  }
}

}  // namespace

VerifyReport VerifyProgram(const prov::EvalProgram& program,
                           std::size_t pool_size, std::string_view artifact) {
  VerifyReport report;
  const std::size_t max_factor_plus_one = VerifyProgramArrays(
      program.poly_starts(), program.term_starts(), program.coeffs(),
      program.factors(), pool_size, artifact, &report);
  if (max_factor_plus_one != kNoPoolBound &&
      program.MinValuationSize() != max_factor_plus_one) {
    report.AddError(artifact, 0,
                    util::StrFormat("MinValuationSize %zu disagrees with the "
                                    "largest factor id (+1 = %zu)",
                                    program.MinValuationSize(),
                                    max_factor_plus_one));
  }
  return report;
}

VerifyReport VerifyProgram(const core::EvalProgramImage& image,
                           std::size_t pool_size, std::string_view artifact) {
  VerifyReport report;
  VerifyProgramArrays(image.poly_starts, image.term_starts, image.coeffs,
                      image.factors, pool_size, artifact, &report);
  return report;
}

namespace {

/// VerifyPlan's rules. A streamed chunk (`stream_chunk`) differs in one:
/// its source names entries on demand, so it carries no scenario names,
/// where every other plan carries one per scenario.
VerifyReport VerifyPlanRules(const core::BatchPlan& plan,
                             const core::CompiledSession& session,
                             const core::ScenarioSet* scenarios,
                             bool stream_chunk) {
  VerifyReport report;

  // Origin: a plan references its session by weak_ptr, so a foreign (or
  // orphaned) plan is detectable before execution ever dereferences
  // program arrays that may not match the plan's schedules.
  if (plan.session().get() != &session) {
    report.AddError("plan", 0,
                    "plan was built against a different (or since-destroyed) "
                    "session");
    return report;
  }

  const std::size_t n = plan.num_scenarios();
  const std::size_t pool_size = session.pool_size();

  // Engine and lanes: kAuto must have been resolved at planning time; the
  // blocked kernel compiles one width, kMaxLanes, and the scalar engine
  // runs one lane.
  if (plan.engine() == core::BatchOptions::Sweep::kAuto) {
    report.AddError("plan", 0, "engine is unresolved kAuto");
  }
  const bool blocked = plan.engine() == core::BatchOptions::Sweep::kBlocked;
  const std::size_t want_lanes = blocked ? prov::EvalProgram::kMaxLanes : 1;
  if (plan.lanes() != want_lanes) {
    report.AddError("plan", 0,
                    util::StrFormat("%s engine with %zu lanes (want %zu)",
                                    blocked ? "blocked" : "scalar",
                                    plan.lanes(), want_lanes));
  }
  if (plan.num_threads() == 0) {
    report.AddError("plan", 0, "num_threads is 0");
  }

  // Scenario blocks: the sweep schedules num_blocks × slices tiles, so a
  // wrong block count either drops scenarios or reads past the compiled
  // lists.
  const std::size_t lanes = std::max<std::size_t>(1, plan.lanes());
  const std::size_t want_blocks = (n + lanes - 1) / lanes;
  if (plan.num_blocks() != want_blocks) {
    report.AddError("plan", 0,
                    util::StrFormat("%zu scenario blocks for %zu scenarios "
                                    "at %zu lanes (want %zu)",
                                    plan.num_blocks(), n, lanes, want_blocks));
  }
  // Names: one per scenario, except on a streamed chunk, which has none.
  if (plan.scenario_names().size() != (stream_chunk ? 0 : n)) {
    report.AddError("plan", 0,
                    util::StrFormat("%zu scenario names but %zu compiled "
                                    "scenarios%s",
                                    plan.scenario_names().size(), n,
                                    stream_chunk ? " (a streamed chunk "
                                                   "carries none)"
                                                 : ""));
  }

  // Lowered window shape: the offsets must bound the flat override array,
  // or every per-scenario read below would run past it.
  const core::LoweredScenarios& lowered = plan.lowered();
  {
    bool shape_ok = !lowered.offsets.empty() && lowered.offsets.front() == 0 &&
                    lowered.offsets.back() == lowered.overrides.size();
    for (std::size_t i = 0; shape_ok && i + 1 < lowered.offsets.size(); ++i) {
      shape_ok = lowered.offsets[i] <= lowered.offsets[i + 1];
    }
    if (!shape_ok) {
      report.AddError("plan", 0,
                      "lowered scenario offsets do not partition the "
                      "override array");
      return report;
    }
  }

  // Compiled override lists: sorted, duplicate-free, inside the frozen
  // pool. The kernels binary-search these, so order is load-bearing.
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const prov::VarOverride> overrides = lowered.scenario(i);
    for (std::size_t o = 0; o < overrides.size(); ++o) {
      if (overrides[o].var >= pool_size) {
        report.AddError("plan scenario", i,
                        util::StrFormat("override %zu references variable id "
                                        "%u outside the frozen pool (%zu)",
                                        o, overrides[o].var, pool_size));
        break;
      }
      if (o > 0 && overrides[o - 1].var >= overrides[o].var) {
        report.AddError("plan scenario", i,
                        util::StrFormat("override list is not strictly "
                                        "sorted at entry %zu (var %u after "
                                        "%u)",
                                        o, overrides[o].var,
                                        overrides[o - 1].var));
        break;
      }
      if (!std::isfinite(overrides[o].value)) {
        report.AddError("plan scenario", i,
                        util::StrFormat("override %zu value is not finite",
                                        o));
      }
    }
  }

  // Base valuation: the kernels index it with any factor id the programs
  // carry, so it must be dense over the frozen pool.
  if (plan.base().size() < pool_size) {
    report.AddError("plan", 0,
                    util::StrFormat("base valuation covers %zu variables "
                                    "but the frozen pool holds %zu",
                                    plan.base().size(), pool_size));
  }

  // Base fingerprint: the plan cache keys per-base plans by this, so a
  // fingerprint that does not recompute from the stored base would serve
  // another base's answers on the next warm lookup.
  {
    const core::BaseFingerprint recomputed =
        core::FingerprintBase(plan.base(), pool_size);
    if (recomputed != plan.base_state()->fingerprint) {
      report.AddError("plan base", 0,
                      "base fingerprint does not recompute from the plan's "
                      "base valuation");
    }
  }

  // Tile schedules partition the (scenario-block × poly-range) space
  // exactly once per side; the full side scans the meta-indirected program.
  VerifySchedule(plan.full_schedule(), session.sweep_full_program(),
                 "plan full schedule", &report);
  VerifySchedule(plan.compressed_schedule(), session.compressed_program(),
                 "plan compressed schedule", &report);

  // The block program (blocked engine only): override rows, per side the
  // touched programs, and the base sums they run against. A wrong row,
  // mask, touched term or sum changes answers without any crash.
  const core::BaseState& base = *plan.base_state();
  if (blocked) {
    VerifyBlockRows(plan, pool_size, &report);
    if (plan.block_rows().num_blocks() == plan.num_blocks()) {
      VerifyTouchedSide(plan, session.sweep_full_program(),
                        plan.full_schedule().touched, "full", &report);
      VerifyTouchedSide(plan, session.compressed_program(),
                        plan.compressed_schedule().touched, "compressed",
                        &report);
    }
    VerifyBaseSums(session.sweep_full_program(), base.full, base.values,
                   "full", &report);
    VerifyBaseSums(session.compressed_program(), base.compressed,
                   base.values, "compressed", &report);
  } else if (plan.block_rows().num_blocks() != 0 ||
             plan.full_schedule().touched.num_blocks() != 0 ||
             plan.compressed_schedule().touched.num_blocks() != 0) {
    report.AddError("plan", 0, "block program on a scalar engine");
  }

  // Fingerprint and lowering cross-check against the scenario set the plan
  // claims to serve (available at the plan-cache insert boundary).
  if (scenarios != nullptr) {
    const core::PlanFingerprint recomputed =
        core::FingerprintScenarios(*scenarios);
    if (recomputed != plan.fingerprint()) {
      report.AddError("plan", 0,
                      util::StrFormat("fingerprint %s does not recompute "
                                      "from the scenario set (%s)",
                                      plan.fingerprint().ToHex().c_str(),
                                      recomputed.ToHex().c_str()));
    }
    if (plan.scenario_names().size() == n && scenarios->size() == n) {
      for (std::size_t i = 0; i < n; ++i) {
        const core::Scenario& scenario = scenarios->scenario(i);
        if (scenario.name != plan.scenario_names()[i]) {
          report.AddError("plan scenario", i,
                          util::StrFormat("name \"%s\" does not match the "
                                          "set's \"%s\"",
                                          plan.scenario_names()[i].c_str(),
                                          scenario.name.c_str()));
        }
      }
    }
    VerifyLowering(plan, session, *scenarios, &report);
  }
  return report;
}

}  // namespace

VerifyReport VerifyPlan(const core::BatchPlan& plan,
                        const core::CompiledSession& session,
                        const core::ScenarioSet* scenarios) {
  return VerifyPlanRules(plan, session, scenarios, /*stream_chunk=*/false);
}

VerifyReport VerifyStreamWindow(const core::BatchPlan& plan,
                                const core::CompiledSession& session,
                                const core::ScenarioSource& source,
                                std::uint64_t begin) {
  VerifyReport report =
      VerifyPlanRules(plan, session, nullptr, /*stream_chunk=*/true);
  if (plan.session().get() != &session) return report;
  const std::size_t n = plan.num_scenarios();

  // The chunk key: the source spec and the window, nothing else.
  const core::PlanFingerprint recomputed =
      core::FingerprintWindow(source.fingerprint(), begin, n);
  if (recomputed != plan.fingerprint()) {
    report.AddError("plan", 0,
                    util::StrFormat("fingerprint %s does not recompute from "
                                    "the source spec and window (%s)",
                                    plan.fingerprint().ToHex().c_str(),
                                    recomputed.ToHex().c_str()));
  }

  // The window as Generate produces it is the reference both on-demand
  // paths must reproduce: the lowered lists the plan was built from, and
  // the names entries and consumer views are given.
  const std::size_t ordinal = static_cast<std::size_t>(begin);
  core::ScenarioSet generated;
  generated.Reserve(n);
  util::Status status = source.Generate(begin, n, &generated);
  if (!status.ok() || generated.size() != n) {
    report.AddError("source", ordinal,
                    util::StrFormat("Generate(%llu, %zu) failed or did not "
                                    "fill the window: %s",
                                    static_cast<unsigned long long>(begin), n,
                                    status.ToString().c_str()));
    return report;
  }
  // Names come either from `Names` or, for a consumer, from `Lower`.
  auto check_names = [&](const char* call, const util::Status& named,
                         const std::vector<std::string>& names) {
    if (!named.ok() || names.size() != n) {
      report.AddError("source", ordinal,
                      util::StrFormat("%s(%llu, %zu) failed or did not name "
                                      "the window: %s",
                                      call,
                                      static_cast<unsigned long long>(begin),
                                      n, named.ToString().c_str()));
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (names[i] != generated.scenario(i).name) {
        report.AddError("source scenario", ordinal + i,
                        util::StrFormat("on-demand name \"%s\" from %s "
                                        "differs from Generate's \"%s\"",
                                        names[i].c_str(), call,
                                        generated.scenario(i).name.c_str()));
        return;
      }
    }
  };
  std::vector<std::string> names;
  status = source.Names(begin, n, &names);
  check_names("Names", status, names);
  core::LoweredScenarios lowered;
  names.clear();
  status = source.Lower(begin, n, session.resolver(), &lowered, &names);
  check_names("Lower", status, names);
  // Asking for names must not change the lowered lists.
  const core::LoweredScenarios& planned = plan.lowered();
  bool same = status.ok() && lowered.offsets == planned.offsets &&
              lowered.overrides.size() == planned.overrides.size();
  for (std::size_t o = 0; same && o < planned.overrides.size(); ++o) {
    same = lowered.overrides[o].var == planned.overrides[o].var &&
           SameBits(lowered.overrides[o].value, planned.overrides[o].value);
  }
  if (status.ok() && !same) {
    report.AddError("source", ordinal,
                    "Lower with names lowered the window differently from "
                    "the planned lists");
  }
  VerifyLowering(plan, session, generated, &report);
  return report;
}

VerifyReport VerifySnapshot(const core::SnapshotPackage& snapshot) {
  VerifyReport report;
  const std::size_t pool_size = snapshot.pool_names.size();

  // Pool name ↔ id bijection: re-interning in id order must reproduce the
  // dense id sequence, which fails exactly when a name is empty or repeats.
  {
    std::unordered_set<std::string_view> seen;
    seen.reserve(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
      const std::string& name = snapshot.pool_names[i];
      if (name.empty()) {
        report.AddError("pool", i,
                        util::StrFormat("pool name %zu is empty", i));
        continue;
      }
      if (!seen.insert(name).second) {
        report.AddError("pool", i,
                        util::StrFormat("duplicate pool name \"%s\" (id "
                                        "%zu): name/id mapping is not a "
                                        "bijection",
                                        name.c_str(), i));
      }
    }
  }

  // Both compiled programs, under the pool bound.
  report.Merge(
      VerifyProgram(snapshot.full_program, pool_size, "full program"));
  report.Merge(VerifyProgram(snapshot.compressed_program, pool_size,
                             "compressed program"));

  // Group alignment: answers are reported per label, so the two sides and
  // the label list must agree on the group count.
  const std::size_t full_polys = snapshot.full_program.poly_starts.empty()
                                     ? 0
                                     : snapshot.full_program.poly_starts.size() - 1;
  const std::size_t compressed_polys =
      snapshot.compressed_program.poly_starts.empty()
          ? 0
          : snapshot.compressed_program.poly_starts.size() - 1;
  if (full_polys != compressed_polys) {
    report.AddError("labels", 0,
                    util::StrFormat("group count mismatch (full=%zu "
                                    "compressed=%zu)",
                                    full_polys, compressed_polys));
  }
  if (snapshot.labels.size() != full_polys) {
    report.AddError("labels", 0,
                    util::StrFormat("label count %zu does not match the %zu "
                                    "polynomial groups",
                                    snapshot.labels.size(), full_polys));
  }

  // leaf→meta remap: pool-sized, closed over the pool, idempotent (a
  // remap target that itself remaps elsewhere would make the baked-in
  // sweep program and ExpandValuation disagree).
  if (snapshot.leaf_to_meta.size() != pool_size) {
    report.AddError("leaf_to_meta", 0,
                    util::StrFormat("remap covers %zu variables but the "
                                    "pool holds %zu",
                                    snapshot.leaf_to_meta.size(), pool_size));
  } else {
    for (std::size_t v = 0; v < pool_size; ++v) {
      const prov::VarId mapped = snapshot.leaf_to_meta[v];
      if (mapped >= pool_size) {
        report.AddError("leaf_to_meta", v,
                        util::StrFormat("variable %zu remaps to id %u "
                                        "outside the pool: remap is not "
                                        "closed over the pool",
                                        v, mapped));
      } else if (snapshot.leaf_to_meta[mapped] != mapped) {
        report.AddError("leaf_to_meta", v,
                        util::StrFormat("remap is not idempotent: %zu -> %u "
                                        "-> %u",
                                        v, mapped,
                                        snapshot.leaf_to_meta[mapped]));
      }
    }
  }

  // Meta-variables: ids inside the pool, names matching their pooled
  // names, leaves inside the pool and agreeing with the remap.
  for (std::size_t m = 0; m < snapshot.meta_vars.size(); ++m) {
    const core::MetaVar& mv = snapshot.meta_vars[m];
    if (mv.var >= pool_size) {
      report.AddError("meta_vars", m,
                      util::StrFormat("meta-variable \"%s\" has id %u "
                                      "outside the pool",
                                      mv.name.c_str(), mv.var));
      continue;
    }
    if (mv.name != snapshot.pool_names[mv.var]) {
      report.AddError("meta_vars", m,
                      util::StrFormat("meta-variable name \"%s\" does not "
                                      "match pool name \"%s\" of id %u",
                                      mv.name.c_str(),
                                      snapshot.pool_names[mv.var].c_str(),
                                      mv.var));
    }
    if (mv.leaves.empty()) {
      report.AddWarning("meta_vars", m,
                        util::StrFormat("meta-variable \"%s\" abstracts no "
                                        "leaves",
                                        mv.name.c_str()));
    }
    for (prov::VarId leaf : mv.leaves) {
      if (leaf >= pool_size) {
        report.AddError("meta_vars", m,
                        util::StrFormat("meta-variable \"%s\" leaf id %u is "
                                        "outside the pool",
                                        mv.name.c_str(), leaf));
      } else if (snapshot.leaf_to_meta.size() == pool_size &&
                 snapshot.leaf_to_meta[leaf] != mv.var) {
        report.AddError("meta_vars", m,
                        util::StrFormat("leaf %u of meta-variable \"%s\" "
                                        "remaps to %u, not to it",
                                        leaf, mv.name.c_str(),
                                        snapshot.leaf_to_meta[leaf]));
      }
    }
  }

  // Default valuation: dense over the frozen pool, finite values.
  if (snapshot.default_meta.size() != pool_size) {
    report.AddError("default valuation", 0,
                    util::StrFormat("default valuation covers %zu variables "
                                    "but the pool holds %zu (must be dense)",
                                    snapshot.default_meta.size(), pool_size));
  }
  for (std::size_t v = 0; v < snapshot.default_meta.size(); ++v) {
    if (!std::isfinite(snapshot.default_meta[v])) {
      report.AddError("default valuation", v,
                      util::StrFormat("default value %zu is not finite", v));
      break;
    }
  }
  return report;
}

VerifyReport VerifySession(const core::CompiledSession& session) {
  VerifyReport report;
  const std::size_t pool_size = session.pool_size();
  report.Merge(
      VerifyProgram(session.full_program(), pool_size, "full program"));
  report.Merge(VerifyProgram(session.sweep_full_program(), pool_size,
                             "sweep full program"));
  report.Merge(VerifyProgram(session.compressed_program(), pool_size,
                             "compressed program"));
  report.Merge(VerifySnapshot(MakeSnapshot(session)));
  const std::vector<std::shared_ptr<const core::BatchPlan>> plans =
      session.CachedPlanHandles();
  for (const std::shared_ptr<const core::BatchPlan>& plan : plans) {
    report.Merge(VerifyPlan(*plan, session));
  }
  return report;
}

namespace {

/// Per-scenario contract checks shared by the head and tail probes.
/// `ordinal(i)` maps a window-local index to its source ordinal for
/// findings.
void VerifyProbedScenarios(const core::ScenarioSet& window,
                           std::uint64_t window_begin, std::size_t max_deltas,
                           VerifyReport* report) {
  std::unordered_set<std::string_view> names;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const core::Scenario& scenario = window.scenario(i);
    const std::size_t ordinal =
        static_cast<std::size_t>(window_begin) + i;
    if (scenario.name.empty()) {
      report->AddError("source scenario", ordinal,
                       "generated scenario has an empty name");
    } else if (!names.insert(scenario.name).second) {
      report->AddError(
          "source scenario", ordinal,
          util::StrFormat("generated scenario name \"%s\" repeats within "
                          "the probed window",
                          scenario.name.c_str()));
    }
    if (scenario.deltas.size() > max_deltas) {
      report->AddError(
          "source scenario", ordinal,
          util::StrFormat("scenario carries %zu override(s) but the source "
                          "advertises max_deltas() = %zu",
                          scenario.deltas.size(), max_deltas));
    }
    for (const core::Scenario::Delta& delta : scenario.deltas) {
      if (delta.var.empty()) {
        report->AddError("source scenario", ordinal,
                         "override has an empty variable name");
        break;
      }
      if (!std::isfinite(delta.value)) {
        report->AddError(
            "source scenario", ordinal,
            util::StrFormat("override \"%s\" has a non-finite value",
                            delta.var.c_str()));
        break;
      }
    }
  }
}

/// Bitwise scenario-set equality (names, override order, value bits).
bool SameScenarios(const core::ScenarioSet& a, const core::ScenarioSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::Scenario& sa = a.scenario(i);
    const core::Scenario& sb = b.scenario(i);
    if (sa.name != sb.name || sa.deltas.size() != sb.deltas.size()) {
      return false;
    }
    for (std::size_t d = 0; d < sa.deltas.size(); ++d) {
      if (sa.deltas[d].var != sb.deltas[d].var ||
          !SameBits(sa.deltas[d].value, sb.deltas[d].value)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

VerifyReport VerifySource(const core::ScenarioSource& source,
                          std::size_t probe) {
  VerifyReport report;
  const std::uint64_t size = source.size();
  if (size == 0) {
    report.AddError("source", 0, "source is empty (size() == 0)");
    return report;
  }
  if (probe == 0) probe = 1;

  // Spec fingerprint: recomputation must be a pure function of the spec.
  const core::SourceFingerprint fp1 = source.fingerprint();
  const core::SourceFingerprint fp2 = source.fingerprint();
  if (fp1 != fp2) {
    report.AddError("source", 0,
                    util::StrFormat("spec fingerprint is unstable across "
                                    "recomputation (%s vs %s)",
                                    fp1.ToHex().c_str(), fp2.ToHex().c_str()));
  }

  const std::size_t head = static_cast<std::size_t>(
      std::min<std::uint64_t>(probe, size));

  // Head probe: generate the window twice, then split — all three must be
  // bitwise identical (determinism + the chunking-invariance clause the
  // streaming sweep's bit-identity guarantee rests on).
  core::ScenarioSet whole;
  whole.Reserve(head);
  util::Status status = source.Generate(0, head, &whole);
  if (!status.ok()) {
    report.AddError("source", 0,
                    util::StrFormat("Generate(0, %zu) failed: %s", head,
                                    status.ToString().c_str()));
    return report;
  }
  if (whole.size() != head) {
    report.AddError("source", 0,
                    util::StrFormat("Generate(0, %zu) produced %zu "
                                    "scenario(s) — must fill the window",
                                    head, whole.size()));
    return report;
  }

  core::ScenarioSet again;
  again.Reserve(head);
  status = source.Generate(0, head, &again);
  if (!status.ok()) {
    report.AddError("source", 0,
                    util::StrFormat("repeated Generate(0, %zu) failed: %s",
                                    head, status.ToString().c_str()));
  } else if (!SameScenarios(whole, again)) {
    report.AddError("source", 0,
                    util::StrFormat("Generate(0, %zu) is nondeterministic: "
                                    "two runs produced different scenarios",
                                    head));
  }

  if (head > 1) {
    const std::size_t half = head / 2;
    core::ScenarioSet split;
    split.Reserve(head);
    status = source.Generate(0, half, &split);
    if (status.ok()) status = source.Generate(half, head - half, &split);
    if (!status.ok()) {
      report.AddError("source", 0,
                      util::StrFormat("split Generate over [0, %zu) failed: "
                                      "%s",
                                      head, status.ToString().c_str()));
    } else if (!SameScenarios(whole, split)) {
      report.AddError("source", 0,
                      util::StrFormat("chunking changes output: generating "
                                      "[0, %zu) as [0, %zu) + [%zu, %zu) "
                                      "differs from one window",
                                      head, half, half, head));
    }
  }

  VerifyProbedScenarios(whole, 0, source.max_deltas(), &report);

  // Tail probe: combinator range math (Concat part boundaries, Compose
  // outer/inner decomposition) is most fragile near size().
  if (size > head) {
    const std::uint64_t tail_begin =
        size - std::min<std::uint64_t>(probe, size - head);
    const std::size_t tail =
        static_cast<std::size_t>(size - tail_begin);
    core::ScenarioSet tail_window;
    tail_window.Reserve(tail);
    status = source.Generate(tail_begin, tail, &tail_window);
    if (!status.ok()) {
      report.AddError(
          "source", static_cast<std::size_t>(tail_begin),
          util::StrFormat("tail Generate(%llu, %zu) failed: %s",
                          static_cast<unsigned long long>(tail_begin), tail,
                          status.ToString().c_str()));
    } else if (tail_window.size() != tail) {
      report.AddError(
          "source", static_cast<std::size_t>(tail_begin),
          util::StrFormat("tail Generate(%llu, %zu) produced %zu "
                          "scenario(s) — must fill the window",
                          static_cast<unsigned long long>(tail_begin), tail,
                          tail_window.size()));
    } else {
      VerifyProbedScenarios(tail_window, tail_begin, source.max_deltas(),
                            &report);
    }
  }

  // Past-the-end windows must be rejected, not clamped: AssignStream's
  // chunk loop relies on precise range errors.
  core::ScenarioSet overflow;
  if (source.Generate(size, 1, &overflow).ok()) {
    report.AddError("source", static_cast<std::size_t>(size),
                    "Generate past size() succeeded (must reject windows "
                    "beyond the source)");
  }
  return report;
}

}  // namespace cobra::verify
