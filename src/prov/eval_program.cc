#include "prov/eval_program.h"

#include <algorithm>
#include <bit>

#include "util/status.h"
#include "util/str.h"

namespace cobra::prov {

namespace {

/// The blocked kernel's compile-time lane count.
constexpr int kLanes = static_cast<int>(EvalProgram::kMaxLanes);

/// Everything a blocked-kernel body reads: the program's compiled arrays,
/// the base valuation and its sums, the block's override rows, the side's
/// factor-row array and the block's touched terms.
struct KernelView {
  const std::uint32_t* poly_starts = nullptr;
  const std::uint32_t* term_starts = nullptr;
  const double* coeffs = nullptr;
  const VarId* factors = nullptr;
  const double* base = nullptr;
  const double* base_products = nullptr;
  const double* base_prefix = nullptr;
  const double* base_values = nullptr;
  const double* values = nullptr;       ///< The block's rows.
  const std::uint64_t* masks = nullptr;
  const std::uint32_t* factor_rows = nullptr;
  const TouchedTerm* touched = nullptr;  ///< The block's touched terms.
  const TouchedTerm* touched_end = nullptr;
  std::size_t lanes = 0;  ///< The block's real lanes.
};

KernelView MakeKernelView(const EvalProgram& program, const Valuation& base,
                          const BaseSums& sums, const BlockRows& rows,
                          const TouchedPrograms& touched, std::size_t block) {
  const std::span<const TouchedTerm> terms = touched.terms(block);
  return {.poly_starts = program.poly_starts().data(),
          .term_starts = program.term_starts().data(),
          .coeffs = program.coeffs().data(),
          .factors = program.factors().data(),
          .base = base.values().data(),
          .base_products = sums.products.data(),
          .base_prefix = sums.prefix.data(),
          .base_values = sums.values.data(),
          .values = rows.values(block).data(),
          .masks = rows.masks(block).data(),
          .factor_rows = touched.factor_rows().data(),
          .touched = terms.data(),
          .touched_end = terms.data() + terms.size(),
          .lanes = rows.num_lanes(block)};
}

/// Accumulates the kLanes products of touched term `touched` into `sum`.
/// Per factor the base value is loaded once; a factor no lane overrides
/// multiplies every lane by it, any other factor multiplies each lane by a
/// bitwise select of its row's lane value against it. The accumulators
/// advance in lockstep — each lane runs the scalar path's exact operation
/// sequence (prod = coeff, prod *= value per factor, sum += prod) on the
/// scalar path's values, so per-lane results are bit-identical to the
/// scalar sparse scan while one pass over the compiled arrays serves kLanes
/// scenarios. Always inlined, so each kernel body compiles it for its own
/// instruction set.
[[gnu::always_inline]] inline void AddBlockedTerm(const KernelView& k,
                                                  const TouchedTerm& touched,
                                                  double* sum) {
  double prod[kLanes];
  const std::uint32_t t = touched.term;
  const double c = k.coeffs[t];
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) prod[l] = c;
  const std::uint32_t* row_of = k.factor_rows + touched.rows;
  for (std::uint32_t f = k.term_starts[t]; f < k.term_starts[t + 1];
       ++f, ++row_of) {
    const double v = k.base[k.factors[f]];
    if (*row_of == TouchedPrograms::kBaseRow) {
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) prod[l] *= v;
    } else {
      const std::size_t at = static_cast<std::size_t>(*row_of) * kLanes;
      const double* values = k.values + at;
      const std::uint64_t* masks = k.masks + at;
      const std::uint64_t base_bits = std::bit_cast<std::uint64_t>(v);
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) {
        prod[l] *= std::bit_cast<double>(
            (std::bit_cast<std::uint64_t>(values[l]) & masks[l]) |
            (base_bits & ~masks[l]));
      }
    }
  }
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) sum[l] += prod[l];
}

/// Accumulates terms [t, end) into the kLanes lane sums, in term order.
/// The ascending touched terms from `*next` on take the per-lane factor
/// path; every other term adds its base product to all lanes, which is
/// exactly the product each lane's factor path would form, since no lane
/// overrides any of that term's variables. `*next` advances past the
/// touched terms consumed.
[[gnu::always_inline]] inline void AddTermSpan(const KernelView& k,
                                               std::uint32_t t,
                                               std::uint32_t end,
                                               const TouchedTerm** next,
                                               double* sum) {
  const TouchedTerm* n = *next;
  while (t < end) {
    while (n != k.touched_end && n->term < t) ++n;
    const std::uint32_t stop =
        n != k.touched_end && n->term < end ? n->term : end;
    for (; t < stop; ++t) {
      const double p = k.base_products[t];
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) sum[l] += p;
    }
    if (t < end) {
      AddBlockedTerm(k, *n++, sum);
      ++t;
    }
  }
  *next = n;
}

/// The block's first touched term at or after term `t`.
const TouchedTerm* FirstTouchedFrom(const KernelView& k, std::uint32_t t) {
  return std::lower_bound(
      k.touched, k.touched_end, t,
      [](const TouchedTerm& a, std::uint32_t term) { return a.term < term; });
}

/// The body of EvalRangeBlocked, on validated inputs.
[[gnu::always_inline]] inline void RangeBlockedBody(const KernelView& k,
                                                    std::size_t poly_begin,
                                                    std::size_t poly_end,
                                                    double* out,
                                                    std::size_t lane_stride) {
  const TouchedTerm* next = FirstTouchedFrom(k, k.poly_starts[poly_begin]);
  for (std::size_t p = poly_begin; p < poly_end; ++p) {
    const std::uint32_t last = k.poly_starts[p + 1];
    while (next != k.touched_end && next->term < k.poly_starts[p]) ++next;
    if (next == k.touched_end || next->term >= last) {
      // No lane overrides a variable of this polynomial.
      const double value = k.base_values[p];
      for (std::size_t l = 0; l < k.lanes; ++l) {
        out[l * lane_stride + p] = value;
      }
      continue;
    }
    // Every lane shares the base prefix up to the first touched term.
    double sum[kLanes];
    const double prefix = k.base_prefix[next->term];
#pragma omp simd
    for (int l = 0; l < kLanes; ++l) sum[l] = prefix;
    AddTermSpan(k, next->term, last, &next, sum);
    for (std::size_t l = 0; l < k.lanes; ++l) out[l * lane_stride + p] = sum[l];
  }
}

/// The body of EvalTermRangeBlocked, on validated inputs.
[[gnu::always_inline]] inline void TermRangeBlockedBody(
    const KernelView& k, std::size_t term_begin, std::size_t term_end,
    double* partials, std::size_t lane_stride) {
  const TouchedTerm* next =
      FirstTouchedFrom(k, static_cast<std::uint32_t>(term_begin));
  double sum[kLanes];
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) sum[l] = 0.0;
  AddTermSpan(k, static_cast<std::uint32_t>(term_begin),
              static_cast<std::uint32_t>(term_end), &next, sum);
  for (std::size_t l = 0; l < k.lanes; ++l) partials[l * lane_stride] = sum[l];
}

// Each body compiles twice from the source above: once for the build's
// target (SSE2 on plain x86-64), once, on x86-64, under target("avx2").
// AVX2 without FMA fuses no multiply-add, so both run every lane's IEEE
// add/mul/and/or sequence unchanged and agree bit for bit. The choice is
// an explicit function pointer set once per process, not target_clones
// (an ifunc): GCC 12 binaries holding one crash before main under
// ThreadSanitizer. COBRA_BLOCKED_BASELINE_ONLY compiles the baseline
// bodies alone, so a test binary can run them on an AVX2 host.
#if defined(__x86_64__) && !defined(COBRA_BLOCKED_BASELINE_ONLY)
#define COBRA_BLOCKED_AVX2_BODY 1
#endif

using BlockedBody = void (*)(const KernelView&, std::size_t, std::size_t,
                             double*, std::size_t);

void RangeBlockedBaseline(const KernelView& k, std::size_t begin,
                          std::size_t end, double* out, std::size_t stride) {
  RangeBlockedBody(k, begin, end, out, stride);
}

void TermRangeBlockedBaseline(const KernelView& k, std::size_t begin,
                              std::size_t end, double* out,
                              std::size_t stride) {
  TermRangeBlockedBody(k, begin, end, out, stride);
}

#if defined(COBRA_BLOCKED_AVX2_BODY)
[[gnu::target("avx2")]] void RangeBlockedAvx2(const KernelView& k,
                                              std::size_t begin,
                                              std::size_t end, double* out,
                                              std::size_t stride) {
  RangeBlockedBody(k, begin, end, out, stride);
}

[[gnu::target("avx2")]] void TermRangeBlockedAvx2(const KernelView& k,
                                                  std::size_t begin,
                                                  std::size_t end,
                                                  double* out,
                                                  std::size_t stride) {
  TermRangeBlockedBody(k, begin, end, out, stride);
}
#endif

/// The blocked-kernel bodies this process runs.
struct BlockedBodies {
  BlockedBody range;
  BlockedBody term_range;
  const char* isa;
};

/// Chosen on first use from the CPU's feature bits, then fixed.
const BlockedBodies& Bodies() {
  static const BlockedBodies bodies = [] {
#if defined(COBRA_BLOCKED_AVX2_BODY)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      return BlockedBodies{RangeBlockedAvx2, TermRangeBlockedAvx2, "avx2"};
    }
#endif
    return BlockedBodies{RangeBlockedBaseline, TermRangeBlockedBaseline,
                         "baseline"};
  }();
  return bodies;
}

}  // namespace

BlockRows::BlockRows(std::span<const OverrideSpan> lanes) {
  const std::size_t blocks = (lanes.size() + kLanes - 1) / kLanes;
  std::size_t overrides = 0;
  for (const OverrideSpan& lane : lanes) overrides += lane.size;
  lanes_.reserve(blocks);
  offsets_.reserve(blocks + 1);
  vars_.reserve(overrides);
  auto same_vars = [](const OverrideSpan& a, const OverrideSpan& b) {
    return a.size == b.size &&
           std::equal(a.data, a.data + a.size, b.data,
                      [](const VarOverride& x, const VarOverride& y) {
                        return x.var == y.var;
                      });
  };
  // The unions first, so the rows are allocated once at their final size.
  for (std::size_t first = 0; first < lanes.size(); first += kLanes) {
    const std::size_t count =
        std::min<std::size_t>(kLanes, lanes.size() - first);
    const OverrideSpan& head = lanes[first];
    bool shared = true;  // Every lane overrides exactly the head's variables.
    for (std::size_t l = first + 1; shared && l < first + count; ++l) {
      shared = same_vars(lanes[l], head);
    }
    const std::size_t begin = vars_.size();
    for (std::size_t l = first; l < (shared ? first + 1 : first + count);
         ++l) {
      for (std::size_t o = 0; o < lanes[l].size; ++o) {
        vars_.push_back(lanes[l].data[o].var);
      }
    }
    if (!shared) {
      const auto union_begin =
          vars_.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(union_begin, vars_.end());
      vars_.erase(std::unique(union_begin, vars_.end()), vars_.end());
    }
    lanes_.push_back(static_cast<std::uint8_t>(count));
    offsets_.push_back(vars_.size());
  }
  values_.assign(vars_.size() * kLanes, 0.0);
  masks_.assign(vars_.size() * kLanes, 0);
  // Each lane's ascending list finds its rows in its block's ascending
  // union.
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const std::size_t block = l / kLanes;
    const VarId* row = vars_.data() + offsets_[block];
    const VarId* end = vars_.data() + offsets_[block + 1];
    for (std::size_t o = 0; o < lanes[l].size; ++o) {
      row = std::lower_bound(row, end, lanes[l].data[o].var);
      const std::size_t at =
          static_cast<std::size_t>(row - vars_.data()) * kLanes + l % kLanes;
      values_[at] = lanes[l].data[o].value;
      masks_[at] = ~std::uint64_t{0};
    }
  }
}

std::span<const double> BlockRows::values(std::size_t block) const {
  return {values_.data() + offsets_[block] * kLanes,
          values_.data() + offsets_[block + 1] * kLanes};
}

std::span<const std::uint64_t> BlockRows::masks(std::size_t block) const {
  return {masks_.data() + offsets_[block] * kLanes,
          masks_.data() + offsets_[block + 1] * kLanes};
}

TouchedPrograms::TouchedPrograms(const EvalProgram& program,
                                 const VarTermIndex& index,
                                 const BlockRows& rows) {
  const std::vector<std::uint32_t>& term_starts = program.term_starts();
  const std::vector<VarId>& factors = program.factors();
  COBRA_CHECK_MSG(factors.size() < kBaseRow,
                  "TouchedPrograms: program too large for 32-bit rows");
  program_of_.reserve(rows.num_blocks());
  // `seen` marks the block's touched terms and `row_of` each of their
  // factors' rows; emitting a program reads both back and clears them.
  std::vector<std::uint64_t> seen((program.NumTerms() + 63) / 64, 0);
  std::vector<std::uint32_t> row_of(factors.size(), kBaseRow);
  for (std::size_t b = 0; b < rows.num_blocks(); ++b) {
    const std::span<const VarId> vars = rows.vars(b);
    if (b > 0 && std::ranges::equal(vars, rows.vars(b - 1))) {
      program_of_.push_back(program_of_.back());
      continue;
    }
    for (std::uint32_t r = 0; r < vars.size(); ++r) {
      const VarId var = vars[r];
      for (std::uint32_t t : index.Terms(var)) {
        seen[t / 64] |= std::uint64_t{1} << (t % 64);
        for (std::uint32_t f = term_starts[t]; f < term_starts[t + 1]; ++f) {
          if (factors[f] == var) row_of[f] = r;
        }
      }
    }
    for (std::size_t w = 0; w < seen.size(); ++w) {
      for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t t = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        COBRA_CHECK_MSG(factor_rows_.size() < kBaseRow,
                        "TouchedPrograms: factor rows overflow 32 bits");
        terms_.push_back({t, static_cast<std::uint32_t>(factor_rows_.size())});
        for (std::uint32_t f = term_starts[t]; f < term_starts[t + 1]; ++f) {
          factor_rows_.push_back(row_of[f]);
          row_of[f] = kBaseRow;
        }
      }
      seen[w] = 0;
    }
    program_of_.push_back(static_cast<std::uint32_t>(term_offsets_.size() - 1));
    term_offsets_.push_back(terms_.size());
  }
}

EvalProgram::EvalProgram(const PolySet& set) {
  std::size_t total_terms = set.TotalMonomials();
  poly_starts_.reserve(set.size() + 1);
  term_starts_.reserve(total_terms + 1);
  coeffs_.reserve(total_terms);

  poly_starts_.push_back(0);
  term_starts_.push_back(0);
  for (const Polynomial& p : set.polys()) {
    for (const Term& t : p.terms()) {
      coeffs_.push_back(t.coeff);
      for (const VarPower& vp : t.monomial.powers()) {
        if (vp.var + 1 > min_valuation_size_) {
          min_valuation_size_ = vp.var + 1;
        }
        for (std::uint32_t e = 0; e < vp.exp; ++e) factors_.push_back(vp.var);
      }
      term_starts_.push_back(static_cast<std::uint32_t>(factors_.size()));
    }
    poly_starts_.push_back(static_cast<std::uint32_t>(coeffs_.size()));
  }
}

util::Result<EvalProgram> EvalProgram::FromParts(
    std::vector<std::uint32_t> poly_starts,
    std::vector<std::uint32_t> term_starts, std::vector<double> coeffs,
    std::vector<VarId> factors) {
  auto invalid = [](const char* what) {
    return util::Status::InvalidArgument(
        std::string("EvalProgram::FromParts: ") + what);
  };
  if (poly_starts.empty() || poly_starts.front() != 0) {
    return invalid("poly_starts must be non-empty and start at 0");
  }
  if (!std::is_sorted(poly_starts.begin(), poly_starts.end())) {
    return invalid("poly_starts must be non-decreasing");
  }
  if (poly_starts.back() != coeffs.size()) {
    return invalid("poly_starts must end at the term count");
  }
  if (term_starts.size() != coeffs.size() + 1 || term_starts.front() != 0) {
    return invalid("term_starts must have one entry per term plus a 0 head");
  }
  if (!std::is_sorted(term_starts.begin(), term_starts.end())) {
    return invalid("term_starts must be non-decreasing");
  }
  if (term_starts.back() != factors.size()) {
    return invalid("term_starts must end at the factor count");
  }
  EvalProgram out;
  for (VarId var : factors) {
    if (var == kInvalidVar) return invalid("factor is kInvalidVar");
    const std::size_t need = static_cast<std::size_t>(var) + 1;
    if (need > out.min_valuation_size_) out.min_valuation_size_ = need;
  }
  out.poly_starts_ = std::move(poly_starts);
  out.term_starts_ = std::move(term_starts);
  out.coeffs_ = std::move(coeffs);
  out.factors_ = std::move(factors);
  return out;
}

void EvalProgram::Eval(const Valuation& valuation,
                       std::vector<double>* out) const {
  COBRA_CHECK_MSG(valuation.size() >= min_valuation_size_,
                  "EvalProgram::Eval: valuation too small");
  EvalUnchecked(valuation, out);
}

util::Status EvalProgram::EvalChecked(const Valuation& valuation,
                                      std::vector<double>* out) const {
  if (valuation.size() < min_valuation_size_) {
    return util::Status::InvalidArgument(util::StrFormat(
        "EvalProgram::EvalChecked: valuation covers %zu variables but the "
        "program requires %zu (largest referenced VarId is %zu)",
        valuation.size(), min_valuation_size_, min_valuation_size_ - 1));
  }
  EvalUnchecked(valuation, out);
  return util::Status::OK();
}

void EvalProgram::EvalUnchecked(const Valuation& valuation,
                                std::vector<double>* out) const {
  const double* values = valuation.values().data();
  out->assign(NumPolys(), 0.0);
  for (std::size_t p = 0; p + 1 < poly_starts_.size(); ++p) {
    double sum = 0.0;
    for (std::uint32_t t = poly_starts_[p]; t < poly_starts_[p + 1]; ++t) {
      double prod = coeffs_[t];
      for (std::uint32_t f = term_starts_[t]; f < term_starts_[t + 1]; ++f) {
        prod *= values[factors_[f]];
      }
      sum += prod;
    }
    (*out)[p] = sum;
  }
}

void EvalProgram::EvalWithOverrides(const Valuation& base,
                                    const VarOverride* overrides,
                                    std::size_t num_overrides,
                                    std::vector<double>* out) const {
  // Validate before touching *out, so an aborting call (and any future
  // checked variant) never leaves the caller's output half-written.
  COBRA_CHECK_MSG(base.size() >= min_valuation_size_,
                  "EvalProgram::EvalWithOverrides: valuation too small");
  out->assign(NumPolys(), 0.0);
  EvalRangeWithOverrides(base, overrides, num_overrides, 0, NumPolys(),
                         out->data());
}

void EvalProgram::EvalRangeWithOverrides(const Valuation& base,
                                         const VarOverride* overrides,
                                         std::size_t num_overrides,
                                         std::size_t poly_begin,
                                         std::size_t poly_end,
                                         double* out) const {
  COBRA_CHECK_MSG(base.size() >= min_valuation_size_,
                  "EvalProgram::EvalRangeWithOverrides: valuation too small");
  COBRA_CHECK_MSG(poly_begin <= poly_end && poly_end <= NumPolys(),
                  "EvalProgram::EvalRangeWithOverrides: bad poly range");
  const double* values = base.values().data();
  if (num_overrides == 0) {
    // Default-scenario fast path: a plain dense scan.
    for (std::size_t p = poly_begin; p < poly_end; ++p) {
      double sum = 0.0;
      for (std::uint32_t t = poly_starts_[p]; t < poly_starts_[p + 1]; ++t) {
        double prod = coeffs_[t];
        for (std::uint32_t f = term_starts_[t]; f < term_starts_[t + 1]; ++f) {
          prod *= values[factors_[f]];
        }
        sum += prod;
      }
      out[p] = sum;
    }
    return;
  }
  for (std::size_t p = poly_begin; p < poly_end; ++p) {
    double sum = 0.0;
    for (std::uint32_t t = poly_starts_[p]; t < poly_starts_[p + 1]; ++t) {
      double prod = coeffs_[t];
      for (std::uint32_t f = term_starts_[t]; f < term_starts_[t + 1]; ++f) {
        const VarId var = factors_[f];
        double v = values[var];
        // The override list is tiny (a few meta-variables), so a linear scan
        // over register-resident data beats any lookup structure here.
        for (std::size_t o = 0; o < num_overrides; ++o) {
          if (overrides[o].var == var) v = overrides[o].value;
        }
        prod *= v;
      }
      sum += prod;
    }
    out[p] = sum;
  }
}

BaseSums EvalProgram::BaseSumsUnder(const Valuation& valuation) const {
  BaseSums sums;
  sums.products = TermProducts(valuation);
  sums.prefix.resize(NumTerms());
  sums.values.resize(NumPolys());
  for (std::size_t p = 0; p < NumPolys(); ++p) {
    double sum = 0.0;
    for (std::uint32_t t = poly_starts_[p]; t < poly_starts_[p + 1]; ++t) {
      sums.prefix[t] = sum;
      sum += sums.products[t];
    }
    sums.values[p] = sum;
  }
  return sums;
}

void EvalProgram::CheckBlockInputs(const Valuation& base, const BaseSums& sums,
                                   const BlockRows& rows,
                                   const TouchedPrograms& touched,
                                   std::size_t block) const {
  COBRA_CHECK_MSG(base.size() >= min_valuation_size_,
                  "EvalProgram blocked kernel: valuation too small");
  COBRA_CHECK_MSG(sums.products.size() == NumTerms() &&
                      sums.prefix.size() == NumTerms() &&
                      sums.values.size() == NumPolys(),
                  "EvalProgram blocked kernel: base sums do not cover the "
                  "program");
  COBRA_CHECK_MSG(block < rows.num_blocks() &&
                      touched.num_blocks() == rows.num_blocks(),
                  "EvalProgram blocked kernel: block outside the block "
                  "program");
}

void EvalProgram::EvalRangeBlocked(const Valuation& base, const BaseSums& sums,
                                   const BlockRows& rows,
                                   const TouchedPrograms& touched,
                                   std::size_t block, std::size_t poly_begin,
                                   std::size_t poly_end, double* out,
                                   std::size_t lane_stride) const {
  CheckBlockInputs(base, sums, rows, touched, block);
  COBRA_CHECK_MSG(poly_begin <= poly_end && poly_end <= NumPolys(),
                  "EvalProgram::EvalRangeBlocked: bad poly range");
  Bodies().range(MakeKernelView(*this, base, sums, rows, touched, block),
                 poly_begin, poly_end, out, lane_stride);
}

double EvalProgram::EvalTermRangeWithOverrides(const Valuation& base,
                                               const VarOverride* overrides,
                                               std::size_t num_overrides,
                                               std::size_t term_begin,
                                               std::size_t term_end) const {
  COBRA_CHECK_MSG(base.size() >= min_valuation_size_,
                  "EvalProgram::EvalTermRangeWithOverrides: valuation too "
                  "small");
  COBRA_CHECK_MSG(term_begin <= term_end && term_end <= NumTerms(),
                  "EvalProgram::EvalTermRangeWithOverrides: bad term range");
  const double* values = base.values().data();
  double sum = 0.0;
  for (std::size_t t = term_begin; t < term_end; ++t) {
    double prod = coeffs_[t];
    for (std::uint32_t f = term_starts_[t]; f < term_starts_[t + 1]; ++f) {
      const VarId var = factors_[f];
      double v = values[var];
      for (std::size_t o = 0; o < num_overrides; ++o) {
        if (overrides[o].var == var) v = overrides[o].value;
      }
      prod *= v;
    }
    sum += prod;
  }
  return sum;
}

void EvalProgram::EvalTermRangeBlocked(
    const Valuation& base, const BaseSums& sums, const BlockRows& rows,
    const TouchedPrograms& touched, std::size_t block, std::size_t term_begin,
    std::size_t term_end, double* partials, std::size_t lane_stride) const {
  CheckBlockInputs(base, sums, rows, touched, block);
  COBRA_CHECK_MSG(term_begin <= term_end && term_end <= NumTerms(),
                  "EvalProgram::EvalTermRangeBlocked: bad term range");
  Bodies().term_range(MakeKernelView(*this, base, sums, rows, touched, block),
                      term_begin, term_end, partials, lane_stride);
}

std::vector<double> EvalProgram::TermProducts(
    const Valuation& valuation) const {
  COBRA_CHECK_MSG(valuation.size() >= min_valuation_size_,
                  "EvalProgram::TermProducts: valuation too small");
  const double* values = valuation.values().data();
  std::vector<double> products(coeffs_.size());
  for (std::size_t t = 0; t < coeffs_.size(); ++t) {
    double prod = coeffs_[t];
    for (std::uint32_t f = term_starts_[t]; f < term_starts_[t + 1]; ++f) {
      prod *= values[factors_[f]];
    }
    products[t] = prod;
  }
  return products;
}

EvalProgram EvalProgram::RemapFactors(const std::vector<VarId>& remap) const {
  EvalProgram out;
  out.poly_starts_ = poly_starts_;
  out.term_starts_ = term_starts_;
  out.coeffs_ = coeffs_;
  out.factors_.reserve(factors_.size());
  out.min_valuation_size_ = 0;
  for (VarId var : factors_) {
    VarId mapped = var < remap.size() ? remap[var] : var;
    if (mapped + 1 > out.min_valuation_size_) {
      out.min_valuation_size_ = mapped + 1;
    }
    out.factors_.push_back(mapped);
  }
  return out;
}

std::vector<std::uint32_t> EvalProgram::PartitionPolys(
    std::size_t parts) const {
  const std::uint32_t n = static_cast<std::uint32_t>(NumPolys());
  std::vector<std::uint32_t> bounds;
  bounds.push_back(0);
  if (parts <= 1 || n <= 1) {
    bounds.push_back(n);
    return bounds;
  }
  parts = std::min<std::size_t>(parts, n);
  auto weight = [this](std::uint32_t p) {
    const std::uint32_t terms = poly_starts_[p + 1] - poly_starts_[p];
    const std::uint32_t factors =
        term_starts_[poly_starts_[p + 1]] - term_starts_[poly_starts_[p]];
    return static_cast<double>(terms + factors + 1);
  };
  double total = 0.0;
  for (std::uint32_t p = 0; p < n; ++p) total += weight(p);
  double acc = 0.0;
  for (std::uint32_t p = 0; p < n; ++p) {
    acc += weight(p);
    // Close the current range once it reaches its proportional share, but
    // keep at least one polynomial for each remaining range.
    const std::size_t emitted = bounds.size();  // ranges closed so far + 1
    if (emitted < parts &&
        acc >= total * static_cast<double>(emitted) /
                   static_cast<double>(parts) &&
        p + 1 <= n - (parts - emitted)) {
      bounds.push_back(p + 1);
    }
  }
  bounds.push_back(n);
  return bounds;
}

std::vector<std::uint32_t> EvalProgram::PartitionTerms(
    std::size_t poly, std::size_t parts) const {
  COBRA_CHECK_MSG(poly < NumPolys(), "EvalProgram::PartitionTerms: bad poly");
  const std::uint32_t first = poly_starts_[poly];
  const std::uint32_t last = poly_starts_[poly + 1];
  std::vector<std::uint32_t> bounds;
  bounds.push_back(first);
  const std::uint32_t n = last - first;
  if (parts <= 1 || n <= 1) {
    bounds.push_back(last);
    return bounds;
  }
  parts = std::min<std::size_t>(parts, n);
  auto weight = [this](std::uint32_t t) {
    return static_cast<double>(term_starts_[t + 1] - term_starts_[t] + 1);
  };
  double total = 0.0;
  for (std::uint32_t t = first; t < last; ++t) total += weight(t);
  double acc = 0.0;
  for (std::uint32_t t = first; t < last; ++t) {
    acc += weight(t);
    const std::size_t emitted = bounds.size();  // ranges closed so far + 1
    if (emitted < parts &&
        acc >= total * static_cast<double>(emitted) /
                   static_cast<double>(parts) &&
        t + 1 <= last - (parts - emitted)) {
      bounds.push_back(t + 1);
    }
  }
  bounds.push_back(last);
  return bounds;
}

std::size_t EvalProgram::DominantPoly(std::size_t min_terms) const {
  const std::size_t n = NumPolys();
  if (n == 0 || min_terms == 0) return n;
  auto weight = [this](std::size_t p) {
    const std::uint32_t terms = poly_starts_[p + 1] - poly_starts_[p];
    const std::uint32_t factors =
        term_starts_[poly_starts_[p + 1]] - term_starts_[poly_starts_[p]];
    return static_cast<double>(terms + factors + 1);
  };
  double total = 0.0;
  double best_weight = -1.0;
  std::size_t best = n;
  for (std::size_t p = 0; p < n; ++p) {
    const double w = weight(p);
    total += w;
    if (w > best_weight) {
      best_weight = w;
      best = p;
    }
  }
  if (best == n || best_weight * 2.0 <= total) return n;
  const std::size_t terms = poly_starts_[best + 1] - poly_starts_[best];
  return terms >= min_terms ? best : n;
}

VarTermIndex::VarTermIndex(const EvalProgram& program)
    : num_terms_(program.NumTerms()) {
  const std::size_t num_vars = program.MinValuationSize();
  const std::vector<std::uint32_t>& term_starts = program.term_starts();
  const std::vector<VarId>& factors = program.factors();
  // Visits every (variable, term) pair once: last_term[v] remembers the
  // last term that reported v, so a variable repeated inside one term — an
  // exponent, or two leaves remapped to one meta-variable, not necessarily
  // adjacent — is reported once. Terms are visited in ascending order, so
  // each variable's postings come out ascending.
  constexpr std::uint32_t kNoTerm = ~std::uint32_t{0};
  std::vector<std::uint32_t> last_term;
  auto for_each_pair = [&](auto&& visit) {
    last_term.assign(num_vars, kNoTerm);
    for (std::uint32_t t = 0; t < num_terms_; ++t) {
      for (std::uint32_t f = term_starts[t]; f < term_starts[t + 1]; ++f) {
        const VarId var = factors[f];
        if (last_term[var] != t) {
          last_term[var] = t;
          visit(var, t);
        }
      }
    }
  };
  offsets_.assign(num_vars + 1, 0);
  for_each_pair([&](VarId var, std::uint32_t) { ++offsets_[var + 1]; });
  for (std::size_t v = 0; v < num_vars; ++v) offsets_[v + 1] += offsets_[v];
  postings_.resize(offsets_.back());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for_each_pair(
      [&](VarId var, std::uint32_t t) { postings_[cursor[var]++] = t; });
}

std::span<const std::uint32_t> VarTermIndex::Terms(VarId var) const {
  if (static_cast<std::size_t>(var) + 1 >= offsets_.size()) return {};
  return {postings_.data() + offsets_[var],
          postings_.data() + offsets_[var + 1]};
}

const char* BlockedKernelIsa() { return Bodies().isa; }

const char* EvalLayoutName(EvalLayout layout) {
  using enum EvalLayout;
  switch (layout) {
    case kAoS:
      return "AoS";
    case kSoA:
      return "SoA";
  }
  return "?";
}

}  // namespace cobra::prov
