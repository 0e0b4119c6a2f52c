#include "prov/eval_program.h"

#include <algorithm>
#include <bit>

#include "util/status.h"
#include "util/str.h"

namespace cobra::prov {

namespace {

/// The blocked kernel's compile-time lane count.
constexpr int kLanes = static_cast<int>(EvalProgram::kMaxLanes);

/// The raw view of a BlockOverrides table the kernels scan: a sorted var
/// array with a kLanes-wide value row per var, the [lo, hi] guard band, and
/// the optional dense row index covering [lo, hi].
struct LaneTableView {
  const VarId* vars = nullptr;
  const double* values = nullptr;
  const std::int32_t* dense = nullptr;  ///< nullptr => binary search.
  std::size_t rows = 0;
  VarId lo = kInvalidVar;
  VarId hi = 0;
};

/// Looks up `var`'s per-lane value row, or nullptr when the block does not
/// override `var`. The guard band rejects most factors with two compares;
/// inside the band the dense index resolves the row with one load when the
/// union's id span is small, and a binary search over the factor-sorted var
/// array (O(log k) in the union size k) otherwise — wide scenario unions no
/// longer pay a linear scan per factor.
inline const double* FindLaneRow(const LaneTableView& table, VarId var) {
  if (var < table.lo || var > table.hi) return nullptr;
  if (table.dense != nullptr) {
    const std::int32_t row = table.dense[var - table.lo];
    return row < 0 ? nullptr
                   : table.values + static_cast<std::size_t>(row) * kLanes;
  }
  const VarId* it = std::lower_bound(table.vars, table.vars + table.rows, var);
  if (it == table.vars + table.rows || *it != var) return nullptr;
  return table.values + static_cast<std::size_t>(it - table.vars) * kLanes;
}

/// Everything the blocked kernel's per-term paths read: the program's
/// compiled arrays, the shared base valuation, every term's product under
/// that base, and the block's lane table.
struct KernelView {
  const std::uint32_t* term_starts = nullptr;
  const double* coeffs = nullptr;
  const VarId* factors = nullptr;
  const double* base = nullptr;
  const double* base_products = nullptr;
  LaneTableView table;
};

/// Accumulates the kLanes products of touched term `t` into `sum`. Per
/// factor the base value is loaded once and broadcast, overridden variables
/// read their per-lane row, and the accumulators advance in lockstep — each
/// lane runs the scalar path's exact operation sequence (prod = coeff,
/// prod *= value per factor, sum += prod), so per-lane results are
/// bit-identical to the scalar sparse scan while one pass over the compiled
/// arrays serves kLanes scenarios.
inline void AddBlockedTerm(const KernelView& k, std::size_t t, double* sum) {
  double prod[kLanes];
  const double c = k.coeffs[t];
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) prod[l] = c;
  for (std::uint32_t f = k.term_starts[t]; f < k.term_starts[t + 1]; ++f) {
    const VarId var = k.factors[f];
    const double* row = FindLaneRow(k.table, var);
    if (row != nullptr) {
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) prod[l] *= row[l];
    } else {
      const double v = k.base[var];
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) prod[l] *= v;
    }
  }
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) sum[l] += prod[l];
}

/// Accumulates terms [t, end) into the kLanes lane sums, in term order.
/// The ascending touched ids from `*next` on take the per-lane factor path;
/// every other term adds its base product to all lanes, which is exactly
/// the product each lane's factor path would form, since no lane overrides
/// any of that term's variables. `*next` advances past the touched ids
/// consumed. A touched list that is not ascending can only cost speed or
/// correctness of the sums, never an out-of-bounds read.
inline void AddTermSpan(const KernelView& k, std::uint32_t t,
                        std::uint32_t end, const std::uint32_t** next,
                        const std::uint32_t* touched_end, double* sum) {
  const std::uint32_t* n = *next;
  while (t < end) {
    while (n != touched_end && *n < t) ++n;
    const std::uint32_t stop = n != touched_end && *n < end ? *n : end;
    for (; t < stop; ++t) {
      const double p = k.base_products[t];
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) sum[l] += p;
    }
    if (t < end) AddBlockedTerm(k, t++, sum);
  }
  *next = n;
}

}  // namespace

BlockOverrides MakeBlockOverridesSkeleton(const OverrideSpan* lanes,
                                          std::size_t num_lanes) {
  COBRA_CHECK_MSG(
      num_lanes >= 1 && num_lanes <= EvalProgram::kMaxLanes,
      "MakeBlockOverridesSkeleton: lane count outside [1, kMaxLanes]");
  BlockOverrides block;
  block.num_lanes_ = num_lanes;
  for (std::size_t l = 0; l < num_lanes; ++l) {
    for (std::size_t o = 0; o < lanes[l].size; ++o) {
      block.vars_.push_back(lanes[l].data[o].var);
    }
  }
  std::sort(block.vars_.begin(), block.vars_.end());
  block.vars_.erase(std::unique(block.vars_.begin(), block.vars_.end()),
                    block.vars_.end());
  if (!block.vars_.empty()) {
    block.lo_ = block.vars_.front();
    block.hi_ = block.vars_.back();
  }
  // Value rows stay zero until RebindBlockOverrides() binds a base — a
  // skeleton handed to a kernel would multiply everything by 0, not crash,
  // which is why only the rebinding path may publish one.
  block.values_.assign(block.vars_.size() * EvalProgram::kMaxLanes, 0.0);
  // O(1) lookup fast path: when the union's id span is small, one row-index
  // array covers it (wider unions binary-search the sorted var array).
  if (!block.vars_.empty()) {
    const std::size_t span =
        static_cast<std::size_t>(block.hi_ - block.lo_) + 1;
    if (span <= BlockOverrides::kDenseIndexMaxSpan) {
      block.dense_index_.assign(span, -1);
      for (std::size_t r = 0; r < block.vars_.size(); ++r) {
        block.dense_index_[block.vars_[r] - block.lo_] =
            static_cast<std::int32_t>(r);
      }
    }
  }
  return block;
}

BlockOverrides RebindBlockOverrides(const BlockOverrides& block,
                                    const Valuation& base,
                                    const OverrideSpan* lanes,
                                    std::size_t num_lanes) {
  COBRA_CHECK_MSG(num_lanes == block.num_lanes_,
                  "RebindBlockOverrides: lane count does not match the "
                  "skeleton");
  BlockOverrides bound = block;
  if (!bound.vars_.empty()) {
    COBRA_CHECK_MSG(bound.vars_.back() < base.size(),
                    "RebindBlockOverrides: override variable outside the "
                    "base valuation");
  }
  // Every row defaults to the broadcast base value (this also covers the
  // padding lanes), then each lane patches in its own overrides.
  for (std::size_t r = 0; r < bound.vars_.size(); ++r) {
    const double v = base.values()[bound.vars_[r]];
    std::fill_n(bound.values_.begin() + r * EvalProgram::kMaxLanes,
                EvalProgram::kMaxLanes, v);
  }
  for (std::size_t l = 0; l < num_lanes; ++l) {
    for (std::size_t o = 0; o < lanes[l].size; ++o) {
      const std::size_t r =
          std::lower_bound(bound.vars_.begin(), bound.vars_.end(),
                           lanes[l].data[o].var) -
          bound.vars_.begin();
      bound.values_[r * EvalProgram::kMaxLanes + l] = lanes[l].data[o].value;
    }
  }
  return bound;
}

BlockOverrides MakeBlockOverrides(const Valuation& base,
                                  const OverrideSpan* lanes,
                                  std::size_t num_lanes) {
  return RebindBlockOverrides(MakeBlockOverridesSkeleton(lanes, num_lanes),
                              base, lanes, num_lanes);
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

void EvalProgram::EvalRangeBlocked(const Valuation& base,
                                   const BlockOverrides& block,
                                   std::span<const std::uint32_t> touched_terms,
                                   std::span<const double> base_products,
                                   std::size_t poly_begin,
                                   std::size_t poly_end, double* out,
                                   std::size_t lane_stride) const {
  COBRA_CHECK_MSG(base.size() >= min_valuation_size_,
                  "EvalProgram::EvalRangeBlocked: valuation too small");
  COBRA_CHECK_MSG(poly_begin <= poly_end && poly_end <= NumPolys(),
                  "EvalProgram::EvalRangeBlocked: bad poly range");
  COBRA_CHECK_MSG(base_products.size() == NumTerms(),
                  "EvalProgram::EvalRangeBlocked: base products do not cover "
                  "the terms");
  const KernelView k{
      term_starts_.data(), coeffs_.data(), factors_.data(),
      base.values().data(), base_products.data(),
      {block.vars_.data(), block.values_.data(),
       block.dense_index_.empty() ? nullptr : block.dense_index_.data(),
       block.vars_.size(), block.lo_, block.hi_}};
  const std::uint32_t* touched = touched_terms.data();
  const std::uint32_t* touched_end = touched + touched_terms.size();
  const std::uint32_t* next =
      std::lower_bound(touched, touched_end, poly_starts_[poly_begin]);
  for (std::size_t p = poly_begin; p < poly_end; ++p) {
    double sum[kLanes];
#pragma omp simd
    for (int l = 0; l < kLanes; ++l) sum[l] = 0.0;
    AddTermSpan(k, poly_starts_[p], poly_starts_[p + 1], &next, touched_end,
                sum);
    for (std::size_t l = 0; l < block.num_lanes_; ++l) {
      out[l * lane_stride + p] = sum[l];
    }
  }
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
    const Valuation& base, const BlockOverrides& block,
    std::span<const std::uint32_t> touched_terms,
    std::span<const double> base_products, std::size_t term_begin,
    std::size_t term_end, double* partials, std::size_t lane_stride) const {
  COBRA_CHECK_MSG(base.size() >= min_valuation_size_,
                  "EvalProgram::EvalTermRangeBlocked: valuation too small");
  COBRA_CHECK_MSG(term_begin <= term_end && term_end <= NumTerms(),
                  "EvalProgram::EvalTermRangeBlocked: bad term range");
  COBRA_CHECK_MSG(base_products.size() == NumTerms(),
                  "EvalProgram::EvalTermRangeBlocked: base products do not "
                  "cover the terms");
  const KernelView k{
      term_starts_.data(), coeffs_.data(), factors_.data(),
      base.values().data(), base_products.data(),
      {block.vars_.data(), block.values_.data(),
       block.dense_index_.empty() ? nullptr : block.dense_index_.data(),
       block.vars_.size(), block.lo_, block.hi_}};
  const std::uint32_t* touched = touched_terms.data();
  const std::uint32_t* touched_end = touched + touched_terms.size();
  const std::uint32_t* next = std::lower_bound(
      touched, touched_end, static_cast<std::uint32_t>(term_begin));
  double sum[kLanes];
#pragma omp simd
  for (int l = 0; l < kLanes; ++l) sum[l] = 0.0;
  AddTermSpan(k, static_cast<std::uint32_t>(term_begin),
              static_cast<std::uint32_t>(term_end), &next, touched_end, sum);
  for (std::size_t l = 0; l < block.num_lanes_; ++l) {
    partials[l * lane_stride] = sum[l];
  }
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

void VarTermIndex::TouchedTerms(std::span<const VarId> vars,
                                std::vector<std::uint64_t>* scratch,
                                std::vector<std::uint32_t>* out) const {
  out->clear();
  std::vector<std::uint64_t>& seen = *scratch;
  const std::size_t words = (num_terms_ + 63) / 64;
  if (seen.size() < words) seen.resize(words, 0);
  // Mark every posting in the bitmap, counting the distinct terms.
  std::size_t count = 0;
  for (VarId var : vars) {
    for (std::uint32_t t : Terms(var)) {
      const std::uint64_t bit = std::uint64_t{1} << (t % 64);
      count += (seen[t / 64] & bit) == 0 ? 1 : 0;
      seen[t / 64] |= bit;
    }
  }
  // Read the bitmap back word by word, which emits the set ascending into
  // an exactly-sized list and leaves the bitmap clear.
  out->reserve(count);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      out->push_back(static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
    seen[w] = 0;
  }
}

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
