#ifndef COBRA_PROV_EVAL_PROGRAM_H_
#define COBRA_PROV_EVAL_PROGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "prov/poly_set.h"
#include "prov/valuation.h"
#include "util/status.h"

namespace cobra::prov {

/// One sparse valuation override: during evaluation, `var` takes `value`
/// instead of its entry in the base valuation. A scenario's override list is
/// small (a handful of meta-variables), sorted by `var`, and free of
/// duplicates — the batched serving path compiles each scenario into one of
/// these lists instead of copying a full-pool `Valuation` per scenario.
struct VarOverride {
  VarId var;
  double value;
};

/// Non-owning view of one scenario's override list (sorted by `var`,
/// duplicate-free) — one lane of a scenario block.
struct OverrideSpan {
  const VarOverride* data = nullptr;
  std::size_t size = 0;
};

/// The per-block patch table of the scenario-blocked kernel: the union of up
/// to `EvalProgram::kMaxLanes` scenarios' override variables, with one
/// kMaxLanes-wide row of values per variable (lane l reads its own override
/// value, or the shared base value when lane l does not override that
/// variable). Built once per scenario block by `MakeBlockOverrides()` and
/// reused across every (poly-range | term-range) tile the block is scheduled
/// on. Factor lookups are O(log k) in the union size k: a [lo, hi] guard
/// band rejects most factors with two compares, then either a dense
/// row-index array (when the union's id span is small — one load) or a
/// binary search over the factor-sorted var array resolves the row, so wide
/// scenarios (large unions) no longer pay a linear scan per factor.
class BlockOverrides {
 public:
  /// Number of scenario lanes the block carries (1..kMaxLanes). The kernel
  /// always runs all kMaxLanes lanes; padding lanes replicate the base
  /// value, so they execute the same instruction stream without affecting
  /// real lanes.
  std::size_t num_lanes() const { return num_lanes_; }

  /// Number of distinct variables in the block's override union.
  std::size_t union_size() const { return vars_.size(); }

  /// Whether lookups resolve through the dense per-span row index (true when
  /// the union's id span is at most kDenseIndexMaxSpan) instead of binary
  /// search. Exposed for tests; both paths return identical rows.
  bool uses_dense_index() const { return !dense_index_.empty(); }

  /// The block's override-union variables, sorted ascending and
  /// duplicate-free — the invariant the per-factor binary search relies on.
  /// Read-only; exposed for the static verifier (verify/verify.h).
  const std::vector<VarId>& vars() const { return vars_; }

  /// The value rows: union_size() rows of EvalProgram::kMaxLanes lane
  /// values, row-major (row r holds variable vars()[r]'s per-lane values).
  /// Read-only; exposed for the static verifier, which re-derives every row
  /// from the base valuation and the lanes' override lists.
  const std::vector<double>& values() const { return values_; }

  /// Largest (hi - lo + 1) id span for which the dense row index is built;
  /// wider unions fall back to binary search.
  static constexpr std::size_t kDenseIndexMaxSpan = 4096;

 private:
  friend class EvalProgram;
  friend BlockOverrides MakeBlockOverridesSkeleton(const OverrideSpan* lanes,
                                                   std::size_t num_lanes);
  friend BlockOverrides RebindBlockOverrides(const BlockOverrides& block,
                                             const Valuation& base,
                                             const OverrideSpan* lanes,
                                             std::size_t num_lanes);

  std::vector<VarId> vars_;     ///< Sorted union of overridden variables.
  std::vector<double> values_;  ///< vars_.size() rows of kMaxLanes values.
  /// When the union spans at most kDenseIndexMaxSpan ids, dense_index_[v -
  /// lo_] is the row index of variable v (or -1 when v is not overridden) —
  /// the O(1) fast path. Empty for wider unions (binary search instead).
  std::vector<std::int32_t> dense_index_;
  std::size_t num_lanes_ = 0;
  // Inclusive guard band so factors outside [lo_, hi_] skip the row lookup;
  // an empty table uses lo_ > hi_ so the guard never matches.
  VarId lo_ = kInvalidVar;
  VarId hi_ = 0;
};

/// Builds the base-independent skeleton of a block patch table: the sorted
/// override union, guard band and dense row index for `num_lanes`
/// (1..EvalProgram::kMaxLanes) scenario override lists, with every value
/// row zero-initialized. The skeleton is everything about the table that
/// does not depend on the base valuation — a plan core caches it and binds
/// it to each base with RebindBlockOverrides(), so sweeping many bases pays
/// the sort/unique/index construction once. The kernels must never read a
/// skeleton directly.
BlockOverrides MakeBlockOverridesSkeleton(const OverrideSpan* lanes,
                                          std::size_t num_lanes);

/// Returns a copy of `block` with every value row re-derived from `base`:
/// lane l reads its own override value (the same `lanes` lists the block
/// was built from), every other slot — non-overriding lanes and padding —
/// reads `base`. The union structure (vars, dense index, guard band, lane
/// count) is reused unchanged, so rebinding is O(union × kMaxLanes) with no
/// sorting and no index rebuild. Every union variable must be covered by
/// `base`.
BlockOverrides RebindBlockOverrides(const BlockOverrides& block,
                                    const Valuation& base,
                                    const OverrideSpan* lanes,
                                    std::size_t num_lanes);

/// Builds the block patch table for `num_lanes` (1..EvalProgram::kMaxLanes)
/// scenario override lists over the shared `base` valuation — equivalent to
/// rebinding a fresh skeleton. Every override variable must be covered by
/// `base`.
BlockOverrides MakeBlockOverrides(const Valuation& base,
                                  const OverrideSpan* lanes,
                                  std::size_t num_lanes);

/// A compiled, cache-friendly form of a `PolySet` for repeated valuation.
///
/// The assignment phase of the paper applies many valuations to the same
/// (possibly compressed) provenance. Walking the `Polynomial` object graph
/// for each assignment wastes cache; `EvalProgram` flattens the whole set
/// into three contiguous arrays (term boundaries, coefficients, variable
/// factors with exponents expanded) so one valuation is a single linear
/// scan. The speedups reported in EXPERIMENTS.md are measured with this
/// evaluator for both full and compressed provenance, which makes the
/// full-vs-compressed comparison an apples-to-apples size comparison.
///
/// An `EvalProgram` is immutable after construction and holds no mutable
/// state during evaluation, so one instance may be shared by any number of
/// threads concurrently.
class EvalProgram {
 public:
  /// Scenario lanes per block of the blocked kernel — its one compiled
  /// width. A block with fewer real lanes (a ragged tail) is padded up to
  /// it.
  static constexpr std::size_t kMaxLanes = 16;

  /// Compiles `set`. The program remains valid as long as VarIds are stable.
  explicit EvalProgram(const PolySet& set);

  /// Reconstructs a program directly from its compiled arrays — the
  /// deserialization path of the snapshot format (core/io.h). The arrays
  /// must satisfy the compiled invariants (`poly_starts` starts at 0, is
  /// non-decreasing and ends at `coeffs.size()`; `term_starts` has
  /// `coeffs.size() + 1` entries, starts at 0, is non-decreasing and ends at
  /// `factors.size()`; no factor is `kInvalidVar`) or `InvalidArgument` is
  /// returned. A program rebuilt from another program's arrays evaluates
  /// bit-identically to the original: evaluation reads nothing but these
  /// arrays, in order.
  static util::Result<EvalProgram> FromParts(
      std::vector<std::uint32_t> poly_starts,
      std::vector<std::uint32_t> term_starts, std::vector<double> coeffs,
      std::vector<VarId> factors);

  /// Evaluates all polynomials under `valuation`; `out` is resized to the
  /// number of polynomials. Aborts (COBRA_CHECK) when the valuation does not
  /// cover `MinValuationSize()` variables — the hot-path contract for
  /// callers that already guarantee sizing.
  void Eval(const Valuation& valuation, std::vector<double>* out) const;

  /// Like Eval(), but rejects an undersized valuation with
  /// `InvalidArgument` instead of aborting. Use this for externally-supplied
  /// valuations so malformed inputs cannot kill the process. (The batched
  /// scenario engine validates sizes once up front and then stays on the
  /// unchecked hot path.)
  util::Status EvalChecked(const Valuation& valuation,
                           std::vector<double>* out) const;

  /// Evaluates all polynomials under `base` with `overrides` patched on top:
  /// each factor whose id appears in the override list takes the override
  /// value, everything else reads `base`. The override list must be
  /// duplicate-free (it is scanned linearly; with duplicates the last match
  /// wins). `out` is resized to NumPolys(). Aborts on an undersized base —
  /// same contract as Eval() — and validates before touching `*out`, so a
  /// failed call never leaves the output half-written.
  void EvalWithOverrides(const Valuation& base, const VarOverride* overrides,
                         std::size_t num_overrides,
                         std::vector<double>* out) const;

  /// Range form of EvalWithOverrides() for intra-program partitioning:
  /// evaluates polynomials [poly_begin, poly_end) and writes `out[p]` for
  /// exactly those indices (`out` must point at an array of NumPolys()
  /// doubles). Disjoint ranges touch disjoint output slots and share no
  /// mutable state, so concurrent calls on one program are race-free and the
  /// merged result is deterministic regardless of the range schedule.
  void EvalRangeWithOverrides(const Valuation& base,
                              const VarOverride* overrides,
                              std::size_t num_overrides,
                              std::size_t poly_begin, std::size_t poly_end,
                              double* out) const;

  /// Returns every term's product under `valuation`, in term order:
  /// entry t is coeff × value[f1] × value[f2] … over term t's factors in
  /// compiled order — the scalar path's own operation sequence, so it is
  /// bit-identical to the product any evaluation path forms for a term none
  /// of whose variables is overridden. Aborts on an undersized valuation.
  std::vector<double> TermProducts(const Valuation& valuation) const;

  /// Touched-term scenario-blocked kernel: evaluates polynomials
  /// [poly_begin, poly_end) for all of `block`'s scenario lanes in ONE scan
  /// of the compiled arrays. `touched_terms` lists, ascending, the terms
  /// that contain a variable of the block's override union (built with
  /// VarTermIndex::TouchedTerms from `block.vars()`); `base_products` is
  /// TermProducts(base). A touched term runs the per-lane factor path: per
  /// factor the shared base value is loaded once and broadcast, variables
  /// in the block's patch table read their per-lane row. Every other term
  /// adds its base product to all lanes — in each lane that is exactly the
  /// product the factor path would form, because no lane overrides any of
  /// its variables. Lane l writes `out[l * lane_stride + p]` for each p in
  /// the range. Each lane therefore performs the scalar path's operation
  /// sequence (prod = coeff; prod *= value per factor; sum += prod), so
  /// per-lane results are bit-identical to EvalRangeWithOverrides() with
  /// that lane's override list. Listing every term as touched is the
  /// no-skip special case. Aborts on an undersized base, a bad range, or
  /// products that do not cover NumTerms().
  void EvalRangeBlocked(const Valuation& base, const BlockOverrides& block,
                        std::span<const std::uint32_t> touched_terms,
                        std::span<const double> base_products,
                        std::size_t poly_begin, std::size_t poly_end,
                        double* out, std::size_t lane_stride) const;

  /// Partial-sum form of EvalRangeWithOverrides() for term-range splitting:
  /// returns the sum of term products over the absolute term range
  /// [term_begin, term_end), which must lie inside one polynomial (use
  /// PartitionTerms() for bounds). Summation starts at 0.0 and adds terms in
  /// compiled order, so evaluating a polynomial's full term range is
  /// bit-identical to its EvalRangeWithOverrides() result; a split
  /// polynomial's value is recovered by adding the slices' partials in slice
  /// order (deterministic, but rounding may differ from the unsplit scan in
  /// the last ulp — see BatchOptions::split_min_terms).
  double EvalTermRangeWithOverrides(const Valuation& base,
                                    const VarOverride* overrides,
                                    std::size_t num_overrides,
                                    std::size_t term_begin,
                                    std::size_t term_end) const;

  /// Blocked form of EvalTermRangeWithOverrides(): lane l's partial sum is
  /// written to `partials[l * lane_stride]`. Same inputs and bit-identity
  /// contract as EvalRangeBlocked() against the scalar term-range scan.
  void EvalTermRangeBlocked(const Valuation& base, const BlockOverrides& block,
                            std::span<const std::uint32_t> touched_terms,
                            std::span<const double> base_products,
                            std::size_t term_begin, std::size_t term_end,
                            double* partials, std::size_t lane_stride) const;

  /// Returns a copy of this program whose factor ids are translated through
  /// `remap` (ids at or beyond `remap.size()` stay unchanged). The serving
  /// layer uses this to bake the leaf→meta-variable indirection into the
  /// full-provenance program: evaluating the remapped program under a
  /// compressed-side valuation is bit-identical to evaluating the original
  /// under the expanded valuation, without materializing the expansion.
  EvalProgram RemapFactors(const std::vector<VarId>& remap) const;

  /// Splits [0, NumPolys()) into at most `parts` contiguous ranges of
  /// roughly equal evaluation weight (terms + factors). Returns the range
  /// boundaries: a sorted vector starting at 0 and ending at NumPolys(),
  /// with no empty ranges. Used to partition one large program across
  /// threads when there are fewer scenarios than cores.
  std::vector<std::uint32_t> PartitionPolys(std::size_t parts) const;

  /// Splits polynomial `poly`'s term range into at most `parts` contiguous
  /// sub-ranges of roughly equal factor weight. Returns absolute term
  /// bounds into the compiled term arrays: sorted, starting at the poly's
  /// first term and ending one past its last, with no empty ranges. Used by
  /// the term-splitting scheduler fallback when one dominant polynomial
  /// would otherwise pin a whole scenario block to a single thread.
  std::vector<std::uint32_t> PartitionTerms(std::size_t poly,
                                            std::size_t parts) const;

  /// Returns the index of the polynomial whose evaluation weight strictly
  /// exceeds half the program's total weight AND that has at least
  /// `min_terms` terms, or NumPolys() when no polynomial qualifies. The
  /// batch scheduler splits such a polynomial's term range across threads
  /// instead of leaving its whole-poly range on one.
  std::size_t DominantPoly(std::size_t min_terms) const;

  /// Number of compiled polynomials.
  std::size_t NumPolys() const { return poly_starts_.size() - 1; }

  /// Total number of compiled terms (== total monomials of the source set).
  std::size_t NumTerms() const { return coeffs_.size(); }

  /// Largest VarId referenced plus one; valuations must cover this many vars.
  std::size_t MinValuationSize() const { return min_valuation_size_; }

  /// @name Compiled-array export (snapshot serialization).
  /// The four arrays are the program's complete state: feeding them back
  /// through FromParts() yields a program that evaluates bit-identically.
  /// @{
  const std::vector<std::uint32_t>& poly_starts() const {
    return poly_starts_;
  }
  const std::vector<std::uint32_t>& term_starts() const {
    return term_starts_;
  }
  const std::vector<double>& coeffs() const { return coeffs_; }
  const std::vector<VarId>& factors() const { return factors_; }
  /// @}

 private:
  EvalProgram() = default;  // for RemapFactors()

  void EvalUnchecked(const Valuation& valuation, std::vector<double>* out) const;

  // poly_starts_[p] .. poly_starts_[p+1] indexes into coeffs_/term_starts_.
  std::vector<std::uint32_t> poly_starts_;
  // term_starts_[t] .. term_starts_[t+1] indexes into factors_.
  std::vector<std::uint32_t> term_starts_;
  std::vector<double> coeffs_;
  // Variable ids, with exponents expanded (x^3 appears three times).
  std::vector<VarId> factors_;
  std::size_t min_valuation_size_ = 0;
};

/// The var→term index of one compiled program: for every variable id, the
/// ascending, distinct terms whose factors include it (a term with x^3, or
/// with x twice after a leaf→meta remap, lists x once). A CSR over the ids
/// [0, program.MinValuationSize()): one offset per id plus one flat posting
/// array. Built once per compiled program and immutable afterwards; the
/// planner maps a scenario block's override union through it to the terms
/// the blocked kernel must re-evaluate per lane.
class VarTermIndex {
 public:
  explicit VarTermIndex(const EvalProgram& program);

  /// The terms containing `var`, ascending; empty for ids the program never
  /// references.
  std::span<const std::uint32_t> Terms(VarId var) const;

  /// Writes to `out` the ascending, duplicate-free ids of the terms that
  /// contain at least one of `vars` — a scenario block's touched set —
  /// reserving exactly that many entries, so a fresh `out` is allocated at
  /// its final size. `scratch` is a bitmap the caller keeps across calls
  /// (sized here on first use; all bits clear on entry and on return), so a
  /// planner building one set per block pays no per-block clearing.
  void TouchedTerms(std::span<const VarId> vars,
                    std::vector<std::uint64_t>* scratch,
                    std::vector<std::uint32_t>* out) const;

 private:
  std::vector<std::uint32_t> offsets_;  ///< Terms(v) = postings_[o[v], o[v+1]).
  std::vector<std::uint32_t> postings_;
  std::size_t num_terms_ = 0;
};

/// Memory layout a plan executes a compiled program in. Every plan now
/// executes `kAoS` — the blocked kernel reads `EvalProgram`'s own arrays.
/// `kSoA` named a plan-time re-layout that no longer exists; the enum stays
/// only so existing callers that report a plan's layout keep compiling.
enum class EvalLayout : std::uint8_t {
  kAoS = 0,  ///< EvalProgram's own arrays.
  kSoA = 1,  ///< Retired; never produced.
};

/// Human-readable name of a layout ("AoS" / "SoA"); "?" for corrupt values.
const char* EvalLayoutName(EvalLayout layout);

}  // namespace cobra::prov

#endif  // COBRA_PROV_EVAL_PROGRAM_H_
