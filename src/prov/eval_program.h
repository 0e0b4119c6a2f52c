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

class EvalProgram;
class VarTermIndex;

/// The base-free override rows of a run of scenario blocks — the lane half
/// of a blocked plan's block program. Per block: the ascending union of its
/// lanes' override variables and, per union variable (one "row"), the
/// `EvalProgram::kMaxLanes` lane values with one select mask per lane. A
/// lane that overrides the row's variable holds its override value under an
/// all-ones mask; every other slot, padding lanes included, holds 0.0 under
/// an all-zeros mask, so the kernel's bitwise select yields the base value
/// there. Nothing here reads a base valuation: one set of rows serves every
/// base a plan is executed on. The rows live in flat arrays with per-block
/// offsets, built at once and immutable afterwards.
class BlockRows {
 public:
  BlockRows() = default;

  /// Builds the rows of `lanes` cut into blocks of EvalProgram::kMaxLanes
  /// consecutive lanes, the last block ragged when the count does not
  /// divide. Every lane list must be strictly ascending by variable — the
  /// lowered form the planner checks before it builds rows.
  explicit BlockRows(std::span<const OverrideSpan> lanes);

  std::size_t num_blocks() const { return lanes_.size(); }

  /// Real lanes of block `block`; a ragged tail block has fewer than
  /// kMaxLanes, and the kernel writes results for these lanes only.
  std::size_t num_lanes(std::size_t block) const { return lanes_[block]; }

  /// Block `block`'s override union, ascending and duplicate-free; row r
  /// belongs to `vars(block)[r]`.
  std::span<const VarId> vars(std::size_t block) const {
    return {vars_.data() + offsets_[block],
            vars_.data() + offsets_[block + 1]};
  }

  /// Block `block`'s lane values and select masks: `vars(block).size()`
  /// rows of kMaxLanes entries each, row-major.
  std::span<const double> values(std::size_t block) const;
  std::span<const std::uint64_t> masks(std::size_t block) const;

 private:
  std::vector<std::uint8_t> lanes_;      ///< Real lanes per block.
  std::vector<std::size_t> offsets_{0};  ///< Block b's rows: [o[b], o[b+1]).
  std::vector<VarId> vars_;
  std::vector<double> values_;           ///< kMaxLanes per row.
  std::vector<std::uint64_t> masks_;     ///< kMaxLanes per row.
};

/// One touched term of a block's touched program: the term id and where its
/// factors' rows start in the program side's flat factor-row array.
struct TouchedTerm {
  std::uint32_t term = 0;
  std::uint32_t rows = 0;
};

/// The touched programs of one program side over a `BlockRows`: per block,
/// the ascending terms with a factor in the block's override union, and for
/// each factor of those terms the union row it reads, or `kBaseRow` when no
/// lane can override it. The blocked kernel re-evaluates only these terms
/// per lane and never searches a row. A block whose union equals the
/// previous block's shares that block's program — every block of a window
/// that sweeps the same few variables. Flat arrays with per-program
/// offsets; immutable once built.
class TouchedPrograms {
 public:
  /// The factor-row value of a factor no lane of the block overrides.
  static constexpr std::uint32_t kBaseRow = ~std::uint32_t{0};

  TouchedPrograms() = default;

  /// Builds one program per block of `rows` for `program` through its
  /// var→term `index`, resolving every touched factor's row while walking
  /// the union variables' postings. `index` must be built from `program`.
  TouchedPrograms(const EvalProgram& program, const VarTermIndex& index,
                  const BlockRows& rows);

  std::size_t num_blocks() const { return program_of_.size(); }

  /// Distinct programs: at most num_blocks(), fewer when blocks share.
  std::size_t num_programs() const { return term_offsets_.size() - 1; }

  /// Per block, the program it runs: blocks that share one hold the same
  /// index, and each fresh program is numbered one past the last.
  const std::vector<std::uint32_t>& block_programs() const {
    return program_of_;
  }

  /// Block `block`'s touched terms, ascending by term id.
  std::span<const TouchedTerm> terms(std::size_t block) const {
    const std::size_t p = program_of_[block];
    return {terms_.data() + term_offsets_[p],
            terms_.data() + term_offsets_[p + 1]};
  }

  /// The side's flat factor-row array: touched term `t` of any block reads
  /// its factors' rows from `factor_rows()[t.rows]` on, one per factor in
  /// compiled order.
  const std::vector<std::uint32_t>& factor_rows() const {
    return factor_rows_;
  }

 private:
  std::vector<std::uint32_t> program_of_;       ///< Per block.
  std::vector<std::size_t> term_offsets_{0};    ///< Per program, plus one.
  std::vector<TouchedTerm> terms_;
  std::vector<std::uint32_t> factor_rows_;
};

/// One program's sums under one base valuation: what the blocked kernel
/// adds for every term no lane overrides, and where it starts a polynomial.
/// Built by `EvalProgram::BaseSumsUnder`; every entry is computed with the
/// kernel's own operation sequence, so reading it instead of recomputing
/// changes no bit of any lane.
struct BaseSums {
  /// Per term: coeff × base value per factor, in compiled order.
  std::vector<double> products;
  /// Per term: the products of the earlier terms of its polynomial, summed
  /// from 0.0 in term order (0.0 for a polynomial's first term).
  std::vector<double> prefix;
  /// Per polynomial: all its products summed from 0.0 in term order — its
  /// value under the base.
  std::vector<double> values;
};

/// A compiled, cache-friendly form of a `PolySet` for repeated valuation.
///
/// The assignment phase of the paper applies many valuations to the same
/// (possibly compressed) provenance. Walking the `Polynomial` object graph
/// for each assignment wastes cache; `EvalProgram` flattens the whole set
/// into three contiguous arrays (term boundaries, coefficients, variable
/// factors with exponents expanded) so one valuation is a single linear
/// scan. The benches measure both full and compressed provenance with this
/// evaluator, which makes the full-vs-compressed comparison an
/// apples-to-apples size comparison.
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

  /// The base sums of this program under `valuation` (see BaseSums).
  /// Aborts on an undersized valuation.
  BaseSums BaseSumsUnder(const Valuation& valuation) const;

  /// Touched-term scenario-blocked kernel: evaluates polynomials
  /// [poly_begin, poly_end) for all lanes of block `block` in ONE scan of
  /// the compiled arrays. `rows` holds the block's override rows and
  /// `touched` its touched program for this program side; `sums` is
  /// BaseSumsUnder(base). Per polynomial, every lane starts at the prefix
  /// of the block's first touched term there — or takes the polynomial's
  /// base value when the block touches none of its terms — then adds the
  /// base product of each later untouched term and runs the per-lane factor
  /// path for each touched one: a factor whose row is kBaseRow multiplies
  /// every lane by its base value, any other factor by a bitwise select of
  /// its row's lane value against that base value. Lane l writes
  /// `out[l * lane_stride + p]` for each p in the range, for its real lanes
  /// only. Each lane thereby performs the scalar path's operation sequence
  /// (sum from 0.0; prod = coeff; prod *= value per factor; sum += prod) on
  /// the same values, so per-lane results are bit-identical to
  /// EvalRangeWithOverrides() with that lane's override list. Aborts on an
  /// undersized base, a bad range or block, or sums that do not cover the
  /// program.
  ///
  /// The checks run here; the sweep then runs in one of two bodies compiled
  /// from one source: the build's baseline target (SSE2 on x86-64) and, on
  /// x86-64, an AVX2 body, chosen once per process from the CPU's features
  /// (BlockedKernelIsa() names it). AVX2 without FMA fuses no multiply-add,
  /// so both bodies return the same bits.
  void EvalRangeBlocked(const Valuation& base, const BaseSums& sums,
                        const BlockRows& rows, const TouchedPrograms& touched,
                        std::size_t block, std::size_t poly_begin,
                        std::size_t poly_end, double* out,
                        std::size_t lane_stride) const;

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
  /// written to `partials[l * lane_stride]`. A slice starts at 0.0, not at
  /// a prefix; otherwise the same inputs, bit-identity contract against the
  /// scalar term-range scan, and per-process choice of a baseline or AVX2
  /// body as EvalRangeBlocked().
  void EvalTermRangeBlocked(const Valuation& base, const BaseSums& sums,
                            const BlockRows& rows,
                            const TouchedPrograms& touched, std::size_t block,
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

  /// The blocked kernels' shared input checks (aborting).
  void CheckBlockInputs(const Valuation& base, const BaseSums& sums,
                        const BlockRows& rows, const TouchedPrograms& touched,
                        std::size_t block) const;

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
/// planner walks a scenario block's override union through it to build the
/// block's touched program (see TouchedPrograms).
class VarTermIndex {
 public:
  explicit VarTermIndex(const EvalProgram& program);

  /// The terms containing `var`, ascending; empty for ids the program never
  /// references.
  std::span<const std::uint32_t> Terms(VarId var) const;

 private:
  std::vector<std::uint32_t> offsets_;  ///< Terms(v) = postings_[o[v], o[v+1]).
  std::vector<std::uint32_t> postings_;
  std::size_t num_terms_ = 0;
};

/// The instruction set the blocked kernels (EvalProgram::EvalRangeBlocked
/// and EvalTermRangeBlocked) run at in this process: "avx2" on an x86-64
/// CPU with AVX2, "baseline" (the build's default target) otherwise. Fixed on
/// first use; both bodies return bit-identical results.
const char* BlockedKernelIsa();

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
