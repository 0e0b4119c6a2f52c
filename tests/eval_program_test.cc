// Tests for the compiled EvalProgram: compile/eval round-trips, exponent
// expansion into repeated factors, the checked (Status-returning) rejection
// of undersized valuations, sparse-override evaluation, factor remapping
// (the serving layer's leaf→meta indirection), and polynomial-range
// partitioning.

#include "prov/eval_program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "prov/parser.h"
#include "prov/poly_set.h"
#include "prov/valuation.h"
#include "prov/variable.h"
#include "util/rng.h"

namespace cobra::prov {
namespace {

PolySet Parse(std::string_view text, VarPool* pool) {
  return ParsePolySet(text, pool).ValueOrDie();
}

TEST(EvalProgramCompileTest, RoundTripMatchesNaiveEvaluation) {
  VarPool pool;
  PolySet set = Parse(
      "P1 = 208.8 * p1 * m1 + 240 * p1 * m3 + 12 * y1\n"
      "P2 = 3 * b1 * m1 - 7 * v + 0.5\n"
      "P3 = 0\n",
      &pool);
  EvalProgram program(set);
  EXPECT_EQ(program.NumPolys(), 3u);
  EXPECT_EQ(program.NumTerms(), set.TotalMonomials());

  Valuation valuation(pool);
  valuation.SetByName(pool, "p1", 1.5).CheckOK();
  valuation.SetByName(pool, "m1", 0.8).CheckOK();
  valuation.SetByName(pool, "m3", 1.2).CheckOK();
  valuation.SetByName(pool, "v", 2.0).CheckOK();

  std::vector<double> out;
  program.Eval(valuation, &out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], set.poly(i).Eval(valuation)) << set.label(i);
  }
}

TEST(EvalProgramCompileTest, ExponentsExpandIntoRepeatedFactors) {
  VarPool pool;
  PolySet set = Parse("P = 2 * x^3 * y + x^2\n", &pool);
  EvalProgram program(set);
  EXPECT_EQ(program.NumPolys(), 1u);
  EXPECT_EQ(program.NumTerms(), 2u);

  Valuation valuation(pool);
  valuation.SetByName(pool, "x", 3.0).CheckOK();
  valuation.SetByName(pool, "y", 5.0).CheckOK();

  std::vector<double> out;
  program.Eval(valuation, &out);
  ASSERT_EQ(out.size(), 1u);
  // 2 * 27 * 5 + 9 = 279: x^3 really multiplies x in three times.
  EXPECT_DOUBLE_EQ(out[0], 279.0);
}

TEST(EvalProgramCompileTest, MinValuationSizeCoversLargestVarId) {
  VarPool pool;
  pool.Intern("a");  // VarId 0, unused by the polynomial.
  PolySet set = Parse("P = b * c\n", &pool);
  EvalProgram program(set);
  // b = VarId 1, c = VarId 2, so valuations must cover 3 variables.
  EXPECT_EQ(program.MinValuationSize(), 3u);
}

TEST(EvalProgramCheckedTest, RejectsUndersizedValuation) {
  VarPool pool;
  PolySet set = Parse("P = x * y + z\n", &pool);
  EvalProgram program(set);
  ASSERT_EQ(program.MinValuationSize(), 3u);

  Valuation small(static_cast<std::size_t>(2));
  std::vector<double> out;
  util::Status status = program.EvalChecked(small, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("valuation"), std::string::npos);
}

TEST(EvalProgramCheckedTest, AcceptsExactlySizedValuation) {
  VarPool pool;
  PolySet set = Parse("P = x * y + z\n", &pool);
  EvalProgram program(set);

  Valuation exact(program.MinValuationSize());  // all-neutral 1.0
  std::vector<double> out;
  ASSERT_TRUE(program.EvalChecked(exact, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);  // 1*1 + 1
}

TEST(EvalProgramCheckedTest, EmptyProgramAcceptsAnyValuation) {
  PolySet set;
  EvalProgram program(set);
  EXPECT_EQ(program.MinValuationSize(), 0u);

  Valuation empty(static_cast<std::size_t>(0));
  std::vector<double> out{1.0, 2.0};
  ASSERT_TRUE(program.EvalChecked(empty, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(EvalProgramOverridesTest, OverridesMatchPatchedDenseEvaluation) {
  VarPool pool;
  PolySet set = Parse(
      "P1 = 2 * x^3 * y + 5 * z^2 + 3 * w\n"
      "P2 = x * y + x + y + z\n",
      &pool);
  EvalProgram program(set);

  Valuation base(pool);
  base.SetByName(pool, "x", 1.5).CheckOK();
  base.SetByName(pool, "w", 0.5).CheckOK();

  const VarId y = pool.Find("y");
  const VarId z = pool.Find("z");
  std::vector<VarOverride> overrides = {{y, 2.0}, {z, 0.25}};
  std::sort(overrides.begin(), overrides.end(),
            [](const VarOverride& a, const VarOverride& b) {
              return a.var < b.var;
            });

  Valuation patched = base;
  patched.Set(y, 2.0);
  patched.Set(z, 0.25);

  std::vector<double> want, got;
  program.Eval(patched, &want);
  program.EvalWithOverrides(base, overrides.data(), overrides.size(), &got);
  ASSERT_EQ(got.size(), want.size());
  // Bit-identical, not just close: same factor order, same values.
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);

  // Empty override list is a plain dense scan of the base.
  program.Eval(base, &want);
  program.EvalWithOverrides(base, nullptr, 0, &got);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(EvalProgramOverridesTest, RangeEvalCoversExactlyTheRequestedPolys) {
  VarPool pool;
  PolySet set = Parse(
      "P1 = x + 1\n"
      "P2 = 2 * x\n"
      "P3 = x * y\n"
      "P4 = 7\n",
      &pool);
  EvalProgram program(set);
  Valuation base(pool);
  const VarId x = pool.Find("x");
  std::vector<VarOverride> overrides = {{x, 3.0}};

  std::vector<double> want;
  program.EvalWithOverrides(base, overrides.data(), 1, &want);

  std::vector<double> got(program.NumPolys(), -1.0);
  program.EvalRangeWithOverrides(base, overrides.data(), 1, 1, 3, got.data());
  EXPECT_EQ(got[0], -1.0);  // outside the range: untouched
  EXPECT_EQ(got[1], want[1]);
  EXPECT_EQ(got[2], want[2]);
  EXPECT_EQ(got[3], -1.0);

  program.EvalRangeWithOverrides(base, overrides.data(), 1, 0, 1, got.data());
  program.EvalRangeWithOverrides(base, overrides.data(), 1, 3, 4, got.data());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(EvalProgramRemapTest, RemappedFactorsReadTheTargetVariable) {
  VarPool pool;
  PolySet set = Parse("P = 2 * x^2 * y + z\n", &pool);
  EvalProgram program(set);
  const VarId x = pool.Find("x");
  const VarId y = pool.Find("y");
  const VarId z = pool.Find("z");
  const VarId g = pool.Intern("G");

  // x and y both collapse to G; z stays itself.
  std::vector<VarId> remap(pool.size());
  for (VarId v = 0; v < remap.size(); ++v) remap[v] = v;
  remap[x] = g;
  remap[y] = g;
  EvalProgram remapped = program.RemapFactors(remap);
  EXPECT_EQ(remapped.NumPolys(), program.NumPolys());
  EXPECT_EQ(remapped.NumTerms(), program.NumTerms());
  EXPECT_EQ(remapped.MinValuationSize(), static_cast<std::size_t>(g) + 1);

  Valuation valuation(pool);
  valuation.Set(g, 3.0);
  valuation.Set(z, 0.5);
  valuation.Set(x, 100.0);  // dead after remapping
  std::vector<double> out;
  remapped.Eval(valuation, &out);
  ASSERT_EQ(out.size(), 1u);
  // 2 * G^2 * G + z = 2*27 + 0.5.
  EXPECT_DOUBLE_EQ(out[0], 54.5);
}

TEST(EvalProgramPartitionTest, BoundariesCoverAllPolysWithoutGaps) {
  VarPool pool;
  std::string text;
  for (int p = 0; p < 23; ++p) {
    text += "P" + std::to_string(p) + " = ";
    // Uneven weights: later polynomials carry more terms.
    for (int t = 0; t <= p % 7; ++t) {
      if (t > 0) text += " + ";
      text += std::to_string(t + 1) + " * x" + std::to_string(t);
    }
    text += "\n";
  }
  PolySet set = Parse(text, &pool);
  EvalProgram program(set);

  for (std::size_t parts : {1u, 2u, 5u, 23u, 100u}) {
    std::vector<std::uint32_t> bounds = program.PartitionPolys(parts);
    ASSERT_GE(bounds.size(), 2u) << parts;
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), program.NumPolys());
    EXPECT_LE(bounds.size() - 1, parts);
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      EXPECT_LT(bounds[i], bounds[i + 1]) << "empty range at " << i;
    }
  }

  // Degenerate programs still yield a single well-formed range.
  PolySet empty;
  EvalProgram empty_program(empty);
  std::vector<std::uint32_t> bounds = empty_program.PartitionPolys(4);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 0u);
}

TEST(EvalProgramOverridesTest, UndersizedBaseAbortsBeforeTouchingOutput) {
  VarPool pool;
  PolySet set = Parse("P = x * y + z\n", &pool);
  EvalProgram program(set);
  ASSERT_EQ(program.MinValuationSize(), 3u);

  Valuation small(static_cast<std::size_t>(2));
  std::vector<double> out{-1.0, -2.0};
  // Size validation now happens before *out is resized, so the abort fires
  // with the caller's buffer untouched.
  EXPECT_DEATH(program.EvalWithOverrides(small, nullptr, 0, &out),
               "valuation too small");
}

/// Builds a random polynomial set over `num_vars` pooled variables: uneven
/// term counts, coefficients of both signs, exponents up to 5 (so repeated
/// factors are exercised), plus occasional constant and empty polynomials.
PolySet RandomPolySet(util::Rng* rng, VarPool* pool, std::size_t num_vars,
                      std::size_t num_polys) {
  for (std::size_t v = 0; v < num_vars; ++v) {
    pool->Intern("x" + std::to_string(v));
  }
  std::string text;
  for (std::size_t p = 0; p < num_polys; ++p) {
    text += "P" + std::to_string(p) + " = ";
    const std::size_t terms = rng->NextBelow(7);
    if (terms == 0) {
      text += "0\n";
      continue;
    }
    for (std::size_t t = 0; t < terms; ++t) {
      const double coeff = rng->NextDoubleInRange(-4.0, 4.0);
      if (t == 0) {
        if (coeff < 0) text += "- ";
      } else {
        text += coeff < 0 ? " - " : " + ";
      }
      text += std::to_string(std::fabs(coeff));
      const std::size_t factors = rng->NextBelow(4);
      for (std::size_t f = 0; f < factors; ++f) {
        text += " * x" + std::to_string(rng->NextBelow(num_vars));
        if (rng->NextBool(0.3)) {
          text += "^" + std::to_string(rng->NextInRange(2, 5));
        }
      }
    }
    text += "\n";
  }
  return Parse(text, pool);
}

/// Builds a sorted, duplicate-free random override list over `num_vars`
/// variables; may be empty.
std::vector<VarOverride> RandomOverrides(util::Rng* rng,
                                         std::size_t num_vars) {
  std::vector<VarOverride> overrides;
  const std::size_t count = rng->NextBelow(5);
  for (std::size_t o = 0; o < count; ++o) {
    const VarId var = static_cast<VarId>(rng->NextBelow(num_vars));
    bool duplicate = false;
    for (const VarOverride& existing : overrides) {
      if (existing.var == var) duplicate = true;
    }
    if (!duplicate) {
      overrides.push_back({var, rng->NextDoubleInRange(0.0, 3.0)});
    }
  }
  std::sort(overrides.begin(), overrides.end(),
            [](const VarOverride& a, const VarOverride& b) {
              return a.var < b.var;
            });
  return overrides;
}

/// A one-block block program and the base sums it runs against: the
/// block's override rows, its touched program built through the program's
/// var→term index (exactly as the planner builds it), and the base sums.
struct OneBlock {
  BlockRows rows;
  TouchedPrograms touched;
  BaseSums sums;
};

OneBlock BuildBlock(const EvalProgram& program, const OverrideSpan* lanes,
                    std::size_t num_lanes, const Valuation& base) {
  OneBlock block;
  block.rows = BlockRows(std::span<const OverrideSpan>(lanes, num_lanes));
  block.touched =
      TouchedPrograms(program, VarTermIndex(program), block.rows);
  block.sums = program.BaseSumsUnder(base);
  return block;
}

/// The touched term ids of `block` of `touched`.
std::vector<std::uint32_t> TermIds(const TouchedPrograms& touched,
                                   std::size_t block) {
  std::vector<std::uint32_t> ids;
  for (const TouchedTerm& t : touched.terms(block)) ids.push_back(t.term);
  return ids;
}

// The blocked kernels run the AVX2 body exactly when the CPU has AVX2,
// except in the baseline-body test binary, which compiles the kernel source
// with COBRA_BLOCKED_BASELINE_ONLY and so has no AVX2 body to run.
TEST(BlockedKernelIsaTest, NamesTheBodyThisProcessRuns) {
#if defined(COBRA_BLOCKED_BASELINE_ONLY) || !defined(__x86_64__)
  EXPECT_STREQ(BlockedKernelIsa(), "baseline");
#else
  __builtin_cpu_init();
  EXPECT_STREQ(BlockedKernelIsa(),
               __builtin_cpu_supports("avx2") ? "avx2" : "baseline");
#endif
}

// The blocked kernel's contract: for every lane count (including ragged
// counts that pad up to the 16-wide kernel), every lane's results
// are bit-identical to the scalar sparse path with that lane's override
// list — including lanes with empty lists and overrides of variables that
// never appear in the program.
TEST(EvalProgramBlockedTest, BlockedLanesBitIdenticalToScalarRandomized) {
  util::Rng rng(20260730);
  for (int trial = 0; trial < 25; ++trial) {
    VarPool pool;
    const std::size_t num_vars = 4 + rng.NextBelow(16);
    const std::size_t num_polys = 1 + rng.NextBelow(10);
    PolySet set = RandomPolySet(&rng, &pool, num_vars, num_polys);
    EvalProgram program(set);
    Valuation base(pool);
    for (std::size_t v = 0; v < pool.size(); ++v) {
      base.Set(static_cast<VarId>(v), rng.NextDoubleInRange(0.25, 2.0));
    }

    for (std::size_t num_lanes :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 15u, 16u}) {
      std::vector<std::vector<VarOverride>> lane_lists(num_lanes);
      OverrideSpan spans[EvalProgram::kMaxLanes];
      for (std::size_t l = 0; l < num_lanes; ++l) {
        lane_lists[l] = RandomOverrides(&rng, pool.size());
        spans[l] = {lane_lists[l].data(), lane_lists[l].size()};
      }
      const OneBlock block = BuildBlock(program, spans, num_lanes, base);
      EXPECT_EQ(block.rows.num_lanes(0), num_lanes);
      EXPECT_EQ(block.rows.values(0).size(),
                block.rows.vars(0).size() * EvalProgram::kMaxLanes);
      EXPECT_EQ(block.rows.masks(0).size(), block.rows.values(0).size());

      const std::size_t polys = program.NumPolys();
      std::vector<double> blocked(num_lanes * polys, -1.0);
      program.EvalRangeBlocked(base, block.sums, block.rows, block.touched, 0,
                               0, polys, blocked.data(), polys);

      for (std::size_t l = 0; l < num_lanes; ++l) {
        std::vector<double> want;
        program.EvalWithOverrides(base, lane_lists[l].data(),
                                  lane_lists[l].size(), &want);
        for (std::size_t p = 0; p < polys; ++p) {
          EXPECT_EQ(blocked[l * polys + p], want[p])
              << "trial " << trial << " lanes " << num_lanes << " lane " << l
              << " poly " << p;
        }
      }
    }
  }
}

/// Bitwise double equality: bit-identity is the contract, so -0.0 vs +0.0
/// or two NaN payloads must not pass as equal.
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// A random program built straight from compiled arrays, so it holds what
/// the leaf→meta-remapped full-side program holds and the parser never
/// emits: a variable repeated non-adjacently inside one term, next to x^k
/// runs, constant (factor-free) terms and empty polynomials.
EvalProgram RandomCompiledProgram(util::Rng* rng, std::size_t num_vars,
                                  std::size_t num_polys) {
  std::vector<std::uint32_t> poly_starts = {0};
  std::vector<std::uint32_t> term_starts = {0};
  std::vector<double> coeffs;
  std::vector<VarId> factors;
  for (std::size_t p = 0; p < num_polys; ++p) {
    const std::size_t terms = rng->NextBool(0.15) ? 0 : 1 + rng->NextBelow(12);
    for (std::size_t t = 0; t < terms; ++t) {
      coeffs.push_back(rng->NextDoubleInRange(-3.0, 3.0));
      const std::size_t distinct = rng->NextBelow(5);  // 0: constant term
      for (std::size_t f = 0; f < distinct; ++f) {
        const VarId var = static_cast<VarId>(rng->NextBelow(num_vars));
        const std::size_t power =
            rng->NextBool(0.25)
                ? static_cast<std::size_t>(rng->NextInRange(2, 3))
                : 1;
        for (std::size_t e = 0; e < power; ++e) factors.push_back(var);
      }
      term_starts.push_back(static_cast<std::uint32_t>(factors.size()));
    }
    poly_starts.push_back(static_cast<std::uint32_t>(coeffs.size()));
  }
  return EvalProgram::FromParts(std::move(poly_starts), std::move(term_starts),
                                std::move(coeffs), std::move(factors))
      .ValueOrDie();
}

// The touched-term kernel against the scalar engine, bit for bit: random
// programs with repeated factors, constant terms and empty polynomials;
// every lane count 1-16; override lists that include variables outside
// every term and values equal to the base value; random poly sub-ranges
// (polys outside the range stay untouched) and random term slices. Every
// block's touched set comes from the var→term index, which must equal a
// brute-force scan of the factors, and every touched factor's row must be
// its variable's union row — including terms that mix union and other
// variables, with union variables no term reads. A polynomial the block
// does not touch returns its base value. Touching every term that has a
// factor (the no-skip case: each lane also overrides every other variable
// with its base value) must give the same bits.
TEST(EvalProgramBlockedTest, BlockedSubRangesBitIdenticalToScalarRandomized) {
  util::Rng rng(20260808);
  std::size_t constant_terms = 0;
  std::size_t repeated_factors = 0;
  std::size_t empty_polys = 0;
  std::size_t base_valued_overrides = 0;
  std::size_t touched_total = 0;
  std::size_t untouched_total = 0;
  std::size_t mixed_terms = 0;
  std::size_t unread_union_vars = 0;
  std::size_t untouched_polys = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t num_vars = 4 + rng.NextBelow(16);
    const EvalProgram program =
        RandomCompiledProgram(&rng, num_vars, 1 + rng.NextBelow(12));
    const std::vector<std::uint32_t>& poly_starts = program.poly_starts();
    const std::vector<std::uint32_t>& term_starts = program.term_starts();
    const std::vector<VarId>& factors = program.factors();
    for (std::size_t p = 0; p < program.NumPolys(); ++p) {
      empty_polys += poly_starts[p] == poly_starts[p + 1] ? 1 : 0;
    }
    for (std::size_t t = 0; t < program.NumTerms(); ++t) {
      constant_terms += term_starts[t] == term_starts[t + 1] ? 1 : 0;
      for (std::uint32_t f = term_starts[t] + 1; f < term_starts[t + 1]; ++f) {
        repeated_factors += std::count(factors.begin() + term_starts[t],
                                       factors.begin() + f, factors[f]) > 0
                                ? 1
                                : 0;
      }
    }
    Valuation base(num_vars);
    for (std::size_t v = 0; v < num_vars; ++v) {
      base.Set(static_cast<VarId>(v), rng.NextDoubleInRange(0.25, 2.0));
    }
    const VarTermIndex index(program);
    const BaseSums sums = program.BaseSumsUnder(base);

    for (std::size_t num_lanes = 1; num_lanes <= EvalProgram::kMaxLanes;
         ++num_lanes) {
      std::vector<std::vector<VarOverride>> lane_lists(num_lanes);
      std::vector<std::vector<VarOverride>> every_var(num_lanes);
      OverrideSpan spans[EvalProgram::kMaxLanes];
      OverrideSpan every_spans[EvalProgram::kMaxLanes];
      for (std::size_t l = 0; l < num_lanes; ++l) {
        lane_lists[l] = RandomOverrides(&rng, num_vars);
        for (VarOverride& ov : lane_lists[l]) {
          if (rng.NextBool(0.2)) {
            ov.value = base.Get(ov.var);
            ++base_valued_overrides;
          }
        }
        spans[l] = {lane_lists[l].data(), lane_lists[l].size()};
        std::size_t o = 0;
        for (VarId v = 0; v < num_vars; ++v) {
          const bool own = o < lane_lists[l].size() && lane_lists[l][o].var == v;
          every_var[l].push_back(own ? lane_lists[l][o++]
                                     : VarOverride{v, base.Get(v)});
        }
        every_spans[l] = {every_var[l].data(), every_var[l].size()};
      }
      const BlockRows rows(std::span<const OverrideSpan>(spans, num_lanes));
      const TouchedPrograms touched(program, index, rows);
      const BlockRows every_rows(
          std::span<const OverrideSpan>(every_spans, num_lanes));
      const TouchedPrograms every_touched(program, index, every_rows);

      const std::span<const VarId> vars = rows.vars(0);
      std::vector<std::uint32_t> brute;
      for (std::uint32_t t = 0; t < program.NumTerms(); ++t) {
        for (std::uint32_t f = term_starts[t]; f < term_starts[t + 1]; ++f) {
          if (std::binary_search(vars.begin(), vars.end(), factors[f])) {
            brute.push_back(t);
            break;
          }
        }
      }
      ASSERT_EQ(TermIds(touched, 0), brute)
          << "trial " << trial << " lanes " << num_lanes;
      for (const VarId var : vars) {
        unread_union_vars += index.Terms(var).empty() ? 1 : 0;
      }
      for (const TouchedTerm& entry : touched.terms(0)) {
        bool base_factor = false;
        for (std::uint32_t f = term_starts[entry.term];
             f < term_starts[entry.term + 1]; ++f) {
          base_factor = base_factor ||
                        !std::binary_search(vars.begin(), vars.end(),
                                            factors[f]);
        }
        mixed_terms += base_factor ? 1 : 0;
        for (std::uint32_t f = term_starts[entry.term];
             f < term_starts[entry.term + 1]; ++f) {
          const auto it = std::lower_bound(vars.begin(), vars.end(), factors[f]);
          const std::uint32_t want =
              it != vars.end() && *it == factors[f]
                  ? static_cast<std::uint32_t>(it - vars.begin())
                  : TouchedPrograms::kBaseRow;
          ASSERT_EQ(touched.factor_rows()[entry.rows + f -
                                          term_starts[entry.term]],
                    want)
              << "trial " << trial << " term " << entry.term;
        }
      }
      touched_total += brute.size();
      untouched_total += program.NumTerms() - brute.size();

      const std::size_t polys = program.NumPolys();
      const std::size_t begin = rng.NextBelow(polys);
      const std::size_t end = begin + 1 + rng.NextBelow(polys - begin);
      for (const bool every : {false, true}) {
        std::vector<double> blocked(num_lanes * polys, -1.0);
        program.EvalRangeBlocked(base, sums, every ? every_rows : rows,
                                 every ? every_touched : touched, 0, begin,
                                 end, blocked.data(), polys);
        for (std::size_t l = 0; l < num_lanes; ++l) {
          std::vector<double> want(polys, -1.0);
          program.EvalRangeWithOverrides(base, lane_lists[l].data(),
                                         lane_lists[l].size(), begin, end,
                                         want.data());
          for (std::size_t p = 0; p < polys; ++p) {
            EXPECT_TRUE(SameBits(blocked[l * polys + p], want[p]))
                << "trial " << trial << " lanes " << num_lanes << " lane " << l
                << " poly " << p << " [" << begin << ", " << end << ") "
                << (every ? "every variable" : "touched") << ": "
                << blocked[l * polys + p] << " vs " << want[p];
          }
        }
        // A polynomial without a touched term reads its base value.
        for (std::size_t p = begin; p < end && !every; ++p) {
          const bool hit = std::any_of(
              brute.begin(), brute.end(), [&](std::uint32_t t) {
                return t >= poly_starts[p] && t < poly_starts[p + 1];
              });
          if (hit) continue;
          ++untouched_polys;
          for (std::size_t l = 0; l < num_lanes; ++l) {
            EXPECT_TRUE(SameBits(blocked[l * polys + p], sums.values[p]))
                << "trial " << trial << " poly " << p;
          }
        }
      }

      // Term-range kernel: a random slice of one polynomial's terms.
      const std::size_t poly = rng.NextBelow(polys);
      const std::uint32_t first = poly_starts[poly];
      const std::uint32_t last = poly_starts[poly + 1];
      if (first == last) continue;
      const std::uint32_t term_begin =
          first + static_cast<std::uint32_t>(rng.NextBelow(last - first));
      const std::uint32_t term_end =
          term_begin + 1 +
          static_cast<std::uint32_t>(rng.NextBelow(last - term_begin));
      for (const bool every : {false, true}) {
        double partials[EvalProgram::kMaxLanes];
        program.EvalTermRangeBlocked(base, sums, every ? every_rows : rows,
                                     every ? every_touched : touched, 0,
                                     term_begin, term_end, partials, 1);
        for (std::size_t l = 0; l < num_lanes; ++l) {
          const double want = program.EvalTermRangeWithOverrides(
              base, lane_lists[l].data(), lane_lists[l].size(), term_begin,
              term_end);
          EXPECT_TRUE(SameBits(partials[l], want))
              << "trial " << trial << " lanes " << num_lanes << " lane " << l
              << " terms [" << term_begin << ", " << term_end << ") "
              << (every ? "every variable" : "touched");
        }
      }
    }
  }
  // The random inputs must actually exercise every case named above.
  EXPECT_GT(constant_terms, 0u);
  EXPECT_GT(repeated_factors, 0u);
  EXPECT_GT(empty_polys, 0u);
  EXPECT_GT(base_valued_overrides, 0u);
  EXPECT_GT(touched_total, 0u);
  EXPECT_GT(untouched_total, 0u);
  EXPECT_GT(mixed_terms, 0u);
  EXPECT_GT(unread_union_vars, 0u);
  EXPECT_GT(untouched_polys, 0u);
}

// The var→term index lists a term once per variable however often the
// variable repeats inside it (x^3, or non-adjacent as after a leaf→meta
// remap), and nothing for ids the program never references. A block's
// touched program built through it lists its union's terms ascending, with
// every factor's union row or kBaseRow, and a block whose union equals the
// previous block's shares that program. Term products are each term's
// scalar product.
TEST(VarTermIndexTest, ListsEachTermOncePerVariable) {
  // P0 = 2*x0^3*x1 + 3*x2*x0, P1 = 5, P2 = 1*x1*x2*x1.
  const EvalProgram program =
      EvalProgram::FromParts({0, 2, 3, 4}, {0, 4, 6, 6, 9},
                             {2.0, 3.0, 5.0, 1.0}, {0, 0, 0, 1, 2, 0, 1, 2, 1})
          .ValueOrDie();
  const VarTermIndex index(program);
  auto terms = [&](VarId var) {
    const std::span<const std::uint32_t> list = index.Terms(var);
    return std::vector<std::uint32_t>(list.begin(), list.end());
  };
  EXPECT_EQ(terms(0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(terms(1), (std::vector<std::uint32_t>{0, 3}));
  EXPECT_EQ(terms(2), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_TRUE(index.Terms(3).empty());
  EXPECT_TRUE(index.Terms(1000).empty());

  // Blocks with unions {0, 7}, {1, 2}, {1, 2} again, and {} (one lane).
  const std::vector<VarOverride> a0 = {{0, 2.0}}, a1 = {{7, 3.0}};
  const std::vector<VarOverride> b0 = {{1, 2.0}, {2, 0.5}}, b1 = {{2, 4.0}};
  std::vector<OverrideSpan> lanes(3 * EvalProgram::kMaxLanes + 1);
  lanes[0] = {a0.data(), a0.size()};
  lanes[1] = {a1.data(), a1.size()};
  lanes[EvalProgram::kMaxLanes] = {b0.data(), b0.size()};
  lanes[EvalProgram::kMaxLanes + 1] = {b1.data(), b1.size()};
  lanes[2 * EvalProgram::kMaxLanes] = {b1.data(), b1.size()};
  lanes[2 * EvalProgram::kMaxLanes + 1] = {b0.data(), b0.size()};
  const BlockRows rows(lanes);
  ASSERT_EQ(rows.num_blocks(), 4u);
  EXPECT_EQ(rows.num_lanes(2), EvalProgram::kMaxLanes);
  EXPECT_EQ(rows.num_lanes(3), 1u);
  const TouchedPrograms touched(program, index, rows);
  EXPECT_EQ(TermIds(touched, 0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(TermIds(touched, 1), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(TermIds(touched, 2), TermIds(touched, 1));
  EXPECT_TRUE(TermIds(touched, 3).empty());
  EXPECT_EQ(touched.block_programs(),
            (std::vector<std::uint32_t>{0, 1, 1, 2}));
  EXPECT_EQ(touched.num_programs(), 3u);
  // Rows: union {0, 7} puts x0 at row 0; union {1, 2} x1 at 0 and x2 at 1.
  constexpr std::uint32_t kBase = TouchedPrograms::kBaseRow;
  auto rows_of = [&](std::size_t block, std::size_t i) {
    const TouchedTerm entry = touched.terms(block)[i];
    const std::size_t width = program.term_starts()[entry.term + 1] -
                              program.term_starts()[entry.term];
    return std::vector<std::uint32_t>(
        touched.factor_rows().begin() + entry.rows,
        touched.factor_rows().begin() + entry.rows + width);
  };
  EXPECT_EQ(rows_of(0, 0), (std::vector<std::uint32_t>{0, 0, 0, kBase}));
  EXPECT_EQ(rows_of(0, 1), (std::vector<std::uint32_t>{kBase, 0}));
  EXPECT_EQ(rows_of(1, 0), (std::vector<std::uint32_t>{kBase, kBase, kBase, 0}));
  EXPECT_EQ(rows_of(1, 1), (std::vector<std::uint32_t>{1, kBase}));
  EXPECT_EQ(rows_of(1, 2), (std::vector<std::uint32_t>{0, 1, 0}));

  // A touched set spread over several bitmap words comes out ascending:
  // 200 terms x_i, union {150, 5} given in that order.
  std::vector<std::uint32_t> starts(201);
  std::vector<VarId> single(200);
  for (std::uint32_t t = 0; t <= 200; ++t) starts[t] = t;
  for (std::uint32_t t = 0; t < 200; ++t) single[t] = t;
  const EvalProgram wide =
      EvalProgram::FromParts({0, 200}, starts, std::vector<double>(200, 1.0),
                             single)
          .ValueOrDie();
  const std::vector<VarOverride> far = {{150, 2.0}}, near = {{5, 2.0}};
  const OverrideSpan spread[] = {{far.data(), far.size()},
                                 {near.data(), near.size()}};
  const BlockRows spread_rows(spread);
  EXPECT_EQ(TermIds(TouchedPrograms(wide, VarTermIndex(wide), spread_rows), 0),
            (std::vector<std::uint32_t>{5, 150}));

  Valuation base(3);
  base.Set(0, 1.5);
  base.Set(1, 0.75);
  base.Set(2, 1.25);
  const std::vector<double> products = program.TermProducts(base);
  ASSERT_EQ(products.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(products[t],
              program.EvalTermRangeWithOverrides(base, nullptr, 0, t, t + 1))
        << "term " << t;
  }
}

// A union whose ids span far apart — the two ends of a large pool — must
// resolve each factor's row as exactly as a narrow one: every lane stays
// bit-identical to the scalar sparse path.
TEST(EvalProgramBlockedTest, WideIdSpanUnionMatchesScalar) {
  const VarId far = 12288;
  // One polynomial: 2*x0*x_far + 3*x_far, plus one untouched poly 5*x1.
  EvalProgram program =
      EvalProgram::FromParts({0, 2, 3}, {0, 2, 3, 4}, {2.0, 3.0, 5.0},
                             {0, far, far, 1})
          .ValueOrDie();
  Valuation base(static_cast<std::size_t>(far) + 1);
  for (std::size_t v = 0; v <= far; ++v) {
    base.Set(static_cast<VarId>(v), 1.0 + 1e-6 * static_cast<double>(v % 97));
  }

  std::vector<VarOverride> lane0 = {{0, 0.5}};          // narrow end
  std::vector<VarOverride> lane1 = {{far, 2.25}};       // far end
  std::vector<VarOverride> lane2 = {{0, 3.0}, {far, 0.125}};
  OverrideSpan spans[EvalProgram::kMaxLanes] = {
      {lane0.data(), lane0.size()},
      {lane1.data(), lane1.size()},
      {lane2.data(), lane2.size()}};
  const OneBlock wide = BuildBlock(program, spans, 3, base);
  EXPECT_EQ(wide.rows.vars(0).size(), 2u);

  const std::size_t polys = program.NumPolys();
  std::vector<double> blocked(3 * polys, -1.0);
  program.EvalRangeBlocked(base, wide.sums, wide.rows, wide.touched, 0, 0,
                           polys, blocked.data(), polys);
  const std::vector<VarOverride>* lanes[] = {&lane0, &lane1, &lane2};
  for (std::size_t l = 0; l < 3; ++l) {
    std::vector<double> want;
    program.EvalWithOverrides(base, lanes[l]->data(), lanes[l]->size(),
                              &want);
    for (std::size_t p = 0; p < polys; ++p) {
      EXPECT_EQ(blocked[l * polys + p], want[p]) << "lane " << l;
    }
  }

  // A narrow union over the same base agrees too.
  std::vector<VarOverride> near0 = {{0, 0.5}};
  std::vector<VarOverride> near1 = {{1, 4.0}};
  OverrideSpan near_spans[EvalProgram::kMaxLanes] = {
      {near0.data(), near0.size()}, {near1.data(), near1.size()}};
  const OneBlock narrow = BuildBlock(program, near_spans, 2, base);
  std::vector<double> narrow_out(2 * polys, -1.0);
  program.EvalRangeBlocked(base, narrow.sums, narrow.rows, narrow.touched, 0,
                           0, polys, narrow_out.data(), polys);
  const std::vector<VarOverride>* near_lanes[] = {&near0, &near1};
  for (std::size_t l = 0; l < 2; ++l) {
    std::vector<double> want;
    program.EvalWithOverrides(base, near_lanes[l]->data(),
                              near_lanes[l]->size(), &want);
    for (std::size_t p = 0; p < polys; ++p) {
      EXPECT_EQ(narrow_out[l * polys + p], want[p]) << "lane " << l;
    }
  }
}

TEST(EvalProgramBlockedTest, SubRangesComposeToWholeProgram) {
  util::Rng rng(7);
  VarPool pool;
  PolySet set = RandomPolySet(&rng, &pool, 10, 9);
  EvalProgram program(set);
  Valuation base(pool);
  std::vector<VarOverride> ov = {{1, 0.5}, {3, 2.5}};
  OverrideSpan spans[2] = {{ov.data(), ov.size()}, {nullptr, 0}};
  const OneBlock block = BuildBlock(program, spans, 2, base);

  const std::size_t polys = program.NumPolys();
  std::vector<double> whole(2 * polys, 0.0);
  program.EvalRangeBlocked(base, block.sums, block.rows, block.touched, 0, 0,
                           polys, whole.data(), polys);

  std::vector<double> pieces(2 * polys, 0.0);
  const std::vector<std::uint32_t> bounds = program.PartitionPolys(4);
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
    program.EvalRangeBlocked(base, block.sums, block.rows, block.touched, 0,
                             bounds[r], bounds[r + 1], pieces.data(), polys);
  }
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(pieces[i], whole[i]);
  }
}

TEST(EvalProgramTermRangeTest, WholePolyTermRangeMatchesRangeEval) {
  util::Rng rng(11);
  VarPool pool;
  PolySet set = RandomPolySet(&rng, &pool, 8, 6);
  EvalProgram program(set);
  Valuation base(pool);
  std::vector<VarOverride> ov = {{0, 1.7}, {2, 0.4}};

  std::vector<double> want;
  program.EvalWithOverrides(base, ov.data(), ov.size(), &want);
  for (std::size_t p = 0; p < program.NumPolys(); ++p) {
    const std::vector<std::uint32_t> whole = program.PartitionTerms(p, 1);
    ASSERT_EQ(whole.size(), 2u);
    // One slice = the same additions in the same order: bit-identical.
    EXPECT_EQ(program.EvalTermRangeWithOverrides(base, ov.data(), ov.size(),
                                                 whole[0], whole[1]),
              want[p])
        << "poly " << p;
  }
}

TEST(EvalProgramTermRangeTest, PartitionTermsBoundsWellFormed) {
  util::Rng rng(13);
  VarPool pool;
  PolySet set = RandomPolySet(&rng, &pool, 8, 5);
  EvalProgram program(set);
  for (std::size_t p = 0; p < program.NumPolys(); ++p) {
    for (std::size_t parts : {1u, 2u, 3u, 64u}) {
      const std::vector<std::uint32_t> bounds =
          program.PartitionTerms(p, parts);
      ASSERT_GE(bounds.size(), 2u);
      for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        EXPECT_LE(bounds[i], bounds[i + 1]);
      }
      EXPECT_LE(bounds.size() - 1, std::max<std::size_t>(parts, 1));
    }
  }
}

TEST(EvalProgramTermRangeTest, SlicedPartialsReduceToPolyValue) {
  VarPool pool;
  // One long polynomial so multi-slice splits are non-trivial.
  std::string text = "P = ";
  for (int t = 0; t < 40; ++t) {
    if (t > 0) text += " + ";
    text += std::to_string(t + 1) + " * x" + std::to_string(t % 7);
    if (t % 3 == 0) text += "^2";
  }
  text += "\n";
  PolySet set = Parse(text, &pool);
  EvalProgram program(set);
  Valuation base(pool);
  std::vector<VarOverride> ov = {{1, 0.9}, {4, 1.3}};
  std::vector<double> want;
  program.EvalWithOverrides(base, ov.data(), ov.size(), &want);

  for (std::size_t parts : {2u, 3u, 8u}) {
    const std::vector<std::uint32_t> bounds = program.PartitionTerms(0, parts);
    double reduced = 0.0;
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      reduced += program.EvalTermRangeWithOverrides(base, ov.data(), ov.size(),
                                                    bounds[k], bounds[k + 1]);
    }
    // The fixed-order reduction may regroup additions, so compare to within
    // a tight relative tolerance, and check it is exactly reproducible.
    EXPECT_NEAR(reduced, want[0], 1e-9 * std::abs(want[0]));
    double again = 0.0;
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      again += program.EvalTermRangeWithOverrides(base, ov.data(), ov.size(),
                                                  bounds[k], bounds[k + 1]);
    }
    EXPECT_EQ(again, reduced);
  }
}

TEST(EvalProgramTermRangeTest, BlockedTermRangeMatchesScalarPartials) {
  util::Rng rng(17);
  VarPool pool;
  PolySet set = RandomPolySet(&rng, &pool, 12, 4);
  EvalProgram program(set);
  Valuation base(pool);
  for (std::size_t v = 0; v < pool.size(); ++v) {
    base.Set(static_cast<VarId>(v), rng.NextDoubleInRange(0.5, 1.5));
  }
  std::vector<std::vector<VarOverride>> lane_lists(5);
  OverrideSpan spans[EvalProgram::kMaxLanes];
  for (std::size_t l = 0; l < lane_lists.size(); ++l) {
    lane_lists[l] = RandomOverrides(&rng, pool.size());
    spans[l] = {lane_lists[l].data(), lane_lists[l].size()};
  }
  const OneBlock block = BuildBlock(program, spans, lane_lists.size(), base);

  for (std::size_t p = 0; p < program.NumPolys(); ++p) {
    const std::vector<std::uint32_t> bounds = program.PartitionTerms(p, 3);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      double partials[EvalProgram::kMaxLanes];
      program.EvalTermRangeBlocked(base, block.sums, block.rows,
                                   block.touched, 0, bounds[k], bounds[k + 1],
                                   partials, 1);
      for (std::size_t l = 0; l < lane_lists.size(); ++l) {
        EXPECT_EQ(partials[l],
                  program.EvalTermRangeWithOverrides(
                      base, lane_lists[l].data(), lane_lists[l].size(),
                      bounds[k], bounds[k + 1]))
            << "poly " << p << " slice " << k << " lane " << l;
      }
    }
  }
}

TEST(EvalProgramDominantPolyTest, FindsDominantAndRespectsMinTerms) {
  VarPool pool;
  std::string text = "Small1 = x + y\nSmall2 = 2 * x\nBig = ";
  // Distinct monomials (the parser merges identical ones).
  for (int t = 0; t < 50; ++t) {
    if (t > 0) text += " + ";
    text += std::to_string(t + 1) + " * v" + std::to_string(t) + " * y";
  }
  text += "\n";
  PolySet set = Parse(text, &pool);
  EvalProgram program(set);

  EXPECT_EQ(program.DominantPoly(1), 2u);
  EXPECT_EQ(program.DominantPoly(50), 2u);
  EXPECT_EQ(program.DominantPoly(51), program.NumPolys());  // too few terms
  EXPECT_EQ(program.DominantPoly(0), program.NumPolys());   // disabled

  // A balanced program has no dominant polynomial.
  VarPool pool2;
  PolySet balanced = Parse("A = x + y\nB = 2 * x + z\nC = y + z\n", &pool2);
  EvalProgram balanced_program(balanced);
  EXPECT_EQ(balanced_program.DominantPoly(1), balanced_program.NumPolys());
}

}  // namespace
}  // namespace cobra::prov
