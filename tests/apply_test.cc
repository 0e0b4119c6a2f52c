// Tests for ApplyCut: substitution, meta-variable bookkeeping, merging,
// and the paper's default meta-valuation (average of abstracted values).

#include "core/apply.h"

#include <gtest/gtest.h>

#include "data/example_db.h"
#include "prov/parser.h"

namespace cobra::core {
namespace {

class ApplyTest : public ::testing::Test {
 protected:
  void Load() {
    tree_ = ParseTree(data::kFigure2TreeText, &pool_).ValueOrDie();
    polys_ = prov::ParsePolySet(data::kExamplePolynomialsText, &pool_)
                 .ValueOrDie();
  }

  prov::Polynomial Parse(const char* text) {
    return prov::ParsePolynomial(text, &pool_).ValueOrDie();
  }

  prov::VarPool pool_;
  AbstractionTree tree_;
  prov::PolySet polys_;
};

TEST_F(ApplyTest, Example4CutS1OnP1) {
  Load();
  Cut s1 = Cut::FromNames(tree_, {"Business", "Special", "Standard"})
               .ValueOrDie();
  Abstraction abs = ApplyCut(polys_, tree_, s1, &pool_).ValueOrDie();
  // Paper: P1 under S1 (St=Standard, Sp=Special):
  // 208.8*St*m1 + 240*St*m3 + 245.3*Sp*m1 + 211.15*Sp*m3.
  const prov::Polynomial& p1 = abs.compressed.poly(0);
  EXPECT_EQ(p1.NumMonomials(), 4u);
  EXPECT_TRUE(p1.AlmostEquals(
      Parse("208.8 * Standard * m1 + 240 * Standard * m3 + "
            "245.3 * Special * m1 + 211.15 * Special * m3"),
      1e-9));
  EXPECT_EQ(p1.Variables().size(), 4u);  // St, Sp, m1, m3
}

TEST_F(ApplyTest, Example4CutS5CollapsesToTwoMonomials) {
  Load();
  Cut s5 = Cut::FromNames(tree_, {"Plans"}).ValueOrDie();
  Abstraction abs = ApplyCut(polys_, tree_, s5, &pool_).ValueOrDie();
  const prov::Polynomial& p1 = abs.compressed.poly(0);
  // Paper prints 466.1*Plans*m1 + 451.15*Plans*m3 (two monomials, three
  // variables). The m1 coefficient as printed is a typo: the P1 m1
  // coefficients sum to 208.8+127.4+75.9+42 = 454.1 (the m3 figure 451.15
  // is exact).
  EXPECT_EQ(p1.NumMonomials(), 2u);
  EXPECT_TRUE(p1.AlmostEquals(
      Parse("454.1 * Plans * m1 + 451.15 * Plans * m3"), 1e-9));
  EXPECT_EQ(p1.Variables().size(), 3u);
}

TEST_F(ApplyTest, LeafCutIsIdentity) {
  Load();
  Abstraction abs =
      ApplyCut(polys_, tree_, Cut::Leaves(tree_), &pool_).ValueOrDie();
  EXPECT_EQ(abs.compressed.poly(0), polys_.poly(0));
  EXPECT_EQ(abs.compressed.poly(1), polys_.poly(1));
  EXPECT_EQ(abs.compressed_size, 14u);
  // Leaf meta-vars keep their original variables.
  for (const MetaVar& mv : abs.meta_vars) {
    EXPECT_EQ(mv.leaves.size(), 1u);
    EXPECT_EQ(mv.var, mv.leaves[0]);
  }
}

TEST_F(ApplyTest, MetaVarBookkeeping) {
  Load();
  Cut s1 = Cut::FromNames(tree_, {"Business", "Special", "Standard"})
               .ValueOrDie();
  Abstraction abs = ApplyCut(polys_, tree_, s1, &pool_).ValueOrDie();
  ASSERT_EQ(abs.meta_vars.size(), 3u);
  // Cut nodes are sorted by id; find "Business".
  const MetaVar* business = nullptr;
  for (const MetaVar& mv : abs.meta_vars) {
    if (mv.name == "Business") business = &mv;
  }
  ASSERT_NE(business, nullptr);
  EXPECT_EQ(business->leaves.size(), 3u);  // b1, b2, e
  EXPECT_EQ(pool_.Name(business->var), "Business");
  // Mapping sends b1 to the Business meta-variable.
  EXPECT_EQ(abs.mapping[pool_.Find("b1")], business->var);
  // Off-tree variables map to themselves.
  EXPECT_EQ(abs.mapping[pool_.Find("m1")], pool_.Find("m1"));
}

TEST_F(ApplyTest, InvalidCutRejected) {
  Load();
  Cut bad({tree_.FindByName("Business")});
  EXPECT_FALSE(ApplyCut(polys_, tree_, bad, &pool_).ok());
}

TEST_F(ApplyTest, DefaultMetaValuationAveragesLeaves) {
  Load();
  Cut s1 = Cut::FromNames(tree_, {"Business", "Special", "Standard"})
               .ValueOrDie();
  Abstraction abs = ApplyCut(polys_, tree_, s1, &pool_).ValueOrDie();

  prov::Valuation base(pool_);
  base.SetByName(pool_, "b1", 2.0).CheckOK();
  base.SetByName(pool_, "b2", 4.0).CheckOK();
  base.SetByName(pool_, "e", 6.0).CheckOK();
  base.SetByName(pool_, "m1", 0.5).CheckOK();

  prov::Valuation defaults = abs.DefaultMetaValuation(base);
  // Business = avg(2, 4, 6) = 4.
  EXPECT_DOUBLE_EQ(defaults.Get(pool_.Find("Business")), 4.0);
  // Special = avg of six 1.0 defaults = 1.
  EXPECT_DOUBLE_EQ(defaults.Get(pool_.Find("Special")), 1.0);
  // Off-tree variables keep their base value.
  EXPECT_DOUBLE_EQ(defaults.Get(pool_.Find("m1")), 0.5);
}

TEST_F(ApplyTest, CompressedEvalEqualsFullEvalUnderExpansion) {
  Load();
  Cut s1 = Cut::FromNames(tree_, {"Business", "Special", "Standard"})
               .ValueOrDie();
  Abstraction abs = ApplyCut(polys_, tree_, s1, &pool_).ValueOrDie();
  // Assign meta values; expand to leaves; both sides must agree exactly —
  // compression loses granularity, not correctness, for uniform scenarios.
  prov::Valuation meta(pool_.size());
  meta.SetByName(pool_, "Business", 1.10).CheckOK();
  meta.SetByName(pool_, "Special", 0.90).CheckOK();
  meta.SetByName(pool_, "Standard", 1.25).CheckOK();
  meta.SetByName(pool_, "m3", 0.80).CheckOK();
  prov::Valuation full = meta;
  for (const MetaVar& mv : abs.meta_vars) {
    for (prov::VarId leaf : mv.leaves) full.Set(leaf, meta.Get(mv.var));
  }
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    EXPECT_NEAR(polys_.poly(i).Eval(full), abs.compressed.poly(i).Eval(meta),
                1e-9);
  }
}

}  // namespace
}  // namespace cobra::core
