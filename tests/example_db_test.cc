// Experiment E1 + E2 as tests: the Figure 1 database reproduces the exact
// polynomials P1/P2 of Example 2 through the engine, and the five cuts of
// Example 4 reproduce the paper's sizes and variable counts.

#include "data/example_db.h"

#include <gtest/gtest.h>

#include <ostream>

#include "core/apply.h"
#include "core/profile.h"
#include "prov/parser.h"
#include "rel/sql/planner.h"

namespace cobra::data {
namespace {

class ExampleDbTest : public ::testing::Test {
 protected:
  ExampleDbTest() : db_(BuildExampleDatabase()) {
    InstrumentExampleDb(&db_).CheckOK();
  }

  prov::PolySet QueryProvenance() {
    return rel::sql::RunSql(db_, kExampleRevenueQuery)
        .ValueOrDie()
        .Provenance();
  }

  rel::Database db_;
};

TEST_F(ExampleDbTest, TablesMatchFigure1Shape) {
  EXPECT_EQ(db_.GetTable("Cust").ValueOrDie()->NumRows(), 7u);
  EXPECT_EQ(db_.GetTable("Calls").ValueOrDie()->NumRows(), 14u);
  EXPECT_EQ(db_.GetTable("Plans").ValueOrDie()->NumRows(), 14u);
}

TEST_F(ExampleDbTest, PlansAnnotationsArePlanTimesMonth) {
  const rel::AnnotatedTable& plans = *db_.GetTable("Plans").ValueOrDie();
  // First row is (A, 1, 0.4) -> annotation p1 * m1.
  prov::VarPool* pool = db_.mutable_var_pool();
  EXPECT_EQ(plans.Annotation(0),
            prov::ParsePolynomial("p1 * m1", pool).ValueOrDie());
}

// ---- E1: the engine reproduces Example 2 byte for byte ----

TEST_F(ExampleDbTest, E1_QueryReproducesP1AndP2Exactly) {
  prov::PolySet computed = QueryProvenance();
  ASSERT_EQ(computed.size(), 2u);

  prov::VarPool* pool = db_.mutable_var_pool();
  prov::PolySet expected =
      prov::ParsePolySet(kExamplePolynomialsText, pool).ValueOrDie();

  std::size_t p1 = computed.FindLabel("10001");
  std::size_t p2 = computed.FindLabel("10002");
  ASSERT_NE(p1, prov::PolySet::npos);
  ASSERT_NE(p2, prov::PolySet::npos);
  EXPECT_TRUE(computed.poly(p1).AlmostEquals(expected.poly(0), 1e-9))
      << computed.poly(p1).ToString(*pool);
  EXPECT_TRUE(computed.poly(p2).AlmostEquals(expected.poly(1), 1e-9))
      << computed.poly(p2).ToString(*pool);
  EXPECT_EQ(computed.TotalMonomials(), 14u);
}

TEST_F(ExampleDbTest, E1_SpecificCoefficients) {
  prov::PolySet computed = QueryProvenance();
  prov::VarPool* pool = db_.mutable_var_pool();
  const prov::Polynomial& p1 = computed.poly(computed.FindLabel("10001"));
  // 522 minutes * 0.4 ppm = 208.8 on p1*m1 (customer 1, month 1).
  prov::Monomial p1m1 =
      prov::Monomial::Of(pool->Find("p1"), pool->Find("m1"));
  EXPECT_NEAR(p1.CoefficientOf(p1m1), 208.8, 1e-9);
  // 480 * 0.5 = 240 on p1*m3.
  prov::Monomial p1m3 =
      prov::Monomial::Of(pool->Find("p1"), pool->Find("m3"));
  EXPECT_NEAR(p1.CoefficientOf(p1m3), 240.0, 1e-9);
  const prov::Polynomial& p2 = computed.poly(computed.FindLabel("10002"));
  // 671 * 0.15 = 100.65 on b2*m3 (customer 7, month 3).
  prov::Monomial b2m3 =
      prov::Monomial::Of(pool->Find("b2"), pool->Find("m3"));
  EXPECT_NEAR(p2.CoefficientOf(b2m3), 100.65, 1e-9);
}

// ---- E2: Example 4's cut table ----

struct CutCase {
  const char* name;
  std::vector<std::string> nodes;
  std::size_t p1_monomials;  // size of compressed P1
  std::size_t p1_variables;  // #distinct vars in compressed P1
  std::size_t total_monomials;  // P1 + P2
};

// Without a printer gtest lists the raw bytes of the case, `name`'s address
// included, so the listed test names would change from one run to the next.
void PrintTo(const CutCase& c, std::ostream* os) { *os << c.name; }

class Example4Cuts : public ::testing::TestWithParam<CutCase> {};

TEST_P(Example4Cuts, ReproducesPaperSizeAndVariables) {
  const CutCase& c = GetParam();
  prov::VarPool pool;
  core::AbstractionTree tree =
      core::ParseTree(kFigure2TreeText, &pool).ValueOrDie();
  prov::PolySet polys =
      prov::ParsePolySet(kExamplePolynomialsText, &pool).ValueOrDie();
  core::Cut cut = core::Cut::FromNames(tree, c.nodes).ValueOrDie();
  core::Abstraction abs =
      core::ApplyCut(polys, tree, cut, &pool).ValueOrDie();
  EXPECT_EQ(abs.compressed.poly(0).NumMonomials(), c.p1_monomials);
  EXPECT_EQ(abs.compressed.poly(0).Variables().size(), c.p1_variables);
  EXPECT_EQ(abs.compressed_size, c.total_monomials);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCuts, Example4Cuts,
    ::testing::Values(
        // S1: paper says P1 -> 4 monomials, 4 variables; P2 collapses to 2
        // (b1, b2, e share the {m1, m3} residues), total 6.
        CutCase{"S1", {"Business", "Special", "Standard"}, 4, 4, 6},
        // S2: {SB, e, f1, f2, Y, v, Standard}; P2 under SB+e -> 4.
        CutCase{"S2", {"SB", "e", "f1", "f2", "Y", "v", "Standard"}, 8, 6, 12},
        // S3: {b1, b2, e, Special, Standard}: P2 unchanged (6).
        CutCase{"S3", {"b1", "b2", "e", "Special", "Standard"}, 4, 4, 10},
        // S4: {SB, e, F, Y, v, p1, p2}.
        CutCase{"S4", {"SB", "e", "F", "Y", "v", "p1", "p2"}, 8, 6, 12},
        // S5: paper says P1 -> 2 monomials, 3 variables.
        CutCase{"S5", {"Plans"}, 2, 3, 4}),
    [](const ::testing::TestParamInfo<CutCase>& info) {
      return info.param.name;
    });

TEST(Example4Math, S1CoefficientsMatchPaperText) {
  // The paper prints: 208.8·St·m1 + 240·St·m3 + 245.3·Sp·m1 + 211.15·Sp·m3.
  // 245.3 = 127.4 + 75.9 + 42 ; 211.15 = 114.45 + 72.5 + 24.2.
  EXPECT_NEAR(127.4 + 75.9 + 42.0, 245.3, 1e-9);
  EXPECT_NEAR(114.45 + 72.5 + 24.2, 211.15, 1e-9);
  // S5: 466.1 = 208.8 + 245.3 + (implicitly 0 from P2? no — P1 only); check
  // P1's m1 total and m3 total as printed.
  EXPECT_NEAR(208.8 + 127.4 + 75.9 + 42.0, 454.1, 1e-9);
  // The paper prints 466.1 for the S5 m1-coefficient, but the sum of the
  // printed P1 m1-coefficients is 454.1 (the m3 figure, 451.15, checks out
  // exactly: 240 + 114.45 + 72.5 + 24.2). We treat 466.1 as a typo in the
  // demo text and assert the arithmetically consistent value.
  prov::VarPool pool;
  core::AbstractionTree tree =
      core::ParseTree(kFigure2TreeText, &pool).ValueOrDie();
  prov::PolySet polys =
      prov::ParsePolySet(kExamplePolynomialsText, &pool).ValueOrDie();
  core::Cut s5 = core::Cut::FromNames(tree, {"Plans"}).ValueOrDie();
  core::Abstraction abs =
      core::ApplyCut(polys, tree, s5, &pool).ValueOrDie();
  prov::VarId plans = pool.Find("Plans");
  prov::VarId m1 = pool.Find("m1");
  EXPECT_NEAR(abs.compressed.poly(0).CoefficientOf(
                  prov::Monomial::Of(plans, m1)),
              454.1, 1e-9);
}

}  // namespace
}  // namespace cobra::data
