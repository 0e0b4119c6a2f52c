// Experiment E2 — Example 4 / Figure 2 of the paper.
//
// Regenerates the cut table of Example 4: for each of the five named cuts
// S1..S5 of the Figure 2 abstraction tree, the compressed size and number
// of distinct variables on P1 alone and on the full {P1, P2} multiset.
// Micro-benchmarks cut application and enumeration.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/apply.h"
#include "core/cut.h"
#include "core/profile.h"
#include "core/tree.h"
#include "data/example_db.h"
#include "prov/parser.h"

namespace {

using namespace cobra;

struct NamedCut {
  const char* name;
  std::vector<std::string> nodes;
};

const std::vector<NamedCut>& PaperCuts() {
  static const std::vector<NamedCut>* kCuts = new std::vector<NamedCut>{
      {"S1", {"Business", "Special", "Standard"}},
      {"S2", {"SB", "e", "f1", "f2", "Y", "v", "Standard"}},
      {"S3", {"b1", "b2", "e", "Special", "Standard"}},
      {"S4", {"SB", "e", "F", "Y", "v", "p1", "p2"}},
      {"S5", {"Plans"}}};
  return *kCuts;
}

void PrintCutTable() {
  prov::VarPool pool;
  core::AbstractionTree tree =
      core::ParseTree(data::kFigure2TreeText, &pool).ValueOrDie();
  prov::PolySet polys =
      prov::ParsePolySet(data::kExamplePolynomialsText, &pool).ValueOrDie();

  bench::Header("E2: Example 4 cuts on the Figure 2 tree");
  std::printf("tree has %zu nodes, %zu leaves, %llu cuts\n\n", tree.size(),
              tree.Leaves().size(),
              static_cast<unsigned long long>(tree.CountCuts()));
  std::printf("%-4s %-44s %10s %9s %12s %11s\n", "cut", "nodes",
              "P1 monos", "P1 vars", "total monos", "total vars");
  for (const NamedCut& named : PaperCuts()) {
    prov::VarPool scratch = pool;
    core::Cut cut = core::Cut::FromNames(tree, named.nodes).ValueOrDie();
    core::Abstraction abs =
        core::ApplyCut(polys, tree, cut, &scratch).ValueOrDie();
    std::printf("%-4s %-44s %10zu %9zu %12zu %11zu\n", named.name,
                cut.ToString(tree).c_str(),
                abs.compressed.poly(0).NumMonomials(),
                abs.compressed.poly(0).Variables().size(),
                abs.compressed_size, abs.compressed_variables);
  }
  std::printf(
      "\npaper reference: S1 on P1 -> 4 monomials / 4 variables; "
      "S5 on P1 -> 2 monomials / 3 variables.\n");

  // The compressed S5 polynomial as printed in the paper, with the m1
  // coefficient corrected: the paper's 466.1 is a typo for 454.1, the sum
  // of P1's m1 coefficients.
  prov::VarPool scratch = pool;
  core::Cut s5 = core::Cut::FromNames(tree, {"Plans"}).ValueOrDie();
  core::Abstraction abs =
      core::ApplyCut(polys, tree, s5, &scratch).ValueOrDie();
  std::printf("S5 on P1: %s\n",
              abs.compressed.poly(0).ToString(scratch).c_str());
}

void BM_ApplyCutS1(benchmark::State& state) {
  prov::VarPool pool;
  core::AbstractionTree tree =
      core::ParseTree(data::kFigure2TreeText, &pool).ValueOrDie();
  prov::PolySet polys =
      prov::ParsePolySet(data::kExamplePolynomialsText, &pool).ValueOrDie();
  core::Cut s1 =
      core::Cut::FromNames(tree, {"Business", "Special", "Standard"})
          .ValueOrDie();
  for (auto _ : state) {
    prov::VarPool scratch = pool;
    auto abs = core::ApplyCut(polys, tree, s1, &scratch);
    benchmark::DoNotOptimize(abs);
  }
}
BENCHMARK(BM_ApplyCutS1);

void BM_EnumerateFigure2Cuts(benchmark::State& state) {
  prov::VarPool pool;
  core::AbstractionTree tree =
      core::ParseTree(data::kFigure2TreeText, &pool).ValueOrDie();
  for (auto _ : state) {
    auto cuts = core::EnumerateCuts(tree);
    benchmark::DoNotOptimize(cuts);
  }
}
BENCHMARK(BM_EnumerateFigure2Cuts);

void BM_AnalyzeFigure2Profile(benchmark::State& state) {
  prov::VarPool pool;
  core::AbstractionTree tree =
      core::ParseTree(data::kFigure2TreeText, &pool).ValueOrDie();
  prov::PolySet polys =
      prov::ParsePolySet(data::kExamplePolynomialsText, &pool).ValueOrDie();
  for (auto _ : state) {
    auto profile = core::AnalyzeSingleTree(polys, tree, pool);
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_AnalyzeFigure2Profile);

}  // namespace

int main(int argc, char** argv) {
  PrintCutTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
