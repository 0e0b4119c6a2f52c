// cobra_shell — a batch command interpreter exposing the whole COBRA
// pipeline on user data, mirroring the demo system's workflow without the
// GUI. Commands come from a script file (or stdin with '-'):
//
//   load <table> <file.csv>          register a CSV file as a table
//   instrument <table> <col> <pfx>   tag rows with variable <pfx><value>
//   sql <SELECT ...>                 run a query; keeps the last grouped
//                                    result as the session provenance
//   tree <file>                      install an abstraction tree (indented
//                                    text format)
//   bound <n>                        set the compressed-size bound
//   compress [optimal|greedy|level]  compute the abstraction
//   set <var> <value>                assign a (meta-)variable
//   assign                           evaluate the scenario, print deltas
//   show polys|compressed|tree|meta  inspect session state
//   save <file>                      write the compressed package (the
//                                    artifact shipped to analysts)
//   package <file>                   load a compressed package and evaluate
//                                    it under its defaults (the analyst-side
//                                    path; sizes are checked, not assumed)
//   snapshot save <file>             write the compiled serving snapshot
//                                    (programs + pool + defaults; binary)
//   snapshot load <file>             load a snapshot as a replica would and
//                                    evaluate it under its defaults — zero
//                                    recompilation, bit-identical results
//   batch [n]                        run n synthetic what-if scenarios (16
//                                    by default) through the snapshot's
//                                    batched sweep; repeating the command
//                                    replays the cached BatchPlan
//   sweep [n] [k]                    stream n seeded Monte-Carlo scenarios
//                                    (4096 by default) over the cut's
//                                    meta-variables through AssignStream,
//                                    keeping the top k (8) by
//                                    compressed-side movement — nothing is
//                                    materialized
//   grid [n] [bases] [file]          run n synthetic scenarios under
//                                    `bases` per-user base valuations in one
//                                    AssignGrid sweep — the shared PlanCore
//                                    is planned once and runs on each base
//                                    as it is; with a file the snapshot is
//                                    loaded from disk (the replica path)
//   plan                             show the snapshot's cached-plan table
//                                    (fingerprint, engine, lanes, tiles,
//                                    per-entry base count) under a header
//                                    naming the blocked kernel's
//                                    instruction set, and the cache
//                                    hit/core-hit/miss counters
//   verify                           run the static verifier over the live
//                                    compiled session: programs, the
//                                    snapshot round-trip, and every cached
//                                    plan; prints the finding table
//   # ...                            comment
//
// Example session (using the bundled telephony example): see
// examples/shell_demo.cobra in the repository.

#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/io.h"
#include "core/session.h"
#include "prov/eval_program.h"
#include "prov/valuation.h"
#include "prov/variable.h"
#include "data/example_db.h"
#include "rel/csv_loader.h"
#include "rel/database.h"
#include "rel/instrument.h"
#include "rel/sql/planner.h"
#include "util/csv.h"
#include "util/str.h"
#include "verify/verify.h"

namespace {

using namespace cobra;

class Shell {
 public:
  Shell() : session_(db_.var_pool()) {}

  /// Executes one command line; returns false only on hard errors.
  bool Execute(const std::string& raw_line) {
    std::string_view line = util::Trim(raw_line);
    if (line.empty() || line[0] == '#') return true;
    std::istringstream in{std::string(line)};
    std::string command;
    in >> command;
    command = util::ToLower(command);

    if (command == "load") return Load(in);
    if (command == "instrument") return Instrument(in);
    if (command == "sql") return Sql(std::string(line).substr(4));
    if (command == "tree") return Tree(in);
    if (command == "bound") return Bound(in);
    if (command == "compress") return CompressCmd(in);
    if (command == "set") return Set(in);
    if (command == "assign") return Assign();
    if (command == "show") return Show(in);
    if (command == "save") return Save(in);
    if (command == "package") return Package(in);
    if (command == "snapshot") return Snapshot(in);
    if (command == "batch") return Batch(in);
    if (command == "sweep") return Sweep(in);
    if (command == "grid") return Grid(in);
    if (command == "plan") return Plan();
    if (command == "verify") return Verify();
    std::printf("error: unknown command '%s'\n", command.c_str());
    return true;
  }

 private:
  static bool Report(const util::Status& status) {
    if (!status.ok()) std::printf("error: %s\n", status.ToString().c_str());
    return true;
  }

  bool Load(std::istringstream& in) {
    std::string name, path;
    in >> name >> path;
    util::Status status = rel::LoadCsvTable(&db_, name, path);
    if (status.ok()) {
      std::printf("loaded %s (%zu rows)\n", name.c_str(),
                  db_.GetTable(name).ValueOrDie()->NumRows());
    }
    return Report(status);
  }

  bool Instrument(std::istringstream& in) {
    std::string table, column, prefix;
    in >> table >> column >> prefix;
    return Report(
        rel::InstrumentByColumns(&db_, table, {{column, prefix}}));
  }

  bool Sql(const std::string& text) {
    util::Result<rel::sql::QueryResult> result = rel::sql::RunSql(db_, text);
    if (!result.ok()) return Report(result.status());
    prov::Valuation neutral(*db_.var_pool());
    rel::Table answer = result->Evaluate(neutral);
    std::printf("%s", answer.ToString(15).c_str());
    if (result->IsGrouped()) {
      session_.LoadPolynomials(result->Provenance());
      std::printf("(provenance kept: %zu polynomials, %zu monomials)\n",
                  session_.full().size(), session_.full().TotalMonomials());
    }
    return true;
  }

  bool Tree(std::istringstream& in) {
    std::string path;
    in >> path;
    util::Result<std::string> text = util::ReadFile(path);
    if (!text.ok()) return Report(text.status());
    return Report(session_.SetTreeText(*text));
  }

  bool Bound(std::istringstream& in) {
    std::size_t bound = 0;
    in >> bound;
    session_.SetBound(bound);
    std::printf("bound = %zu\n", bound);
    return true;
  }

  bool CompressCmd(std::istringstream& in) {
    std::string algorithm_name = "optimal";
    in >> algorithm_name;
    core::Algorithm algorithm = core::Algorithm::kOptimalDp;
    if (algorithm_name == "greedy") algorithm = core::Algorithm::kGreedy;
    if (algorithm_name == "level") algorithm = core::Algorithm::kLevelCut;
    util::Result<core::CompressionReport> report =
        session_.Compress(algorithm);
    if (!report.ok()) return Report(report.status());
    std::printf("%s", report->ToString().c_str());
    return true;
  }

  bool Set(std::istringstream& in) {
    std::string name;
    double value = 1.0;
    in >> name >> value;
    return Report(session_.SetMetaValue(name, value));
  }

  bool Assign() {
    util::Result<core::AssignReport> report = session_.Assign();
    if (!report.ok()) return Report(report.status());
    std::printf("%s", report->ToString(15).c_str());
    return true;
  }

  bool Show(std::istringstream& in) {
    std::string what;
    in >> what;
    if (what == "polys") {
      std::printf("%s", session_.full().ToString(session_.pool()).c_str());
    } else if (what == "compressed" && session_.IsCompressed()) {
      std::printf("%s",
                  session_.compressed().ToString(session_.pool()).c_str());
    } else if (what == "meta" && session_.IsCompressed()) {
      for (const core::MetaVar& mv : session_.meta_vars()) {
        std::printf("%-12s = %-8g replaces:", mv.name.c_str(),
                    session_.meta_valuation().Get(mv.var));
        for (prov::VarId leaf : mv.leaves) {
          std::printf(" %s", session_.pool().Name(leaf).c_str());
        }
        std::printf("\n");
      }
    } else {
      std::printf("error: nothing to show for '%s'\n", what.c_str());
    }
    return true;
  }

  bool Save(std::istringstream& in) {
    std::string path;
    in >> path;
    if (!session_.IsCompressed()) {
      std::printf("error: compress before saving a package\n");
      return true;
    }
    prov::Valuation base(session_.pool().size());
    core::CompressedPackage package =
        core::MakePackage(session_.abstraction(), base, session_.pool());
    util::Status status =
        core::SavePackage(package, session_.pool(), path);
    if (status.ok()) std::printf("package written to %s\n", path.c_str());
    return Report(status);
  }

  bool Package(std::istringstream& in) {
    std::string path;
    in >> path;
    // The analyst side: a package is external input, so it gets its own
    // pool and every evaluation goes through the checked entry points —
    // a malformed file must produce an error line, not kill the shell.
    prov::VarPool pool;
    util::Result<core::CompressedPackage> package =
        core::LoadPackage(path, &pool);
    if (!package.ok()) return Report(package.status());

    prov::Valuation valuation(pool);
    for (const auto& [name, value] : package->defaults) {
      util::Status status = valuation.SetByName(pool, name, value);
      if (!status.ok()) return Report(status);
    }
    prov::EvalProgram program(package->polynomials);
    std::vector<double> answers;
    util::Status status = program.EvalChecked(valuation, &answers);
    if (!status.ok()) return Report(status);

    std::printf("package %s: %zu polynomials, %zu meta groups\n",
                path.c_str(), package->polynomials.size(),
                package->meta_groups.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      std::printf("  %-16s = %.6g\n",
                  package->polynomials.label(i).c_str(), answers[i]);
    }
    return true;
  }

  bool Snapshot(std::istringstream& in) {
    std::string action, path;
    in >> action >> path;
    if (action == "save") {
      if (!session_.IsCompressed()) {
        std::printf("error: compress before saving a snapshot\n");
        return true;
      }
      util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
          session_.Snapshot();
      if (!snapshot.ok()) return Report(snapshot.status());
      util::Status status = core::SaveSnapshot(**snapshot, path);
      if (status.ok()) {
        std::printf("snapshot written to %s (pool %zu, %zu -> %zu monomials)\n",
                    path.c_str(), (*snapshot)->pool_size(),
                    (*snapshot)->full_size(), (*snapshot)->compressed_size());
      }
      return Report(status);
    }
    if (action == "load") {
      // The replica side: reconstruct the serving session from the file
      // alone (no tree, no source polynomials, no recompilation) and
      // evaluate it under its shipped defaults.
      util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
          core::LoadSnapshot(path);
      if (!snapshot.ok()) return Report(snapshot.status());
      std::printf(
          "snapshot %s: %zu groups, %zu meta-vars, pool %zu, "
          "%zu -> %zu monomials\n",
          path.c_str(), (*snapshot)->labels().size(),
          (*snapshot)->meta_vars().size(), (*snapshot)->pool_size(),
          (*snapshot)->full_size(), (*snapshot)->compressed_size());
      util::Result<core::AssignReport> report = (*snapshot)->Assign(1);
      if (!report.ok()) return Report(report.status());
      std::printf("%s", report->ToString(15).c_str());
      return true;
    }
    std::printf("error: usage: snapshot save|load <file>\n");
    return true;
  }

  bool Batch(std::istringstream& in) {
    std::size_t n = 16;
    in >> n;
    if (n == 0) n = 16;
    if (!session_.IsCompressed()) {
      std::printf("error: compress before running a batch\n");
      return true;
    }
    const std::vector<core::MetaVar>& meta = session_.meta_vars();
    if (meta.empty()) {
      std::printf("error: the cut has no meta-variables to perturb\n");
      return true;
    }
    // Deterministic synthetic scenarios over the meta-variables, so
    // repeating `batch <n>` replays the identical set and exercises the
    // plan cache (see `plan`).
    core::ScenarioSet scenarios;
    for (std::size_t i = 0; i < n; ++i) {
      auto s = scenarios.Add("whatif-" + std::to_string(i)).ValueOrDie();
      s.Set(meta[i % meta.size()].name,
            1.0 + 0.01 * static_cast<double>(i % 40 + 1));
    }
    util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
        session_.Snapshot();
    if (!snapshot.ok()) return Report(snapshot.status());
    util::Result<core::BatchAssignReport> batch =
        (*snapshot)->AssignBatch(scenarios);
    if (!batch.ok()) return Report(batch.status());
    std::printf("%s", batch->ToString(2, 3).c_str());
    return true;
  }

  bool Sweep(std::istringstream& in) {
    std::size_t n = 4096;
    std::size_t k = 8;
    in >> n >> k;
    if (n == 0) n = 4096;
    if (k == 0) k = 8;
    if (!session_.IsCompressed()) {
      std::printf("error: compress before running a sweep\n");
      return true;
    }
    const std::vector<core::MetaVar>& meta = session_.meta_vars();
    if (meta.empty()) {
      std::printf("error: the cut has no meta-variables to perturb\n");
      return true;
    }
    // A seeded Monte-Carlo source over every meta-variable: scenario i is a
    // pure function of (seed, i), so nothing is materialized — the space is
    // generated window by window inside AssignStream and only the k best
    // scenarios (by compressed-side movement) are kept.
    std::vector<core::RangeAxis> axes;
    axes.reserve(meta.size());
    for (const core::MetaVar& m : meta) {
      axes.push_back({m.name, 0.9, 1.1});
    }
    util::Result<std::shared_ptr<const core::SampledSource>> source =
        core::SampledSource::Create(std::move(axes), n, /*seed=*/42,
                                    "sweep");
    if (!source.ok()) return Report(source.status());
    util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
        session_.Snapshot();
    if (!snapshot.ok()) return Report(snapshot.status());
    core::StreamOptions options;
    options.query.kind = core::StreamQuery::Kind::kTopK;
    options.query.k = k;
    util::Result<core::SweepSummary> summary =
        (*snapshot)->AssignStream(**source, options);
    if (!summary.ok()) return Report(summary.status());
    std::printf("%s", summary->ToString(k).c_str());
    return true;
  }

  bool Grid(std::istringstream& in) {
    std::size_t n = 16;
    std::size_t num_bases = 4;
    std::string path;
    in >> n >> num_bases >> path;
    if (n == 0) n = 16;
    if (num_bases == 0) num_bases = 4;

    // With a path the snapshot comes off disk like a replica would serve
    // it; otherwise the live session's snapshot is used (requires a prior
    // `compress`).
    util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
        path.empty() ? session_.Snapshot() : core::LoadSnapshot(path);
    if (!snapshot.ok()) return Report(snapshot.status());
    const std::vector<core::MetaVar>& meta = (*snapshot)->meta_vars();
    if (meta.empty()) {
      std::printf("error: the cut has no meta-variables to perturb\n");
      return true;
    }
    core::ScenarioSet scenarios;
    for (std::size_t i = 0; i < n; ++i) {
      auto s = scenarios.Add("whatif-" + std::to_string(i)).ValueOrDie();
      s.Set(meta[i % meta.size()].name,
            1.0 + 0.01 * static_cast<double>(i % 40 + 1));
    }
    std::vector<prov::Valuation> bases;
    bases.reserve(num_bases);
    for (std::size_t b = 0; b < num_bases; ++b) {
      prov::Valuation base((*snapshot)->pool_size());
      base.Set(meta[b % meta.size()].var,
               1.0 + 0.05 * static_cast<double>(b % 10 + 1));
      bases.push_back(std::move(base));
    }
    util::Result<core::GridAssignReport> grid =
        (*snapshot)->AssignGrid(scenarios, bases);
    if (!grid.ok()) return Report(grid.status());
    std::printf("%s", grid->ToString().c_str());
    return true;
  }

  bool Plan() {
    util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
        session_.Snapshot();
    if (!snapshot.ok()) return Report(snapshot.status());
    std::vector<core::CompiledSession::CachedPlanInfo> plans =
        (*snapshot)->CachedPlans();
    core::CompiledSession::PlanCacheStats stats =
        (*snapshot)->plan_cache_stats();
    if (plans.empty()) {
      std::printf("plan cache empty — run `batch [n]` first\n");
      return true;
    }
    std::printf("cached plans (blocked kernel isa: %s)\n",
                prov::BlockedKernelIsa());
    std::printf("%-32s %-12s %5s %6s %9s %9s\n", "fingerprint", "engine",
                "lanes", "tiles", "scenarios", "bases");
    for (const core::CompiledSession::CachedPlanInfo& info : plans) {
      std::printf("%-32s %-12s %5zu %6zu %9zu %9zu\n",
                  info.fingerprint.c_str(), core::SweepName(info.engine),
                  info.lanes, info.tiles, info.scenarios, info.bases);
    }
    std::printf("%zu cached plan core(s) (%zu bases), %llu hit(s), "
                "%llu core hit(s), %llu miss(es)\n",
                stats.entries, stats.bases,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.core_hits),
                static_cast<unsigned long long>(stats.misses));
    return true;
  }

  bool Verify() {
    if (!session_.IsCompressed()) {
      std::printf("error: compress before verifying\n");
      return true;
    }
    util::Result<std::shared_ptr<const core::CompiledSession>> snapshot =
        session_.Snapshot();
    if (!snapshot.ok()) return Report(snapshot.status());
    verify::VerifyReport report = verify::VerifySession(**snapshot);
    std::printf("%s", report.ToString().c_str());
    return true;
  }

  rel::Database db_;
  core::Session session_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <script.cobra | ->\n", argv[0]);
    return 2;
  }
  Shell shell;
  std::string path = argv[1];
  if (path == "-") {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!shell.Execute(line)) return 1;
    }
    return 0;
  }
  util::Result<std::string> script = util::ReadFile(path);
  if (!script.ok()) {
    std::fprintf(stderr, "%s\n", script.status().ToString().c_str());
    return 1;
  }
  for (const std::string& line : util::Split(*script, '\n')) {
    if (!shell.Execute(line)) return 1;
  }
  return 0;
}
