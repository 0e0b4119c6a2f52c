#ifndef COBRA_VERIFY_VERIFY_H_
#define COBRA_VERIFY_VERIFY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/io.h"
#include "core/scenario.h"
#include "prov/eval_program.h"

/// cobra::verify — static artifact verification for compiled artifacts.
///
/// The serving path trusts three kinds of compiled artifacts it did not
/// author in-process: `EvalProgram`s rebuilt from snapshot arrays, cached
/// `BatchPlan`s replayed across calls, and `SnapshotPackage`s loaded from
/// disk on replicas. COBRA's value proposition rests on the compressed
/// artifact being a *sound* stand-in for the original provenance, so each
/// artifact is proven well-formed and internally consistent *before* it is
/// executed — a corrupt artifact is rejected with a precise diagnosis at
/// load time instead of surfacing as a wrong answer or a segfault under
/// traffic.
///
/// The three passes are bytecode-verifier-style single abstract walks over
/// the artifact's arrays; none executes anything. They are wired in at the
/// three trust boundaries:
///
///   - `CompiledSession::FromSnapshot` runs `VerifySnapshot` mandatorily
///     and refuses any snapshot with error findings;
///   - the plan cache runs `VerifyPlan` on every insert, and `AssignStream`
///     runs `VerifyStreamWindow` on its first window, in debug builds and
///     under `BatchOptions::verify_plans`;
///   - the `cobra_verify` CLI audits snapshot files/directories offline
///     (fleet automation; see its exit-code contract in the README).
namespace cobra::verify {

/// How bad a finding is. Errors make the artifact unservable (executing it
/// could crash or silently answer wrong); warnings flag suspicious but
/// well-defined state.
enum class Severity {
  kWarning,
  kError,
};

/// Stable display name ("error" / "warning").
const char* SeverityName(Severity severity);

/// One verifier diagnosis: which artifact, where inside it, and what
/// invariant is violated. `offset` is the element index within the named
/// artifact array (the first violating element when several violate).
struct Finding {
  Severity severity = Severity::kError;
  std::string artifact;  ///< e.g. "compressed program", "plan full schedule"
  std::size_t offset = 0;
  std::string message;

  /// Renders "error <artifact>[<offset>]: <message>".
  std::string ToString() const;
};

/// The structured result of one (or several merged) verification passes.
/// `ok()` means no *error* findings — warnings alone leave an artifact
/// servable.
class VerifyReport {
 public:
  /// Records an error finding.
  void AddError(std::string_view artifact, std::size_t offset,
                std::string message);

  /// Records a warning finding.
  void AddWarning(std::string_view artifact, std::size_t offset,
                  std::string message);

  /// Appends every finding of `other` (used to combine passes).
  void Merge(const VerifyReport& other);

  /// True iff no error findings were recorded.
  bool ok() const { return num_errors_ == 0; }

  std::size_t num_errors() const { return num_errors_; }
  std::size_t num_warnings() const {
    return findings_.size() - num_errors_;
  }
  const std::vector<Finding>& findings() const { return findings_; }

  /// The first error finding, or nullptr when ok(). The pointer is
  /// invalidated by further Add*/Merge calls.
  const Finding* FirstError() const;

  /// Renders the findings as a fixed-width table (severity, artifact,
  /// offset, message) followed by a one-line summary; a clean report
  /// renders just the summary line.
  std::string ToString() const;

 private:
  std::vector<Finding> findings_;
  std::size_t num_errors_ = 0;
};

/// Sentinel for "no pool bound": VerifyProgram skips the factor-id bound
/// check (structural invariants are still checked).
inline constexpr std::size_t kNoPoolBound =
    std::numeric_limits<std::size_t>::max();

/// Statically verifies one compiled `EvalProgram` in a single walk over its
/// four arrays. Invariants (the catalog the README documents):
///
///   - `poly_starts` is non-empty, starts at 0, is non-decreasing, and ends
///     at the term count — polynomial term ranges are non-overlapping and
///     cover the term array exactly;
///   - `term_starts` has one entry per term plus a trailing bound, starts
///     at 0, is non-decreasing, and ends at the factor count — term factor
///     ranges partition the factor array;
///   - no coefficient is NaN or infinite;
///   - no factor is `kInvalidVar`, and when `pool_size` is bounded every
///     factor id lies inside the pool;
///   - the cached `MinValuationSize` equals max(factor) + 1.
///
/// `artifact` names the program in findings ("full program", ...).
VerifyReport VerifyProgram(const prov::EvalProgram& program,
                           std::size_t pool_size = kNoPoolBound,
                           std::string_view artifact = "program");

/// Same structural invariants for a not-yet-rebuilt snapshot image (the raw
/// arrays before `EvalProgram::FromParts` runs). The `MinValuationSize`
/// cache check does not apply — the image carries no cache.
VerifyReport VerifyProgram(const core::EvalProgramImage& image,
                           std::size_t pool_size = kNoPoolBound,
                           std::string_view artifact = "program");

/// Statically verifies a compiled `BatchPlan` against the session it will
/// execute on. Checks: the plan's origin is `session`; the resolved engine
/// is never `kAuto`; the lane count is 16 (`EvalProgram::kMaxLanes`) for
/// the blocked engine and 1 for the scalar engine; the block count is
/// consistent with the scenario count; the core carries one name per
/// scenario or none (a streamed chunk); the lowered offsets partition the
/// flat override array, and every lowered override list is sorted,
/// duplicate-free, within the frozen pool and finite; the base valuation is
/// pool-sized and its fingerprint recomputes (the plan cache keys per-base
/// plans by it); and each side's tile schedule partitions the
/// (scenario-block × poly-range) space exactly once — sorted disjoint
/// whole-poly ranges covering every polynomial, with the term-split
/// polynomial's slices exactly tiling its term range.
///
/// A plan is a base-free `PlanCore` plus a shared `BaseState`. For the
/// blocked engine the pass re-derives the core's block program by brute
/// force: each block's union, lane values and mask words from its lanes'
/// lowered overrides; per side, each block's touched terms by scanning the
/// program's factors and each touched factor's row from the union; a
/// touched program shared by two blocks only between equal unions; and the
/// base state's term products, in-polynomial prefixes (where each lane
/// starts) and polynomial values bit for bit from the base. A scalar plan
/// carries no block program.
///
/// When `scenarios` is non-null the pass additionally recomputes the
/// scenario-set content fingerprint, compares the names, and re-lowers
/// every scenario, proving the plan's cached key and lowered override lists
/// match the set it claims to serve (the plan-cache insert boundary passes
/// the set).
VerifyReport VerifyPlan(const core::BatchPlan& plan,
                        const core::CompiledSession& session,
                        const core::ScenarioSet* scenarios = nullptr);

/// Audits the plan of a streamed chunk — built from `source`'s lowered
/// window starting at ordinal `begin` — against `Generate`, the reference
/// both on-demand paths must reproduce: `VerifyPlan`'s rules (without a
/// scenario set, and with no names, which a streamed chunk never carries),
/// the chunk fingerprint recomputed from the source spec and window,
/// every lowered list re-derived from the generated window, the names
/// `source.Names` and `source.Lower` give compared with the generated
/// names, and `Lower` checked to lower the same lists when asked for names.
/// `AssignStream` runs it on its first window wherever it runs
/// `VerifyPlan`, so a source whose `Lower` or `Names` drifts from its
/// `Generate` is refused.
VerifyReport VerifyStreamWindow(const core::BatchPlan& plan,
                                const core::CompiledSession& session,
                                const core::ScenarioSource& source,
                                std::uint64_t begin);

/// Statically verifies a parsed `SnapshotPackage` beyond the binary
/// format's checksum: pool names form a name↔id bijection (non-empty,
/// duplicate-free); both compiled programs satisfy `VerifyProgram` under
/// the pool bound and agree on the group count; labels align with the
/// groups; the leaf→meta remap is pool-sized, closed over the pool and
/// idempotent; meta-variables sit inside the pool, match their pooled
/// names, and agree with the remap on every leaf; and the default
/// valuation is dense over the pool with finite values.
VerifyReport VerifySnapshot(const core::SnapshotPackage& snapshot);

/// Convenience driver for operational tooling (`cobra_shell verify`): runs
/// all three passes against a live session — its three compiled programs,
/// its snapshot image (exactly what `SaveSnapshot` would write), and every
/// plan currently in its plan cache — and merges the reports.
VerifyReport VerifySession(const core::CompiledSession& session);

/// Audits a scenario generator spec before a streaming sweep replays it
/// millions of times (`CompiledSession::AssignStream` runs this at its
/// trust boundary, like the plan cache runs `VerifyPlan`). The source's
/// *code* cannot be inspected, so the pass probes its *contract*:
///
///   - the source is non-empty and its spec fingerprint is stable across
///     recomputation;
///   - a head window of `probe` scenarios generates identically twice, and
///     identically when split into two sub-windows (the chunking-invariance
///     clause of `ScenarioSource::Generate`) — bitwise, including -0.0/NaN
///     payload differences;
///   - every probed scenario has a non-empty name (unique within the
///     window), non-empty override variable names, finite override values
///     (no NaN/Inf deltas), and at most `max_deltas()` overrides;
///   - a tail window near `size()` generates without error and passes the
///     same per-scenario checks (catches off-by-one range math in
///     combinators).
///
/// Probing is O(probe), never O(size): a million-scenario grid is audited
/// through two small windows.
VerifyReport VerifySource(const core::ScenarioSource& source,
                          std::size_t probe = 64);

}  // namespace cobra::verify

#endif  // COBRA_VERIFY_VERIFY_H_
