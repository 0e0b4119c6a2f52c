#ifndef COBRA_SERVE_FAULT_H_
#define COBRA_SERVE_FAULT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>

/// cobra::serve fault-injection harness.
///
/// The serving daemon's robustness claims (never crashes, never serves a
/// half-trusted artifact, completes every accepted request) are only worth
/// anything if they are *tested under the faults they claim to survive*.
/// This header defines named injection points the serve-layer code probes
/// at its failure-prone seams. In a normal build the probes compile to
/// constant-false / no-op expressions — zero state, zero branches beyond
/// what the optimizer removes. A build with `COBRA_FAULT_INJECTION` defined
/// (the `serve_fault_test` target recompiles the serve sources that way)
/// turns each probe into a check of a tiny atomic registry the test arms:
///
///   ArmFault(FaultPoint::kSnapshotRead, /*count=*/2);
///   // ... the next two snapshot reads inside the watcher fail with
///   // Status::Unavailable("injected ...") and then behave normally.
///
/// The registry functions themselves are always compiled (they are trivial
/// and header-inline), so tests can link either build; the *probes* are
/// what the macro gates. `ServerBuildHasFaultInjection()` reports whether
/// the serve objects actually linked into this binary carry active probes —
/// tests skip fault scenarios when it returns false.
namespace cobra::serve {

/// Named injection points. Each names one failure-prone seam in the serve
/// layer; the two remaining faults of the harness — a torn snapshot write
/// and a mid-swap client burst — need no in-process hook (the test produces
/// them from outside: a truncated file, a thread pile-up).
enum class FaultPoint : int {
  kSnapshotRead = 0,  ///< The watcher's snapshot file read fails.
  kSlowLoad,          ///< The watcher's load stalls (sleeps) before reading.
  kQueueOverflow,     ///< Admission treats the request queue as full.
  kSlowWindow,        ///< A streamed request stalls (sleeps) after a window.
  kSlowLeader,        ///< A whole-batch leader stalls (sleeps) before it runs.
  kNumPoints,         ///< Sentinel; not an injection point.
};

namespace fault_internal {

struct PointState {
  /// How many more times this point fires. Decremented on each hit.
  std::atomic<int> remaining{0};
  /// For kSlowLoad-style points: how long one firing stalls.
  std::atomic<int> delay_ms{0};
  /// Total times this point has fired (test-side accounting).
  std::atomic<int> fired{0};
};

inline std::array<PointState,
                  static_cast<std::size_t>(FaultPoint::kNumPoints)>&
Registry() {
  static std::array<PointState,
                    static_cast<std::size_t>(FaultPoint::kNumPoints)>
      registry;
  return registry;
}

inline PointState& StateOf(FaultPoint point) {
  return Registry()[static_cast<std::size_t>(point)];
}

}  // namespace fault_internal

/// Arms `point` to fire on its next `count` probes. `delay_ms` applies to
/// stall-style points (how long each firing sleeps).
inline void ArmFault(FaultPoint point, int count, int delay_ms = 0) {
  fault_internal::PointState& state = fault_internal::StateOf(point);
  state.delay_ms.store(delay_ms, std::memory_order_relaxed);
  state.remaining.store(count, std::memory_order_release);
}

/// Disarms every point and clears the fired counters.
inline void ResetFaults() {
  for (fault_internal::PointState& state : fault_internal::Registry()) {
    state.remaining.store(0, std::memory_order_relaxed);
    state.delay_ms.store(0, std::memory_order_relaxed);
    state.fired.store(0, std::memory_order_relaxed);
  }
}

/// How many times `point` has fired since the last ResetFaults().
inline int FaultFireCount(FaultPoint point) {
  return fault_internal::StateOf(point).fired.load(std::memory_order_acquire);
}

/// Probe: consumes one armed firing of `point` if any remain. Called by the
/// COBRA_FAULT_FIRE macro — production code never calls this directly.
inline bool FaultShouldFire(FaultPoint point) {
  fault_internal::PointState& state = fault_internal::StateOf(point);
  int remaining = state.remaining.load(std::memory_order_acquire);
  while (remaining > 0) {
    if (state.remaining.compare_exchange_weak(remaining, remaining - 1,
                                              std::memory_order_acq_rel)) {
      state.fired.fetch_add(1, std::memory_order_acq_rel);
      return true;
    }
  }
  return false;
}

/// Probe: if `point` is armed, consumes one firing and sleeps its delay.
inline void FaultMaybeStall(FaultPoint point) {
  if (FaultShouldFire(point)) {
    const int delay =
        fault_internal::StateOf(point).delay_ms.load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

/// True iff the serve-layer objects linked into this binary were compiled
/// with COBRA_FAULT_INJECTION (i.e. the probes below are live). Defined in
/// server.cc so the answer reflects the *library's* build, not the caller's
/// translation unit.
bool ServerBuildHasFaultInjection();

}  // namespace cobra::serve

/// The probes the serve sources drop at their failure seams. Compiled out
/// entirely (constant false / no-op) unless COBRA_FAULT_INJECTION is
/// defined for the translation unit.
#ifdef COBRA_FAULT_INJECTION
#define COBRA_FAULT_FIRE(point) (::cobra::serve::FaultShouldFire(point))
#define COBRA_FAULT_STALL(point) (::cobra::serve::FaultMaybeStall(point))
#else
#define COBRA_FAULT_FIRE(point) (false)
#define COBRA_FAULT_STALL(point) ((void)0)
#endif

#endif  // COBRA_SERVE_FAULT_H_
