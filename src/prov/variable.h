#ifndef COBRA_PROV_VARIABLE_H_
#define COBRA_PROV_VARIABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace cobra::prov {

/// Dense identifier of an interned provenance variable.
using VarId = std::uint32_t;

/// Sentinel for "no variable".
constexpr VarId kInvalidVar = static_cast<VarId>(-1);

/// Interning table mapping variable names to dense `VarId`s.
///
/// Every polynomial in a COBRA session shares one pool, so monomials store
/// compact integer ids and never copy strings. Meta-variables created by an
/// abstraction are interned into the same pool, which keeps valuation arrays
/// dense.
///
/// The pool is append-only and safe to share between one authoring thread
/// and any number of concurrent readers: `Intern()` may run concurrently
/// with `Find()`/`Name()`/`size()` (a shared mutex guards the table, and
/// names live in a deque so `Name()` references stay stable as the pool
/// grows). This is what lets `Session` hand the same pool to its immutable
/// `CompiledSession` snapshots by `shared_ptr` instead of deep-copying it —
/// ids are stable forever, so a snapshot that captured the pool size at
/// creation simply ignores later additions.
class VarPool {
 public:
  VarPool() = default;

  VarPool(const VarPool& other);
  VarPool& operator=(const VarPool& other);

  /// Returns the id for `name`, interning it on first use. Like `Find`, the
  /// lookup builds no temporary string.
  VarId Intern(std::string_view name);

  /// Returns the id for `name`, or `kInvalidVar` if it was never interned.
  VarId Find(std::string_view name) const;

  /// True iff `name` has been interned.
  bool Contains(std::string_view name) const {
    return Find(name) != kInvalidVar;
  }

  /// Returns the name of `id`. Aborts on out-of-range ids. The reference
  /// stays valid for the pool's lifetime (names are never moved).
  const std::string& Name(VarId id) const;

  /// Number of interned variables.
  std::size_t size() const;

  /// Copies the names of ids `[0, count)` in id order (`count` is clamped to
  /// the current size). Because the pool is append-only, this is a complete,
  /// stable export of the pool as it existed when it held `count` variables
  /// — the snapshot serializer (core/io.h) uses it to ship a frozen pool
  /// prefix to replica processes, which re-intern the names in order and
  /// recover identical ids.
  std::vector<std::string> NamesUpTo(std::size_t count) const;

 private:
  /// Hashes `std::string` keys and `std::string_view` probes alike, so the
  /// index is searched by view (heterogeneous lookup).
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  mutable std::shared_mutex mu_;
  std::deque<std::string> names_;  ///< Deque: stable refs under growth.
  std::unordered_map<std::string, VarId, NameHash, std::equal_to<>> index_;
};

}  // namespace cobra::prov

#endif  // COBRA_PROV_VARIABLE_H_
