#include "prov/variable.h"

#include <mutex>

namespace cobra::prov {

VarPool::VarPool(const VarPool& other) {
  std::shared_lock lock(other.mu_);
  names_ = other.names_;
  index_ = other.index_;
}

VarPool& VarPool::operator=(const VarPool& other) {
  if (this == &other) return *this;
  // Copy under the source lock first, then swap in under our own, so the
  // two locks are never held together (no ordering to get wrong).
  std::deque<std::string> names;
  decltype(index_) index;
  {
    std::shared_lock lock(other.mu_);
    names = other.names_;
    index = other.index_;
  }
  std::unique_lock lock(mu_);
  names_ = std::move(names);
  index_ = std::move(index);
  return *this;
}

VarId VarPool::Intern(std::string_view name) {
  std::unique_lock lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  VarId id = static_cast<VarId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

VarId VarPool::Find(std::string_view name) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidVar : it->second;
}

const std::string& VarPool::Name(VarId id) const {
  std::shared_lock lock(mu_);
  COBRA_CHECK_MSG(id < names_.size(), "VarPool::Name: id out of range");
  // Safe to return by reference: deque elements are never relocated and the
  // pool is append-only.
  return names_[id];
}

std::size_t VarPool::size() const {
  std::shared_lock lock(mu_);
  return names_.size();
}

std::vector<std::string> VarPool::NamesUpTo(std::size_t count) const {
  std::shared_lock lock(mu_);
  if (count > names_.size()) count = names_.size();
  return std::vector<std::string>(
      names_.begin(),
      names_.begin() + static_cast<std::ptrdiff_t>(count));
}

}  // namespace cobra::prov
