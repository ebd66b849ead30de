// A small ordered set of quorum ids, shared by both protocols: the storage
// algorithm's QC'2 / Set values and the consensus acceptor's UpdateQ.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/types.hpp"

namespace rqs {

/// A set of quorum identifiers. Flat sorted vector with set semantics:
/// these sets hold ids of one system's quorums (a handful in a QC'2 set, up
/// to the class-2 count in an UpdateQ), so a contiguous search/insert beats
/// std::set nodes — and copying one (each storage wr carries a QC'2 set,
/// each new_view_ack its UpdateQ) is a single allocation at most.
/// Iteration is ascending, exactly as std::set's, so payload encodings and
/// state digests built by iterating are unchanged.
class QuorumIdSet {
 public:
  using const_iterator = std::vector<QuorumId>::const_iterator;

  QuorumIdSet() = default;
  QuorumIdSet(std::initializer_list<QuorumId> ids) {
    for (const QuorumId id : ids) insert(id);
  }

  /// Adds `id`; true iff it was not already present.
  bool insert(QuorumId id) {
    const auto it = std::lower_bound(v_.begin(), v_.end(), id);
    if (it != v_.end() && *it == id) return false;
    v_.insert(it, id);
    return true;
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  [[nodiscard]] const_iterator find(QuorumId id) const {
    const auto it = std::lower_bound(v_.begin(), v_.end(), id);
    return it != v_.end() && *it == id ? it : v_.end();
  }
  [[nodiscard]] bool contains(QuorumId id) const {
    return std::binary_search(v_.begin(), v_.end(), id);
  }

  [[nodiscard]] const_iterator begin() const noexcept { return v_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return v_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  void clear() noexcept { v_.clear(); }

  friend bool operator==(const QuorumIdSet&, const QuorumIdSet&) = default;

 private:
  std::vector<QuorumId> v_;  // sorted, unique
};

}  // namespace rqs
