// Planted violations for rqs_lint's support-directory scope. The selftest
// lints this file as if it lived under src/core: there `hot-path-alloc`
// applies to `// rqs-hot-path`-annotated functions only, and the
// protocol-only rules (unordered-iter, handler-totality, retry-timer,
// typed-message) do not apply at all. This file is a lint fixture only —
// it is never compiled or linked.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace rqs::lint_fixture {

struct FakeQuorumIndex {
  std::vector<std::uint32_t> ids_;
  // Support code may use unordered containers: nothing here reaches a
  // digest, so the protocol-only rule must stay silent.
  std::unordered_map<std::uint32_t, std::uint32_t> cache_;

  // rqs-hot-path
  bool covers(std::uint64_t heard) const {
    for (const std::uint32_t id : ids_) {
      if (((std::uint64_t{1} << id) & ~heard) == 0) return true;
    }
    return false;
  }

  // rqs-hot-path
  void remember(std::uint32_t id) {
    ids_.push_back(id);  // EXPECT-LINT: hot-path-alloc
  }

  // Unannotated support code may allocate.
  void build(std::uint32_t id) { ids_.push_back(id); }
};

}  // namespace rqs::lint_fixture
