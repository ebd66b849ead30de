// Refined quorum systems (Definition 2 of the paper).
//
// A refined quorum system RQS over a set S with adversary B is a set of
// quorums with two nested subclasses QC1 (class 1) and QC2 (class 2),
// QC1 subset of QC2 subset of RQS, such that:
//
//   Property 1:  for all Q, Q' in RQS:               Q n Q' not in B.
//   Property 2:  for all Q1, Q1' in QC1, Q in RQS,
//                B1, B2 in B:        Q1 n Q1' n Q not subset of B1 u B2.
//   Property 3:  for all Q2 in QC2, Q in RQS, B in B:
//                P3a(Q2,Q,B):   Q2 n Q \ B not in B,           or
//                P3b(Q2,Q,B):   QC1 nonempty and for all Q1 in QC1:
//                               Q1 n Q2 n Q \ B nonempty.
//
// The disjunction of Property 3 is *per element B* (this is the corrected,
// journal-revision statement; the PODC'07 conference version erroneously
// placed the disjunction outside the quantifier over B — see the paper's
// Appendix C errata. check_property3_conference() implements the erroneous
// variant so tests can demonstrate the difference).
//
// Quorums are identified by their index in the quorum list (QuorumId);
// both protocols ship quorum ids inside messages (the paper's QC'2 sets),
// so stable ids are part of the public API.
//
// Everything here is templated on the process-set width. The protocol
// layers use the historical aliases (Quorum, RefinedQuorumSystem, ... =
// the BasicProcessSet<1> instantiations); the Wide* aliases carry the same
// machinery to universes of up to 256 processes for the analysis and
// hierarchical-construction paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/quorum_id_set.hpp"
#include "common/types.hpp"
#include "core/adversary.hpp"

namespace rqs {

/// The class of a quorum. Class 1 quorums are also class 2 quorums, which
/// are also class 3 (plain) quorums; the enum value is the *best* class.
enum class QuorumClass : std::uint8_t { Class1 = 1, Class2 = 2, Class3 = 3 };

[[nodiscard]] constexpr const char* to_string(QuorumClass c) noexcept {
  switch (c) {
    case QuorumClass::Class1: return "class-1";
    case QuorumClass::Class2: return "class-2";
    case QuorumClass::Class3: return "class-3";
  }
  return "?";
}

/// One annotated quorum.
template <class Set>
struct BasicQuorum {
  Set set;
  QuorumClass cls{QuorumClass::Class3};
};

/// A violation of one of the three properties, with the witnesses that
/// falsify it; to_string() renders a human-readable diagnosis.
template <class Set>
struct BasicPropertyViolation {
  int property{0};            // 1, 2 or 3
  QuorumId q_a{kInvalidQuorum};   // P1: Q     P2: Q1     P3: Q2
  QuorumId q_b{kInvalidQuorum};   // P1: Q'    P2: Q1'    P3: Q
  QuorumId q_c{kInvalidQuorum};   // P2/P3: the third quorum Q / witness Q1
  Set b1;                     // offending adversary element
  Set b2;                     // second element (P2 only)
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Outcome of checking a refined quorum system against its adversary.
template <class Set>
struct BasicCheckResult {
  std::vector<BasicPropertyViolation<Set>> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

template <class Set>
class BasicRefinedQuorumSystem {
 public:
  using SetType = Set;
  using QuorumType = BasicQuorum<Set>;

  /// Builds a refined quorum system over `adversary.universe_size()`
  /// processes. Quorum classes must already be nested in the input in the
  /// sense that any class assignment is legal syntax; whether the
  /// *properties* hold is reported by check(). Duplicate process sets are
  /// allowed (the paper never forbids them) but usually undesirable.
  BasicRefinedQuorumSystem(BasicAdversary<Set> adversary,
                           std::vector<BasicQuorum<Set>> quorums);

  [[nodiscard]] const BasicAdversary<Set>& adversary() const noexcept {
    return adversary_;
  }
  [[nodiscard]] std::size_t universe_size() const noexcept {
    return adversary_.universe_size();
  }

  [[nodiscard]] std::size_t quorum_count() const noexcept { return quorums_.size(); }
  [[nodiscard]] const BasicQuorum<Set>& quorum(QuorumId id) const {
    return quorums_.at(id);
  }
  [[nodiscard]] Set quorum_set(QuorumId id) const { return quorums_.at(id).set; }
  [[nodiscard]] std::span<const BasicQuorum<Set>> quorums() const noexcept {
    return quorums_;
  }

  /// Ids of quorums of class <= c (remember class 1 quorums are class 2
  /// quorums are class 3 quorums).
  [[nodiscard]] const std::vector<QuorumId>& class1_ids() const noexcept { return qc1_; }
  [[nodiscard]] const std::vector<QuorumId>& class2_ids() const noexcept { return qc2_; }
  [[nodiscard]] std::vector<QuorumId> all_ids() const;

  [[nodiscard]] bool has_class1() const noexcept { return !qc1_.empty(); }
  [[nodiscard]] bool has_class2() const noexcept { return !qc2_.empty(); }

  /// Quorum completion, the question every wait of the storage and
  /// consensus automata asks: "has some quorum answered in full?".
  ///
  /// for_each_covered visits, in ascending id order, every quorum of class
  /// <= `max_class` whose set is a subset of `heard` (a full scan of the
  /// class's id list). `fn(id)` may return bool; true stops the scan. The
  /// result is true iff `fn` stopped it.
  // rqs-hot-path
  template <class Fn>
  bool for_each_covered(const Set& heard, QuorumClass max_class, Fn&& fn) const {
    if (max_class == QuorumClass::Class3) {
      for (QuorumId id = 0; id < quorums_.size(); ++id) {
        if (quorums_[id].set.subset_of(heard) && visit(fn, id)) return true;
      }
      return false;
    }
    for (const QuorumId id : max_class == QuorumClass::Class1 ? qc1_ : qc2_) {
      if (quorums_[id].set.subset_of(heard) && visit(fn, id)) return true;
    }
    return false;
  }

  /// The same visit restricted to the quorums containing `newcomer`, in
  /// ascending id order over the membership index: after `newcomer`'s
  /// answer joins `heard`, these are the only quorums it can have
  /// completed. A newcomer outside the universe completes nothing.
  // rqs-hot-path
  template <class Fn>
  bool for_each_completed_by(ProcessId newcomer, const Set& heard,
                             QuorumClass max_class, Fn&& fn) const {
    if (newcomer >= quorums_containing_.size()) return false;
    for (const QuorumId id : quorums_containing_[newcomer]) {
      const BasicQuorum<Set>& q = quorums_[id];
      if (q.cls <= max_class && q.set.subset_of(heard) && visit(fn, id)) {
        return true;
      }
    }
    return false;
  }

  /// True iff some quorum of class <= `max_class` is a subset of `heard`.
  // rqs-hot-path
  [[nodiscard]] bool covers(const Set& heard, QuorumClass max_class) const {
    return for_each_covered(heard, max_class, [](QuorumId) { return true; });
  }
  /// The same test over the quorums containing `newcomer` only: did
  /// `newcomer`'s answer complete a quorum of class <= `max_class`?
  // rqs-hot-path
  [[nodiscard]] bool covers(ProcessId newcomer, const Set& heard,
                            QuorumClass max_class) const {
    return for_each_completed_by(newcomer, heard, max_class,
                                 [](QuorumId) { return true; });
  }
  /// True iff some quorum named in `ids` (a QC'2 / X set) is a subset of
  /// `heard`.
  // rqs-hot-path
  [[nodiscard]] bool covers(const Set& heard, const QuorumIdSet& ids) const {
    for (const QuorumId id : ids) {
      if (quorum(id).set.subset_of(heard)) return true;
    }
    return false;
  }

  /// First quorum id whose process set equals `s`, if any.
  [[nodiscard]] std::optional<QuorumId> find(Set s) const;

  /// First quorum (of any class) fully contained in the `alive` set, if
  /// any; protocols use this to ask "is some quorum entirely correct?".
  /// When several qualify, the best (lowest) class wins.
  [[nodiscard]] std::optional<QuorumId> best_available(Set alive) const;

  /// The paper's P3a(Q2, Q, B): Q2 n Q \ B is not in B.
  [[nodiscard]] bool p3a(Set q2, Set q, Set b) const;

  /// The paper's P3b(Q2, Q, B): QC1 is nonempty and Q1 n Q2 n Q \ B is
  /// nonempty for every class 1 quorum Q1.
  [[nodiscard]] bool p3b(Set q2, Set q, Set b) const;

  /// Full property check (Definition 2). Stops after `max_violations`
  /// findings (0 = collect everything). Routed through CheckEngine
  /// (core/check_engine.hpp), which precomputes per-system state; callers
  /// that check one system repeatedly should build a CheckEngine themselves
  /// and reuse it across calls.
  [[nodiscard]] BasicCheckResult<Set> check(std::size_t max_violations = 1) const;

  /// The naive per-property checkers. These are the *reference oracle*:
  /// straight transcriptions of Definition 2 with no caching, against which
  /// CheckEngine is differentially tested. Prefer check()/valid() (engine-
  /// backed) in production paths.
  [[nodiscard]] bool check_property1(BasicCheckResult<Set>& out, std::size_t max) const;
  [[nodiscard]] bool check_property2(BasicCheckResult<Set>& out, std::size_t max) const;
  [[nodiscard]] bool check_property3(BasicCheckResult<Set>& out, std::size_t max) const;

  /// The erroneous conference-version Property 3 (disjunction outside the
  /// quantifier over B): for all Q2, Q: (for all B: P3a) or (for all B:
  /// P3b). Strictly stronger than the corrected property; provided so tests
  /// and benches can exhibit structures separating the two.
  [[nodiscard]] bool check_property3_conference() const;

  /// True iff all three properties hold.
  [[nodiscard]] bool valid() const { return check(1).ok(); }

  [[nodiscard]] std::string to_string() const;

 private:
  /// Calls a visitor; true iff it asked to stop (visitors returning void
  /// never stop).
  template <class Fn>
  static bool visit(Fn& fn, QuorumId id) {
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, QuorumId>, bool>) {
      return fn(id);
    } else {
      fn(id);
      return false;
    }
  }

  BasicAdversary<Set> adversary_;
  std::vector<BasicQuorum<Set>> quorums_;
  std::vector<QuorumId> qc1_;
  std::vector<QuorumId> qc2_;
  /// The inverted membership index: ids of the quorums containing each
  /// process, ascending. An answer from i can only complete those.
  std::vector<std::vector<QuorumId>> quorums_containing_;
};

/// Protocol-width aliases (universes up to 64 processes) — the historical
/// names every protocol-layer call site uses.
using Quorum = BasicQuorum<ProcessSet>;
using PropertyViolation = BasicPropertyViolation<ProcessSet>;
using CheckResult = BasicCheckResult<ProcessSet>;
using RefinedQuorumSystem = BasicRefinedQuorumSystem<ProcessSet>;

/// Analysis-width aliases (universes up to 256 processes).
using WideQuorum = BasicQuorum<WideProcessSet>;
using WidePropertyViolation = BasicPropertyViolation<WideProcessSet>;
using WideCheckResult = BasicCheckResult<WideProcessSet>;
using WideRefinedQuorumSystem = BasicRefinedQuorumSystem<WideProcessSet>;

// Instantiated once in rqs.cpp for the two supported widths.
extern template struct BasicPropertyViolation<ProcessSet>;
extern template struct BasicPropertyViolation<WideProcessSet>;
extern template struct BasicCheckResult<ProcessSet>;
extern template struct BasicCheckResult<WideProcessSet>;
extern template class BasicRefinedQuorumSystem<ProcessSet>;
extern template class BasicRefinedQuorumSystem<WideProcessSet>;

}  // namespace rqs
