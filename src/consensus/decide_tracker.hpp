// The decision rules shared by acceptors and learners (Figure 15, lines
// 51-53): decide v upon receiving
//   - the same update1<v, view, *>  from a class 1 quorum,
//   - the same update2<v, view, Q2> from Q2 itself (a class 2 quorum), or
//   - the same update3<v, view, *>  from any quorum.
//
// A quorum can only become complete on a message from one of its members,
// so every rule asks the membership-indexed query of the quorum system
// (covers / for_each_completed_by with the sender as newcomer), and a
// sender that is already counted changes nothing.
#pragma once

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "consensus/messages.hpp"
#include "core/rqs.hpp"

namespace rqs::consensus {

class DecideTracker {
 public:
  explicit DecideTracker(const RefinedQuorumSystem& rqs) : rqs_(&rqs) {}

  /// Feeds an update message received from `sender`; returns the decided
  /// value when one of the three rules fires (first firing only).
  std::optional<Value> feed(ProcessId sender, const UpdateMsg& m) {
    // A sender outside the universe belongs to no quorum; drop it before
    // it reaches the per-(view, value) sender sets.
    if (decided_ || sender >= rqs_->universe_size()) return std::nullopt;
    switch (m.step) {
      case 1:
        return feed_senders(update1_[{m.view, m.value}], sender,
                            QuorumClass::Class1, m);
      case 2: {
        // One update2 with covered set S is update2<v, view, Q> for every
        // Q subset of S. Rule 2 credits the sender to each class <= 2
        // quorum it belongs to that S contains; "the same update2<v, view,
        // Q2> from Q2" is a quorum credited by all its members.
        if (!m.covered.subset_of(ProcessSet::universe(rqs_->universe_size()))) {
          return std::nullopt;  // malformed
        }
        std::vector<ProcessSet>& credits = update2_[{m.view, m.value}];
        if (credits.empty()) credits.resize(rqs_->quorum_count());
        const bool complete = rqs_->for_each_completed_by(
            sender, m.covered, QuorumClass::Class2, [&](QuorumId qid) {
              credits[qid].insert(sender);
              return credits[qid] == rqs_->quorum_set(qid);
            });
        return complete ? decide(m.value, 2, m.view) : std::nullopt;
      }
      case 3:
        return feed_senders(update3_[{m.view, m.value}], sender,
                            QuorumClass::Class3, m);
      default:
        return std::nullopt;
    }
  }

  [[nodiscard]] bool decided() const noexcept { return decided_; }
  [[nodiscard]] Value decision() const noexcept { return decision_; }
  /// Which rule fired (1/2/3 — the quorum-class ladder position of the
  /// decision); 0 before any decision.
  [[nodiscard]] RoundNumber decided_step() const noexcept { return decided_step_; }
  /// The view the deciding updates carried; meaningful once decided().
  [[nodiscard]] ViewNumber decided_view() const noexcept { return decided_view_; }

 private:
  std::optional<Value> decide(Value v, RoundNumber step, ViewNumber view) {
    decided_ = true;
    decision_ = v;
    decided_step_ = step;
    decided_view_ = view;
    return v;
  }

  /// Rules 1 and 3: counts `sender` and decides once some quorum of class
  /// <= `max_class` containing it has been heard from in full.
  std::optional<Value> feed_senders(ProcessSet& senders, ProcessId sender,
                                    QuorumClass max_class, const UpdateMsg& m) {
    if (senders.contains(sender)) return std::nullopt;
    senders.insert(sender);
    if (!rqs_->covers(sender, senders, max_class)) return std::nullopt;
    return decide(m.value, m.step, m.view);
  }

  const RefinedQuorumSystem* rqs_;
  bool decided_{false};
  Value decision_{kNil};
  RoundNumber decided_step_{0};
  ViewNumber decided_view_{0};
  std::map<std::tuple<ViewNumber, Value>, ProcessSet> update1_;
  /// Rule 2 credits per quorum id, for each (view, value).
  std::map<std::tuple<ViewNumber, Value>, std::vector<ProcessSet>> update2_;
  std::map<std::tuple<ViewNumber, Value>, ProcessSet> update3_;
};

}  // namespace rqs::consensus
