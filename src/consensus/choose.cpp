#include "consensus/choose.hpp"

#include <algorithm>
#include <optional>
#include <vector>

namespace rqs::consensus {

namespace {

/// A vProof indexed once per call, so that every Fig. 13 predicate is a
/// few word operations per quorum instead of per-acceptor map and set
/// lookups. For a candidate (v, w) the index holds the acceptors
///   P(v, w)  reporting prep = v with w in Prepview,
///   U1(v, w) reporting update[1] = v with w in Updateview[1],
///   U2(v, w) reporting update[2] = v with w in Updateview[2],
/// and for a view w and quorum id Q2 the acceptors
///   UQ(w, Q2) whose Updateq[1, w] holds Q2.
/// Ids past ProcessSet's width are never members of Q; their acks only
/// widen the candidate universe. Quorum ids outside the system are ignored.
class ProofIndex {
 public:
  /// Which of the four candidate predicates hold for one (v, w).
  struct Flags {
    bool cand2{false};
    bool cand3a{false};
    bool cand3b{false};
    bool cand4{false};
    [[nodiscard]] bool any() const { return cand2 || cand3a || cand3b || cand4; }
  };

  /// `rqs` may be null for Cand4, the one predicate that reads no quorum.
  ProofIndex(const VProof& vproof, ProcessSet q, const RefinedQuorumSystem* rqs)
      : q_(q), rqs_(rqs), quorum_count_(rqs == nullptr ? 0 : rqs->quorum_count()) {
    // Candidate universe: every non-nil value and every view of the proof.
    std::vector<std::pair<ViewNumber, Value>> keys;
    std::vector<ViewNumber> update1_views;
    for (const auto& [a, ack] : vproof) {
      if (!is_bottom(ack.prep)) values_.push_back(ack.prep);
      for (const ViewNumber w : ack.prepview) keys.emplace_back(w, ack.prep);
      for (RoundNumber step = 1; step <= 2; ++step) {
        if (!is_bottom(ack.update[step])) values_.push_back(ack.update[step]);
        for (const ViewNumber w : ack.updateview[step]) {
          keys.emplace_back(w, ack.update[step]);
        }
      }
      update1_views.insert(update1_views.end(), ack.updateview[1].begin(),
                           ack.updateview[1].end());
    }
    sort_unique(values_);
    sort_unique(keys);
    sort_unique(update1_views);
    for (const auto& [w, v] : keys) {
      if (views_.empty() || views_.back() != w) views_.push_back(w);
      cells_.push_back(Cell{w, v, {}, {}, {}});
    }
    // UQ rows exist for the views someone 1-updated in only: elsewhere
    // U1(v, w) is empty, and UQ is only ever read intersected with it.
    uq_views_ = std::move(update1_views);
    uq_.assign(uq_views_.size() * quorum_count_, ProcessSet{});

    for (const auto& [a, ack] : vproof) {
      if (a >= ProcessSet::kMaxProcesses) continue;
      acked_.insert(a);
      for (const ViewNumber w : ack.prepview) {
        cells_[cell_index(ack.prep, w)].prep.insert(a);
      }
      for (const ViewNumber w : ack.updateview[1]) {
        cells_[cell_index(ack.update[1], w)].upd1.insert(a);
      }
      for (const ViewNumber w : ack.updateview[2]) {
        cells_[cell_index(ack.update[2], w)].upd2.insert(a);
      }
      for (const auto& [key, ids] : ack.updateq) {
        if (key.first != 1) continue;
        const std::size_t row = uq_row_index(key.second);
        if (row == uq_views_.size()) continue;
        for (const QuorumId id : ids) {
          if (id < quorum_count_) uq_[row * quorum_count_ + id].insert(a);
        }
      }
    }
  }

  /// Non-nil values of the proof, ascending.
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }
  /// Views of the proof's Prepview / Updateview sets, ascending.
  [[nodiscard]] const std::vector<ViewNumber>& views() const { return views_; }

  /// Cand2(v, w). The existential over B collapses to one witness: with
  /// miss = the members of Q1 n Q outside P(v, w), any B works iff B
  /// contains miss, and B downward closed makes miss itself the smallest
  /// such element — so Cand2 iff miss is in the adversary.
  [[nodiscard]] bool cand2(Value v, ViewNumber w) const {
    const ProcessSet prep = sets(v, w).prep;
    for (const QuorumId q1 : rqs_->class1_ids()) {
      if (rqs_->adversary().contains((rqs_->quorum_set(q1) & q_) - prep)) return true;
    }
    return false;
  }

  /// C3(v, w, variant, Q2, B) for the given B: P3 holds at B and B covers
  /// every acceptor failing the consequent.
  [[nodiscard]] bool c3(Value v, ViewNumber w, char variant, QuorumId q2,
                        ProcessSet b) const {
    return p3(variant, q2, b) &&
           c3_miss(sets(v, w).upd1, uq_row_index(w), q2).subset_of(b);
  }

  /// Valid3(v, w, variant). The per-acceptor consequent does not depend on
  /// B, so "for all B where C3 holds" reduces to "if C3 holds for SOME B
  /// (the collapsed witness)". It then fails iff an acked member of Q2 n Q
  /// neither confirms it prepared v in w nor prepared only above w.
  [[nodiscard]] bool valid3(Value v, ViewNumber w, char variant) const {
    const Cell c = sets(v, w);
    const std::size_t row = uq_row_index(w);
    const ProcessSet unconfirmed = (acked_ - c.prep) - above(w);
    for (const QuorumId q2 : rqs_->class2_ids()) {
      if (!c3_some_b(c.upd1, row, variant, q2)) continue;
      if (!(rqs_->quorum_set(q2) & q_ & unconfirmed).empty()) return false;
    }
    return true;
  }

  [[nodiscard]] bool cand4(Value v, ViewNumber w) const {
    return !(q_ & sets(v, w).upd2).empty();
  }

  /// All four candidate predicates of (v, w), Cand3 for both variants in
  /// one pass over QC2.
  [[nodiscard]] Flags flags(Value v, ViewNumber w) const {
    Flags f;
    f.cand2 = cand2(v, w);
    f.cand4 = cand4(v, w);
    // C3 at the witness miss needs an acceptor of Q2 n Q outside miss:
    // P3b's Q1 n Q2 n Q \ miss and P3a's non-membership of (Q2 n Q) \ miss
    // both fail on the empty set (miss in B puts {} in B). So with no
    // 1-update of (v, w) inside Q no quorum witnesses Cand3.
    const ProcessSet upd1 = sets(v, w).upd1;
    if ((q_ & upd1).empty()) return f;
    const std::size_t row = uq_row_index(w);
    for (const QuorumId q2 : rqs_->class2_ids()) {
      f.cand3a = f.cand3a || c3_some_b(upd1, row, 'a', q2);
      f.cand3b = f.cand3b || c3_some_b(upd1, row, 'b', q2);
      if (f.cand3a && f.cand3b) break;
    }
    return f;
  }

 private:
  struct Cell {
    ViewNumber w{0};
    Value v{kNil};
    ProcessSet prep;  // P(v, w)
    ProcessSet upd1;  // U1(v, w)
    ProcessSet upd2;  // U2(v, w)
  };

  template <typename T>
  static void sort_unique(std::vector<T>& xs) {
    std::sort(xs.begin(), xs.end());
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  }

  [[nodiscard]] bool p3(char variant, QuorumId q2, ProcessSet b) const {
    const ProcessSet q2set = rqs_->quorum_set(q2);
    return (variant == 'a') ? rqs_->p3a(q2set, q_, b) : rqs_->p3b(q2set, q_, b);
  }

  /// The position of (v, w) in cells_, or cells_.size() when no acceptor
  /// reports that pair.
  [[nodiscard]] std::size_t cell_index(Value v, ViewNumber w) const {
    const auto it = std::lower_bound(
        cells_.begin(), cells_.end(), std::pair{w, v},
        [](const Cell& c, const std::pair<ViewNumber, Value>& k) {
          return std::pair{c.w, c.v} < k;
        });
    if (it == cells_.end() || it->w != w || it->v != v) return cells_.size();
    return static_cast<std::size_t>(it - cells_.begin());
  }

  /// The cell of (v, w); all-empty when no acceptor reports that pair.
  [[nodiscard]] Cell sets(Value v, ViewNumber w) const {
    const std::size_t i = cell_index(v, w);
    return i == cells_.size() ? Cell{w, v, {}, {}, {}} : cells_[i];
  }

  /// The UQ row of view w, or uq_views_.size() when w has none.
  [[nodiscard]] std::size_t uq_row_index(ViewNumber w) const {
    const auto it = std::lower_bound(uq_views_.begin(), uq_views_.end(), w);
    if (it == uq_views_.end() || *it != w) return uq_views_.size();
    return static_cast<std::size_t>(it - uq_views_.begin());
  }

  /// The acceptors of Q2 n Q that FAIL C3's per-acceptor consequent:
  /// update[1] = v, w in Updateview[1], Q2 in Updateq[1, w]; `upd1` is
  /// U1(v, w) and `row` the UQ row of w.
  [[nodiscard]] ProcessSet c3_miss(ProcessSet upd1, std::size_t row, QuorumId q2) const {
    const ProcessSet uq = row == uq_views_.size() || q2 >= quorum_count_
                              ? ProcessSet{}
                              : uq_[row * quorum_count_ + q2];
    return (rqs_->quorum_set(q2) & q_) - (upd1 & uq);
  }

  /// Exists B in the adversary with C3(v, w, variant, Q2, B)? Collapsed to
  /// the single witness B = miss: any B satisfying C3 must contain miss, B
  /// downward closed puts miss in the adversary, and both P3a and P3b are
  /// antitone in B, so C3 then also holds at miss itself.
  [[nodiscard]] bool c3_some_b(ProcessSet upd1, std::size_t row, char variant,
                               QuorumId q2) const {
    const ProcessSet miss = c3_miss(upd1, row, q2);
    return rqs_->adversary().contains(miss) && p3(variant, q2, miss);
  }

  /// Above(w): the acked acceptors all of whose prepared views exceed w
  /// (vacuously those with an empty Prepview). Every prepared view sits in
  /// the P cell of the acceptor's own prep value, so the complement is the
  /// union of P over the cells at or below w.
  [[nodiscard]] ProcessSet above(ViewNumber w) const {
    ProcessSet at_or_below;
    for (const Cell& c : cells_) {
      if (c.w > w) break;
      at_or_below |= c.prep;
    }
    return acked_ - at_or_below;
  }

  ProcessSet q_;
  const RefinedQuorumSystem* rqs_;
  std::size_t quorum_count_;
  ProcessSet acked_;
  std::vector<Value> values_;
  std::vector<ViewNumber> views_;
  std::vector<Cell> cells_;  // sorted by (w, v), one per reported pair
  std::vector<ViewNumber> uq_views_;
  std::vector<ProcessSet> uq_;  // uq_views_.size() rows of quorum_count()
};

}  // namespace

bool cand2(Value v, ViewNumber w, const VProof& vproof, ProcessSet q,
           const RefinedQuorumSystem& rqs) {
  return ProofIndex(vproof, q, &rqs).cand2(v, w);
}

bool c3(Value v, ViewNumber w, char variant, QuorumId q2id, ProcessSet b,
        const VProof& vproof, ProcessSet q, const RefinedQuorumSystem& rqs) {
  return ProofIndex(vproof, q, &rqs).c3(v, w, variant, q2id, b);
}

bool cand3(Value v, ViewNumber w, char variant, const VProof& vproof,
           ProcessSet q, const RefinedQuorumSystem& rqs) {
  const ProofIndex::Flags f = ProofIndex(vproof, q, &rqs).flags(v, w);
  return variant == 'a' ? f.cand3a : f.cand3b;
}

bool valid3(Value v, ViewNumber w, char variant, const VProof& vproof,
            ProcessSet q, const RefinedQuorumSystem& rqs) {
  return ProofIndex(vproof, q, &rqs).valid3(v, w, variant);
}

bool cand4(Value v, ViewNumber w, const VProof& vproof, ProcessSet q) {
  return ProofIndex(vproof, q, nullptr).cand4(v, w);
}

ChooseResult choose(Value v_prime, const VProof& vproof, ProcessSet q,
                    const RefinedQuorumSystem& rqs) {
  ChooseResult result{v_prime, false};  // line 10
  const ProofIndex index(vproof, q, &rqs);
  const std::vector<Value>& values = index.values();

  // Lines 11-12: viewmax is the highest view with a candidate, so scan the
  // views downward and stop at the first one that has any.
  std::vector<ProofIndex::Flags> row(values.size());
  const auto& views = index.views();
  std::optional<ViewNumber> viewmax;
  for (auto w = views.rbegin(); w != views.rend() && !viewmax; ++w) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      row[i] = index.flags(values[i], *w);
      if (row[i].any()) viewmax = *w;
    }
  }
  if (!viewmax) return result;  // line 21: no candidate, keep v'

  // Lines 13-14: Cand3(v, w, 'a') or Cand4(v, w) has top priority.
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (row[i].cand3a || row[i].cand4) {
      result.value = values[i];
      return result;
    }
  }
  // Lines 15-16: two distinct Cand3(*, w, 'b') candidates => abort.
  const auto b_count = std::count_if(row.begin(), row.end(),
                                     [](const ProofIndex::Flags& f) { return f.cand3b; });
  if (b_count >= 2) {
    result.abort = true;
    return result;
  }
  // Lines 17-19: a single Cand3(v, w, 'b') candidate.
  if (b_count == 1) {
    const auto i = static_cast<std::size_t>(
        std::find_if(row.begin(), row.end(),
                     [](const ProofIndex::Flags& f) { return f.cand3b; }) -
        row.begin());
    if (index.valid3(values[i], *viewmax, 'b')) {
      result.value = values[i];
    } else {
      result.abort = true;
    }
    return result;
  }
  // Line 20: fall back to the (unique, by Property 2) Cand2 candidate.
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (row[i].cand2) {
      result.value = values[i];
      return result;
    }
  }
  return result;
}

}  // namespace rqs::consensus
