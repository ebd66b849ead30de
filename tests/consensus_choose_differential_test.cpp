// Differential test of choose() (Figure 13): the indexed evaluation in
// src/consensus/choose.cpp against a straight per-acceptor transcription
// of the figure, kept here as the oracle. Over seeded random vProofs on
// six systems, choose() must return the same ChooseResult and every public
// predicate the same answer, and the corpus must reach every exit of
// choose() (lines 13-14, the 15-16 abort, the 17-19 value and abort, line
// 20 and line 21).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consensus/choose.hpp"
#include "core/constructions.hpp"

namespace rqs::consensus {
namespace {

// ---------------------------------------------------------------------------
// Oracle: Fig. 13 evaluated acceptor by acceptor over the proof's maps and
// sets, every (w, v) pair of the universe in turn.
// ---------------------------------------------------------------------------
namespace oracle {

const NewViewAckData* ack_of(const VProof& vproof, ProcessId a) {
  const auto it = vproof.find(a);
  return it == vproof.end() ? nullptr : &it->second;
}

struct Universe {
  std::set<Value> values;
  std::set<ViewNumber> views;
};

Universe universe_of(const VProof& vproof) {
  Universe u;
  for (const auto& [a, ack] : vproof) {
    if (!is_bottom(ack.prep)) u.values.insert(ack.prep);
    for (const ViewNumber w : ack.prepview) u.views.insert(w);
    for (RoundNumber step = 1; step <= 2; ++step) {
      if (!is_bottom(ack.update[step])) u.values.insert(ack.update[step]);
      for (const ViewNumber w : ack.updateview[step]) u.views.insert(w);
    }
  }
  return u;
}

bool cand2(Value v, ViewNumber w, const VProof& vproof, ProcessSet q,
           const RefinedQuorumSystem& rqs) {
  for (const QuorumId q1id : rqs.class1_ids()) {
    const ProcessSet q1 = rqs.quorum_set(q1id);
    ProcessSet miss;
    for (const ProcessId a : q1 & q) {
      const NewViewAckData* ack = ack_of(vproof, a);
      if (ack == nullptr || ack->prep != v ||
          ack->prepview.find(w) == ack->prepview.end()) {
        miss.insert(a);
      }
    }
    if (rqs.adversary().contains(miss)) return true;
  }
  return false;
}

bool c3(Value v, ViewNumber w, char variant, QuorumId q2id, ProcessSet b,
        const VProof& vproof, ProcessSet q, const RefinedQuorumSystem& rqs) {
  const ProcessSet q2 = rqs.quorum_set(q2id);
  const bool p3 = (variant == 'a') ? rqs.p3a(q2, q, b) : rqs.p3b(q2, q, b);
  if (!p3) return false;
  for (const ProcessId a : (q2 & q) - b) {
    const NewViewAckData* ack = ack_of(vproof, a);
    if (ack == nullptr) return false;
    if (ack->update[1] != v) return false;
    if (ack->updateview[1].find(w) == ack->updateview[1].end()) return false;
    const auto it = ack->updateq.find(StepView{1, w});
    if (it == ack->updateq.end() || it->second.find(q2id) == it->second.end()) {
      return false;
    }
  }
  return true;
}

ProcessSet c3_miss(Value v, ViewNumber w, QuorumId q2id, const VProof& vproof,
                   ProcessSet q, const RefinedQuorumSystem& rqs) {
  ProcessSet miss;
  for (const ProcessId a : rqs.quorum_set(q2id) & q) {
    const NewViewAckData* ack = ack_of(vproof, a);
    if (ack == nullptr || ack->update[1] != v ||
        ack->updateview[1].find(w) == ack->updateview[1].end()) {
      miss.insert(a);
      continue;
    }
    const auto it = ack->updateq.find(StepView{1, w});
    if (it == ack->updateq.end() || it->second.find(q2id) == it->second.end()) {
      miss.insert(a);
    }
  }
  return miss;
}

bool c3_some_b(Value v, ViewNumber w, char variant, QuorumId q2id,
               const VProof& vproof, ProcessSet q, const RefinedQuorumSystem& rqs) {
  const ProcessSet miss = oracle::c3_miss(v, w, q2id, vproof, q, rqs);
  if (!rqs.adversary().contains(miss)) return false;
  const ProcessSet q2 = rqs.quorum_set(q2id);
  return (variant == 'a') ? rqs.p3a(q2, q, miss) : rqs.p3b(q2, q, miss);
}

bool cand3(Value v, ViewNumber w, char variant, const VProof& vproof,
           ProcessSet q, const RefinedQuorumSystem& rqs) {
  for (const QuorumId q2id : rqs.class2_ids()) {
    if (oracle::c3_some_b(v, w, variant, q2id, vproof, q, rqs)) return true;
  }
  return false;
}

bool valid3(Value v, ViewNumber w, char variant, const VProof& vproof,
            ProcessSet q, const RefinedQuorumSystem& rqs) {
  for (const QuorumId q2id : rqs.class2_ids()) {
    if (!oracle::c3_some_b(v, w, variant, q2id, vproof, q, rqs)) continue;
    for (const ProcessId a : rqs.quorum_set(q2id) & q) {
      const NewViewAckData* ack = ack_of(vproof, a);
      if (ack == nullptr) continue;
      const bool confirms =
          ack->prep == v && ack->prepview.find(w) != ack->prepview.end();
      const bool all_above = std::all_of(ack->prepview.begin(), ack->prepview.end(),
                                         [w](ViewNumber wp) { return wp > w; });
      if (!confirms && !all_above) return false;
    }
  }
  return true;
}

bool cand4(Value v, ViewNumber w, const VProof& vproof, ProcessSet q) {
  for (const ProcessId a : q) {
    const NewViewAckData* ack = ack_of(vproof, a);
    if (ack != nullptr && ack->update[2] == v &&
        ack->updateview[2].find(w) != ack->updateview[2].end()) {
      return true;
    }
  }
  return false;
}

/// The exit of choose() a result came from.
enum Exit { kLine14, kLine16Abort, kLine19Value, kLine19Abort, kLine20, kLine21, kExits };

ChooseResult choose(Value v_prime, const VProof& vproof, ProcessSet q,
                    const RefinedQuorumSystem& rqs, Exit& exit) {
  ChooseResult result{v_prime, false};
  const Universe u = universe_of(vproof);
  std::optional<ViewNumber> viewmax;
  for (const ViewNumber w : u.views) {
    for (const Value v : u.values) {
      if (oracle::cand2(v, w, vproof, q, rqs) || oracle::cand3(v, w, 'a', vproof, q, rqs) ||
          oracle::cand3(v, w, 'b', vproof, q, rqs) || oracle::cand4(v, w, vproof, q)) {
        if (!viewmax || w > *viewmax) viewmax = w;
      }
    }
  }
  exit = kLine21;
  if (!viewmax) return result;
  const ViewNumber w = *viewmax;
  exit = kLine14;
  for (const Value v : u.values) {
    if (oracle::cand3(v, w, 'a', vproof, q, rqs) || oracle::cand4(v, w, vproof, q)) {
      result.value = v;
      return result;
    }
  }
  std::vector<Value> b_candidates;
  for (const Value v : u.values) {
    if (oracle::cand3(v, w, 'b', vproof, q, rqs)) b_candidates.push_back(v);
  }
  if (b_candidates.size() >= 2) {
    exit = kLine16Abort;
    result.abort = true;
    return result;
  }
  if (b_candidates.size() == 1) {
    const Value v = b_candidates.front();
    if (oracle::valid3(v, w, 'b', vproof, q, rqs)) {
      exit = kLine19Value;
      result.value = v;
    } else {
      exit = kLine19Abort;
      result.abort = true;
    }
    return result;
  }
  exit = kLine20;
  for (const Value v : u.values) {
    if (oracle::cand2(v, w, vproof, q, rqs)) {
      result.value = v;
      return result;
    }
  }
  return result;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Corpus.
// ---------------------------------------------------------------------------

struct System {
  const char* name;
  RefinedQuorumSystem rqs;
};

std::vector<System> systems() {
  std::vector<System> out;
  out.push_back({"3t+1(t=1)", make_3t1_instantiation(1)});
  out.push_back({"3t+1(t=2)", make_3t1_instantiation(2)});
  out.push_back({"3t+1(t=3)", make_3t1_instantiation(3)});
  out.push_back({"example7", make_example7()});
  out.push_back({"fig3", make_fig3_example()});
  out.push_back({"graded7", make_graded_threshold(7, 1, 2, 1, 0)});
  return out;
}

constexpr Value kValues[] = {10, 11, 12};
constexpr ViewNumber kMaxView = 3;  // views 0..3 are reported
constexpr ViewNumber kAckView = kMaxView + 1;
constexpr std::size_t kProofsPerSystem = 400;

Value random_value(Rng& rng) {
  return kValues[static_cast<std::size_t>(rng.uniform(0, std::size(kValues) - 1))];
}
ViewNumber random_view(Rng& rng) {
  return static_cast<ViewNumber>(rng.uniform(0, kMaxView));
}
QuorumId random_quorum(Rng& rng, const std::vector<QuorumId>& ids) {
  return ids[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))];
}
ProcessSet random_subset(Rng& rng, ProcessSet of, double p) {
  ProcessSet out;
  for (const ProcessId a : of) {
    if (rng.chance(p)) out.insert(a);
  }
  return out;
}

/// A random quorum id of any class, or (rarely) one outside the system.
QuorumId noisy_quorum_id(Rng& rng, const RefinedQuorumSystem& rqs) {
  const auto count = static_cast<std::int64_t>(rqs.quorum_count());
  if (rng.chance(0.1)) return static_cast<QuorumId>(count + rng.uniform(0, 3));
  return static_cast<QuorumId>(rng.uniform(0, count - 1));
}

/// Background noise: an acceptor's ack with random prepare and update
/// state, including step-2 entries and Updateq ids of every class and
/// outside the system.
NewViewAckData noise_ack(Rng& rng, const RefinedQuorumSystem& rqs) {
  NewViewAckData ack;
  ack.view = kAckView;
  if (rng.chance(0.6)) {
    ack.prep = random_value(rng);
    for (int i = static_cast<int>(rng.uniform(0, 2)); i > 0; --i) {
      ack.prepview.insert(random_view(rng));
    }
  } else if (rng.chance(0.1)) {
    ack.prepview.insert(random_view(rng));  // garbage: a view but no value
  }
  for (RoundNumber step = 1; step <= 2; ++step) {
    if (!rng.chance(step == 1 ? 0.4 : 0.2)) continue;
    ack.update[step] = random_value(rng);
    for (int i = static_cast<int>(rng.uniform(1, 2)); i > 0; --i) {
      const ViewNumber w = random_view(rng);
      ack.updateview[step].insert(w);
      for (int k = static_cast<int>(rng.uniform(0, 3)); k > 0; --k) {
        ack.updateq[{step, w}].insert(noisy_quorum_id(rng, rqs));
      }
    }
    // An Updateq entry for a view the acceptor never updated in.
    if (rng.chance(0.2)) ack.updateq[{step, random_view(rng)}].insert(noisy_quorum_id(rng, rqs));
  }
  return ack;
}

/// A coherent story laid over the noise: members of a random quorum
/// report they prepared (and possibly 1- or 2-updated) one value in one
/// view — with the update quorum's id — while a random share of them, or
/// a second value on the other members, contradicts it. These make the
/// Cand2/Cand3/Cand4 witnesses the pure noise almost never forms.
void add_story(Rng& rng, const RefinedQuorumSystem& rqs, VProof& vproof) {
  const ViewNumber w = random_view(rng);
  const Value v = random_value(rng);
  const Value other = rng.chance(0.5) ? random_value(rng) : kNil;
  const int depth = static_cast<int>(rng.uniform(0, 2));  // 0 prep, 1 update1, 2 update2
  const QuorumId q2 = depth == 0 && rqs.has_class1() && rng.chance(0.5)
                          ? random_quorum(rng, rqs.class1_ids())
                          : random_quorum(rng, rqs.class2_ids());
  const double keep = rng.chance(0.5) ? 1.0 : 0.75;
  for (const ProcessId a : rqs.quorum_set(q2)) {
    const auto it = vproof.find(a);
    if (it == vproof.end()) continue;
    NewViewAckData& ack = it->second;
    const bool loyal = rng.chance(keep);
    const Value x = loyal ? v : other;
    if (is_bottom(x)) continue;
    if (ack.prep != x) ack.prepview.clear();
    ack.prep = x;
    ack.prepview.insert(w);
    if (rng.chance(0.3)) ack.prepview.insert(w + 1);  // a later prepare too
    for (RoundNumber step = 1; step <= static_cast<RoundNumber>(depth); ++step) {
      if (ack.update[step] != x) {
        ack.updateview[step].clear();
        std::erase_if(ack.updateq, [step](const auto& e) { return e.first.first == step; });
      }
      ack.update[step] = x;
      ack.updateview[step].insert(w);
      ack.updateq[{step, w}].insert(q2);
    }
  }
}

struct Proof {
  VProof vproof;
  ProcessSet q;
};

Proof random_proof(Rng& rng, const RefinedQuorumSystem& rqs) {
  Proof p;
  const auto all = rqs.all_ids();
  p.q = rng.chance(0.9) ? rqs.quorum_set(random_quorum(rng, all))
                        : random_subset(rng, ProcessSet::universe(rqs.universe_size()), 0.7);
  for (const ProcessId a : p.q) {
    if (rng.chance(0.05)) continue;  // a missing ack
    p.vproof[a] = noise_ack(rng, rqs);
  }
  // Now and then an ack from outside Q: it widens only the universe.
  if (rng.chance(0.1)) {
    const ProcessSet outside = ProcessSet::universe(rqs.universe_size()) - p.q;
    if (!outside.empty()) p.vproof[*outside.begin()] = noise_ack(rng, rqs);
  }
  if (rng.chance(0.15)) {
    // A fresh consult: most acks report nothing at all.
    for (auto& [a, ack] : p.vproof) {
      if (!rng.chance(0.8)) continue;
      ack = NewViewAckData{};
      ack.view = kAckView;
    }
  }
  for (int i = static_cast<int>(rng.uniform(0, 2)); i > 0; --i) add_story(rng, rqs, p.vproof);
  return p;
}

/// Two stories' worth of contradicting 1-updates in one view over one
/// class-2 quorum, split between two values: the shape of the 15-16 abort.
Proof split_proof(Rng& rng, const RefinedQuorumSystem& rqs) {
  Proof p;
  const QuorumId q2 = random_quorum(rng, rqs.class2_ids());
  const auto all = rqs.all_ids();
  p.q = rqs.quorum_set(random_quorum(rng, all));
  const ViewNumber w = random_view(rng);
  for (const ProcessId a : p.q) {
    NewViewAckData ack;
    ack.view = kAckView;
    if (rqs.quorum_set(q2).contains(a)) {
      const Value x = rng.chance(0.5) ? kValues[0] : kValues[1];
      ack.prep = x;
      ack.prepview = {w};
      ack.update[1] = x;
      ack.updateview[1] = {w};
      ack.updateq[{1, w}] = {q2};
    } else if (rng.chance(0.5)) {
      ack.prep = kValues[2];
      ack.prepview = {rng.chance(0.5) ? w : w + 1};
    }
    p.vproof[a] = ack;
  }
  return p;
}

std::string describe(const System& sys, std::size_t i, const Proof& p) {
  return std::string(sys.name) + " proof #" + std::to_string(i) + " q=" + p.q.to_string();
}

/// Every public predicate over the proof's universe plus a value and a
/// view nobody reports, against the oracle.
void expect_same_predicates(const RefinedQuorumSystem& rqs, const Proof& p,
                            Rng& rng, const std::string& where) {
  std::vector<Value> values(std::begin(kValues), std::end(kValues));
  values.push_back(99);
  values.push_back(kNil);
  for (const Value v : values) {
    for (ViewNumber w = 0; w <= kMaxView + 1; ++w) {
      const auto& [vp, q] = p;
      SCOPED_TRACE(where + " v=" + std::to_string(v) + " w=" + std::to_string(w));
      ASSERT_EQ(cand2(v, w, vp, q, rqs), oracle::cand2(v, w, vp, q, rqs));
      ASSERT_EQ(cand4(v, w, vp, q), oracle::cand4(v, w, vp, q));
      for (const char variant : {'a', 'b'}) {
        ASSERT_EQ(cand3(v, w, variant, vp, q, rqs), oracle::cand3(v, w, variant, vp, q, rqs));
        ASSERT_EQ(valid3(v, w, variant, vp, q, rqs), oracle::valid3(v, w, variant, vp, q, rqs));
      }
      // C3 at a few (Q2, B): the collapsed witness, nothing, and a random
      // adversary element, on quorums of every class.
      for (int k = 0; k < 3; ++k) {
        const QuorumId q2 = static_cast<QuorumId>(
            rng.uniform(0, static_cast<std::int64_t>(rqs.quorum_count()) - 1));
        const ProcessSet bs[] = {oracle::c3_miss(v, w, q2, vp, q, rqs), ProcessSet{},
                                 random_subset(rng, rqs.quorum_set(q2), 0.3)};
        for (const ProcessSet b : bs) {
          for (const char variant : {'a', 'b'}) {
            ASSERT_EQ(c3(v, w, variant, q2, b, vp, q, rqs),
                      oracle::c3(v, w, variant, q2, b, vp, q, rqs))
                << "Q2=" << q2 << " B=" << b.to_string() << " variant " << variant;
          }
        }
      }
    }
  }
}

TEST(ChooseDifferentialTest, IndexedChooseMatchesOracle) {
  std::array<std::size_t, oracle::kExits> exits{};
  std::size_t proofs = 0;
  for (const System& sys : systems()) {
    Rng rng(0xC405E + proofs);
    for (std::size_t i = 0; i < kProofsPerSystem; ++i, ++proofs) {
      const Proof p = (i % 8 == 7) ? split_proof(rng, sys.rqs) : random_proof(rng, sys.rqs);
      const std::string where = describe(sys, i, p);
      oracle::Exit exit{};
      const ChooseResult want = oracle::choose(42, p.vproof, p.q, sys.rqs, exit);
      const ChooseResult got = choose(42, p.vproof, p.q, sys.rqs);
      ++exits[exit];
      ASSERT_EQ(got.value, want.value) << where;
      ASSERT_EQ(got.abort, want.abort) << where;
      if (i % 4 == 0) {
        expect_same_predicates(sys.rqs, p, rng, where);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GE(proofs, 2000u);
  const char* names[] = {"13-14", "15-16 abort", "17-19 value", "17-19 abort", "20", "21"};
  for (std::size_t e = 0; e < oracle::kExits; ++e) {
    EXPECT_GT(exits[e], 0u) << "no proof reached the exit at line " << names[e];
    std::printf("exit %-12s %zu\n", names[e], exits[e]);
  }
}

}  // namespace
}  // namespace rqs::consensus
