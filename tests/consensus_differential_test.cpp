// Behaviour contract of the consensus automata over a loss-free corpus,
// plus exact message-complexity pins.
//
// The golden table was recorded from the per-quorum UPDATE2 acceptor (one
// update2<v, view, Q> broadcast per newly covered quorum, Fig. 15 lines
// 36-38 taken literally) before UPDATE2 became one covered-set message per
// acceptor step. Batching may only remove physical messages: every
// learner must learn the same value, after the same number of message
// delays, through the same decision rule, and every acceptor must end in
// the same protocol state. A mismatch is a behaviour change to explain,
// not a table to re-record. The acceptor digests were re-recorded once,
// when the acceptor's record of sent updates changed from payload strings
// to UpdatePayload structs: no learner column moved, and every row kept
// its pattern of which acceptors share a digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"

namespace rqs::consensus {
namespace {

constexpr Value kValue = 100;
/// Every row runs to this virtual time, well past every decision, view
/// change and decision-quorum timer stop in the corpus.
constexpr sim::SimTime kHorizonDeltas = 200;

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
  out.push_back({"graded7", make_graded_threshold(7, 1, 2, 1, 0)});
  return out;
}

struct Case {
  std::string name;
  ClusterConfig cfg;
  ProcessSet crash;          ///< acceptors crashed at crash_at
  sim::SimTime crash_at{0};  ///< in Deltas
};

/// Fault-free; a maximal adversary element crashed from the start; all
/// but the last (lowest-class) quorum crashed from the start, which
/// reaches the 4-delay rung of the ladder where the system has class 3
/// quorums; each Byzantine acceptor role on the adversary element; the
/// equivocating leader, which forces a view change; and each role again
/// behind that leader, so the roles' consult-phase lies reach choose().
std::vector<Case> cases(const RefinedQuorumSystem& rqs) {
  ClusterConfig base;
  base.proposer_count = 2;
  base.learner_count = 2;
  const ProcessSet byz = rqs.adversary().maximal_elements().front();
  std::vector<Case> out;
  out.push_back({"fault-free", base, {}, 0});
  out.push_back({"crash" + byz.to_string() + "@0", base, byz, 0});
  const ProcessSet rest =
      ProcessSet::universe(rqs.universe_size()) - rqs.quorums().back().set;
  if (rest != byz) out.push_back({"crash" + rest.to_string() + "@0", base, rest, 0});
  for (const bool leader : {false, true}) {
    ClusterConfig cfg = base;
    std::string suffix;
    if (leader) {
      cfg.byzantine_proposer = true;
      cfg.fake_value = kValue + 1;
      suffix = "+equivocating-leader";
      out.push_back({"equivocating-leader", cfg, {}, 0});
    }
    ClusterConfig role = cfg;
    role.amnesiac_acceptors = byz;
    out.push_back({"amnesiac" + byz.to_string() + suffix, role, {}, 0});
    role = cfg;
    role.prep_liar_acceptors = byz;
    out.push_back({"prep-liar" + byz.to_string() + suffix, role, {}, 0});
    role = cfg;
    role.byzantine_acceptors = byz;
    out.push_back({"equivocating" + byz.to_string() + suffix, role, {}, 0});
  }
  return out;
}

/// Every single acceptor crash n = 4 tolerates, before the proposal
/// arrives, after it arrived, and after the update1 echoes arrived.
std::vector<Case> crash_cases(const RefinedQuorumSystem& rqs) {
  std::vector<Case> out;
  for (ProcessId a = 0; a < rqs.universe_size(); ++a) {
    if (!rqs.adversary().contains(ProcessSet::single(a))) continue;
    for (const sim::SimTime at : {0, 1, 2}) {
      Case c{"crash(" + std::to_string(a) + ")@" + std::to_string(at), {},
             ProcessSet::single(a), at};
      c.cfg.proposer_count = 2;
      c.cfg.learner_count = 2;
      out.push_back(c);
    }
  }
  return out;
}

std::string hex(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// One table row: per learner the learned value, the learn time in
/// Deltas and the deciding rule (0 = learned from decision messages), then
/// every acceptor's state digest at the horizon.
std::string run_row(const System& sys, const Case& c) {
  ConsensusCluster cluster(sys.rqs, c.cfg);
  sim::Simulation& sim = cluster.sim();
  if (!c.crash.empty()) {
    const ProcessSet victims = c.crash;
    sim.schedule_at(c.crash_at * sim.delta(), [&sim, victims] {
      for (const ProcessId a : victims) sim.crash(a);
    });
  }
  cluster.propose(0, kValue);
  if (c.cfg.byzantine_proposer) cluster.propose(1, kValue + 2);
  sim.run(kHorizonDeltas * sim.delta());

  std::string row = std::string{sys.name} + " " + c.name + " |";
  for (std::size_t i = 0; i < cluster.learner_count(); ++i) {
    const RqsLearner& l = cluster.learner(i);
    row += " L" + std::to_string(i) + "=";
    if (!l.learned()) {
      row += "-";
      continue;
    }
    row += std::to_string(l.learned_value()) + "@" +
           std::to_string(*cluster.learn_delays(i)) + "r" +
           std::to_string(l.learned_rule());
  }
  row += " |";
  for (ProcessId a = 0; a < sys.rqs.universe_size(); ++a) {
    Fnv64 h;
    cluster.acceptor(a).digest_state(h);
    row += " " + hex(h.digest());
  }
  return row;
}

std::vector<std::string> corpus_rows() {
  std::vector<std::string> rows;
  for (const System& sys : systems()) {
    for (const Case& c : cases(sys.rqs)) rows.push_back(run_row(sys, c));
    if (sys.rqs.universe_size() == 4) {
      for (const Case& c : crash_cases(sys.rqs)) rows.push_back(run_row(sys, c));
    }
  }
  return rows;
}

// clang-format off
const char* const kGolden[] = {
    "3t+1(t=1) fault-free | L0=100@2r1 L1=100@2r1 | 74e4a34bcd681208 74e4a34bcd681208 74e4a34bcd681208 74e4a34bcd681208",
    "3t+1(t=1) crash{0}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 7b69be137601c308 7b69be137601c308 7b69be137601c308",
    "3t+1(t=1) amnesiac{0} | L0=100@2r1 L1=100@2r1 | 74e4a34bcd681208 74e4a34bcd681208 74e4a34bcd681208 74e4a34bcd681208",
    "3t+1(t=1) prep-liar{0} | L0=100@2r1 L1=100@2r1 | 74e4a34bcd681208 74e4a34bcd681208 74e4a34bcd681208 74e4a34bcd681208",
    "3t+1(t=1) equivocating{0} | L0=100@2r1 L1=100@3r2 | d1c5212435d8684e 75fa180e633ea9ab d1c5212435d8684e 75fa180e633ea9ab",
    "3t+1(t=1) equivocating-leader | L0=100@11r1 L1=100@11r1 | 40afc0f825657328 845394da13e44944 40afc0f825657328 845394da13e44944",
    "3t+1(t=1) amnesiac{0}+equivocating-leader | L0=102@11r1 L1=102@11r1 | 92e41f03076cf42b 1d2febb0135bcae4 92e41f03076cf42b 1d2febb0135bcae4",
    "3t+1(t=1) prep-liar{0}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 6d1b35c09ff1ca6b 865761325cf56887 6d1b35c09ff1ca6b 865761325cf56887",
    "3t+1(t=1) equivocating{0}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 3729bb50f00f210a 865761325cf56887 3729bb50f00f210a 865761325cf56887",
    "3t+1(t=1) crash(0)@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 7b69be137601c308 7b69be137601c308 7b69be137601c308",
    "3t+1(t=1) crash(0)@1 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 7b69be137601c308 7b69be137601c308 7b69be137601c308",
    "3t+1(t=1) crash(0)@2 | L0=100@2r1 L1=100@2r1 | 26677cfa09eb36c4 dac3a7eab683a96d dac3a7eab683a96d dac3a7eab683a96d",
    "3t+1(t=1) crash(1)@0 | L0=100@3r2 L1=100@3r2 | 8ae319645fa48e6b d99a906538e20385 8ae319645fa48e6b 8ae319645fa48e6b",
    "3t+1(t=1) crash(1)@1 | L0=100@3r2 L1=100@3r2 | 8ae319645fa48e6b d99a906538e20385 8ae319645fa48e6b 8ae319645fa48e6b",
    "3t+1(t=1) crash(1)@2 | L0=100@2r1 L1=100@2r1 | 71fffd0b17c686ca 26677cfa09eb36c4 71fffd0b17c686ca 71fffd0b17c686ca",
    "3t+1(t=1) crash(2)@0 | L0=100@3r2 L1=100@3r2 | afcdb6458a36456d afcdb6458a36456d d99a906538e20385 afcdb6458a36456d",
    "3t+1(t=1) crash(2)@1 | L0=100@3r2 L1=100@3r2 | afcdb6458a36456d afcdb6458a36456d d99a906538e20385 afcdb6458a36456d",
    "3t+1(t=1) crash(2)@2 | L0=100@2r1 L1=100@2r1 | 79baf3f0975057ab 79baf3f0975057ab 26677cfa09eb36c4 79baf3f0975057ab",
    "3t+1(t=1) crash(3)@0 | L0=100@3r2 L1=100@3r2 | 717cd94628e6d221 717cd94628e6d221 717cd94628e6d221 d99a906538e20385",
    "3t+1(t=1) crash(3)@1 | L0=100@3r2 L1=100@3r2 | 717cd94628e6d221 717cd94628e6d221 717cd94628e6d221 d99a906538e20385",
    "3t+1(t=1) crash(3)@2 | L0=100@2r1 L1=100@2r1 | 58738635be0a1808 58738635be0a1808 58738635be0a1808 26677cfa09eb36c4",
    "3t+1(t=2) fault-free | L0=100@2r1 L1=100@2r1 | 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411",
    "3t+1(t=2) crash{0,1}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 d99a906538e20385 e98c5662e875fefa e98c5662e875fefa e98c5662e875fefa e98c5662e875fefa e98c5662e875fefa",
    "3t+1(t=2) amnesiac{0,1} | L0=100@2r1 L1=100@2r1 | 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411",
    "3t+1(t=2) prep-liar{0,1} | L0=100@2r1 L1=100@2r1 | 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411",
    "3t+1(t=2) equivocating{0,1} | L0=100@2r1 L1=100@3r2 | 30f69fccc35f574f 3e0b944a7f89e030 30f69fccc35f574f 3e0b944a7f89e030 30f69fccc35f574f 3e0b944a7f89e030 30f69fccc35f574f",
    "3t+1(t=2) equivocating-leader | L0=100@11r1 L1=100@11r1 | ffa798030e5e39c1 90eaeaac378ef09d ffa798030e5e39c1 90eaeaac378ef09d ffa798030e5e39c1 90eaeaac378ef09d ffa798030e5e39c1",
    "3t+1(t=2) amnesiac{0,1}+equivocating-leader | L0=102@11r1 L1=102@11r1 | 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302",
    "3t+1(t=2) prep-liar{0,1}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 366787675ec1e482 247bfcc7834da99e 366787675ec1e482 247bfcc7834da99e 366787675ec1e482 247bfcc7834da99e 366787675ec1e482",
    "3t+1(t=2) equivocating{0,1}+equivocating-leader | L0=101@11r1 L1=101@11r1 | bbef02c81e8c9c63 247bfcc7834da99e bbef02c81e8c9c63 247bfcc7834da99e bbef02c81e8c9c63 247bfcc7834da99e bbef02c81e8c9c63",
    "3t+1(t=3) fault-free | L0=100@2r1 L1=100@2r1 | 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9",
    "3t+1(t=3) crash{0,1,2}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 d99a906538e20385 d99a906538e20385 bc4197c54fe9a4a7 bc4197c54fe9a4a7 bc4197c54fe9a4a7 bc4197c54fe9a4a7 bc4197c54fe9a4a7 bc4197c54fe9a4a7 bc4197c54fe9a4a7",
    "3t+1(t=3) amnesiac{0,1,2} | L0=100@2r1 L1=100@2r1 | 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9",
    "3t+1(t=3) prep-liar{0,1,2} | L0=100@2r1 L1=100@2r1 | 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9 261f710c044c64a9",
    "3t+1(t=3) equivocating{0,1,2} | L0=100@2r1 L1=100@3r2 | d0a5fcc386a6fa12 301166013e1ff723 d0a5fcc386a6fa12 301166013e1ff723 d0a5fcc386a6fa12 301166013e1ff723 d0a5fcc386a6fa12 301166013e1ff723 d0a5fcc386a6fa12 301166013e1ff723",
    "3t+1(t=3) equivocating-leader | L0=100@11r1 L1=100@11r1 | 73109e9b948f7376 1c82c0d453e0a2cf 73109e9b948f7376 1c82c0d453e0a2cf 73109e9b948f7376 1c82c0d453e0a2cf 73109e9b948f7376 1c82c0d453e0a2cf 73109e9b948f7376 1c82c0d453e0a2cf",
    "3t+1(t=3) amnesiac{0,1,2}+equivocating-leader | L0=102@11r1 L1=102@11r1 | 04c2dba5d32dc7d9 22c2925cf4f3d7ef 04c2dba5d32dc7d9 22c2925cf4f3d7ef 04c2dba5d32dc7d9 22c2925cf4f3d7ef 04c2dba5d32dc7d9 22c2925cf4f3d7ef 04c2dba5d32dc7d9 22c2925cf4f3d7ef",
    "3t+1(t=3) prep-liar{0,1,2}+equivocating-leader | L0=101@11r1 L1=101@11r1 | f9e981e86739bb31 9a962398bcfc09ac f9e981e86739bb31 9a962398bcfc09ac f9e981e86739bb31 9a962398bcfc09ac f9e981e86739bb31 9a962398bcfc09ac f9e981e86739bb31 9a962398bcfc09ac",
    "3t+1(t=3) equivocating{0,1,2}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 4552ad5a7b22e3c0 9a962398bcfc09ac 4552ad5a7b22e3c0 9a962398bcfc09ac 4552ad5a7b22e3c0 9a962398bcfc09ac 4552ad5a7b22e3c0 9a962398bcfc09ac 4552ad5a7b22e3c0 9a962398bcfc09ac",
    "example7 fault-free | L0=100@2r1 L1=100@2r1 | 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79",
    "example7 crash{0,1}@0 | L0=- L1=- | d99a906538e20385 d99a906538e20385 e14d76ce27e024b9 e14d76ce27e024b9 e14d76ce27e024b9 e14d76ce27e024b9",
    "example7 crash{4}@0 | L0=100@3r2 L1=100@3r2 | 5a881f020f3cbac9 5a881f020f3cbac9 5a881f020f3cbac9 5a881f020f3cbac9 d99a906538e20385 5a881f020f3cbac9",
    "example7 amnesiac{0,1} | L0=100@2r1 L1=100@2r1 | 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79",
    "example7 prep-liar{0,1} | L0=100@2r1 L1=100@2r1 | 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79 2f8470f01fb99d79",
    "example7 equivocating{0,1} | L0=100@2r1 L1=100@12r0 | 18b276ca27fd7799 bf3fcb6f0cc0b1dd 18b276ca27fd7799 bf3fcb6f0cc0b1dd 18b276ca27fd7799 bf3fcb6f0cc0b1dd",
    "example7 equivocating-leader | L0=100@11r1 L1=100@11r1 | ff38ecc6e1211069 19599fbeaeeb1135 ff38ecc6e1211069 19599fbeaeeb1135 ff38ecc6e1211069 19599fbeaeeb1135",
    "example7 amnesiac{0,1}+equivocating-leader | L0=100@11r1 L1=100@11r1 | ff38ecc6e1211069 19599fbeaeeb1135 ff38ecc6e1211069 19599fbeaeeb1135 ff38ecc6e1211069 19599fbeaeeb1135",
    "example7 prep-liar{0,1}+equivocating-leader | L0=100@11r1 L1=100@11r1 | ff38ecc6e1211069 19599fbeaeeb1135 ff38ecc6e1211069 19599fbeaeeb1135 ff38ecc6e1211069 19599fbeaeeb1135",
    "example7 equivocating{0,1}+equivocating-leader | L0=100@11r1 L1=100@12r0 | 6d0930dcc2c8bf05 283c7578da2fdef7 6d0930dcc2c8bf05 283c7578da2fdef7 6d0930dcc2c8bf05 283c7578da2fdef7",
    "graded7 fault-free | L0=100@2r1 L1=100@2r1 | 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411",
    "graded7 crash{0}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 1c8de1e984dc31a5 1c8de1e984dc31a5 1c8de1e984dc31a5 1c8de1e984dc31a5 1c8de1e984dc31a5 1c8de1e984dc31a5",
    "graded7 crash{0,1}@0 | L0=100@4r3 L1=100@4r3 | d99a906538e20385 d99a906538e20385 e98c5662e875fefa e98c5662e875fefa e98c5662e875fefa e98c5662e875fefa e98c5662e875fefa",
    "graded7 amnesiac{0} | L0=100@2r1 L1=100@2r1 | 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411",
    "graded7 prep-liar{0} | L0=100@2r1 L1=100@2r1 | 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411 01e5f6c994ca6411",
    "graded7 equivocating{0} | L0=100@2r1 L1=100@3r2 | c923da01d6f073fb 3e0b944a7f89e030 c923da01d6f073fb 3e0b944a7f89e030 c923da01d6f073fb 3e0b944a7f89e030 c923da01d6f073fb",
    "graded7 equivocating-leader | L0=102@11r1 L1=102@11r1 | 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302",
    "graded7 amnesiac{0}+equivocating-leader | L0=102@11r1 L1=102@11r1 | 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302",
    "graded7 prep-liar{0}+equivocating-leader | L0=102@11r1 L1=102@11r1 | 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302 9a53f2ab9227d2fd 3c1ee457436ee302",
    "graded7 equivocating{0}+equivocating-leader | L0=102@11r1 L1=102@12r2 | fbc40cfa207775a9 c2fe9f6ef45661bc fbc40cfa207775a9 c2fe9f6ef45661bc fbc40cfa207775a9 c2fe9f6ef45661bc fbc40cfa207775a9",
};
// clang-format on

TEST(ConsensusDifferentialTest, CorpusMatchesPerQuorumUpdate2Outcomes) {
  const std::vector<std::string> rows = corpus_rows();
  ASSERT_EQ(rows.size(), std::size(kGolden));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], kGolden[i]) << "corpus row " << i;
  }
}

// Fault-free sends until the learners learn (2 Deltas, rule 1), one
// proposer. UPDATE2 is n * (n + L) * (t + 1): each acceptor broadcasts one
// covered set to the n acceptors and L learners on the update1 delivery
// that completes its first quorum (the 2t+1-th) and on each of the t
// deliveries after it. Per-quorum UPDATE2 sent n * (n + L) * |QS|: 140 /
// 1,736 / 19,580 messages in all for L = 1.
TEST(ConsensusDifferentialTest, FaultFreeSendsPerDecision) {
  const std::uint64_t expected_total[] = {80, 280, 660};
  for (std::size_t t = 1; t <= 3; ++t) {
    for (const std::size_t learners : {1, 2}) {
      SCOPED_TRACE("t = " + std::to_string(t) + ", learners = " +
                   std::to_string(learners));
      ClusterConfig cfg;
      cfg.learner_count = learners;
      ConsensusCluster cluster(make_3t1_instantiation(t), cfg);
      cluster.propose(0, kValue);
      ASSERT_TRUE(cluster.run_until_learned());
      for (std::size_t i = 0; i < learners; ++i) {
        EXPECT_EQ(cluster.learn_delays(i), 2);
        EXPECT_EQ(cluster.learner(i).learned_rule(), 1u);
      }
      const std::uint64_t n = 3 * t + 1;
      EXPECT_EQ(cluster.network().sent_by_tag().at("UPDATE2"),
                n * (n + learners) * (t + 1));
      if (learners == 1) {
        EXPECT_EQ(cluster.network().messages_sent(), expected_total[t - 1]);
      }
    }
  }
}

}  // namespace
}  // namespace rqs::consensus
