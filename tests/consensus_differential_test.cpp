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
// not a table to re-record.
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
    "3t+1(t=1) fault-free | L0=100@2r1 L1=100@2r1 | 8ea1e1d3033946de 8ea1e1d3033946de 8ea1e1d3033946de 8ea1e1d3033946de",
    "3t+1(t=1) crash{0}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 40e4811ae2c6b15e 40e4811ae2c6b15e 40e4811ae2c6b15e",
    "3t+1(t=1) amnesiac{0} | L0=100@2r1 L1=100@2r1 | 8ea1e1d3033946de 8ea1e1d3033946de 8ea1e1d3033946de 8ea1e1d3033946de",
    "3t+1(t=1) prep-liar{0} | L0=100@2r1 L1=100@2r1 | 8ea1e1d3033946de 8ea1e1d3033946de 8ea1e1d3033946de 8ea1e1d3033946de",
    "3t+1(t=1) equivocating{0} | L0=100@2r1 L1=100@3r2 | 09508b61423ed818 4cedfe4c0696397d 09508b61423ed818 4cedfe4c0696397d",
    "3t+1(t=1) equivocating-leader | L0=100@11r1 L1=100@11r1 | 836cd4abb9d1ebc8 b8db0f8977d678c4 836cd4abb9d1ebc8 b8db0f8977d678c4",
    "3t+1(t=1) amnesiac{0}+equivocating-leader | L0=102@11r1 L1=102@11r1 | 556d7597ea96460b 503914b26253e244 556d7597ea96460b 503914b26253e244",
    "3t+1(t=1) prep-liar{0}+equivocating-leader | L0=101@11r1 L1=101@11r1 | ce4c27fa1e0b904b 005027fca4bb39a7 ce4c27fa1e0b904b 005027fca4bb39a7",
    "3t+1(t=1) equivocating{0}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 7124ee8e5b7ec4ea 005027fca4bb39a7 7124ee8e5b7ec4ea 005027fca4bb39a7",
    "3t+1(t=1) crash(0)@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 40e4811ae2c6b15e 40e4811ae2c6b15e 40e4811ae2c6b15e",
    "3t+1(t=1) crash(0)@1 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 40e4811ae2c6b15e 40e4811ae2c6b15e 40e4811ae2c6b15e",
    "3t+1(t=1) crash(0)@2 | L0=100@2r1 L1=100@2r1 | 15faf75438329ad2 57029fcfb440f7bb 57029fcfb440f7bb 57029fcfb440f7bb",
    "3t+1(t=1) crash(1)@0 | L0=100@3r2 L1=100@3r2 | bb27cb84d169ec3d d99a906538e20385 bb27cb84d169ec3d bb27cb84d169ec3d",
    "3t+1(t=1) crash(1)@1 | L0=100@3r2 L1=100@3r2 | bb27cb84d169ec3d d99a906538e20385 bb27cb84d169ec3d bb27cb84d169ec3d",
    "3t+1(t=1) crash(1)@2 | L0=100@2r1 L1=100@2r1 | 761e976dc152121c 15faf75438329ad2 761e976dc152121c 761e976dc152121c",
    "3t+1(t=1) crash(2)@0 | L0=100@3r2 L1=100@3r2 | 841eadb409e488bb 841eadb409e488bb d99a906538e20385 841eadb409e488bb",
    "3t+1(t=1) crash(2)@1 | L0=100@3r2 L1=100@3r2 | 841eadb409e488bb 841eadb409e488bb d99a906538e20385 841eadb409e488bb",
    "3t+1(t=1) crash(2)@2 | L0=100@2r1 L1=100@2r1 | 492d2269d2848b7d 492d2269d2848b7d 15faf75438329ad2 492d2269d2848b7d",
    "3t+1(t=1) crash(3)@0 | L0=100@3r2 L1=100@3r2 | 208d4541ca17c977 208d4541ca17c977 208d4541ca17c977 d99a906538e20385",
    "3t+1(t=1) crash(3)@1 | L0=100@3r2 L1=100@3r2 | 208d4541ca17c977 208d4541ca17c977 208d4541ca17c977 d99a906538e20385",
    "3t+1(t=1) crash(3)@2 | L0=100@2r1 L1=100@2r1 | 7230c4bcf3db4cde 7230c4bcf3db4cde 7230c4bcf3db4cde 15faf75438329ad2",
    "3t+1(t=2) fault-free | L0=100@2r1 L1=100@2r1 | 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547",
    "3t+1(t=2) crash{0,1}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 d99a906538e20385 1ad2b20b700fb7ac 1ad2b20b700fb7ac 1ad2b20b700fb7ac 1ad2b20b700fb7ac 1ad2b20b700fb7ac",
    "3t+1(t=2) amnesiac{0,1} | L0=100@2r1 L1=100@2r1 | 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547",
    "3t+1(t=2) prep-liar{0,1} | L0=100@2r1 L1=100@2r1 | 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547",
    "3t+1(t=2) equivocating{0,1} | L0=100@2r1 L1=100@3r2 | 508afa86ab5c9b99 d652768e92c8c6e6 508afa86ab5c9b99 d652768e92c8c6e6 508afa86ab5c9b99 d652768e92c8c6e6 508afa86ab5c9b99",
    "3t+1(t=2) equivocating-leader | L0=100@11r1 L1=100@11r1 | 7c818b36576ec361 e98c2f52851dec9d 7c818b36576ec361 e98c2f52851dec9d 7c818b36576ec361 e98c2f52851dec9d 7c818b36576ec361",
    "3t+1(t=2) amnesiac{0,1}+equivocating-leader | L0=102@11r1 L1=102@11r1 | a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2",
    "3t+1(t=2) prep-liar{0,1}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 0d1227fa3f889ce2 ac6b5c9de456ac7e 0d1227fa3f889ce2 ac6b5c9de456ac7e 0d1227fa3f889ce2 ac6b5c9de456ac7e 0d1227fa3f889ce2",
    "3t+1(t=2) equivocating{0,1}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 50141c93e7ac18c3 ac6b5c9de456ac7e 50141c93e7ac18c3 ac6b5c9de456ac7e 50141c93e7ac18c3 ac6b5c9de456ac7e 50141c93e7ac18c3",
    "3t+1(t=3) fault-free | L0=100@2r1 L1=100@2r1 | 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b",
    "3t+1(t=3) crash{0,1,2}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 d99a906538e20385 d99a906538e20385 62a46cabe77dcbed 62a46cabe77dcbed 62a46cabe77dcbed 62a46cabe77dcbed 62a46cabe77dcbed 62a46cabe77dcbed 62a46cabe77dcbed",
    "3t+1(t=3) amnesiac{0,1,2} | L0=100@2r1 L1=100@2r1 | 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b",
    "3t+1(t=3) prep-liar{0,1,2} | L0=100@2r1 L1=100@2r1 | 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b 9e927fa7bc054f3b",
    "3t+1(t=3) equivocating{0,1,2} | L0=100@2r1 L1=100@3r2 | 703e482310ec8438 4d1b800f7c3f1b51 703e482310ec8438 4d1b800f7c3f1b51 703e482310ec8438 4d1b800f7c3f1b51 703e482310ec8438 4d1b800f7c3f1b51 703e482310ec8438 4d1b800f7c3f1b51",
    "3t+1(t=3) equivocating-leader | L0=100@11r1 L1=100@11r1 | 8ee417aaf16f4cd6 a41748b9ed06024f 8ee417aaf16f4cd6 a41748b9ed06024f 8ee417aaf16f4cd6 a41748b9ed06024f 8ee417aaf16f4cd6 a41748b9ed06024f 8ee417aaf16f4cd6 a41748b9ed06024f",
    "3t+1(t=3) amnesiac{0,1,2}+equivocating-leader | L0=102@11r1 L1=102@11r1 | c7100b3044b849f9 afe750d313c5d74f c7100b3044b849f9 afe750d313c5d74f c7100b3044b849f9 afe750d313c5d74f c7100b3044b849f9 afe750d313c5d74f c7100b3044b849f9 afe750d313c5d74f",
    "3t+1(t=3) prep-liar{0,1,2}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 15eebadf17c648d1 011e9cb9d1ab2f4c 15eebadf17c648d1 011e9cb9d1ab2f4c 15eebadf17c648d1 011e9cb9d1ab2f4c 15eebadf17c648d1 011e9cb9d1ab2f4c 15eebadf17c648d1 011e9cb9d1ab2f4c",
    "3t+1(t=3) equivocating{0,1,2}+equivocating-leader | L0=101@11r1 L1=101@11r1 | 6157e6512baf7160 011e9cb9d1ab2f4c 6157e6512baf7160 011e9cb9d1ab2f4c 6157e6512baf7160 011e9cb9d1ab2f4c 6157e6512baf7160 011e9cb9d1ab2f4c 6157e6512baf7160 011e9cb9d1ab2f4c",
    "example7 fault-free | L0=100@2r1 L1=100@2r1 | a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef",
    "example7 crash{0,1}@0 | L0=- L1=- | d99a906538e20385 d99a906538e20385 8185cf0a16b602af 8185cf0a16b602af 8185cf0a16b602af 8185cf0a16b602af",
    "example7 crash{4}@0 | L0=100@3r2 L1=100@3r2 | b393380dc6b0ab1f b393380dc6b0ab1f b393380dc6b0ab1f b393380dc6b0ab1f d99a906538e20385 b393380dc6b0ab1f",
    "example7 amnesiac{0,1} | L0=100@2r1 L1=100@2r1 | a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef",
    "example7 prep-liar{0,1} | L0=100@2r1 L1=100@2r1 | a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef a704dbb4d23c34ef",
    "example7 equivocating{0,1} | L0=100@2r1 L1=100@12r0 | 7d666a5a65ff750f 2bbe241cc969c0bd 7d666a5a65ff750f 2bbe241cc969c0bd 7d666a5a65ff750f 2bbe241cc969c0bd",
    "example7 equivocating-leader | L0=100@11r1 L1=100@11r1 | b377f7e21268a809 e35d9512a1db7535 b377f7e21268a809 e35d9512a1db7535 b377f7e21268a809 e35d9512a1db7535",
    "example7 amnesiac{0,1}+equivocating-leader | L0=100@11r1 L1=100@11r1 | b377f7e21268a809 e35d9512a1db7535 b377f7e21268a809 e35d9512a1db7535 b377f7e21268a809 e35d9512a1db7535",
    "example7 prep-liar{0,1}+equivocating-leader | L0=100@11r1 L1=100@11r1 | b377f7e21268a809 e35d9512a1db7535 b377f7e21268a809 e35d9512a1db7535 b377f7e21268a809 e35d9512a1db7535",
    "example7 equivocating{0,1}+equivocating-leader | L0=100@11r1 L1=100@12r0 | ec0b824ecd2d99e5 d0c978e19b2d5b61 ec0b824ecd2d99e5 d0c978e19b2d5b61 ec0b824ecd2d99e5 d0c978e19b2d5b61",
    "graded7 fault-free | L0=100@2r1 L1=100@2r1 | 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547",
    "graded7 crash{0}@0 | L0=100@3r2 L1=100@3r2 | d99a906538e20385 9a20d3c6273646b3 9a20d3c6273646b3 9a20d3c6273646b3 9a20d3c6273646b3 9a20d3c6273646b3 9a20d3c6273646b3",
    "graded7 crash{0,1}@0 | L0=100@4r3 L1=100@4r3 | d99a906538e20385 d99a906538e20385 1ad2b20b700fb7ac 1ad2b20b700fb7ac 1ad2b20b700fb7ac 1ad2b20b700fb7ac 1ad2b20b700fb7ac",
    "graded7 amnesiac{0} | L0=100@2r1 L1=100@2r1 | 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547",
    "graded7 prep-liar{0} | L0=100@2r1 L1=100@2r1 | 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547 49b39c9fe9324547",
    "graded7 equivocating{0} | L0=100@2r1 L1=100@3r2 | f50b66d47019146d d652768e92c8c6e6 f50b66d47019146d d652768e92c8c6e6 f50b66d47019146d d652768e92c8c6e6 f50b66d47019146d",
    "graded7 equivocating-leader | L0=102@11r1 L1=102@11r1 | a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2",
    "graded7 amnesiac{0}+equivocating-leader | L0=102@11r1 L1=102@11r1 | a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2",
    "graded7 prep-liar{0}+equivocating-leader | L0=102@11r1 L1=102@11r1 | a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2 381e63545cf1759d a9fa3cb37f1cb7e2",
    "graded7 equivocating{0}+equivocating-leader | L0=102@11r1 L1=102@12r2 | e666e16b717b4fc9 d6cf9cb0b4a9019c e666e16b717b4fc9 d6cf9cb0b4a9019c e666e16b717b4fc9 d6cf9cb0b4a9019c e666e16b717b4fc9",
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
