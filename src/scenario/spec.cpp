#include "scenario/spec.hpp"

#include "core/constructions.hpp"

namespace rqs::scenario {

const char* to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::kStorage: return "storage";
    case Protocol::kConsensus: return "consensus";
  }
  return "?";
}

const char* to_string(SystemFamily f) noexcept {
  switch (f) {
    case SystemFamily::kFast5: return "fast5";
    case SystemFamily::kThreeT1of1: return "3t+1(t=1)";
    case SystemFamily::kThreeT1of2: return "3t+1(t=2)";
    case SystemFamily::kExample7: return "example7";
    case SystemFamily::kGraded7: return "graded7";
    case SystemFamily::kMasking4: return "masking4";
    case SystemFamily::kFig1Broken5: return "fig1-broken5";
    case SystemFamily::kTiny3: return "tiny3";
  }
  return "?";
}

RefinedQuorumSystem materialize(SystemFamily f) {
  switch (f) {
    case SystemFamily::kFast5: return make_fig1_fast5();
    case SystemFamily::kThreeT1of1: return make_3t1_instantiation(1);
    case SystemFamily::kThreeT1of2: return make_3t1_instantiation(2);
    case SystemFamily::kExample7: return make_example7();
    case SystemFamily::kGraded7: return make_graded_threshold(7, 1, 2, 1, 0);
    case SystemFamily::kMasking4: return make_masking(4, 1, 1);
    case SystemFamily::kFig1Broken5: return make_fig1_broken5();
    case SystemFamily::kTiny3: return make_graded_threshold(3, 0, 1, 1, 0);
  }
  return make_fig1_fast5();
}

bool family_valid(SystemFamily f) {
  // check() costs more than a whole swarm scenario: run it once per family.
  static const auto kValid = [] {
    std::array<bool, kAllSystemFamilies.size()> valid{};
    for (const SystemFamily g : kAllSystemFamilies) {
      valid.at(static_cast<std::size_t>(g)) = materialize(g).check().ok();
    }
    return valid;
  }();
  return kValid.at(static_cast<std::size_t>(f));
}

const char* to_string(FaultRole r) noexcept {
  switch (r) {
    case FaultRole::kNone: return "none";
    case FaultRole::kAmnesiac: return "amnesiac";
    case FaultRole::kFabricator: return "fabricator";
    case FaultRole::kEquivocator: return "equivocator";
    case FaultRole::kPrepLiar: return "prep-liar";
  }
  return "?";
}

namespace {

std::string time_to_string(sim::SimTime t) {
  return t == ScheduleEntry::kForever ? std::string{"forever"} : std::to_string(t);
}

}  // namespace

std::string ScheduleEntry::to_string() const {
  std::string out = "t=" + std::to_string(at) + " ";
  switch (kind) {
    case Kind::kWrite:
      out += "write(" + value_to_string(value) + ")";
      if (key != 0) out += " key " + std::to_string(key);
      if (!reachable.empty()) out += " via " + reachable.to_string();
      break;
    case Kind::kRead:
      out += "read(r" + std::to_string(client) + ")";
      if (key != 0) out += " key " + std::to_string(key);
      if (!reachable.empty()) out += " via " + reachable.to_string();
      break;
    case Kind::kPropose:
      out += "propose(p" + std::to_string(client) + ", " + value_to_string(value) + ")";
      break;
    case Kind::kCrash:
      out += "crash(" + std::to_string(target) + ")";
      break;
    case Kind::kPartition:
      out += "partition " + side_a.to_string() + " x " + side_b.to_string() +
             " until " + time_to_string(until);
      break;
    case Kind::kAsynchrony:
      out += "asynchrony delay=" + std::to_string(delay) + " until " +
             time_to_string(until);
      break;
    case Kind::kLoss:
      out += "loss p=" + std::to_string(probability) + " until " +
             time_to_string(until);
      break;
    case Kind::kDuplicate:
      out += "duplicate p=" + std::to_string(probability) + " until " +
             time_to_string(until);
      break;
  }
  return out;
}

sim::SimTime ScenarioSpec::schedule_end() const {
  sim::SimTime end = 0;
  for (const ScheduleEntry& e : schedule) {
    if (e.at > end) end = e.at;
    if (e.until != ScheduleEntry::kForever && e.until > end) end = e.until;
  }
  return end;
}

std::string ScenarioSpec::to_string() const {
  std::string out = std::string{scenario::to_string(protocol)} + " on " +
                    scenario::to_string(family) + ", seed " + std::to_string(seed);
  if (!byzantine.empty()) {
    out += ", byzantine " + byzantine.to_string() + " as " +
           scenario::to_string(role);
  }
  if (byzantine_proposer) out += ", byzantine proposer";
  if (key_count > 1) out += ", " + std::to_string(key_count) + " keys";
  out += "\n";
  for (const ScheduleEntry& e : schedule) {
    out += "  " + e.to_string() + "\n";
  }
  return out;
}

}  // namespace rqs::scenario
