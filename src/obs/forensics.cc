#include "obs/forensics.h"

#include <sstream>

namespace pardb::obs {

std::uint64_t VictimCost(const DeadlockDump& dump) {
  std::uint64_t sum = 0;
  for (const DeadlockParticipant& p : dump.participants) {
    if (p.is_victim) sum += p.cost;
  }
  return sum;
}

std::uint64_t VictimIdealCost(const DeadlockDump& dump) {
  std::uint64_t sum = 0;
  for (const DeadlockParticipant& p : dump.participants) {
    if (p.is_victim) sum += p.ideal_cost;
  }
  return sum;
}

std::string DeadlockDumpToDot(const DeadlockDump& dump) {
  std::ostringstream os;
  os << "digraph deadlock_step" << dump.step << " {\n";
  os << "  rankdir=LR;\n";
  os << "  labelloc=t;\n";
  os << "  label=\"deadlock @ step " << dump.step << "  requester T"
     << dump.requester.value() << " on E" << dump.requested_entity.value()
     << "\\npolicy=" << dump.policy << "  cycles=" << dump.num_cycles
     << "\";\n";
  for (const DeadlockParticipant& p : dump.participants) {
    os << "  T" << p.txn.value() << " [shape="
       << (p.is_requester ? "box" : "ellipse");
    if (p.is_victim) os << ",style=filled,fillcolor=salmon";
    os << ",label=\"T" << p.txn.value() << "\\n\xCF\x89=" << p.entry
       << "  cost=" << p.cost;
    if (p.ideal_cost != p.cost) os << " (ideal " << p.ideal_cost << ")";
    os << "\\ntarget=L" << p.target;
    if (p.is_requester) os << "\\nrequester";
    if (p.is_victim) os << "\\nVICTIM";
    os << "\"];\n";
  }
  for (const WaitsForArc& a : dump.arcs) {
    os << "  T" << a.waiter.value() << " -> T" << a.holder.value()
       << " [label=\"E" << a.entity.value() << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

void CollectingDeadlockSink::OnDeadlock(const DeadlockDump& dump) {
  ++total_seen_;
  if (dumps_.size() < max_dumps_) dumps_.push_back(dump);
}

}  // namespace pardb::obs
