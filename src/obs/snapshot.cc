#include "obs/snapshot.h"

#include <algorithm>
#include <sstream>

namespace pardb::obs {

namespace {

bool ArcLess(const WaitsForArc& a, const WaitsForArc& b) {
  if (a.waiter != b.waiter) return a.waiter < b.waiter;
  if (a.holder != b.holder) return a.holder < b.holder;
  return a.entity < b.entity;
}

void AppendLockRef(std::ostringstream& os, const LockGrantRef& l) {
  os << "{\"entity\":" << l.entity.value() << ",\"mode\":\"" << l.mode
     << "\"}";
}

}  // namespace

std::string WaitsForSnapshot::ToDot() const {
  std::ostringstream os;
  os << "digraph waits_for_shard" << shard << " {\n";
  os << "  rankdir=LR;\n";
  os << "  labelloc=t;\n";
  os << "  label=\"waits-for @ step " << step << "  shard " << shard
     << "  commits=" << commits << "\\nacyclic=" << (acyclic ? "yes" : "no")
     << " forest=" << (forest ? "yes" : "no") << "\";\n";
  for (const TxnSnapshot& t : txns) {
    os << "  T" << t.txn.value() << " [shape="
       << (t.status == "waiting" ? "box" : "ellipse") << ",label=\"T"
       << t.txn.value() << "\\n\xCF\x89=" << t.entry << "  s=" << t.state_index
       << " L=" << t.lock_count;
    if (t.preemptions > 0) {
      os << "\\npreempted=" << t.preemptions << " chain=" << t.chain_len;
    }
    if (t.has_request) {
      os << "\\nwants E" << t.requested.entity.value() << "/"
         << t.requested.mode;
    }
    os << "\"];\n";
  }
  std::vector<WaitsForArc> sorted = arcs;
  std::sort(sorted.begin(), sorted.end(), ArcLess);
  for (const WaitsForArc& a : sorted) {
    os << "  T" << a.waiter.value() << " -> T" << a.holder.value()
       << " [label=\"E" << a.entity.value() << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string WaitsForSnapshot::ToJson(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\"shard\":" << shard << ",\"step\":" << step
     << ",\"commits\":" << commits << ",\"acyclic\":"
     << (acyclic ? "true" : "false") << ",\"forest\":"
     << (forest ? "true" : "false") << ",\n"
     << pad << " \"txns\":[";
  bool first = true;
  for (const TxnSnapshot& t : txns) {
    os << (first ? "" : ",") << "\n" << pad << "  {\"txn\":" << t.txn.value()
       << ",\"omega\":" << t.entry << ",\"status\":\"" << t.status
       << "\",\"state_index\":" << t.state_index
       << ",\"lock_count\":" << t.lock_count
       << ",\"preemptions\":" << t.preemptions
       << ",\"chain_len\":" << t.chain_len << ",\"held\":[";
    bool hf = true;
    for (const LockGrantRef& l : t.held) {
      if (!hf) os << ",";
      AppendLockRef(os, l);
      hf = false;
    }
    os << "]";
    if (t.has_request) {
      os << ",\"requested\":";
      AppendLockRef(os, t.requested);
    }
    os << "}";
    first = false;
  }
  os << "\n" << pad << " ],\n" << pad << " \"arcs\":[";
  std::vector<WaitsForArc> sorted = arcs;
  std::sort(sorted.begin(), sorted.end(), ArcLess);
  first = true;
  for (const WaitsForArc& a : sorted) {
    os << (first ? "" : ",") << "\n" << pad << "  {\"waiter\":"
       << a.waiter.value() << ",\"holder\":" << a.holder.value()
       << ",\"entity\":" << a.entity.value() << "}";
    first = false;
  }
  os << "\n" << pad << " ]}";
  return os.str();
}

std::string WaitsForSnapshotsToJson(const std::vector<WaitsForSnapshot>& snaps,
                                    const std::string& phase) {
  std::ostringstream os;
  os << "{\"phase\":\"" << phase << "\",\"num_shards\":" << snaps.size()
     << ",\n \"shards\":[";
  bool first = true;
  for (const WaitsForSnapshot& s : snaps) {
    os << (first ? "" : ",") << "\n" << s.ToJson(2);
    first = false;
  }
  os << "\n ]}\n";
  return os.str();
}

std::string WaitsForSnapshotsToDot(
    const std::vector<WaitsForSnapshot>& snaps) {
  if (snaps.size() == 1) return snaps.front().ToDot();
  std::ostringstream os;
  os << "digraph waits_for {\n";
  os << "  rankdir=LR;\n";
  for (const WaitsForSnapshot& s : snaps) {
    os << "  subgraph cluster_shard" << s.shard << " {\n";
    os << "    label=\"shard " << s.shard << " @ step " << s.step
       << "  acyclic=" << (s.acyclic ? "yes" : "no")
       << " forest=" << (s.forest ? "yes" : "no") << "\";\n";
    for (const TxnSnapshot& t : s.txns) {
      os << "    T" << t.txn.value() << " [label=\"T" << t.txn.value()
         << "\\n\xCF\x89=" << t.entry << "\"];\n";
    }
    std::vector<WaitsForArc> sorted = s.arcs;
    std::sort(sorted.begin(), sorted.end(), ArcLess);
    for (const WaitsForArc& a : sorted) {
      os << "    T" << a.waiter.value() << " -> T" << a.holder.value()
         << " [label=\"E" << a.entity.value() << "\"];\n";
    }
    os << "  }\n";
  }
  os << "}\n";
  return os.str();
}

std::string DeadlockDumpsToJson(const std::vector<ShardDeadlockDump>& dumps) {
  std::ostringstream os;
  os << "{\"count\":" << dumps.size() << ",\"deadlocks\":[";
  bool first = true;
  for (const ShardDeadlockDump& sd : dumps) {
    const DeadlockDump& d = sd.dump;
    os << (first ? "" : ",") << "\n {\"shard\":" << sd.shard
       << ",\"step\":" << d.step << ",\"requester\":" << d.requester.value()
       << ",\"requested_entity\":" << d.requested_entity.value()
       << ",\"num_cycles\":" << d.num_cycles << ",\"policy\":\"" << d.policy
       << "\",\n  \"participants\":[";
    bool pf = true;
    for (const DeadlockParticipant& p : d.participants) {
      os << (pf ? "" : ",") << "\n   {\"txn\":" << p.txn.value()
         << ",\"omega\":" << p.entry << ",\"cost\":" << p.cost
         << ",\"ideal_cost\":" << p.ideal_cost << ",\"target\":" << p.target
         << ",\"is_requester\":" << (p.is_requester ? "true" : "false")
         << ",\"is_victim\":" << (p.is_victim ? "true" : "false") << "}";
      pf = false;
    }
    os << "],\n  \"arcs\":[";
    bool af = true;
    for (const WaitsForArc& a : d.arcs) {
      os << (af ? "" : ",") << "{\"waiter\":" << a.waiter.value()
         << ",\"holder\":" << a.holder.value() << ",\"entity\":"
         << a.entity.value() << "}";
      af = false;
    }
    os << "],\"victims\":[";
    bool vf = true;
    for (TxnId v : d.victims) {
      os << (vf ? "" : ",") << v.value();
      vf = false;
    }
    os << "]}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace pardb::obs
