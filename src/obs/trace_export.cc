#include "obs/trace_export.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace pardb::obs {

namespace {

void AppendId(std::ostringstream& os, const char* key, TxnId id) {
  os << "\"" << key << "\":";
  if (id.valid()) {
    os << id.value();
  } else {
    os << "null";
  }
}

void AppendId(std::ostringstream& os, const char* key, EntityId id) {
  os << "\"" << key << "\":";
  if (id.valid()) {
    os << id.value();
  } else {
    os << "null";
  }
}

bool EndsWait(EventKind kind) {
  return kind == EventKind::kGrant || kind == EventKind::kRollback ||
         kind == EventKind::kCommit;
}

// One Chrome trace_event object. `extra` is injected verbatim after the
// common fields (must start with "," when non-empty).
void EmitEvent(std::ostringstream& os, bool& first, const char* ph,
               const std::string& name, const char* cat, std::uint64_t pid,
               std::uint64_t tid, std::uint64_t ts,
               const std::string& extra) {
  os << (first ? "" : ",") << "\n  {\"ph\":\"" << ph << "\",\"name\":\""
     << name << "\",\"cat\":\"" << cat << "\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"ts\":" << ts << extra << "}";
  first = false;
}

void EmitShard(std::ostringstream& os, bool& first, const ShardTrace& shard) {
  const std::uint64_t pid = shard.pid;
  os << (first ? "" : ",") << "\n  {\"ph\":\"M\",\"name\":\"process_name\","
     << "\"pid\":" << pid << ",\"tid\":0,\"args\":{\"name\":\""
     << (shard.name.empty() ? "pardb" : shard.name) << "\"}}";
  first = false;

  std::uint64_t last_step = 0;
  for (const EngineEvent& e : shard.events) {
    if (!TraceKindName(e.kind).empty()) last_step = std::max(last_step, e.step);
  }

  // Open B slices (txn lifetimes) and open waits, keyed by txn id.
  std::unordered_map<std::uint64_t, std::uint64_t> open_txn;   // txn -> ts
  std::unordered_map<std::uint64_t, EngineEvent> open_wait;    // txn -> kBlock

  auto CloseWait = [&](const EngineEvent& start, std::uint64_t end_step) {
    std::ostringstream extra;
    extra << ",\"dur\":" << (end_step - start.step) << ",\"args\":{";
    AppendId(extra, "entity", start.entity);
    extra << ",\"pc\":" << start.pc << "}";
    std::ostringstream name;
    name << "wait " << start.entity;
    EmitEvent(os, first, "X", name.str(), "lock", pid, start.txn.value(),
              start.step, extra.str());
  };

  for (const EngineEvent& e : shard.events) {
    const std::uint64_t tid = e.txn.valid() ? e.txn.value() : 0;
    if (EndsWait(e.kind)) {
      auto it = open_wait.find(tid);
      if (it != open_wait.end()) {
        CloseWait(it->second, e.step);
        open_wait.erase(it);
      }
    }
    switch (e.kind) {
      case EventKind::kAdmit: {
        open_txn[tid] = e.step;
        std::ostringstream name;
        name << e.txn;
        EmitEvent(os, first, "B", name.str(), "txn", pid, tid, e.step, "");
        break;
      }
      case EventKind::kCommit: {
        std::ostringstream name;
        name << e.txn;
        EmitEvent(os, first, "E", name.str(), "txn", pid, tid, e.step, "");
        open_txn.erase(tid);
        break;
      }
      case EventKind::kBlock:
        open_wait[tid] = e;
        break;
      case EventKind::kCycle: {
        std::ostringstream name;
        name << "deadlock " << e.entity;
        std::ostringstream extra;
        extra << ",\"s\":\"p\",\"args\":{";
        AppendId(extra, "requester", e.txn);
        extra << ",";
        AppendId(extra, "entity", e.entity);
        extra << ",\"pc\":" << e.pc << "}";
        EmitEvent(os, first, "i", name.str(), "deadlock", pid, tid, e.step,
                  extra.str());
        break;
      }
      case EventKind::kRollback: {
        std::ostringstream extra;
        extra << ",\"s\":\"t\",\"args\":{\"target\":" << e.target
              << ",\"cost\":" << e.cost << ",\"pc\":" << e.pc
              << ",\"cause\":\"" << RollbackCauseName(e.cause) << "\"}";
        EmitEvent(os, first, "i", "rollback", "rollback", pid, tid, e.step,
                  extra.str());
        break;
      }
      default:
        break;  // grants show as the end of a wait slice; the rest untraced
    }
  }

  // Close dangling slices so partial runs still load cleanly.
  for (const auto& [tid, ev] : open_wait) CloseWait(ev, last_step);
  for (const auto& [tid, ts] : open_txn) {
    (void)ts;
    std::ostringstream name;
    name << "T" << tid;
    EmitEvent(os, first, "E", name.str(), "txn", pid, tid, last_step, "");
  }
}

// Flow arrows for cross-shard transactions: each global's slices (sorted
// by spawn step, ties by pid) chain through ph "s" -> "t"... -> "f" events
// sharing the global sequence number as the flow id. Each flow event binds
// to the enclosing txn slice on its (pid, tid) track at the slice's spawn
// step, which is where Perfetto anchors the arrow; bp:"e" makes the finish
// bind to the enclosing slice rather than the next one.
void EmitFlows(std::ostringstream& os, bool& first,
               const std::vector<ShardTrace>& shards,
               const std::vector<GlobalSlice>& flows) {
  if (flows.empty()) return;
  // (pid, tid) -> first spawn step in that shard's stream.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> spawn_step;
  for (const ShardTrace& shard : shards) {
    for (const EngineEvent& e : shard.events) {
      if (e.kind != EventKind::kAdmit || !e.txn.valid()) continue;
      spawn_step.try_emplace({shard.pid, e.txn.value()}, e.step);
    }
  }
  std::map<std::uint64_t, std::vector<GlobalSlice>> by_global;
  for (const GlobalSlice& s : flows) by_global[s.global].push_back(s);
  for (auto& [global, slices] : by_global) {
    struct Anchor {
      std::uint64_t pid, tid, ts;
    };
    std::vector<Anchor> anchors;
    for (const GlobalSlice& s : slices) {
      auto it = spawn_step.find({s.pid, s.tid});
      if (it == spawn_step.end()) continue;  // slice never spawned (trace cut)
      anchors.push_back(Anchor{s.pid, s.tid, it->second});
    }
    if (anchors.size() < 2) continue;  // nothing to link
    std::sort(anchors.begin(), anchors.end(), [](const Anchor& a,
                                                 const Anchor& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.pid < b.pid;
    });
    std::ostringstream name;
    name << "global G" << global;
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      const Anchor& a = anchors[i];
      const bool last = i + 1 == anchors.size();
      const char* ph = i == 0 ? "s" : (last ? "f" : "t");
      std::ostringstream extra;
      extra << ",\"id\":" << global;
      if (last) extra << ",\"bp\":\"e\"";
      EmitEvent(os, first, ph, name.str(), "xshard", a.pid, a.tid, a.ts,
                extra.str());
    }
  }
}

}  // namespace

std::string_view TraceKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kAdmit:
      return "spawn";
    case EventKind::kGrant:
      return "grant";
    case EventKind::kBlock:
      return "block";
    case EventKind::kCycle:
      return "deadlock";
    case EventKind::kRollback:
      return "rollback";
    case EventKind::kCommit:
      return "commit";
    default:
      return "";
  }
}

std::string TraceJsonLine(const EngineEvent& event) {
  std::ostringstream os;
  os << "{\"kind\":\"" << TraceKindName(event.kind)
     << "\",\"step\":" << event.step << ",";
  AppendId(os, "txn", event.txn);
  os << ",";
  AppendId(os, "entity", event.entity);
  os << ",\"pc\":" << event.pc << ",\"target\":" << event.target
     << ",\"cost\":" << event.cost;
  if (event.kind == EventKind::kRollback) {
    os << ",\"cause\":\"" << RollbackCauseName(event.cause) << "\"";
  }
  os << "}";
  return os.str();
}

std::string TraceText(const EngineEvent& event) {
  std::ostringstream os;
  os << "[" << event.step << "] " << TraceKindName(event.kind) << " "
     << event.txn << " pc=" << event.pc;
  switch (event.kind) {
    case EventKind::kGrant:
    case EventKind::kBlock:
    case EventKind::kCycle:
      os << " entity=" << event.entity;
      break;
    case EventKind::kRollback:
      os << " -> lock state " << event.target << " (cost " << event.cost
         << ", " << RollbackCauseName(event.cause) << ")";
      break;
    default:
      break;
  }
  return os.str();
}

std::string TraceJsonl(const std::vector<EngineEvent>& events) {
  std::string out;
  for (const EngineEvent& e : events) {
    if (!TraceKindName(e.kind).empty()) out += TraceJsonLine(e) + "\n";
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<ShardTrace>& shards,
                            const std::vector<GlobalSlice>& flows) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const ShardTrace& shard : shards) EmitShard(os, first, shard);
  EmitFlows(os, first, shards, flows);
  os << "\n]}\n";
  return os.str();
}

std::string ChromeTraceJson(const std::vector<EngineEvent>& events,
                            const std::string& process_name) {
  ShardTrace shard;
  shard.pid = 0;
  shard.name = process_name;
  shard.events = events;
  return ChromeTraceJson(std::vector<ShardTrace>{std::move(shard)});
}

bool WriteChromeTraceFile(const std::string& path,
                          const std::vector<ShardTrace>& shards,
                          const std::vector<GlobalSlice>& flows) {
  std::ofstream out(path);
  if (!out) return false;
  out << ChromeTraceJson(shards, flows);
  return static_cast<bool>(out);
}

}  // namespace pardb::obs
