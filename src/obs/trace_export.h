#ifndef PARDB_OBS_TRACE_EXPORT_H_
#define PARDB_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace pardb::obs {

// Trace renderings of the engine's event stream (DESIGN D22). The trace
// shows the protocol: admit ("spawn"), grant, block, cycle ("deadlock"),
// rollback and commit. Victim, hold and release events are journal-only,
// so TraceKindName returns "" for them and every renderer skips them.
std::string_view TraceKindName(EventKind kind);

// One traced event as a single-line JSON object:
//   {"kind":"block","step":12,"txn":2,"entity":5,"pc":3,"target":0,"cost":0}
// Rollback lines end with its cause: ...,"cost":4,"cause":"wait_die"}.
// Invalid ids (entity on spawn/commit/rollback events) serialize as null.
std::string TraceJsonLine(const EngineEvent& event);

// One traced event as text, for `pardb run --trace`:
//   [7] rollback T3 pc=12 -> lock state 1 (cost 4, deadlock_victim)
std::string TraceText(const EngineEvent& event);

// Every traced event of `events`, one TraceJsonLine per line (JSONL).
std::string TraceJsonl(const std::vector<EngineEvent>& events);

// The event stream of one engine (one shard) destined for the Chrome
// trace: `pid` becomes the trace process id, `name` its process_name.
struct ShardTrace {
  std::uint64_t pid = 0;
  std::string name;
  std::vector<EngineEvent> events;  // in emission order
};

// One slice of a cross-shard (global) transaction: the shard-local
// transaction `tid` running on process `pid` belongs to the global
// transaction with sequence number `global`. The sharded driver fills
// these from the coordinator's slice index so the Chrome trace can draw
// flow arrows linking a split transaction's slices across shard tracks.
struct GlobalSlice {
  std::uint64_t global = 0;  // global sequence number (the flow id)
  std::uint64_t pid = 0;     // home shard of the slice
  std::uint64_t tid = 0;     // local txn id on that shard
};

// Renders engine events as a Chrome trace_event JSON document (loadable in
// Perfetto / about://tracing). Timestamps are engine steps expressed as
// microseconds; pid = shard, tid = transaction. Mapping:
//  * kAdmit/kCommit        -> B/E duration slice spanning the txn lifetime
//  * kBlock                -> X slice "wait E<n>" lasting until the next
//                             grant, rollback or commit of that txn
//  * kCycle                -> instant "deadlock E<n>"
//  * kRollback             -> instant "rollback" with target/cost/pc/cause
//                             args
//  * GlobalSlice groups    -> ph "s"/"t"/"f" flow events ("global G<seq>")
//                             binding the slices of one global transaction
//                             — and its 2PC prepare/resolve points — into
//                             one arrow chain across shard tracks, ordered
//                             by each slice's spawn step
// Slices left open at the end of a shard's stream are closed at its last
// step so partial runs still load.
std::string ChromeTraceJson(const std::vector<ShardTrace>& shards,
                            const std::vector<GlobalSlice>& flows = {});

// Convenience for a single-engine run.
std::string ChromeTraceJson(const std::vector<EngineEvent>& events,
                            const std::string& process_name = "pardb");

// Writes `ChromeTraceJson(shards, flows)` to `path`. Returns false on I/O
// failure.
bool WriteChromeTraceFile(const std::string& path,
                          const std::vector<ShardTrace>& shards,
                          const std::vector<GlobalSlice>& flows = {});

}  // namespace pardb::obs

#endif  // PARDB_OBS_TRACE_EXPORT_H_
