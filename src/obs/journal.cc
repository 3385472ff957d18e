#include "obs/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "obs/metric_names.h"

namespace pardb::obs {

namespace {

constexpr char kJournalMagic[8] = {'P', 'D', 'B', 'J', 'R', 'N', 'L', '1'};
constexpr std::uint32_t kJournalVersion = 1;

// The XOR the ω-perturbation test hook folds into a stamp's state digest.
constexpr std::uint64_t kPerturbMask = 0x9e3779b97f4a7c15ULL;

std::uint64_t DigestRecord(std::uint64_t h, const JournalRecord& r) {
  h = FnvMix64(h, (static_cast<std::uint64_t>(r.txn) << 32) |
                      (static_cast<std::uint64_t>(r.kind) << 24) |
                      (static_cast<std::uint64_t>(r.aux) << 16) | r.aux2);
  h = FnvMix64(h, r.step);
  h = FnvMix64(h, r.a);
  h = FnvMix64(h, r.b);
  return h;
}

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t shard;
  std::uint64_t seed;
  std::uint64_t base_ordinal;
  std::uint64_t total_records;
  std::uint64_t dropped;
  std::uint64_t stamp_count;
  std::uint64_t record_count;
};
static_assert(sizeof(FileHeader) == 64, "journal file header layout drifted");

}  // namespace

DecisionJournal::DecisionJournal(Options options) : options_(options) {
  if (options_.ring_capacity != 0) {
    ring_.reserve(options_.ring_capacity);
  }
}

void DecisionJournal::Append(const JournalRecord& r) {
  if (options_.ring_capacity == 0 || ring_.size() < options_.ring_capacity) {
    ring_.push_back(r);
  } else {
    ring_[ring_head_] = r;
    ring_head_ = (ring_head_ + 1) % options_.ring_capacity;
    ++dropped_records_;
    if (dropped_counter_ != nullptr) dropped_counter_->Inc();
  }
  ++total_records_;
  bytes_ += sizeof(JournalRecord);
  pending_digest_ = DigestRecord(pending_digest_, r);
  if (records_counter_ != nullptr) records_counter_->Inc();
  if (bytes_counter_ != nullptr) bytes_counter_->Inc(sizeof(JournalRecord));
}

void DecisionJournal::OnEvent(const EngineEvent& e) {
  JournalRecord r;
  r.txn = static_cast<std::uint32_t>(e.txn.value());
  r.kind = static_cast<std::uint8_t>(e.kind);
  r.step = e.step;
  switch (e.kind) {
    case EventKind::kAdmit:
    case EventKind::kRelease:
      break;
    case EventKind::kGrant:
      r.aux = static_cast<std::uint8_t>(e.flags &
                                        (kEventExclusive | kEventUpgrade));
      r.a = e.entity.value();
      break;
    case EventKind::kBlock:
      r.a = e.entity.value();
      break;
    case EventKind::kCycle:
      r.a = e.entity.valid() ? e.entity.value() : 0;
      r.b = e.cycle;
      break;
    case EventKind::kVictim:
      r.aux = static_cast<std::uint8_t>(e.flags &
                                        (kEventOmega | kEventRequester));
      r.aux2 = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(e.candidates, 0xffff));
      r.a = e.target;
      r.b = e.cost;
      break;
    case EventKind::kRollback:
      r.aux = static_cast<std::uint8_t>(e.cause);
      r.aux2 = e.target == 0 ? 1 : 0;
      r.a = e.target;
      r.b = e.cost;
      break;
    case EventKind::kHold:
    case EventKind::kCommit:
      r.a = e.pc;
      break;
  }
  Append(r);
}

void DecisionJournal::StampEpoch(std::uint64_t step,
                                 std::uint64_t state_digest, EpochKind kind) {
  EpochStamp s;
  s.epoch = stamps_.size();
  s.step = step;
  s.state_digest =
      s.epoch == perturb_epoch_ ? (state_digest ^ kPerturbMask) : state_digest;
  s.record_digest = pending_digest_;
  s.record_count = total_records_;
  s.kind = static_cast<std::uint8_t>(kind);
  std::uint64_t c = FnvMix64(chain_, static_cast<std::uint64_t>(s.kind));
  c = FnvMix64(c, s.state_digest);
  c = FnvMix64(c, s.record_digest);
  s.chain = c;
  chain_ = c;
  pending_digest_ = kFnvOffsetBasis;
  stamps_.push_back(s);
  bytes_ += sizeof(EpochStamp);
  if (epochs_counter_ != nullptr) epochs_counter_->Inc();
  if (bytes_counter_ != nullptr) bytes_counter_->Inc(sizeof(EpochStamp));
}

void DecisionJournal::AttachMetrics(MetricsRegistry* registry,
                                    const LabelSet& labels) {
  records_counter_ = registry->GetCounter(kJournalRecordsTotal, labels);
  epochs_counter_ = registry->GetCounter(kJournalEpochsTotal, labels);
  dropped_counter_ = registry->GetCounter(kJournalDroppedTotal, labels);
  bytes_counter_ = registry->GetCounter(kJournalBytesTotal, labels);
}

std::vector<std::uint64_t> DecisionJournal::ChainValues() const {
  std::vector<std::uint64_t> out;
  out.reserve(stamps_.size());
  for (const EpochStamp& s : stamps_) out.push_back(s.chain);
  return out;
}

std::vector<JournalRecord> DecisionJournal::RetainedRecords() const {
  std::vector<JournalRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

JournalDigest DecisionJournal::Digest(std::uint32_t shard, std::size_t tail,
                                      std::size_t recent_stamps) const {
  JournalDigest d;
  d.shard = shard;
  d.records = total_records_;
  d.dropped = dropped_records_;
  d.bytes = bytes_;
  d.epochs = stamps_.size();
  d.chain = chain_;
  const std::size_t n = std::min(tail, ring_.size());
  d.tail.reserve(n);
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) {
    d.tail.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  const std::size_t m = std::min(recent_stamps, stamps_.size());
  d.recent_stamps.assign(stamps_.end() - static_cast<std::ptrdiff_t>(m),
                         stamps_.end());
  return d;
}

Status DecisionJournal::WriteFile(const std::string& path, std::uint32_t shard,
                                  std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open journal file for write: " + path);
  }
  FileHeader h;
  std::memcpy(h.magic, kJournalMagic, sizeof(h.magic));
  h.version = kJournalVersion;
  h.shard = shard;
  h.seed = seed;
  h.base_ordinal = total_records_ - ring_.size();
  h.total_records = total_records_;
  h.dropped = dropped_records_;
  h.stamp_count = stamps_.size();
  h.record_count = ring_.size();
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  if (ok && !stamps_.empty()) {
    ok = std::fwrite(stamps_.data(), sizeof(EpochStamp), stamps_.size(), f) ==
         stamps_.size();
  }
  if (ok) {
    // Unroll the ring so records land oldest-first.
    for (std::size_t i = 0; ok && i < ring_.size(); ++i) {
      const JournalRecord& r = ring_[(ring_head_ + i) % ring_.size()];
      ok = std::fwrite(&r, sizeof(JournalRecord), 1, f) == 1;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) return Status::Internal("short write to journal file: " + path);
  return Status::OK();
}

Result<JournalData> ReadJournalFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open journal file: " + path);
  }
  FileHeader h;
  if (std::fread(&h, sizeof(h), 1, f) != 1) {
    std::fclose(f);
    return Status::Internal("truncated journal header: " + path);
  }
  if (std::memcmp(h.magic, kJournalMagic, sizeof(h.magic)) != 0 ||
      h.version != kJournalVersion) {
    std::fclose(f);
    return Status::InvalidArgument("not a pardb journal file: " + path);
  }
  JournalData d;
  d.shard = h.shard;
  d.seed = h.seed;
  d.base_ordinal = h.base_ordinal;
  d.total_records = h.total_records;
  d.dropped = h.dropped;
  d.stamps.resize(h.stamp_count);
  d.records.resize(h.record_count);
  bool ok = true;
  if (h.stamp_count != 0) {
    ok = std::fread(d.stamps.data(), sizeof(EpochStamp), h.stamp_count, f) ==
         h.stamp_count;
  }
  if (ok && h.record_count != 0) {
    ok = std::fread(d.records.data(), sizeof(JournalRecord), h.record_count,
                    f) == h.record_count;
  }
  std::fclose(f);
  if (!ok) return Status::Internal("truncated journal body: " + path);
  return d;
}

std::size_t FirstDivergentEpoch(const std::vector<EpochStamp>& a,
                                const std::vector<EpochStamp>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  // Bisection over the cumulative chain: equal at mid certifies the whole
  // prefix, unequal at mid means the break is at mid or earlier.
  std::size_t lo = 0, hi = common;  // invariant: break index in [lo, hi]
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (a[mid].chain == b[mid].chain) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < common) return lo;
  return a.size() == b.size() ? kNoDivergence : common;
}

DivergenceReport DiffJournals(const JournalData& a, const JournalData& b) {
  DivergenceReport rep;
  const std::size_t epoch = FirstDivergentEpoch(a.stamps, b.stamps);
  if (epoch == kNoDivergence) {
    // Chains agree in full; any residual divergence lives in records
    // appended after the last stamp.
    const std::uint64_t stamped = a.stamps.empty()
                                      ? 0
                                      : a.stamps.back().record_count;
    const std::uint64_t from = std::max(
        {stamped, a.base_ordinal, b.base_ordinal});
    const std::uint64_t end_a = a.base_ordinal + a.records.size();
    const std::uint64_t end_b = b.base_ordinal + b.records.size();
    for (std::uint64_t o = from; o < std::max(end_a, end_b); ++o) {
      const bool in_a = o < end_a;
      const bool in_b = o < end_b;
      if (in_a && in_b &&
          a.records[o - a.base_ordinal] == b.records[o - b.base_ordinal]) {
        continue;
      }
      rep.diverged = true;
      rep.epoch = a.stamps.size();  // past the last stamped epoch
      rep.record_ordinal = o;
      rep.has_record_a = in_a;
      rep.has_record_b = in_b;
      if (in_a) rep.record_a = a.records[o - a.base_ordinal];
      if (in_b) rep.record_b = b.records[o - b.base_ordinal];
      for (std::uint64_t c = o > 3 ? o - 3 : 0; c < o; ++c) {
        if (c >= a.base_ordinal && c < end_a) {
          rep.context.push_back(a.records[c - a.base_ordinal]);
        }
      }
      return rep;
    }
    return rep;  // identical
  }

  rep.diverged = true;
  rep.epoch = epoch;
  const bool stamp_a = epoch < a.stamps.size();
  const bool stamp_b = epoch < b.stamps.size();
  if (stamp_a) {
    rep.step_a = a.stamps[epoch].step;
    rep.state_a = a.stamps[epoch].state_digest;
    rep.chain_a = a.stamps[epoch].chain;
  }
  if (stamp_b) {
    rep.step_b = b.stamps[epoch].step;
    rep.state_b = b.stamps[epoch].state_digest;
    rep.chain_b = b.stamps[epoch].chain;
  }

  // Record range of the divergent epoch: (previous stamp, this stamp].
  const std::uint64_t from_ord =
      epoch == 0 ? 0 : a.stamps[epoch - 1].record_count;
  const std::uint64_t to_a =
      stamp_a ? a.stamps[epoch].record_count
              : a.base_ordinal + a.records.size();
  const std::uint64_t to_b =
      stamp_b ? b.stamps[epoch].record_count
              : b.base_ordinal + b.records.size();
  if (from_ord < a.base_ordinal || from_ord < b.base_ordinal) {
    rep.truncated = true;  // ring evicted part of the divergent epoch
  }
  const std::uint64_t scan_from =
      std::max({from_ord, a.base_ordinal, b.base_ordinal});
  for (std::uint64_t o = scan_from; o < std::max(to_a, to_b); ++o) {
    const bool in_a = o < to_a && o < a.base_ordinal + a.records.size();
    const bool in_b = o < to_b && o < b.base_ordinal + b.records.size();
    if (in_a && in_b &&
        a.records[o - a.base_ordinal] == b.records[o - b.base_ordinal]) {
      continue;
    }
    if (!in_a && !in_b) break;
    rep.record_ordinal = o;
    rep.has_record_a = in_a;
    rep.has_record_b = in_b;
    if (in_a) rep.record_a = a.records[o - a.base_ordinal];
    if (in_b) rep.record_b = b.records[o - b.base_ordinal];
    for (std::uint64_t c = o > 3 ? o - 3 : 0; c < o; ++c) {
      if (c >= a.base_ordinal && c < a.base_ordinal + a.records.size()) {
        rep.context.push_back(a.records[c - a.base_ordinal]);
      }
    }
    return rep;
  }
  // Every retained record in the epoch matches: the chains split on the
  // state digest alone (e.g. a perturbed ω-order with identical decisions).
  rep.state_only = true;
  return rep;
}

std::string RenderJournalRecord(const JournalRecord& record) {
  std::ostringstream os;
  const EventKind kind = static_cast<EventKind>(record.kind);
  os << "step " << record.step << " T" << record.txn << " "
     << EventKindName(kind);
  switch (kind) {
    case EventKind::kAdmit:
      break;
    case EventKind::kGrant:
      os << " E" << record.a << ((record.aux & 1) != 0 ? " X" : " S");
      if ((record.aux & 2) != 0) os << " upgrade";
      break;
    case EventKind::kBlock:
      os << " E" << record.a;
      break;
    case EventKind::kCycle:
      os << " at E" << record.a << " deadlock#" << record.b;
      break;
    case EventKind::kVictim:
      os << " target=" << record.a << " cost=" << record.b << " candidates="
         << record.aux2;
      if ((record.aux & 1) != 0) os << " omega-constrained";
      if ((record.aux & 2) != 0) os << " self";
      break;
    case EventKind::kRollback:
      os << " to=" << record.a << " cost=" << record.b << " cause="
         << RollbackCauseName(static_cast<RollbackCause>(record.aux))
         << (record.aux2 != 0 ? " total" : " partial");
      break;
    case EventKind::kHold:
      os << " pc=" << record.a;
      break;
    case EventKind::kRelease:
      break;
    case EventKind::kCommit:
      os << " pc=" << record.a;
      break;
  }
  return os.str();
}

namespace {

void HexU64(std::ostringstream& os, std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  os << buf;
}

}  // namespace

std::string RenderDivergence(const DivergenceReport& report,
                             std::uint32_t shard, const std::string& label_a,
                             const std::string& label_b) {
  std::ostringstream os;
  if (!report.diverged) {
    os << "shard " << shard << ": journals identical (" << label_a << " == "
       << label_b << ")\n";
    return os.str();
  }
  os << "shard " << shard << ": FIRST DIVERGENCE at epoch " << report.epoch
     << "\n";
  os << "  step: " << label_a << "=" << report.step_a << "  " << label_b
     << "=" << report.step_b << "\n";
  os << "  chain: " << label_a << "=";
  HexU64(os, report.chain_a);
  os << "  " << label_b << "=";
  HexU64(os, report.chain_b);
  os << "\n";
  if (report.state_only) {
    os << "  decisions identical through the epoch; state digest differs ("
       << label_a << "=";
    HexU64(os, report.state_a);
    os << ", " << label_b << "=";
    HexU64(os, report.state_b);
    os << ")\n  -> lock-table / live-set / omega-order drift without a "
          "divergent decision record\n";
    return os.str();
  }
  if (report.truncated) {
    os << "  (warning: ring evicted part of the divergent epoch; first "
          "retained mismatch shown)\n";
  }
  if (!report.context.empty()) {
    os << "  shared context before the break:\n";
    for (const JournalRecord& r : report.context) {
      os << "    " << RenderJournalRecord(r) << "\n";
    }
  }
  os << "  first divergent decision (record #" << report.record_ordinal
     << "):\n";
  os << "    " << label_a << ": "
     << (report.has_record_a ? RenderJournalRecord(report.record_a)
                             : std::string("<no record — run ended>"))
     << "\n";
  os << "    " << label_b << ": "
     << (report.has_record_b ? RenderJournalRecord(report.record_b)
                             : std::string("<no record — run ended>"))
     << "\n";
  return os.str();
}

std::string SummarizeJournal(const JournalData& data,
                             const std::string& label) {
  std::ostringstream os;
  os << label << ": shard " << data.shard << " seed " << data.seed << " — "
     << data.total_records << " records (" << data.dropped << " dropped), "
     << data.stamps.size() << " epochs, chain head ";
  HexU64(os, data.stamps.empty() ? kFnvOffsetBasis
                                 : data.stamps.back().chain);
  os << "\n";
  return os.str();
}

namespace {

void RecordJson(std::ostringstream& os, const JournalRecord& r) {
  os << "{\"txn\":" << r.txn << ",\"kind\":\""
     << EventKindName(static_cast<EventKind>(r.kind)) << "\",\"step\":"
     << r.step << ",\"a\":" << r.a << ",\"b\":" << r.b << ",\"aux\":"
     << static_cast<unsigned>(r.aux) << ",\"aux2\":" << r.aux2
     << ",\"text\":\"" << RenderJournalRecord(r) << "\"}";
}

}  // namespace

std::string JournalTailJson(const JournalDigest& digest) {
  std::ostringstream os;
  os << "{\"shard\":" << digest.shard << ",\"records\":" << digest.records
     << ",\"dropped\":" << digest.dropped << ",\"bytes\":" << digest.bytes
     << ",\"epochs\":" << digest.epochs << ",\"chain\":\"";
  HexU64(os, digest.chain);
  os << "\",\"tail\":[";
  for (std::size_t i = 0; i < digest.tail.size(); ++i) {
    if (i != 0) os << ",";
    RecordJson(os, digest.tail[i]);
  }
  os << "],\"stamps\":[";
  for (std::size_t i = 0; i < digest.recent_stamps.size(); ++i) {
    const EpochStamp& s = digest.recent_stamps[i];
    if (i != 0) os << ",";
    os << "{\"epoch\":" << s.epoch << ",\"step\":" << s.step
       << ",\"kind\":\""
       << (static_cast<EpochKind>(s.kind) == EpochKind::kTwoPC ? "twopc"
                                                               : "step")
       << "\",\"chain\":\"";
    HexU64(os, s.chain);
    os << "\",\"state\":\"";
    HexU64(os, s.state_digest);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace pardb::obs
