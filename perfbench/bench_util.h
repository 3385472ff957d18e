#ifndef PARDB_PERFBENCH_BENCH_UTIL_H_
#define PARDB_PERFBENCH_BENCH_UTIL_H_

// Helpers of the default-path benchmark that carry no workload knowledge:
// percentiles, metric-name rules, the BENCHMARK.json spec with its writer
// and reader, and the in-memory span recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace pardb::perfbench {

// Nearest-rank percentile: the value at sorted position ceil(n * p / 100)
// - 1, for p in (0, 100]. The same convention as core::ComputeCostDistribution
// and obs::HistogramSnapshot::Quantile. 0 for an empty sample.
double NearestRank(std::vector<double> values, double p);

// Samples strictly above the nearest-rank position of percentile p in a
// sample of n.
std::uint64_t SamplesBeyond(std::uint64_t n, double p);

// The highest of `candidates` that leaves at least `min_beyond` samples
// above its rank in a sample of n — the tail percentile a timing may be
// quoted at. nullopt when even the lowest candidate has too few.
std::optional<double> HighestSupportedPercentile(
    std::uint64_t n, const std::vector<double>& candidates,
    std::uint64_t min_beyond = 10);

// Nearest-rank percentile of a bucketed histogram. The rank is located in
// its bucket and placed linearly between the bucket's bounds (clamped to
// the observed max), so the value moves with the data instead of jumping
// between power-of-two bucket edges. 0 for an empty histogram.
double HistogramPercentile(const obs::HistogramSnapshot& h, double p);

// Metric and workload names: 1 to 64 of [A-Za-z0-9_.-], starting with a
// letter or digit.
bool ValidMetricName(std::string_view name);
// Units: 1 to 16 of [A-Za-z0-9_/%.-].
bool ValidUnit(std::string_view unit);

struct WorkloadSpec {
  std::string name;
  std::string why;
  bool operator==(const WorkloadSpec&) const = default;
};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;           // "higher" or "lower"
  std::optional<double> bound;  // end-to-end metrics only
  bool operator==(const MetricSpec&) const = default;
};

// The contents of BENCHMARK.json.
struct BenchSpec {
  std::vector<std::string> command;
  std::vector<std::string> paths;
  int run_seconds = 0;
  std::vector<WorkloadSpec> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
  bool operator==(const BenchSpec&) const = default;
};

// Every name and unit valid, names unique, bounds in (0, 0.25], `better`
// one of higher/lower. Returns the first problem, or an empty string.
std::string ValidateSpec(const BenchSpec& spec);

// Pretty-printed JSON with exactly the BENCHMARK.json keys.
std::string SpecToJson(const BenchSpec& spec);
// Parses SpecToJson's output (and any JSON with the same shape). On
// failure returns nullopt and sets *error.
std::optional<BenchSpec> SpecFromJson(std::string_view text,
                                      std::string* error);

// JSON string literal for `s`, quotes included.
std::string JsonQuote(std::string_view s);
// A double printed with all its significant digits (JSON has no NaN or
// infinity; those print as 0).
std::string JsonNumber(double v);

// Spans recorded in memory by the traced run: name, start, end and the
// span that caused them. Names must outlive the recorder (string literals).
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  // kNoParent for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  explicit SpanRecorder(std::size_t reserve = 0) { spans_.reserve(reserve); }

  std::uint32_t Begin(const char* name, std::uint32_t parent = kNoParent) {
    spans_.push_back(Span{name, parent, Now(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void End(std::uint32_t id) { spans_[id].end_ns = Now(); }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span: its duration minus the part of its interval that its child
  // spans cover (overlapping children are counted once).
  std::vector<std::int64_t> SelfTimes() const;

  // Sum of durations and of self times over the spans named `name`.
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  Totals TotalsFor(std::string_view name) const;

  // One line per span: id,parent,name,start_ns,end_ns,self_ns (parent -1
  // for roots), start times relative to the first span.
  std::string ToCsv() const;

 private:
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
};

// Times one span for the enclosing scope; a null recorder records nothing,
// so the same harness code runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name,
             std::uint32_t parent = SpanRecorder::kNoParent)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const {
    return rec_ != nullptr ? id_ : SpanRecorder::kNoParent;
  }

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

}  // namespace pardb::perfbench

#endif  // PARDB_PERFBENCH_BENCH_UTIL_H_
