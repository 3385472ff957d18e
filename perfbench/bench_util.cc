#include "bench_util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

namespace pardb::perfbench {

namespace {

std::uint64_t Rank(std::uint64_t n, double p) {
  const double r = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(r), 1, n);
}

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

// A JSON value for the spec reader: just enough of RFC 8259 for
// BENCHMARK.json (no \u escapes beyond ASCII).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  std::optional<Json> ParseDocument(std::string* error) {
    Json v;
    if (!ParseValue(&v, 0) || (SkipSpace(), pos_ != s_.size())) {
      *error = error_.empty() ? "trailing characters" : error_;
      *error += " at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected string");
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return Fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': case '\\': case '/': c = e; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            unsigned code = 0;
            const char* first = s_.data() + pos_;
            const char* last = first + std::min<std::size_t>(4, s_.size() - pos_);
            const auto res = std::from_chars(first, last, code, 16);
            if (res.ptr != first + 4 || code > 0x7f) return Fail("bad escape");
            c = static_cast<char>(code);
            pos_ += 4;
            break;
          }
          default:
            return Fail("bad escape");
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return Fail("unterminated string");
    ++pos_;
    return true;
  }

  bool ParseValue(Json* v, int depth) {
    if (depth > 32) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') {
      v->kind = Json::Kind::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      for (;;) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
        ++pos_;
        Json member;
        if (!ParseValue(&member, depth + 1)) return false;
        if (v->Get(key) != nullptr) return Fail("duplicate key");
        v->object.emplace_back(std::move(key), std::move(member));
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      v->kind = Json::Kind::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      for (;;) {
        Json item;
        if (!ParseValue(&item, depth + 1)) return false;
        v->array.push_back(std::move(item));
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      v->kind = Json::Kind::kString;
      return ParseString(&v->string);
    }
    if (c == 't' || c == 'f') {
      v->kind = Json::Kind::kBool;
      v->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') return Literal("null");
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (start == pos_) return Fail("unexpected character");
    const std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    v->kind = Json::Kind::kNumber;
    v->number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Fail("bad number");
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool ReadStrings(const Json* v, std::vector<std::string>* out) {
  if (v == nullptr || v->kind != Json::Kind::kArray) return false;
  for (const Json& item : v->array) {
    if (item.kind != Json::Kind::kString) return false;
    out->push_back(item.string);
  }
  return true;
}

bool HasExactlyKeys(const Json& v, std::initializer_list<const char*> keys) {
  if (v.kind != Json::Kind::kObject || v.object.size() != keys.size()) {
    return false;
  }
  for (const char* k : keys) {
    if (v.Get(k) == nullptr) return false;
  }
  return true;
}

bool ReadMetrics(const Json* v, bool with_bound, std::vector<MetricSpec>* out) {
  if (v == nullptr || v->kind != Json::Kind::kArray) return false;
  for (const Json& m : v->array) {
    const bool shape = with_bound
                           ? HasExactlyKeys(m, {"name", "unit", "better", "bound"})
                           : HasExactlyKeys(m, {"name", "unit", "better"});
    if (!shape) return false;
    const Json* name = m.Get("name");
    const Json* unit = m.Get("unit");
    const Json* better = m.Get("better");
    if (name->kind != Json::Kind::kString ||
        unit->kind != Json::Kind::kString ||
        better->kind != Json::Kind::kString) {
      return false;
    }
    MetricSpec spec{name->string, unit->string, better->string, std::nullopt};
    if (with_bound) {
      const Json* bound = m.Get("bound");
      if (bound->kind != Json::Kind::kNumber) return false;
      spec.bound = bound->number;
    }
    out->push_back(std::move(spec));
  }
  return true;
}

void WriteStrings(std::ostringstream& os, const std::vector<std::string>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i > 0 ? ", " : "") << JsonQuote(v[i]);
  }
  os << "]";
}

void WriteMetrics(std::ostringstream& os, const std::vector<MetricSpec>& v) {
  os << "[\n";
  for (std::size_t i = 0; i < v.size(); ++i) {
    const MetricSpec& m = v[i];
    os << "    {\"name\": " << JsonQuote(m.name)
       << ", \"unit\": " << JsonQuote(m.unit)
       << ", \"better\": " << JsonQuote(m.better);
    if (m.bound.has_value()) os << ", \"bound\": " << JsonNumber(*m.bound);
    os << "}" << (i + 1 < v.size() ? "," : "") << "\n";
  }
  os << "  ]";
}

}  // namespace

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::uint64_t r = Rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (r - 1), values.end());
  return values[r - 1];
}

std::uint64_t SamplesBeyond(std::uint64_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

std::optional<double> HighestSupportedPercentile(
    std::uint64_t n, const std::vector<double>& candidates,
    std::uint64_t min_beyond) {
  std::optional<double> best;
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond && (!best || p > *best)) best = p;
  }
  return best;
}

double HistogramPercentile(const obs::HistogramSnapshot& h, double p) {
  if (h.count == 0) return 0.0;
  const std::uint64_t r = Rank(h.count, p);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const std::uint64_t in = h.counts[b];
    if (before + in < r) {
      before += in;
      continue;
    }
    const double lo = b == 0 ? 0.0 : static_cast<double>(h.bounds[b - 1]);
    const double hi = std::min<double>(
        b < h.bounds.size() ? static_cast<double>(h.bounds[b])
                            : static_cast<double>(h.max),
        static_cast<double>(h.max));
    const double frac =
        static_cast<double>(r - before) / static_cast<double>(in);
    return std::max(lo, std::min(hi, lo + (hi - lo) * frac));
  }
  return static_cast<double>(h.max);
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || name[0] == '_' || name[0] == '.' ||
      name[0] == '-') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), IsNameChar);
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsNameChar(c) || c == '/' || c == '%';
  });
}

std::string ValidateSpec(const BenchSpec& spec) {
  std::set<std::string> seen;
  auto name_ok = [&seen](const std::string& name) -> std::string {
    if (!ValidMetricName(name)) return "invalid name '" + name + "'";
    if (!seen.insert(name).second) return "duplicate name '" + name + "'";
    return "";
  };
  for (const WorkloadSpec& w : spec.workloads) {
    if (std::string e = name_ok(w.name); !e.empty()) return e;
    if (w.why.empty() || w.why.size() > 200 ||
        w.why.find('\n') != std::string::npos) {
      return "workload '" + w.name + "' needs a one-line why";
    }
  }
  seen.clear();
  for (const auto* group : {&spec.end_to_end, &spec.per_layer}) {
    for (const MetricSpec& m : *group) {
      if (std::string e = name_ok(m.name); !e.empty()) return e;
      if (!ValidUnit(m.unit)) return "invalid unit '" + m.unit + "'";
      if (m.better != "higher" && m.better != "lower") {
        return "metric '" + m.name + "' has better='" + m.better + "'";
      }
      const bool e2e = group == &spec.end_to_end;
      if (e2e != m.bound.has_value()) {
        return "metric '" + m.name + "' has a misplaced bound";
      }
      if (e2e && !(*m.bound > 0.0 && *m.bound <= 0.25)) {
        return "metric '" + m.name + "' bound out of (0, 0.25]";
      }
    }
  }
  return "";
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);  // shortest exact
  return std::string(buf, res.ptr);
}

std::string SpecToJson(const BenchSpec& spec) {
  std::ostringstream os;
  os << "{\n  \"command\": ";
  WriteStrings(os, spec.command);
  os << ",\n  \"paths\": ";
  WriteStrings(os, spec.paths);
  os << ",\n  \"run_seconds\": " << spec.run_seconds
     << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    os << "    {\"name\": " << JsonQuote(spec.workloads[i].name)
       << ", \"why\": " << JsonQuote(spec.workloads[i].why) << "}"
       << (i + 1 < spec.workloads.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"end_to_end\": ";
  WriteMetrics(os, spec.end_to_end);
  os << ",\n  \"per_layer\": ";
  WriteMetrics(os, spec.per_layer);
  os << "\n}\n";
  return os.str();
}

std::optional<BenchSpec> SpecFromJson(std::string_view text,
                                      std::string* error) {
  JsonParser parser(text);
  std::optional<Json> doc = parser.ParseDocument(error);
  if (!doc) return std::nullopt;
  if (!HasExactlyKeys(*doc, {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"})) {
    *error = "top level must hold exactly the BENCHMARK.json keys";
    return std::nullopt;
  }
  BenchSpec spec;
  const Json* secs = doc->Get("run_seconds");
  const Json* workloads = doc->Get("workloads");
  if (!ReadStrings(doc->Get("command"), &spec.command) ||
      !ReadStrings(doc->Get("paths"), &spec.paths) ||
      secs->kind != Json::Kind::kNumber ||
      secs->number != std::floor(secs->number) ||
      workloads->kind != Json::Kind::kArray) {
    *error = "command, paths, run_seconds or workloads malformed";
    return std::nullopt;
  }
  spec.run_seconds = static_cast<int>(secs->number);
  for (const Json& w : workloads->array) {
    if (!HasExactlyKeys(w, {"name", "why"}) ||
        w.Get("name")->kind != Json::Kind::kString ||
        w.Get("why")->kind != Json::Kind::kString) {
      *error = "workload entries need exactly a name and a why";
      return std::nullopt;
    }
    spec.workloads.push_back({w.Get("name")->string, w.Get("why")->string});
  }
  if (!ReadMetrics(doc->Get("end_to_end"), /*with_bound=*/true,
                   &spec.end_to_end) ||
      !ReadMetrics(doc->Get("per_layer"), /*with_bound=*/false,
                   &spec.per_layer)) {
    *error = "metric entries malformed";
    return std::nullopt;
  }
  return spec;
}

std::vector<std::int64_t> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(i);
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children are recorded in start order; merge overlaps as we sweep.
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (std::uint32_t c : children[i]) {
      const std::int64_t lo = std::max(spans_[c].start_ns, reach);
      const std::int64_t hi = std::min(spans_[c].end_ns, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

SpanRecorder::Totals SpanRecorder::TotalsFor(std::string_view name) const {
  const std::vector<std::int64_t> self = SelfTimes();
  Totals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    ++t.count;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  return t;
}

std::string SpanRecorder::ToCsv() const {
  const std::vector<std::int64_t> self = SelfTimes();
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream os;
  os << "id,parent,name,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << ","
       << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
       << "," << s.name << "," << s.start_ns - t0 << "," << s.end_ns - t0
       << "," << self[i] << "\n";
  }
  return os.str();
}

}  // namespace pardb::perfbench
