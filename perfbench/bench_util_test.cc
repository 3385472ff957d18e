#include "bench_util.h"

#include <gtest/gtest.h>

namespace pardb::perfbench {
namespace {

TEST(NearestRankTest, FollowsTheNearestRankDefinition) {
  // Rank ceil(n * p / 100): p50 of 4 values is the 2nd, p75 the 3rd.
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 50), 2);
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 75), 3);
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 100), 4);
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 1), 1);
  EXPECT_EQ(NearestRank({7}, 99), 7);
  EXPECT_EQ(NearestRank({}, 50), 0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(101 - i);
  EXPECT_EQ(NearestRank(hundred, 99), 99);
  EXPECT_EQ(NearestRank(hundred, 99.9), 100);
}

TEST(HighestSupportedPercentileTest, NeedsTenSamplesBeyond) {
  const std::vector<double> cands = {50, 90, 99, 99.9};
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(HighestSupportedPercentile(1000, cands), 99);
  EXPECT_EQ(HighestSupportedPercentile(999, cands), 90);
  EXPECT_EQ(HighestSupportedPercentile(10000, cands), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(20, cands), 50);
  EXPECT_FALSE(HighestSupportedPercentile(19, cands).has_value());
  EXPECT_EQ(HighestSupportedPercentile(3, cands, /*min_beyond=*/1), 50);
}

TEST(HistogramPercentileTest, InterpolatesInsideTheRankBucket) {
  obs::HistogramSnapshot h;
  h.bounds = {10, 20, 40};
  h.counts = {0, 4, 4, 0};  // four samples in (10,20], four in (20,40]
  h.count = 8;
  h.max = 40;
  EXPECT_DOUBLE_EQ(HistogramPercentile(h, 50), 20.0);  // rank 4: top of b1
  EXPECT_DOUBLE_EQ(HistogramPercentile(h, 25), 15.0);  // rank 2 of 4 in b1
  EXPECT_DOUBLE_EQ(HistogramPercentile(h, 75), 30.0);
  h.max = 25;  // the top bucket clamps to the observed max
  EXPECT_DOUBLE_EQ(HistogramPercentile(h, 100), 25.0);
  EXPECT_EQ(HistogramPercentile(obs::HistogramSnapshot{}, 50), 0.0);
}

TEST(MetricNameTest, AcceptsOnlyTheNameAlphabet) {
  EXPECT_TRUE(ValidMetricName("txns_per_s"));
  EXPECT_TRUE(ValidMetricName("rollback.wasted_steps.self_rollback"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_hidden"));
  EXPECT_FALSE(ValidMetricName(".dot"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_TRUE(ValidUnit("txn/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit("much-too-long-unit"));
  EXPECT_FALSE(ValidUnit("m s"));
}

BenchSpec SampleSpec() {
  BenchSpec spec;
  spec.command = {"python3", "perfbench/run.py"};
  spec.paths = {"perfbench"};
  spec.run_seconds = 15;
  spec.workloads = {{"a", "why \"quoted\" \\ here"}, {"b", "second"}};
  spec.end_to_end = {{"txns_per_s", "txn/s", "higher", 0.2},
                     {"setup_s", "s", "lower", 0.25}};
  spec.per_layer = {{"core.step_ns", "ns", "lower", std::nullopt}};
  return spec;
}

TEST(SpecTest, WriterRoundTrips) {
  const BenchSpec spec = SampleSpec();
  ASSERT_EQ(ValidateSpec(spec), "");
  std::string error;
  const std::optional<BenchSpec> back = SpecFromJson(SpecToJson(spec), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, spec);
  EXPECT_EQ(SpecToJson(*back), SpecToJson(spec));
}

TEST(SpecTest, ReaderRejectsOtherShapes) {
  std::string error;
  EXPECT_FALSE(SpecFromJson("{", &error).has_value());
  EXPECT_FALSE(SpecFromJson("[]", &error).has_value());
  std::string extra = SpecToJson(SampleSpec());
  extra.insert(1, "\"extra\": 1,");
  EXPECT_FALSE(SpecFromJson(extra, &error).has_value());
  std::string unbounded = SpecToJson(SampleSpec());
  unbounded.replace(unbounded.find(", \"bound\": 0.2"), 14, "");
  EXPECT_FALSE(SpecFromJson(unbounded, &error).has_value());
}

TEST(SpecTest, ValidatorCatchesBadTables) {
  BenchSpec spec = SampleSpec();
  spec.per_layer.push_back({"txns_per_s", "x", "lower", std::nullopt});
  EXPECT_NE(ValidateSpec(spec), "");  // duplicate name
  spec = SampleSpec();
  spec.end_to_end[0].bound = 0.3;
  EXPECT_NE(ValidateSpec(spec), "");
  spec = SampleSpec();
  spec.end_to_end[0].better = "more";
  EXPECT_NE(ValidateSpec(spec), "");
  spec = SampleSpec();
  spec.workloads[0].why = "two\nlines";
  EXPECT_NE(ValidateSpec(spec), "");
}

TEST(SpanRecorderTest, SelfTimeSubtractsChildCoverage) {
  SpanRecorder rec;
  const std::uint32_t root = rec.Begin("root");
  const std::uint32_t a = rec.Begin("child", root);
  rec.End(a);
  const std::uint32_t b = rec.Begin("child", root);
  rec.End(b);
  rec.End(root);
  const auto& s = rec.spans();
  const std::vector<std::int64_t> self = rec.SelfTimes();
  const std::int64_t children = (s[a].end_ns - s[a].start_ns) +
                                (s[b].end_ns - s[b].start_ns);
  EXPECT_EQ(self[root], (s[root].end_ns - s[root].start_ns) - children);
  EXPECT_EQ(self[a], s[a].end_ns - s[a].start_ns);
  const SpanRecorder::Totals t = rec.TotalsFor("child");
  EXPECT_EQ(t.count, 2u);
  EXPECT_EQ(t.total_ns, children);
  EXPECT_EQ(t.self_ns, children);
  EXPECT_NE(rec.ToCsv().find("1,0,child,"), std::string::npos);
}

TEST(JsonNumberTest, PrintsShortestExactForm) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(41234.5), "41234.5");
  EXPECT_EQ(std::strtod(JsonNumber(1.0 / 3.0).c_str(), nullptr), 1.0 / 3.0);
}

}  // namespace
}  // namespace pardb::perfbench
