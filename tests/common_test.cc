#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/flags.h"
#include "common/id_slots.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace pardb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Deadlock("cycle of length 3");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDeadlock());
  EXPECT_EQ(s.code(), StatusCode::kDeadlock);
  EXPECT_EQ(s.message(), "cycle of length 3");
  EXPECT_EQ(s.ToString(), "Deadlock: cycle of length 3");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ProtocolViolation("x").code(),
            StatusCode::kProtocolViolation);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::Internal("boom");
  EXPECT_EQ(os.str(), "Internal: boom");
}

Status FailsThenPropagates() {
  PARDB_RETURN_IF_ERROR(Status::NotFound("inner"));
  return Status::Internal("should not reach");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(FailsThenPropagates(), Status::NotFound("inner"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("no");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  PARDB_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_TRUE(Doubled(Status::Internal("x")).status().code() ==
              StatusCode::kInternal);
}

TEST(TypedIdTest, DistinctTypesAndValidity) {
  TxnId t(7);
  EntityId e(7);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.value(), 7u);
  EXPECT_FALSE(TxnId().valid());
  EXPECT_FALSE(TxnId::Invalid().valid());
  // Same underlying value, different types: both print with their prefix.
  std::ostringstream os;
  os << t << " " << e;
  EXPECT_EQ(os.str(), "T7 E7");
}

TEST(TypedIdTest, Ordering) {
  EXPECT_LT(TxnId(1), TxnId(2));
  EXPECT_EQ(TxnId(3), TxnId(3));
  EXPECT_NE(TxnId(3), TxnId(4));
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfianTest, UniformWhenThetaZero) {
  Rng rng(1);
  ZipfianGenerator z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[z.Next(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(ZipfianTest, SkewFavorsSmallRanks) {
  Rng rng(2);
  ZipfianGenerator z(100, 0.9);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t v = z.Next(rng);
    ASSERT_LT(v, 100u);
    ++counts[v];
  }
  // Rank 0 should dominate the tail decisively.
  EXPECT_GT(counts[0], counts[50] * 5);
}

Result<Flags> ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsAndSpaceForms) {
  auto f = ParseArgs({"--a=1", "--b", "2", "--c"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->GetInt("a", 0).value(), 1);
  EXPECT_EQ(f->GetInt("b", 0).value(), 2);
  EXPECT_TRUE(f->GetBool("c"));
  EXPECT_FALSE(f->GetBool("missing"));
}

TEST(FlagsTest, PositionalArguments) {
  auto f = ParseArgs({"run", "--x=3", "file.txt"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->positional(),
            (std::vector<std::string>{"run", "file.txt"}));
}

TEST(FlagsTest, Defaults) {
  auto f = ParseArgs({});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->GetString("name", "dflt"), "dflt");
  EXPECT_EQ(f->GetInt("n", 7).value(), 7);
  EXPECT_EQ(f->GetDouble("d", 1.5).value(), 1.5);
}

TEST(FlagsTest, TypeErrors) {
  auto f = ParseArgs({"--n=abc", "--d=xyz"});
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(f->GetInt("n", 0).ok());
  EXPECT_FALSE(f->GetDouble("d", 0).ok());
}

TEST(FlagsTest, BareDoubleDashRejected) {
  auto f = ParseArgs({"--"});
  EXPECT_FALSE(f.ok());
}

TEST(FlagsTest, UnusedFlagsReported) {
  auto f = ParseArgs({"--used=1", "--typo=2"});
  ASSERT_TRUE(f.ok());
  (void)f->GetInt("used", 0);
  EXPECT_EQ(f->UnusedFlags(), std::vector<std::string>{"typo"});
}

TEST(FlagsTest, DoubleValues) {
  auto f = ParseArgs({"--theta=0.99"});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->GetDouble("theta", 0).value(), 0.99);
}

TEST(BitsTest, RoundUpPowerOfTwo) {
  EXPECT_EQ(RoundUpPowerOfTwo(0), 1u);
  EXPECT_EQ(RoundUpPowerOfTwo(1), 1u);
  EXPECT_EQ(RoundUpPowerOfTwo(2), 2u);
  EXPECT_EQ(RoundUpPowerOfTwo(3), 4u);
  EXPECT_EQ(RoundUpPowerOfTwo(4), 4u);
  EXPECT_EQ(RoundUpPowerOfTwo(5), 8u);
  EXPECT_EQ(RoundUpPowerOfTwo(100), 128u);   // the hub snapshot case
  EXPECT_EQ(RoundUpPowerOfTwo(512), 512u);
  EXPECT_EQ(RoundUpPowerOfTwo(513), 1024u);
  EXPECT_EQ(RoundUpPowerOfTwo(1ULL << 63), 1ULL << 63);
  // Saturates above 2^63: result stays a power of two and result - 1 a
  // valid all-ones mask.
  EXPECT_EQ(RoundUpPowerOfTwo((1ULL << 63) + 1), 1ULL << 63);
  EXPECT_EQ(RoundUpPowerOfTwo(~0ULL), 1ULL << 63);
}

TEST(BitsTest, RoundUpPowerOfTwoIsConstexpr) {
  static_assert(RoundUpPowerOfTwo(100) == 128, "usable as a mask at compile time");
  static_assert((RoundUpPowerOfTwo(100) & (RoundUpPowerOfTwo(100) - 1)) == 0,
                "always a power of two");
}

TEST(IdSlotsTest, RowsAreReusedAndRetiredIdsFindNothing) {
  IdSlots slots;
  EXPECT_EQ(slots.Find(0), IdSlots::kNone);
  EXPECT_EQ(slots.Erase(0), IdSlots::kNone);
  const std::uint32_t a = slots.Insert(10);
  const std::uint32_t b = slots.Insert(11);
  EXPECT_NE(a, b);
  EXPECT_EQ(slots.Find(10), a);
  EXPECT_EQ(slots.Erase(10), a);
  EXPECT_EQ(slots.Find(10), IdSlots::kNone);
  // The next id reuses the released row; the retired id never aliases it.
  EXPECT_EQ(slots.Insert(12), a);
  EXPECT_EQ(slots.Find(10), IdSlots::kNone);
  EXPECT_EQ(slots.Find(12), a);
  EXPECT_EQ(slots.rows(), 2u);
  EXPECT_EQ(slots.size(), 2u);
}

TEST(IdSlotsTest, MatchesAMapUnderChurn) {
  // Monotone ids, a sliding live window and strided ids that share low
  // bits: every lookup agrees with a reference map, and the row count
  // stays at the peak live count.
  IdSlots slots;
  std::map<std::uint64_t, std::uint32_t> ref;
  Rng rng(5);
  std::uint64_t next = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    if (ref.size() < 40 && rng.Uniform(3) != 0) {
      const std::uint64_t id = rng.Bernoulli(0.2) ? next * 1024 : next;
      ++next;
      if (ref.count(id) != 0) continue;
      ref[id] = slots.Insert(id);
      peak = std::max(peak, ref.size());
    } else if (!ref.empty()) {
      auto it = ref.begin();
      std::advance(it, rng.Uniform(ref.size()));
      EXPECT_EQ(slots.Erase(it->first), it->second);
      ref.erase(it);
    }
    if (step % 97 == 0) {
      for (const auto& [id, row] : ref) ASSERT_EQ(slots.Find(id), row);
      EXPECT_EQ(slots.Find(next + 5), IdSlots::kNone);
    }
  }
  std::set<std::uint32_t> rows;
  for (const auto& [id, row] : ref) rows.insert(row);
  EXPECT_EQ(rows.size(), ref.size());  // no two live ids share a row
  EXPECT_EQ(slots.rows(), peak);
}

TEST(LoggingTest, LevelGating) {
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  PARDB_LOG(Info) << "suppressed";
  PARDB_LOG(Error) << "emitted (expected in test output)";
  SetLogLevel(LogLevel::kWarning);
}

}  // namespace
}  // namespace pardb
