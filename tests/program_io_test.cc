#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "sim/workload.h"
#include "txn/program_io.h"

namespace pardb::txn {
namespace {

TEST(ParseProgramTest, FullFeaturedProgram) {
  const char* text = R"(
# a transfer between two accounts
program transfer
var v0 = 5
var v1 10
lockx E0
read E0 v0
locks E2          # read-only side input
read E2 v1
lockx E1
add v0 v0 v1
sub v1 v1 1
mul v1 v1 2
write E0 v0
write E1 42
unlock E2
commit
)";
  auto p = ParseProgram(text);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->name(), "transfer");
  EXPECT_EQ(p->num_vars(), 2u);
  EXPECT_EQ(p->initial_vars()[0], 5);
  EXPECT_EQ(p->initial_vars()[1], 10);
  EXPECT_EQ(p->NumLockRequests(), 3u);
  EXPECT_EQ(p->CountOps(OpCode::kCompute), 3u);
  EXPECT_EQ(p->CountOps(OpCode::kWrite), 2u);
  EXPECT_EQ(p->CountOps(OpCode::kUnlock), 1u);
  EXPECT_EQ(p->CountOps(OpCode::kCommit), 1u);
}

TEST(ParseProgramTest, ImplicitVariableDeclaration) {
  auto p = ParseProgram("lockx E0\nread E0 v3\ncommit\n");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->num_vars(), 4u);  // v0..v3
  EXPECT_EQ(p->initial_vars()[3], 0);
}

TEST(ParseProgramTest, ErrorsCarryLineNumbers) {
  auto bad_op = ParseProgram("lockx E0\nfrobnicate E0\n");
  ASSERT_FALSE(bad_op.ok());
  EXPECT_NE(bad_op.status().message().find("line 2"), std::string::npos);

  auto bad_entity = ParseProgram("lockx Q0\n");
  ASSERT_FALSE(bad_entity.ok());
  EXPECT_NE(bad_entity.status().message().find("line 1"), std::string::npos);

  auto bad_var = ParseProgram("var vx = 3\n");
  EXPECT_FALSE(bad_var.ok());

  auto bad_write = ParseProgram("lockx E0\nwrite E0\n");
  EXPECT_FALSE(bad_write.ok());

  auto bad_commit = ParseProgram("commit now\n");
  EXPECT_FALSE(bad_commit.ok());

  // Ids and immediates are digits only (an immediate may carry a leading
  // '-') and must fit their type; nothing is truncated or clamped.
  const std::pair<const char*, const char*> kOutOfRange[] = {
      {"lockx E0\nread E0 v4294967296\n", "line 2"},  // VarId overflow
      {"lockx E0\nread E0 v4294967295\n", "line 2"},  // frame width overflow
      {"lockx E+1\n", "line 1"},
      {"lockx E0\nunlock E-0\n", "line 2"},
      {"lockx E 1\n", "line 1"},
      {"lockx E18446744073709551616\n", "line 1"},  // uint64 overflow
      {"lockx E18446744073709551615\n", "line 1"},  // the invalid id
      {"lockx E0\nread E0 v+1\n", "line 2"},
      {"lockx E0\nread E0 v0\nadd v0 v0 +1\n", "line 3"},
      {"lockx E0\nwrite E0 9223372036854775808\n", "line 2"},  // int64
      {"lockx E0\nwrite E0 -\n", "line 2"},
      {"var v0 = 99999999999999999999\n", "line 1"},
      {"var v0 = +3\n", "line 1"},
  };
  for (const auto& [text, line] : kOutOfRange) {
    auto p = ParseProgram(text);
    ASSERT_FALSE(p.ok()) << text;
    EXPECT_NE(p.status().message().find(line), std::string::npos)
        << text << " -> " << p.status().message();
  }
  // The boundaries themselves still parse.
  auto edges = ParseProgram(
      "var v0 = -9223372036854775808\nlockx E18446744073709551614\n"
      "write E18446744073709551614 9223372036854775807\ncommit\n");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges->initial_vars()[0], std::numeric_limits<Value>::min());
  EXPECT_EQ(edges->op(1).a.imm, std::numeric_limits<Value>::max());
}

TEST(ParseProgramTest, ValidationStillApplies) {
  // Parses fine but violates two-phase locking.
  auto p = ParseProgram("lockx E0\nunlock E0\nlockx E1\n");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kProtocolViolation);
}

TEST(ParseProgramTest, EmptyAndCommentsOnly) {
  auto p = ParseProgram("# nothing here\n\n   \n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 0u);
}

TEST(FormatProgramTest, RoundTripsHandWrittenProgram) {
  ProgramBuilder b("rt", 2);
  b.InitVar(0, 7).InitVar(1, -3);
  b.LockExclusive(EntityId(4))
      .Read(EntityId(4), 0)
      .LockShared(EntityId(2))
      .Compute(1, Operand::Var(0), ArithOp::kMul, Operand::Imm(-2))
      .WriteVar(EntityId(4), 1)
      .Unlock(EntityId(2))
      .Commit();
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  const std::string text = FormatProgram(built.value());
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(FormatProgram(reparsed.value()), text);
  EXPECT_EQ(reparsed->ToString(), built.value().ToString());
}

TEST(FormatProgramTest, RoundTripsGeneratedWorkloads) {
  sim::WorkloadOptions opt;
  opt.num_entities = 12;
  opt.min_locks = 2;
  opt.max_locks = 5;
  opt.shared_fraction = 0.4;
  sim::WorkloadGenerator gen(opt, 99);
  for (int i = 0; i < 40; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    auto reparsed = ParseProgram(FormatProgram(p.value()));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(reparsed->ToString(), p.value().ToString());
    EXPECT_EQ(reparsed->name(), p.value().name());
    EXPECT_EQ(reparsed->initial_vars(), p.value().initial_vars());
  }
}

}  // namespace
}  // namespace pardb::txn
