#include <gtest/gtest.h>

#include "txn/program.h"

namespace pardb::txn {
namespace {

const EntityId kA(0), kB(1), kC(2);

Program MustBuild(ProgramBuilder& b) {
  auto p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

TEST(ProgramBuilderTest, SimpleValidProgram) {
  ProgramBuilder b("t", 1);
  b.LockExclusive(kA).Read(kA, 0).WriteVar(kA, 0).Commit();
  Program p = MustBuild(b);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.NumLockRequests(), 1u);
  EXPECT_EQ(p.LockRequestPositions(), std::vector<std::size_t>{0});
  EXPECT_EQ(p.name(), "t");
}

TEST(ProgramBuilderTest, LockAfterUnlockViolatesTwoPhase) {
  ProgramBuilder b("t", 0);
  b.LockExclusive(kA).Unlock(kA).LockExclusive(kB);
  auto p = b.Build();
  EXPECT_EQ(p.status().code(), StatusCode::kProtocolViolation);
}

TEST(ProgramBuilderTest, ReadWithoutLockRejected) {
  ProgramBuilder b("t", 1);
  b.LockExclusive(kA).Read(kB, 0);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kProtocolViolation);
}

TEST(ProgramBuilderTest, ReadAfterUnlockRejected) {
  ProgramBuilder b("t", 1);
  b.LockExclusive(kA).Unlock(kA).Read(kA, 0);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kProtocolViolation);
}

TEST(ProgramBuilderTest, WriteRequiresExclusive) {
  ProgramBuilder b("t", 0);
  b.LockShared(kA).WriteImm(kA, 1);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kProtocolViolation);
}

TEST(ProgramBuilderTest, WriteBeforeFirstLockRejected) {
  // Paper §4 assumption: no writes before the first lock request — applies
  // to local variables too.
  ProgramBuilder b("t", 1);
  b.Compute(0, Operand::Imm(1), ArithOp::kAdd, Operand::Imm(2));
  b.LockExclusive(kA);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kProtocolViolation);
}

TEST(ProgramBuilderTest, DoubleLockRejectedUpgradeAllowed) {
  ProgramBuilder b1("t", 0);
  b1.LockExclusive(kA).LockExclusive(kA);
  EXPECT_EQ(b1.Build().status().code(), StatusCode::kProtocolViolation);

  ProgramBuilder b2("t", 0);
  b2.LockExclusive(kA).LockShared(kA);
  EXPECT_EQ(b2.Build().status().code(), StatusCode::kProtocolViolation);

  ProgramBuilder b3("t", 0);
  b3.LockShared(kA).LockExclusive(kA).WriteImm(kA, 1);
  EXPECT_TRUE(b3.Build().ok());
}

TEST(ProgramBuilderTest, UnlockNotHeldRejected) {
  ProgramBuilder b("t", 0);
  b.LockExclusive(kA).Unlock(kB);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kProtocolViolation);
}

TEST(ProgramBuilderTest, DoubleUnlockRejected) {
  ProgramBuilder b("t", 0);
  b.LockExclusive(kA).Unlock(kA).Unlock(kA);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kProtocolViolation);
}

TEST(ProgramBuilderTest, OpsAfterCommitRejected) {
  ProgramBuilder b("t", 0);
  b.LockExclusive(kA).Commit().LockExclusive(kB);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(ProgramBuilderTest, VarOutOfRangeRejected) {
  ProgramBuilder b("t", 1);
  b.LockExclusive(kA).Read(kA, 5);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(ProgramBuilderTest, OperandVarOutOfRangeRejected) {
  ProgramBuilder b("t", 1);
  b.LockExclusive(kA).Write(kA, Operand::Var(3));
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(ProgramBuilderTest, InitVarGrowsFrame) {
  ProgramBuilder b("t", 1);
  b.InitVar(4, 99);
  b.LockExclusive(kA).Read(kA, 4);
  Program p = MustBuild(b);
  EXPECT_EQ(p.num_vars(), 5u);
  EXPECT_EQ(p.initial_vars()[4], 99);
  EXPECT_EQ(p.initial_vars()[2], 0);
}

TEST(ProgramTest, LockRequestPositions) {
  ProgramBuilder b("t", 1);
  b.LockExclusive(kA);                              // 0
  b.Read(kA, 0);                                    // 1
  b.LockShared(kB);                                 // 2
  b.Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1));  // 3
  b.LockExclusive(kC);                              // 4
  b.Commit();
  Program p = MustBuild(b);
  EXPECT_EQ(p.LockRequestPositions(), (std::vector<std::size_t>{0, 2, 4}));
}

TEST(ProgramTest, WriteSpreadScore) {
  // Clustered: both writes to kA at lock index 1 -> spread 0.
  ProgramBuilder c("clustered", 0);
  c.LockExclusive(kA).WriteImm(kA, 1).WriteImm(kA, 2).LockExclusive(kB);
  EXPECT_EQ(MustBuild(c).WriteSpreadScore(), 0u);

  // Scattered: writes to kA at lock indices 1 and 2 -> spread 1.
  ProgramBuilder s("scattered", 0);
  s.LockExclusive(kA).WriteImm(kA, 1).LockExclusive(kB).WriteImm(kA, 2);
  EXPECT_EQ(MustBuild(s).WriteSpreadScore(), 1u);
}

TEST(ProgramTest, ThreePhaseDetection) {
  ProgramBuilder tp("three-phase", 1);
  tp.LockExclusive(kA).LockExclusive(kB);
  tp.Read(kA, 0).WriteVar(kB, 0);
  tp.Unlock(kA).Unlock(kB).Commit();
  EXPECT_TRUE(MustBuild(tp).IsThreePhase());

  ProgramBuilder il("interleaved", 1);
  il.LockExclusive(kA).Read(kA, 0).LockExclusive(kB).Commit();
  EXPECT_FALSE(MustBuild(il).IsThreePhase());
}

TEST(ProgramTest, CountOpsAndToString) {
  ProgramBuilder b("t", 1);
  b.LockExclusive(kA).Read(kA, 0).WriteVar(kA, 0).Unlock(kA).Commit();
  Program p = MustBuild(b);
  EXPECT_EQ(p.CountOps(OpCode::kRead), 1u);
  EXPECT_EQ(p.CountOps(OpCode::kWrite), 1u);
  EXPECT_EQ(p.CountOps(OpCode::kLockExclusive), 1u);
  std::string s = p.ToString();
  EXPECT_NE(s.find("LX E0"), std::string::npos);
  EXPECT_NE(s.find("RD v0 <- E0"), std::string::npos);
  EXPECT_NE(s.find("WR E0 <- v0"), std::string::npos);
}

TEST(OpTest, ComputeToString) {
  Op op{EntityId(), Operand::Var(1), Operand::Imm(5), 2, OpCode::kCompute,
        ArithOp::kMul};
  EXPECT_EQ(op.ToString(), "CP v2 <- v1 * 5");
}

TEST(ProgramTest, EmptyProgramBuilds) {
  ProgramBuilder b("empty", 0);
  Program p = MustBuild(b);
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.LockRequestPositions().empty());
  EXPECT_TRUE(p.IsThreePhase());
  EXPECT_EQ(p.WriteSpreadScore(), 0u);
}

}  // namespace
}  // namespace pardb::txn
