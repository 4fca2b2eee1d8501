// Unit tests for the core layer: Status/Result, RUM counters, RumPoint.
#include <gtest/gtest.h>

#include "core/counters.h"
#include "core/rum_point.h"
#include "core/status.h"

namespace rum {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
  EXPECT_EQ(Status::Corruption().code(), Code::kCorruption);
  EXPECT_EQ(Status::InvalidArgument().code(), Code::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange().code(), Code::kOutOfRange);
  EXPECT_EQ(Status::NotSupported().code(), Code::kNotSupported);
  EXPECT_EQ(Status::ResourceExhausted().code(), Code::kResourceExhausted);
  EXPECT_EQ(Status::IOError().code(), Code::kIOError);
  EXPECT_EQ(Status::AlreadyExists().code(), Code::kAlreadyExists);
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::OK());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Code::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(CountersTest, AmplificationsComputeRatios) {
  RumCounters counters;
  counters.OnRead(DataClass::kBase, 100);
  counters.OnRead(DataClass::kAux, 60);
  counters.OnLogicalRead(40);
  counters.OnWrite(DataClass::kBase, 48);
  counters.OnWrite(DataClass::kAux, 16);
  counters.OnLogicalWrite(16);
  counters.SetSpace(DataClass::kBase, 1000);
  counters.SetSpace(DataClass::kAux, 500);

  const CounterSnapshot& snap = counters.snapshot();
  EXPECT_DOUBLE_EQ(snap.read_amplification(), 4.0);
  EXPECT_DOUBLE_EQ(snap.write_amplification(), 4.0);
  EXPECT_DOUBLE_EQ(snap.space_amplification(), 1.5);
  EXPECT_EQ(snap.total_bytes_read(), 160u);
  EXPECT_EQ(snap.total_bytes_written(), 64u);
  EXPECT_EQ(snap.total_space(), 1500u);
}

TEST(CountersTest, ZeroDenominatorsReturnZero) {
  CounterSnapshot snap;
  EXPECT_EQ(snap.read_amplification(), 0.0);
  EXPECT_EQ(snap.write_amplification(), 0.0);
  EXPECT_EQ(snap.space_amplification(), 0.0);
}

TEST(CountersTest, DeltaSubtractsTrafficKeepsSpace) {
  RumCounters counters;
  counters.OnRead(DataClass::kBase, 100);
  counters.OnLogicalRead(100);
  counters.OnPointQuery();
  CounterSnapshot before = counters.snapshot();
  counters.OnRead(DataClass::kBase, 60);
  counters.OnLogicalRead(20);
  counters.OnPointQuery();
  counters.SetSpace(DataClass::kBase, 777);
  CounterSnapshot delta = counters.snapshot() - before;
  EXPECT_EQ(delta.bytes_read_base, 60u);
  EXPECT_EQ(delta.logical_bytes_read, 20u);
  EXPECT_EQ(delta.point_queries, 1u);
  EXPECT_EQ(delta.space_base, 777u);  // Space is a level, not a delta.
}

TEST(CountersTest, ResetTrafficPreservesSpace) {
  RumCounters counters;
  counters.OnRead(DataClass::kAux, 10);
  counters.SetSpace(DataClass::kAux, 123);
  // Adjusted levels survive too, with or without a SetSpace under them.
  counters.AdjustSpace(DataClass::kAux, 7);
  counters.AdjustSpace(DataClass::kBase, 50);
  counters.ResetTraffic();
  EXPECT_EQ(counters.snapshot().bytes_read_aux, 0u);
  EXPECT_EQ(counters.snapshot().space_aux, 130u);
  EXPECT_EQ(counters.snapshot().space_base, 50u);
  counters.AdjustSpace(DataClass::kBase, -20);
  EXPECT_EQ(counters.snapshot().space_base, 30u);
}

TEST(CountersTest, AdjustSpaceMovesBothWays) {
  RumCounters counters;
  counters.AdjustSpace(DataClass::kBase, 100);
  counters.AdjustSpace(DataClass::kBase, -40);
  EXPECT_EQ(counters.snapshot().space_base, 60u);
  // SetSpace replaces an adjusted level; AdjustSpace adds to a set one.
  counters.SetSpace(DataClass::kBase, 1000);
  EXPECT_EQ(counters.snapshot().space_base, 1000u);
  counters.AdjustSpace(DataClass::kBase, 24);
  EXPECT_EQ(counters.snapshot().space_base, 1024u);
  counters.AdjustSpace(DataClass::kBase, -1024);
  EXPECT_EQ(counters.snapshot().space_base, 0u);
  // The classes are separate levels.
  counters.AdjustSpace(DataClass::kAux, 8);
  EXPECT_EQ(counters.snapshot().space_aux, 8u);
  EXPECT_EQ(counters.snapshot().space_base, 0u);
}

TEST(CountersTest, ReclassifyInsertAsUpdate) {
  RumCounters counters;
  counters.OnInsert();
  counters.ReclassifyInsertAsUpdate();
  EXPECT_EQ(counters.snapshot().inserts, 0u);
  EXPECT_EQ(counters.snapshot().updates, 1u);
  // No-op when there is no insert to rebook.
  counters.ReclassifyInsertAsUpdate();
  EXPECT_EQ(counters.snapshot().updates, 1u);
  // Also when a ResetTraffic zeroed the insert it would rebook.
  counters.OnInsert();
  counters.ResetTraffic();
  counters.ReclassifyInsertAsUpdate();
  EXPECT_EQ(counters.snapshot().inserts, 0u);
  EXPECT_EQ(counters.snapshot().updates, 0u);
}

TEST(RumPointTest, PerfectPointSitsAtCentroid) {
  RumPoint p{1.0, 1.0, 1.0};
  double wr, wu, wm;
  p.BarycentricWeights(&wr, &wu, &wm);
  EXPECT_NEAR(wr, 1.0 / 3, 1e-9);
  EXPECT_NEAR(wu, 1.0 / 3, 1e-9);
  EXPECT_NEAR(wm, 1.0 / 3, 1e-9);
  EXPECT_EQ(p.Classify(), RumRegion::kBalanced);
  EXPECT_NEAR(p.triangle_x(), 0.5, 1e-9);
  EXPECT_NEAR(p.triangle_y(), 1.0 / 3, 1e-9);
}

TEST(RumPointTest, ReadOptimizedLeansToReadCorner) {
  // Cheap reads, expensive writes and space.
  RumPoint p{1.0, 50.0, 50.0};
  EXPECT_EQ(p.Classify(), RumRegion::kReadOptimized);
  EXPECT_GT(p.triangle_y(), 0.9);
}

TEST(RumPointTest, WriteOptimizedLeansToWriteCorner) {
  RumPoint p{50.0, 1.0, 50.0};
  EXPECT_EQ(p.Classify(), RumRegion::kWriteOptimized);
  EXPECT_LT(p.triangle_x(), 0.1);
}

TEST(RumPointTest, SpaceOptimizedLeansToSpaceCorner) {
  RumPoint p{50.0, 50.0, 1.0};
  EXPECT_EQ(p.Classify(), RumRegion::kSpaceOptimized);
  EXPECT_GT(p.triangle_x(), 0.9);
}

TEST(RumPointTest, SubUnitAmplificationsClampToOne) {
  CounterSnapshot snap;  // All zero: amplifications report 0.
  RumPoint p = RumPoint::FromSnapshot(snap);
  EXPECT_DOUBLE_EQ(p.read_overhead, 1.0);
  EXPECT_DOUBLE_EQ(p.update_overhead, 1.0);
  EXPECT_DOUBLE_EQ(p.memory_overhead, 1.0);
}

TEST(RumPointTest, TriangleDistanceIsMetricLike) {
  RumPoint read{1, 50, 50};
  RumPoint write{50, 1, 50};
  RumPoint mid{1, 1, 1};
  EXPECT_NEAR(RumPoint::TriangleDistance(read, read), 0.0, 1e-12);
  EXPECT_GT(RumPoint::TriangleDistance(read, write),
            RumPoint::TriangleDistance(read, mid));
}

TEST(RumPointTest, ToStringMentionsRegion) {
  RumPoint p{1.0, 50.0, 50.0};
  EXPECT_NE(p.ToString().find("read-optimized"), std::string::npos);
}

}  // namespace
}  // namespace rum
