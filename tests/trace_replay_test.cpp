// Tests for the trace-replay tool: parsing, execution against both VM
// systems, verification semantics, and error reporting.
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "src/kern/trace_replay.h"

namespace {

using harness::VmKind;
using harness::World;

class TraceReplayTest : public ::testing::TestWithParam<VmKind> {
 protected:
  World w{GetParam()};
};

TEST_P(TraceReplayTest, BasicAnonWorkflow) {
  const char* trace = R"(
    # allocate, write, verify, unmap
    proc a
    mmap a $m 8 rw private
    write a $m 3 0xab
    read  a $m 3 0xab
    read  a $m 4 0        # untouched zero-fill page
    munmap a $m 8
    exit a
  )";
  auto res = kern::ReplayTrace(*w.kernel, trace);
  EXPECT_EQ(sim::kOk, res.err) << res.message << " at line " << res.line;
  EXPECT_EQ(7u, res.ops_executed);
}

TEST_P(TraceReplayTest, CowForkScenario) {
  const char* trace = R"(
    proc parent
    mmap parent $m 4 rw private
    write parent $m 0 0x11
    fork parent child
    write child $m 0 0x22
    read  parent $m 0 0x11    # isolation
    read  child  $m 0 0x22
    exit child
    read  parent $m 0 0x11
  )";
  auto res = kern::ReplayTrace(*w.kernel, trace);
  EXPECT_EQ(sim::kOk, res.err) << res.message << " at line " << res.line;
}

TEST_P(TraceReplayTest, FileMappingAndPatternVerify) {
  const char* trace = R"(
    file /data 8
    proc a
    mmap a $f 4 ro private /data 2
    readf a $f 0 /data 2
    readf a $f 3 /data 5
  )";
  auto res = kern::ReplayTrace(*w.kernel, trace);
  EXPECT_EQ(sim::kOk, res.err) << res.message << " at line " << res.line;
}

TEST_P(TraceReplayTest, PagingPressureScenario) {
  const char* trace = R"(
    proc a
    mmap a $big 64 rw private
    write a $big 0  0x01
    write a $big 63 0x3f
    daemon 100000        # clamp: reclaim everything reclaimable
    read a $big 0  0x01
    read a $big 63 0x3f
  )";
  auto res = kern::ReplayTrace(*w.kernel, trace);
  EXPECT_EQ(sim::kOk, res.err) << res.message << " at line " << res.line;
}

TEST_P(TraceReplayTest, MismatchReportsLineAndValues) {
  const char* trace = "proc a\nmmap a $m 1 rw\nwrite a $m 0 1\nread a $m 0 2\n";
  auto res = kern::ReplayTrace(*w.kernel, trace);
  EXPECT_EQ(sim::kErrInval, res.err);
  EXPECT_EQ(4, res.line);
  EXPECT_NE(std::string::npos, res.message.find("mismatch"));
}

TEST_P(TraceReplayTest, BadSyntaxReported) {
  auto res = kern::ReplayTrace(*w.kernel, "proc a\nmmap a $m\n");
  EXPECT_NE(sim::kOk, res.err);
  EXPECT_EQ(2, res.line);
  auto res2 = kern::ReplayTrace(*w.kernel, "frobnicate x\n");
  EXPECT_NE(sim::kOk, res2.err);
  auto res3 = kern::ReplayTrace(*w.kernel, "proc a\nwrite a $nope 0 1\n");
  EXPECT_NE(sim::kOk, res3.err);
  EXPECT_NE(std::string::npos, res3.message.find("register"));

  // Page counts and offsets are checked, not wrapped: 2^52 pages is 2^64
  // bytes, and 2^52 - 1 pages from $r ends past the top of the address
  // space. Each line fails at itself, naming its field.
  const std::string prefix = "file /f 4\nproc main\nmmap main $r 4 rw private\n";
  for (const char* line : {
           "mmap main $big 4503599627370497 rw private",
           "munmap main $r 4503599627370496",
           "mlock main $r 4503599627370495",
           "write main $r 4503599627370496 0x33",
           "read main $r 4503599627370495 0",
           "readf main $r 4503599627370496 /f 0",
           "readf main $r 0 /f 4503599627370496",
           "file /g 4503599627370496",
           "mmap main $m 1 ro private /f 4503599627370496",
       }) {
    auto r = kern::ReplayTrace(*w.kernel, prefix + line + "\n");
    EXPECT_EQ(sim::kErrInval, r.err) << line;
    EXPECT_EQ(4, r.line) << line;
    EXPECT_NE(std::string::npos, r.message.find("overflows 64 bits")) << r.message;
  }
}

TEST_P(TraceReplayTest, WireOpsRun) {
  const char* trace = R"(
    proc a
    mmap a $m 4 rw
    mlock a $m 2
    sysctl a $m
    munlock a $m 2
    msync a $m 4
  )";
  auto res = kern::ReplayTrace(*w.kernel, trace);
  EXPECT_EQ(sim::kOk, res.err) << res.message << " at line " << res.line;
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, TraceReplayTest,
                         ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
