// Unit tests for the vnode layer: filesystem namespace, page-granular file
// I/O with cost accounting, vnode cache LRU recycling, and the attachment
// (uvm_vnp_terminate) hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "src/sim/machine.h"
#include "src/vfs/filesystem.h"

namespace {

class VfsTest : public ::testing::Test {
 protected:
  sim::Machine machine;
  vfs::Filesystem fs{machine, /*max_vnodes=*/4};
};

TEST_F(VfsTest, OpenMissingFileFails) { EXPECT_EQ(nullptr, fs.Open("/nope")); }

TEST_F(VfsTest, CreateAndOpen) {
  fs.CreateFilePattern("/a", 2 * sim::kPageSize);
  ASSERT_TRUE(fs.Exists("/a"));
  vfs::Vnode* vn = fs.Open("/a");
  ASSERT_NE(nullptr, vn);
  EXPECT_EQ("/a", vn->name());
  EXPECT_EQ(2 * sim::kPageSize, vn->size());
  EXPECT_EQ(2u, vn->size_pages());
  EXPECT_EQ(1, vn->usecount());
  fs.Close(vn);
  EXPECT_EQ(0, vn->usecount());
}

TEST_F(VfsTest, ReadPagesReturnsPatternAndCharges) {
  fs.CreateFilePattern("/a", 3 * sim::kPageSize);
  vfs::Vnode* vn = fs.Open("/a");
  std::vector<std::byte> buf(2 * sim::kPageSize);
  sim::Nanoseconds before = machine.clock().now();
  std::size_t valid = 0;
  ASSERT_EQ(sim::kOk, vn->ReadPages(sim::kPageSize, 2, buf, &valid));
  EXPECT_EQ(2u, valid);
  EXPECT_EQ(machine.cost().disk_op_ns + 2 * machine.cost().disk_page_ns,
            machine.clock().now() - before);
  EXPECT_EQ(1u, machine.stats().disk_ops);
  EXPECT_EQ(2u, machine.stats().disk_pages_read);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(vfs::Filesystem::PatternByte("/a", sim::kPageSize + i), buf[i]) << i;
  }
  fs.Close(vn);
}

// CreateFilePattern fills a whole file with FillPattern; every byte must
// equal the one-byte form tests and vmbench's data oracle check against.
TEST_F(VfsTest, PatternFileMatchesPatternByteAtEveryOffset) {
  const std::size_t size = 3 * sim::kPageSize + 123;
  fs.CreateFilePattern("/p", size);
  vfs::Vnode* vn = fs.Open("/p");
  std::vector<std::byte> buf(4 * sim::kPageSize);
  std::size_t valid = 0;
  ASSERT_EQ(sim::kOk, vn->ReadPages(0, 4, buf, &valid));
  EXPECT_EQ(4u, valid);
  for (std::size_t i = 0; i < size; ++i) {
    ASSERT_EQ(vfs::Filesystem::PatternByte("/p", i), buf[i]) << i;
  }
  fs.Close(vn);
  // A fill from a nonzero offset continues the same sequence.
  std::vector<std::byte> tail(77);
  vfs::Filesystem::FillPattern("/p", 5000, tail);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), buf.begin() + 5000));
  // The sequence itself: byte n is bits 16-23 of hash(name) * 31 +
  // n * 2654435761 in 64-bit arithmetic, here from an offset past 4 GB.
  const std::size_t h = std::hash<std::string>{}("/p") * 31;
  const std::size_t far = (std::size_t{1} << 33) + 5;
  std::vector<std::byte> run(100);
  vfs::Filesystem::FillPattern("/p", far, run);
  for (std::size_t i = 0; i < run.size(); ++i) {
    ASSERT_EQ(static_cast<std::byte>((h + (far + i) * 2654435761u) >> 16), run[i]) << i;
  }
}

TEST_F(VfsTest, ReadBeyondEofZeroFills) {
  fs.CreateFilePattern("/a", sim::kPageSize + 100);
  vfs::Vnode* vn = fs.Open("/a");
  std::vector<std::byte> buf(2 * sim::kPageSize, std::byte{0xff});
  std::size_t valid = 0;
  ASSERT_EQ(sim::kOk, vn->ReadPages(sim::kPageSize, 2, buf, &valid));
  EXPECT_EQ(1u, valid);  // second page entirely past EOF
  // Partial page: 100 bytes of data then zeros.
  EXPECT_EQ(vfs::Filesystem::PatternByte("/a", sim::kPageSize + 99), buf[99]);
  EXPECT_EQ(std::byte{0}, buf[100]);
  EXPECT_EQ(std::byte{0}, buf[sim::kPageSize]);
  fs.Close(vn);
}

TEST_F(VfsTest, WritePagesPersistToFileData) {
  fs.CreateFilePattern("/a", 2 * sim::kPageSize);
  vfs::Vnode* vn = fs.Open("/a");
  std::vector<std::byte> out(sim::kPageSize, std::byte{0x66});
  ASSERT_EQ(sim::kOk, vn->WritePages(sim::kPageSize, 1, out));
  EXPECT_EQ(1u, machine.stats().disk_pages_written);
  std::vector<std::byte> back(sim::kPageSize);
  vn->ReadPages(sim::kPageSize, 1, back);
  EXPECT_EQ(std::byte{0x66}, back[0]);
  EXPECT_EQ(std::byte{0x66}, back[sim::kPageSize - 1]);
  fs.Close(vn);
}

TEST_F(VfsTest, ReopenWhileCachedHitsCache) {
  fs.CreateFilePattern("/a", sim::kPageSize);
  vfs::Vnode* vn = fs.Open("/a");
  fs.Close(vn);
  EXPECT_EQ(1u, fs.cache().cached_vnodes());
  vfs::Vnode* again = fs.Open("/a");
  EXPECT_EQ(vn, again);  // same vnode identity
  EXPECT_EQ(1u, machine.stats().vnode_cache_hits);
  EXPECT_EQ(0u, fs.cache().cached_vnodes());
  fs.Close(again);
}

TEST_F(VfsTest, LruRecyclesOldestUnreferenced) {
  for (int i = 0; i < 4; ++i) {
    fs.CreateFilePattern("/f" + std::to_string(i), sim::kPageSize);
    fs.Close(fs.Open("/f" + std::to_string(i)));
  }
  EXPECT_EQ(4u, fs.cache().live_vnodes());
  // Table is full; opening a fifth recycles /f0 (the LRU).
  fs.CreateFilePattern("/f4", sim::kPageSize);
  vfs::Vnode* v4 = fs.Open("/f4");
  ASSERT_NE(nullptr, v4);
  EXPECT_EQ(1u, machine.stats().vnode_recycles);
  EXPECT_EQ(nullptr, fs.cache().Peek("/f0"));
  EXPECT_NE(nullptr, fs.cache().Peek("/f1"));
  fs.Close(v4);
}

TEST_F(VfsTest, ReferencedVnodesAreNeverRecycled) {
  std::vector<vfs::Vnode*> held;
  for (int i = 0; i < 4; ++i) {
    fs.CreateFilePattern("/f" + std::to_string(i), sim::kPageSize);
    held.push_back(fs.Open("/f" + std::to_string(i)));
  }
  fs.CreateFilePattern("/f4", sim::kPageSize);
  EXPECT_EQ(nullptr, fs.Open("/f4"));  // all vnodes pinned
  for (vfs::Vnode* vn : held) {
    fs.Close(vn);
  }
  EXPECT_NE(nullptr, fs.Open("/f4"));
}

class CountingAttachment : public vfs::VnodeAttachment {
 public:
  explicit CountingAttachment(int* counter) : counter_(counter) {}
  void Terminate(vfs::Vnode&) override { ++*counter_; }

 private:
  int* counter_;
};

TEST_F(VfsTest, RecycleInvokesTerminateHookOnce) {
  int terminated = 0;
  fs.CreateFilePattern("/a", sim::kPageSize);
  vfs::Vnode* vn = fs.Open("/a");
  vn->set_attachment(std::make_unique<CountingAttachment>(&terminated));
  fs.Close(vn);
  // Force recycling by filling the table.
  for (int i = 0; i < 4; ++i) {
    fs.CreateFilePattern("/g" + std::to_string(i), sim::kPageSize);
    fs.Close(fs.Open("/g" + std::to_string(i)));
  }
  EXPECT_EQ(1, terminated);
}

TEST_F(VfsTest, RefUnrefNest) {
  fs.CreateFilePattern("/a", sim::kPageSize);
  vfs::Vnode* vn = fs.Open("/a");
  fs.cache().Ref(vn);
  EXPECT_EQ(2, vn->usecount());
  fs.cache().Unref(vn);
  EXPECT_EQ(1, vn->usecount());
  EXPECT_EQ(0u, fs.cache().cached_vnodes());
  fs.Close(vn);
  EXPECT_EQ(1u, fs.cache().cached_vnodes());
}

TEST_F(VfsTest, TableFullWithAllReferencedReturnsTypedError) {
  for (int i = 0; i < 5; ++i) {
    fs.CreateFilePattern("/f" + std::to_string(i), sim::kPageSize);
  }
  std::vector<vfs::Vnode*> held;
  for (int i = 0; i < 4; ++i) {
    held.push_back(fs.Open("/f" + std::to_string(i)));
    ASSERT_NE(nullptr, held.back());
  }
  // Every vnode referenced, nothing on the LRU: the fifth open must fail
  // with kErrNoVnode (not kErrNoEnt, and not a fatal assert) and count it.
  int err = 0;
  EXPECT_EQ(nullptr, fs.Open("/f4", &err));
  EXPECT_EQ(sim::kErrNoVnode, err);
  EXPECT_EQ(1u, machine.stats().vnode_table_full);
  // A missing file is still distinguished from an exhausted table.
  err = 0;
  EXPECT_EQ(nullptr, fs.Open("/nope", &err));
  EXPECT_EQ(sim::kErrNoEnt, err);
  EXPECT_EQ(1u, machine.stats().vnode_table_full);
  // Releasing any reference makes that vnode recyclable and the open
  // succeeds again.
  fs.Close(held.back());
  held.pop_back();
  vfs::Vnode* vn = fs.Open("/f4", &err);
  ASSERT_NE(nullptr, vn);
  fs.Close(vn);
  for (vfs::Vnode* h : held) {
    fs.Close(h);
  }
}

TEST_F(VfsTest, PatternByteIsDeterministicPerFile) {
  EXPECT_EQ(vfs::Filesystem::PatternByte("/x", 5), vfs::Filesystem::PatternByte("/x", 5));
  // Different files have different patterns (hash-based, overwhelmingly).
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (vfs::Filesystem::PatternByte("/x", i) != vfs::Filesystem::PatternByte("/y", i)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
