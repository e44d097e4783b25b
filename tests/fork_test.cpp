// Fork and inheritance tests: the minherit matrix (§5.4 — none / shared /
// copy over private and shared, file-backed and anonymous mappings), deep
// fork chains, and fork trees with divergent writes.
#include <gtest/gtest.h>

#include "src/harness/world.h"
#include "tests/ref_model.h"

namespace {

using harness::VmKind;
using harness::World;

class ForkTest : public ::testing::TestWithParam<VmKind> {
 protected:
  World w{GetParam()};

  std::byte ReadByte(kern::Proc* p, sim::Vaddr va) {
    std::vector<std::byte> b(1);
    int err = w.kernel->ReadMem(p, va, b);
    EXPECT_EQ(sim::kOk, err);
    return b[0];
  }
};

TEST_P(ForkTest, DefaultInheritanceIsCopyForPrivate) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{1});
  kern::Proc* c = w.kernel->Fork(p);
  w.kernel->TouchWrite(c, a, 1, std::byte{2});
  EXPECT_EQ(std::byte{1}, ReadByte(p, a));
  EXPECT_EQ(std::byte{2}, ReadByte(c, a));
  w.kernel->Exit(c);
}

TEST_P(ForkTest, DefaultInheritanceIsSharedForSharedMappings) {
  w.fs.CreateFilePattern("/f", 2 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs shared;
  shared.shared = true;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 2 * sim::kPageSize, "/f", 0, shared));
  kern::Proc* c = w.kernel->Fork(p);
  w.kernel->TouchWrite(c, a, 1, std::byte{0x9a});
  EXPECT_EQ(std::byte{0x9a}, ReadByte(p, a));  // write visible to parent
  w.kernel->TouchWrite(p, a + sim::kPageSize, 1, std::byte{0x9b});
  EXPECT_EQ(std::byte{0x9b}, ReadByte(c, a + sim::kPageSize));
  w.kernel->Exit(c);
}

TEST_P(ForkTest, MinheritNoneLeavesHoleInChild) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{1});
  ASSERT_EQ(sim::kOk, w.kernel->Minherit(p, a, 2 * sim::kPageSize, sim::Inherit::kNone));
  kern::Proc* c = w.kernel->Fork(p);
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(c, a, b));
  EXPECT_EQ(std::byte{1}, ReadByte(p, a));
  w.kernel->Exit(c);
}

TEST_P(ForkTest, MinheritShareOfPrivateAnonSharesWrites) {
  // The paper's tricky case: "a child process sharing a copy-on-write
  // mapping with its parent."
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 2 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{1});
  ASSERT_EQ(sim::kOk, w.kernel->Minherit(p, a, 2 * sim::kPageSize, sim::Inherit::kShared));
  kern::Proc* c = w.kernel->Fork(p);
  w.kernel->TouchWrite(c, a, 1, std::byte{2});
  EXPECT_EQ(std::byte{2}, ReadByte(p, a));  // genuinely shared
  w.kernel->TouchWrite(p, a + sim::kPageSize, 1, std::byte{3});
  EXPECT_EQ(std::byte{3}, ReadByte(c, a + sim::kPageSize));
  w.kernel->Exit(c);
  w.CheckInvariants();
}

TEST_P(ForkTest, MinheritCopyOfSharedFileMappingSnapshotsChild) {
  // The inverse case: "a child process receiving a copy-on-write copy of a
  // parent's shared mapping."
  w.fs.CreateFilePattern("/f", 2 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs shared;
  shared.shared = true;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 2 * sim::kPageSize, "/f", 0, shared));
  ASSERT_EQ(sim::kOk, w.kernel->Minherit(p, a, 2 * sim::kPageSize, sim::Inherit::kCopy));
  kern::Proc* c = w.kernel->Fork(p);
  // Child's writes are private: they do not reach the file or the parent.
  w.kernel->TouchWrite(c, a, 1, std::byte{0x61});
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 0), ReadByte(p, a));
  EXPECT_EQ(std::byte{0x61}, ReadByte(c, a));
  w.kernel->Exit(c);
  w.CheckInvariants();
}

TEST_P(ForkTest, MinheritShareThenGrandchildInheritsShare) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->Minherit(p, a, sim::kPageSize, sim::Inherit::kShared));
  kern::Proc* c = w.kernel->Fork(p);
  kern::Proc* g = w.kernel->Fork(c);
  w.kernel->TouchWrite(g, a, 1, std::byte{0x33});
  EXPECT_EQ(std::byte{0x33}, ReadByte(p, a));
  EXPECT_EQ(std::byte{0x33}, ReadByte(c, a));
  w.kernel->Exit(g);
  w.kernel->Exit(c);
  w.CheckInvariants();
}

TEST_P(ForkTest, GrandchildCowIsolation) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0x10});
  kern::Proc* c = w.kernel->Fork(p);
  kern::Proc* g = w.kernel->Fork(c);
  w.kernel->TouchWrite(c, a, 1, std::byte{0x20});
  w.kernel->TouchWrite(g, a, 1, std::byte{0x30});
  EXPECT_EQ(std::byte{0x10}, ReadByte(p, a));
  EXPECT_EQ(std::byte{0x20}, ReadByte(c, a));
  EXPECT_EQ(std::byte{0x30}, ReadByte(g, a));
  // Untouched pages still shared all the way down.
  EXPECT_EQ(std::byte{0x10}, ReadByte(g, a + 3 * sim::kPageSize));
  w.kernel->Exit(g);
  w.kernel->Exit(c);
  w.CheckInvariants();
}

TEST_P(ForkTest, DeepForkChainKeepsDataIntact) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0});
  std::vector<kern::Proc*> chain{p};
  for (int depth = 1; depth <= 8; ++depth) {
    kern::Proc* next = w.kernel->Fork(chain.back());
    w.kernel->TouchWrite(next, a, 1, std::byte{static_cast<unsigned char>(depth)});
    chain.push_back(next);
  }
  for (int depth = 0; depth <= 8; ++depth) {
    EXPECT_EQ(std::byte{static_cast<unsigned char>(depth)}, ReadByte(chain[depth], a))
        << "depth " << depth;
  }
  for (int depth = 8; depth >= 1; --depth) {
    w.kernel->Exit(chain[depth]);
  }
  EXPECT_EQ(std::byte{0}, ReadByte(p, a));
  w.CheckInvariants();
}

TEST_P(ForkTest, ForkTreeWithDivergentWrites) {
  kern::Proc* root = w.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 8;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(root, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(root, a, npages * sim::kPageSize, std::byte{0xf0});
  std::vector<kern::Proc*> leaves;
  for (int i = 0; i < 4; ++i) {
    kern::Proc* c = w.kernel->Fork(root);
    w.kernel->TouchWrite(c, a + i * sim::kPageSize, 1, std::byte{static_cast<unsigned char>(i)});
    leaves.push_back(c);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(std::byte{static_cast<unsigned char>(i)}, ReadByte(leaves[i], a + i * sim::kPageSize));
    for (int j = 0; j < 4; ++j) {
      if (j != i) {
        EXPECT_EQ(std::byte{0xf0}, ReadByte(leaves[j], a + i * sim::kPageSize));
      }
    }
  }
  for (kern::Proc* c : leaves) {
    w.kernel->Exit(c);
  }
  for (std::size_t i = 0; i < npages; ++i) {
    EXPECT_EQ(std::byte{0xf0}, ReadByte(root, a + i * sim::kPageSize));
  }
  w.CheckInvariants();
}

TEST_P(ForkTest, ForkAfterPageoutStillIsolates) {
  harness::WorldConfig cfg;
  cfg.ram_pages = 64;
  World w2(GetParam(), cfg);
  kern::Proc* p = w2.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 48;
  ASSERT_EQ(sim::kOk, w2.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  for (std::size_t i = 0; i < npages; ++i) {
    w2.kernel->TouchWrite(p, a + i * sim::kPageSize, 1, std::byte{static_cast<unsigned char>(i)});
  }
  w2.vm->PageDaemon(32);  // push much of it to swap
  kern::Proc* c = w2.kernel->Fork(p);
  w2.kernel->TouchWrite(c, a, 1, std::byte{0xcc});
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w2.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{0}, b[0]);
  for (std::size_t i = 1; i < npages; ++i) {
    ASSERT_EQ(sim::kOk, w2.kernel->ReadMem(c, a + i * sim::kPageSize, b));
    EXPECT_EQ(std::byte{static_cast<unsigned char>(i)}, b[0]) << i;
  }
  w2.kernel->Exit(c);
  w2.CheckInvariants();
}

TEST_P(ForkTest, FileMappingsInheritedCopyOnWrite) {
  w.fs.CreateFilePattern("/prog", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 4 * sim::kPageSize, "/prog", 0, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{0x71});  // parent's private copy
  kern::Proc* c = w.kernel->Fork(p);
  EXPECT_EQ(std::byte{0x71}, ReadByte(c, a));  // child sees parent's version
  w.kernel->TouchWrite(c, a, 1, std::byte{0x72});
  EXPECT_EQ(std::byte{0x71}, ReadByte(p, a));
  w.kernel->Exit(c);
  w.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, ForkTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         refmodel::VmName);

}  // namespace
