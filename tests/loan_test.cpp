// Data-movement tests (§7): page loanout with copy-on-write preservation,
// page transfer into another address space, and map-entry passing in all
// three modes. BSD VM must report these unsupported.
#include <gtest/gtest.h>

#include "src/harness/world.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

std::byte ReadByte(World& w, kern::Proc* p, sim::Vaddr va) {
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kOk, w.kernel->ReadMem(p, va, b));
  return b[0];
}

TEST(LoanTest, BsdVmDoesNotSupportDataMovement) {
  World w(VmKind::kBsd);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{1});
  std::vector<phys::Page*> pages;
  EXPECT_EQ(sim::kErrNotSup, w.vm->Loan(*p->as, a, 1, &pages));
  EXPECT_EQ(sim::kErrNotSup, w.kernel->SocketSendLoan(p, a, sim::kPageSize));
  kern::Proc* q = w.kernel->Spawn();
  sim::Vaddr out = 0;
  EXPECT_EQ(sim::kErrNotSup, w.kernel->ExtractRange(p, a, sim::kPageSize, q, &out,
                                                    kern::ExtractMode::kShare));
}

TEST(LoanTest, LoanWiresAndUnloanReleases) {
  World w(VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0x55});
  std::vector<phys::Page*> pages;
  ASSERT_EQ(sim::kOk, w.vm->Loan(*p->as, a, 4, &pages));
  ASSERT_EQ(4u, pages.size());
  for (phys::Page* pg : pages) {
    EXPECT_EQ(1, pg->loan_count);
    EXPECT_GE(pg->wire_count, 1);
    EXPECT_EQ(std::byte{0x55}, w.pm.Data(pg)[0]);
  }
  w.vm->Unloan(pages);
  for (phys::Page* pg : pages) {
    EXPECT_EQ(0, pg->loan_count);
    EXPECT_EQ(0, pg->wire_count);
  }
  w.CheckInvariants();
}

TEST(LoanTest, LoanFaultsInNonResidentPages) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 4 * sim::kPageSize, "/f", 0, ro));
  std::vector<phys::Page*> pages;
  ASSERT_EQ(sim::kOk, w.vm->Loan(*p->as, a, 4, &pages));
  ASSERT_EQ(4u, pages.size());
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 0), w.pm.Data(pages[0])[0]);
  w.vm->Unloan(pages);
}

TEST(LoanTest, OwnerWriteDuringLoanPreservesLoanedData) {
  // The §7 guarantee: loanout "gracefully preserves copy-on-write in the
  // presence of page faults" — the kernel's view must not change while the
  // owner keeps writing.
  World w(VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{0x11});
  std::vector<phys::Page*> pages;
  ASSERT_EQ(sim::kOk, w.vm->Loan(*p->as, a, 1, &pages));
  // Owner writes while the loan is outstanding: must break the loan, not
  // mutate the loaned frame.
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{0x22}));
  EXPECT_EQ(std::byte{0x11}, w.pm.Data(pages[0])[0]);
  EXPECT_EQ(std::byte{0x22}, ReadByte(w, p, a));
  w.vm->Unloan(pages);  // frees the orphaned frame
  EXPECT_EQ(std::byte{0x22}, ReadByte(w, p, a));
  w.CheckInvariants();
}

TEST(LoanTest, OwnerExitDuringLoanKeepsFrameAlive) {
  World w(VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{0x77});
  std::vector<phys::Page*> pages;
  ASSERT_EQ(sim::kOk, w.vm->Loan(*p->as, a, 1, &pages));
  std::size_t free_before = w.pm.free_pages();
  w.kernel->Exit(p);
  EXPECT_EQ(std::byte{0x77}, w.pm.Data(pages[0])[0]);  // data still intact
  w.vm->Unloan(pages);
  EXPECT_GT(w.pm.free_pages(), free_before);
  w.CheckInvariants();
}

TEST(LoanTest, LoanedPagesAreNotPagedOut) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  World w(VmKind::kUvm, cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0x88});
  std::vector<phys::Page*> pages;
  ASSERT_EQ(sim::kOk, w.vm->Loan(*p->as, a, 4, &pages));
  sim::Vaddr hog = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &hog, 120 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, hog, 120 * sim::kPageSize, std::byte{0x01});
  for (phys::Page* pg : pages) {
    EXPECT_EQ(std::byte{0x88}, w.pm.Data(pg)[0]);  // untouched by the daemon
  }
  w.vm->Unloan(pages);
  w.CheckInvariants();
}

TEST(LoanTest, PageTransferMovesDataWithoutCopy) {
  World w(VmKind::kUvm);
  kern::Proc* src = w.kernel->Spawn();
  kern::Proc* dst = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(src, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(src, a, 4 * sim::kPageSize, std::byte{0xab});
  std::uint64_t copies = w.machine.stats().pages_copied;
  sim::Vaddr out = 0;
  ASSERT_EQ(sim::kOk, w.kernel->PageTransfer(src, a, 4 * sim::kPageSize, dst, &out));
  EXPECT_EQ(copies, w.machine.stats().pages_copied);  // zero-copy
  EXPECT_EQ(std::byte{0xab}, ReadByte(w, dst, out));
  EXPECT_EQ(std::byte{0xab}, ReadByte(w, dst, out + 3 * sim::kPageSize));
  // Transferred memory is ordinary anonymous memory: COW isolated.
  w.kernel->TouchWrite(dst, out, 1, std::byte{0xcd});
  EXPECT_EQ(std::byte{0xab}, ReadByte(w, src, a));
  w.kernel->TouchWrite(src, a, 1, std::byte{0xef});
  EXPECT_EQ(std::byte{0xcd}, ReadByte(w, dst, out));
  w.CheckInvariants();
}

TEST(LoanTest, TransferOfKernelPagesBecomesAnonymousMemory) {
  World w(VmKind::kUvm);
  kern::Proc* dst = w.kernel->Spawn();
  // Kernel produces two pages of data (e.g. from a device driver).
  std::vector<phys::Page*> pages;
  for (int i = 0; i < 2; ++i) {
    phys::Page* pg = w.pm.AllocPage(phys::OwnerKind::kKernel, nullptr, 0, /*zero=*/true);
    ASSERT_NE(nullptr, pg);
    w.pm.Data(pg)[0] = std::byte(0x40 + i);
    pages.push_back(pg);
  }
  sim::Vaddr out = 0;
  ASSERT_EQ(sim::kOk, w.vm->Transfer(*dst->as, &out, pages));
  EXPECT_EQ(std::byte{0x40}, ReadByte(w, dst, out));
  EXPECT_EQ(std::byte{0x41}, ReadByte(w, dst, out + sim::kPageSize));
  // Indistinguishable from normal anon memory: survives fork COW.
  kern::Proc* c = w.kernel->Fork(dst);
  w.kernel->TouchWrite(c, out, 1, std::byte{0x99});
  EXPECT_EQ(std::byte{0x40}, ReadByte(w, dst, out));
  w.kernel->Exit(c);
  w.CheckInvariants();
}

class ExtractTest : public ::testing::Test {
 protected:
  World w{VmKind::kUvm};
  kern::Proc* src = w.kernel->Spawn();
  kern::Proc* dst = w.kernel->Spawn();
  sim::Vaddr a = 0;

  void SetUp() override {
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(src, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
    w.kernel->TouchWrite(src, a, 4 * sim::kPageSize, std::byte{0x60});
  }
};

TEST_F(ExtractTest, ShareModeSharesWrites) {
  sim::Vaddr out = 0;
  ASSERT_EQ(sim::kOk, w.kernel->ExtractRange(src, a, 4 * sim::kPageSize, dst, &out,
                                             kern::ExtractMode::kShare));
  EXPECT_EQ(std::byte{0x60}, ReadByte(w, dst, out));
  w.kernel->TouchWrite(dst, out, 1, std::byte{0x61});
  EXPECT_EQ(std::byte{0x61}, ReadByte(w, src, a));
  w.kernel->TouchWrite(src, a + sim::kPageSize, 1, std::byte{0x62});
  EXPECT_EQ(std::byte{0x62}, ReadByte(w, dst, out + sim::kPageSize));
  w.CheckInvariants();
}

TEST_F(ExtractTest, CopyModeIsCopyOnWrite) {
  sim::Vaddr out = 0;
  std::uint64_t copies = w.machine.stats().pages_copied;
  ASSERT_EQ(sim::kOk, w.kernel->ExtractRange(src, a, 4 * sim::kPageSize, dst, &out,
                                             kern::ExtractMode::kCopy));
  EXPECT_EQ(copies, w.machine.stats().pages_copied);  // deferred
  EXPECT_EQ(std::byte{0x60}, ReadByte(w, dst, out));
  w.kernel->TouchWrite(dst, out, 1, std::byte{0x61});
  EXPECT_EQ(std::byte{0x60}, ReadByte(w, src, a));
  w.kernel->TouchWrite(src, a + sim::kPageSize, 1, std::byte{0x62});
  EXPECT_EQ(std::byte{0x60}, ReadByte(w, dst, out + sim::kPageSize));
  w.CheckInvariants();
}

TEST_F(ExtractTest, MoveModeUnmapsSource) {
  sim::Vaddr out = 0;
  ASSERT_EQ(sim::kOk, w.kernel->ExtractRange(src, a, 4 * sim::kPageSize, dst, &out,
                                             kern::ExtractMode::kMove));
  EXPECT_EQ(std::byte{0x60}, ReadByte(w, dst, out));
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(src, a, b));
  w.CheckInvariants();
}

TEST_F(ExtractTest, SubRangeExtractClipsCorrectly) {
  sim::Vaddr out = 0;
  ASSERT_EQ(sim::kOk, w.kernel->ExtractRange(src, a + sim::kPageSize, 2 * sim::kPageSize, dst,
                                             &out, kern::ExtractMode::kShare));
  w.kernel->TouchWrite(dst, out, 1, std::byte{0x99});
  EXPECT_EQ(std::byte{0x99}, ReadByte(w, src, a + sim::kPageSize));
  EXPECT_EQ(std::byte{0x60}, ReadByte(w, src, a));  // outside the range
  w.CheckInvariants();
}

TEST_F(ExtractTest, UnmappedSourceRangeFails) {
  sim::Vaddr out = 0;
  EXPECT_EQ(sim::kErrFault, w.kernel->ExtractRange(src, 0x7000'0000, 2 * sim::kPageSize, dst,
                                                   &out, kern::ExtractMode::kShare));
}

TEST(LoanTest, SharedFileWriteDuringLoanBreaksObjectLoan) {
  // Loan pages of a *shared file* mapping, then write through the mapping
  // while the loan is outstanding: the write must go to a fresh object
  // page (reaching the file), while the loaned frame keeps the old bytes.
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 2 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 2 * sim::kPageSize, "/f", 0, shared));
  w.kernel->TouchRead(p, a, 2 * sim::kPageSize);
  std::vector<phys::Page*> loaned;
  ASSERT_EQ(sim::kOk, w.vm->Loan(*p->as, a, 1, &loaned));
  std::byte original = w.pm.Data(loaned[0])[0];
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{0xDD}));
  EXPECT_EQ(original, w.pm.Data(loaned[0])[0]);  // in-flight data stable
  EXPECT_EQ(std::byte{0xDD}, ReadByte(w, p, a));  // mapping sees the write
  // The write reaches the file on msync.
  ASSERT_EQ(sim::kOk, w.kernel->Msync(p, a, sim::kPageSize));
  w.vm->Unloan(loaned);
  w.CheckInvariants();
}

TEST(LoanTest, PageTransferFromFileMappingCopiesOnce) {
  World w(VmKind::kUvm);
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* src = w.kernel->Spawn();
  kern::Proc* dst = w.kernel->Spawn();
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(src, &a, 4 * sim::kPageSize, "/f", 0, ro));
  w.kernel->TouchRead(src, a, 4 * sim::kPageSize);
  std::uint64_t copies = w.machine.stats().pages_copied;
  sim::Vaddr out = 0;
  ASSERT_EQ(sim::kOk, w.kernel->PageTransfer(src, a, 4 * sim::kPageSize, dst, &out));
  // File pages cannot be re-owned; exactly one copy per page (vs two for
  // the copyin/copyout path).
  EXPECT_EQ(copies + 4, w.machine.stats().pages_copied);
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 0), ReadByte(w, dst, out));
  EXPECT_EQ(vfs::Filesystem::PatternByte("/f", 3 * sim::kPageSize),
            ReadByte(w, dst, out + 3 * sim::kPageSize));
  w.CheckInvariants();
}

TEST(LoanRoundTrip, LoanTransferredDataSurvivesPageout) {
  // End-to-end §7 pipeline under memory pressure: loan from A, transfer
  // into B, page B's memory out, read it back.
  WorldConfig cfg;
  cfg.ram_pages = 96;
  World w(VmKind::kUvm, cfg);
  kern::Proc* a_proc = w.kernel->Spawn();
  kern::Proc* b_proc = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(a_proc, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  for (int i = 0; i < 8; ++i) {
    w.kernel->TouchWrite(a_proc, a + i * sim::kPageSize, 1,
                         std::byte{static_cast<unsigned char>(0x50 + i)});
  }
  sim::Vaddr out = 0;
  ASSERT_EQ(sim::kOk, w.kernel->PageTransfer(a_proc, a, 8 * sim::kPageSize, b_proc, &out));
  w.kernel->Exit(a_proc);
  // Pressure B's memory out to swap.
  sim::Vaddr hog = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(b_proc, &hog, 150 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(b_proc, hog, 150 * sim::kPageSize, std::byte{0x01});
  for (int i = 0; i < 8; ++i) {
    std::vector<std::byte> b(1);
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(b_proc, out + i * sim::kPageSize, b));
    EXPECT_EQ(std::byte{static_cast<unsigned char>(0x50 + i)}, b[0]) << i;
  }
  w.CheckInvariants();
}

}  // namespace
