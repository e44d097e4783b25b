// Unit tests for the swap device: slot allocation, contiguous-run
// allocation under fragmentation, data round trips, and I/O accounting.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/sim/machine.h"
#include "src/sim/rng.h"
#include "src/swap/swap_device.h"

namespace {

class SwapTest : public ::testing::Test {
 protected:
  sim::Machine machine;
  swp::SwapDevice sd{machine, 32};

  std::array<std::byte, sim::kPageSize> MakePage(std::byte fill) {
    std::array<std::byte, sim::kPageSize> a;
    a.fill(fill);
    return a;
  }
};

TEST_F(SwapTest, AllocFreeAccounting) {
  EXPECT_EQ(32u, sd.free_slots());
  std::int32_t s = sd.AllocSlot();
  ASSERT_NE(swp::kNoSlot, s);
  EXPECT_TRUE(sd.IsUsed(s));
  EXPECT_EQ(31u, sd.free_slots());
  sd.FreeSlot(s);
  EXPECT_FALSE(sd.IsUsed(s));
  EXPECT_EQ(32u, sd.free_slots());
}

TEST_F(SwapTest, ExhaustionReturnsNoSlot) {
  for (int i = 0; i < 32; ++i) {
    ASSERT_NE(swp::kNoSlot, sd.AllocSlot());
  }
  EXPECT_EQ(swp::kNoSlot, sd.AllocSlot());
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(1));
}

TEST_F(SwapTest, ContigAllocatesARun) {
  std::int32_t first = sd.AllocContig(8);
  ASSERT_NE(swp::kNoSlot, first);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(sd.IsUsed(first + i));
  }
  EXPECT_EQ(24u, sd.free_slots());
  sd.FreeRange(first, 8);
  EXPECT_EQ(32u, sd.free_slots());
}

TEST_F(SwapTest, ContigRespectsFragmentation) {
  // Occupy every even slot: no run of 2 exists.
  std::vector<std::int32_t> held;
  for (int i = 0; i < 32; i += 2) {
    std::int32_t s = sd.AllocContig(1);
    ASSERT_EQ(i, s);
    held.push_back(s);
    if (i + 1 < 32) {
      std::int32_t odd = sd.AllocContig(1);
      held.push_back(odd);
    }
  }
  // Free only odd slots -> max contiguous run is 1.
  for (std::int32_t s : held) {
    if (s % 2 == 1) {
      sd.FreeSlot(s);
    }
  }
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(2));
  EXPECT_NE(swp::kNoSlot, sd.AllocContig(1));
}

TEST_F(SwapTest, ContigOversizeFails) {
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(33));
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(0));
}

TEST_F(SwapTest, SingleSlotRoundTrip) {
  std::int32_t s = sd.AllocSlot();
  auto page = MakePage(std::byte{0x3c});
  sd.WriteSlot(s, page);
  auto back = MakePage(std::byte{0});
  sd.ReadSlot(s, back);
  EXPECT_EQ(page, back);
  EXPECT_EQ(2u, machine.stats().swap_ops);
  EXPECT_EQ(1u, machine.stats().swap_pages_out);
  EXPECT_EQ(1u, machine.stats().swap_pages_in);
}

TEST_F(SwapTest, RunRoundTripIsOneOperation) {
  std::int32_t first = sd.AllocContig(4);
  std::array<std::array<std::byte, sim::kPageSize>, 4> pages;
  std::vector<std::span<std::byte, sim::kPageSize>> spans;
  for (int i = 0; i < 4; ++i) {
    pages[i].fill(std::byte(0x10 + i));
    spans.emplace_back(pages[i]);
  }
  sim::Nanoseconds before = machine.clock().now();
  sd.WriteRun(first, spans);
  EXPECT_EQ(machine.cost().disk_op_ns + 4 * machine.cost().disk_page_ns,
            machine.clock().now() - before);
  EXPECT_EQ(1u, machine.stats().swap_ops);

  std::array<std::array<std::byte, sim::kPageSize>, 4> back;
  std::vector<std::span<std::byte, sim::kPageSize>> back_spans;
  for (int i = 0; i < 4; ++i) {
    back[i].fill(std::byte{0});
    back_spans.emplace_back(back[i]);
  }
  sd.ReadRun(first, back_spans);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pages[i], back[i]) << i;
  }
  EXPECT_EQ(2u, machine.stats().swap_ops);
}

TEST_F(SwapTest, ClusteredWriteIsCheaperThanSingles) {
  // The core Figure 5 property: N single-page writes cost N fixed
  // operation charges; one N-page run costs a single one.
  std::int32_t run = sd.AllocContig(8);
  auto page = MakePage(std::byte{1});
  sim::Nanoseconds t0 = machine.clock().now();
  for (int i = 0; i < 8; ++i) {
    sd.WriteSlot(run + i, page);
  }
  sim::Nanoseconds singles = machine.clock().now() - t0;

  std::vector<std::array<std::byte, sim::kPageSize>> storage(8);
  std::vector<std::span<std::byte, sim::kPageSize>> spans;
  for (auto& s : storage) {
    s.fill(std::byte{2});
    spans.emplace_back(s);
  }
  t0 = machine.clock().now();
  sd.WriteRun(run, spans);
  sim::Nanoseconds clustered = machine.clock().now() - t0;
  EXPECT_GT(singles, 2 * clustered);
}

TEST_F(SwapTest, ContigScanFindsRunsBeforeHint) {
  // Advance the allocation hint near the end of the device, then free a run
  // entirely before it. A hint-local scan misses; the allocator must rescan
  // from the start rather than report the device full.
  std::vector<std::int32_t> held;
  for (int i = 0; i < 30; ++i) {
    held.push_back(sd.AllocSlot());
  }
  ASSERT_EQ(29, held.back());  // hint is now at 30
  sd.FreeRange(4, 8);
  EXPECT_EQ(4, sd.AllocContig(8));
}

TEST_F(SwapTest, ContigScanFindsRunStraddlingHint) {
  // Build: used = 0..11 and 20..31, free = 12..19, hint = 16. The only run
  // of 8 straddles the hint, so the hint-forward scan sees just its second
  // half and the allocator must rescan from slot 0 to find it.
  ASSERT_EQ(0, sd.AllocContig(32));
  sd.FreeRange(12, 8);
  for (std::int32_t s = 12; s < 16; ++s) {
    ASSERT_EQ(s, sd.AllocSlot());  // advances the hint to 16
  }
  sd.FreeRange(12, 4);
  EXPECT_EQ(12, sd.AllocContig(8));
}

TEST_F(SwapTest, PermanentWriteFaultRetiresSlotAndRemaps) {
  std::int32_t first = sd.AllocContig(4);
  ASSERT_EQ(0, first);
  std::array<std::array<std::byte, sim::kPageSize>, 4> pages;
  std::vector<std::span<std::byte, sim::kPageSize>> spans;
  for (int i = 0; i < 4; ++i) {
    pages[i].fill(std::byte(0x20 + i));
    spans.emplace_back(pages[i]);
  }
  sim::FaultPlan plan;
  plan.fail_writes.push_back(sim::FaultSpec{1, /*permanent=*/true});
  machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);

  ASSERT_EQ(sim::kOk, sd.WriteRunRemapping(&first, spans));
  EXPECT_NE(0, first);  // the run moved off the bad block
  EXPECT_TRUE(sd.IsBad(0));
  EXPECT_FALSE(sd.IsUsed(0));  // retired, not allocatable
  EXPECT_EQ(1u, sd.bad_slots());
  EXPECT_EQ(1u, machine.stats().bad_slots_remapped);
  EXPECT_EQ(1u, machine.stats().io_errors_injected);

  // Data landed intact at the new location.
  std::array<std::array<std::byte, sim::kPageSize>, 4> back;
  std::vector<std::span<std::byte, sim::kPageSize>> back_spans;
  for (int i = 0; i < 4; ++i) {
    back[i].fill(std::byte{0});
    back_spans.emplace_back(back[i]);
  }
  ASSERT_EQ(sim::kOk, sd.ReadRun(first, back_spans));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pages[i], back[i]) << i;
  }
  // The retired slot is skipped by every allocator path from now on.
  sd.FreeRange(first, 4);
  while (true) {
    std::int32_t s = sd.AllocSlot();
    if (s == swp::kNoSlot) {
      break;
    }
    EXPECT_NE(0, s);
  }
  EXPECT_EQ(31u, sd.used_slots());  // 32 minus the one bad slot
}

TEST_F(SwapTest, TransientWriteFaultLeavesRunForRetry) {
  std::int32_t first = sd.AllocContig(2);
  std::array<std::array<std::byte, sim::kPageSize>, 2> pages;
  std::vector<std::span<std::byte, sim::kPageSize>> spans;
  for (int i = 0; i < 2; ++i) {
    pages[i].fill(std::byte(0x7a + i));
    spans.emplace_back(pages[i]);
  }
  sim::FaultPlan plan;
  plan.fail_writes.push_back(sim::FaultSpec{1, /*permanent=*/false});
  machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);

  std::int32_t where = first;
  EXPECT_EQ(sim::kErrIO, sd.WriteRunRemapping(&where, spans));
  EXPECT_EQ(first, where);  // transient: nothing moved, nothing retired
  EXPECT_EQ(0u, sd.bad_slots());
  EXPECT_EQ(0u, machine.stats().bad_slots_remapped);
  // The caller's retry succeeds and the data round-trips.
  EXPECT_EQ(sim::kOk, sd.WriteRunRemapping(&where, spans));
  std::array<std::byte, sim::kPageSize> back;
  ASSERT_EQ(sim::kOk, sd.ReadSlot(first + 1, back));
  EXPECT_EQ(pages[1], back);
}

TEST_F(SwapTest, ReservedSlotsAreEmergencyOnly) {
  sd.set_reserved_slots(4);
  // Normal allocation is refused once only the pageout reserve remains.
  for (int i = 0; i < 28; ++i) {
    ASSERT_NE(swp::kNoSlot, sd.AllocSlot());
  }
  EXPECT_EQ(4u, sd.free_slots());
  EXPECT_EQ(swp::kNoSlot, sd.AllocSlot());
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(2));
  EXPECT_EQ(0u, machine.stats().swap_reserve_allocs);
  // The pageout path (emergency) may dip into the reserve, and each dip is
  // counted.
  std::int32_t s = sd.AllocSlot(/*emergency=*/true);
  ASSERT_NE(swp::kNoSlot, s);
  EXPECT_EQ(1u, machine.stats().swap_reserve_allocs);
  std::int32_t run = sd.AllocContig(2, /*emergency=*/true);
  ASSERT_NE(swp::kNoSlot, run);
  EXPECT_EQ(2u, machine.stats().swap_reserve_allocs);
  EXPECT_EQ(1u, sd.free_slots());
}

TEST_F(SwapTest, BalloonAbsorbsOnlyFreeSlotsAndReleasesLifo) {
  std::int32_t a = sd.AllocSlot();
  std::int32_t b = sd.AllocSlot();
  // Ask for more than is free: the balloon absorbs what it can (from the
  // high end, away from the allocation hint) and carries a deficit.
  sd.SetBalloonTarget(31);
  EXPECT_EQ(30u, sd.balloon_slots());
  EXPECT_EQ(0u, sd.free_slots());
  EXPECT_TRUE(sd.IsUsed(31));
  EXPECT_EQ(swp::kNoSlot, sd.AllocSlot());
  // Freeing a data slot lets the deficit be absorbed; the device stays
  // fully ballooned rather than handing the slot back out.
  sd.FreeSlot(a);
  EXPECT_EQ(31u, sd.balloon_slots());
  EXPECT_EQ(0u, sd.free_slots());
  // Growing releases balloon slots back into service.
  sd.SetBalloonTarget(0);
  EXPECT_EQ(0u, sd.balloon_slots());
  EXPECT_EQ(31u, sd.free_slots());
  EXPECT_TRUE(sd.IsUsed(b));
  sd.FreeSlot(b);
  EXPECT_EQ(32u, sd.free_slots());
}

TEST_F(SwapTest, RemappingWithNoReplacementRunCountsSwapFull) {
  // Fill the device except one 2-slot run, then make every write to that
  // run fail permanently: remapping retires the bad slots but has nowhere
  // to move the cluster, so the write surfaces kErrNoSwap and the event is
  // counted for the pressure report.
  std::int32_t first = sd.AllocContig(2);
  ASSERT_NE(swp::kNoSlot, first);
  while (sd.AllocSlot() != swp::kNoSlot) {
  }
  EXPECT_EQ(0u, sd.free_slots());
  sim::FaultPlan plan;
  plan.write_num = 1;
  plan.write_den = 1;
  plan.permanent_num = 1;
  plan.permanent_den = 1;
  machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);
  auto p0 = MakePage(std::byte{0xaa});
  auto p1 = MakePage(std::byte{0xbb});
  std::array<std::span<std::byte, sim::kPageSize>, 2> spans{std::span(p0), std::span(p1)};
  std::int32_t where = first;
  EXPECT_EQ(sim::kErrNoSwap, sd.WriteRunRemapping(&where, std::span(spans)));
  EXPECT_EQ(swp::kNoSlot, where);
  EXPECT_EQ(1u, machine.stats().swap_full_events);
  EXPECT_GT(sd.bad_slots(), 0u);
}

TEST_F(SwapTest, AllocAfterFreeReusesSlots) {
  std::vector<std::int32_t> all;
  for (int i = 0; i < 32; ++i) {
    all.push_back(sd.AllocSlot());
  }
  sd.FreeSlot(all[10]);
  sd.FreeSlot(all[20]);
  EXPECT_NE(swp::kNoSlot, sd.AllocSlot());
  EXPECT_NE(swp::kNoSlot, sd.AllocSlot());
  EXPECT_EQ(swp::kNoSlot, sd.AllocSlot());
}

using SwapDeathTest = SwapTest;

TEST_F(SwapDeathTest, SlotOutsideTheDevicePanics) {
  std::array<std::byte, sim::kPageSize> buf{};
  const auto past_end = static_cast<std::int32_t>(sd.total_slots());
  EXPECT_DEATH(sd.ReadSlot(past_end, buf), "assertion failed");
  EXPECT_DEATH(sd.IsBad(-1), "assertion failed");
}

// The allocator walks its bitmap 64 slots at a time; these tests pin the
// word boundaries a 32-slot device never reaches.

// Reference first fit: one slot at a time from the hint to the end, then
// the whole device again from slot 0.
class FirstFitModel {
 public:
  explicit FirstFitModel(std::size_t n) : used_(n, false) {}

  std::int32_t AllocSlot() {
    const std::size_t n = used_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (hint_ + k) % n;
      if (!used_[i]) {
        used_[i] = true;
        ++used_count_;
        hint_ = (i + 1) % n;
        return static_cast<std::int32_t>(i);
      }
    }
    return swp::kNoSlot;
  }

  std::int32_t AllocContig(std::size_t want) {
    const std::size_t n = used_.size();
    if (want == 0 || want > n) {
      return swp::kNoSlot;
    }
    std::int32_t first = Scan(hint_, want);
    if (first == swp::kNoSlot) {
      first = Scan(0, want);
    }
    if (first != swp::kNoSlot) {
      hint_ = (static_cast<std::size_t>(first) + want) % n;
    }
    return first;
  }

  void FreeSlot(std::int32_t slot) {
    used_[static_cast<std::size_t>(slot)] = false;
    --used_count_;
  }

  bool IsUsed(std::size_t slot) const { return used_[slot]; }
  std::size_t used_slots() const { return used_count_; }

  // Length of the free run through `slot`; 0 when the slot is used.
  std::size_t FreeRunAt(std::size_t slot) const {
    if (used_[slot]) {
      return 0;
    }
    std::size_t lo = slot;
    std::size_t hi = slot + 1;
    while (lo > 0 && !used_[lo - 1]) {
      --lo;
    }
    while (hi < used_.size() && !used_[hi]) {
      ++hi;
    }
    return hi - lo;
  }

 private:
  std::int32_t Scan(std::size_t from, std::size_t want) {
    std::size_t run = 0;
    for (std::size_t i = from; i < used_.size(); ++i) {
      run = used_[i] ? 0 : run + 1;
      if (run == want) {
        const std::size_t first = i + 1 - want;
        for (std::size_t j = first; j <= i; ++j) {
          used_[j] = true;
        }
        used_count_ += want;
        return static_cast<std::int32_t>(first);
      }
    }
    return swp::kNoSlot;
  }

  std::vector<bool> used_;
  std::size_t used_count_ = 0;
  std::size_t hint_ = 0;
};

TEST(SwapFirstFitTest, MatchesOneSlotAtATimeReference) {
  for (std::size_t n : {1u, 63u, 64u, 65u, 130u, 700u}) {
    SCOPED_TRACE(n);
    sim::Machine machine;
    swp::SwapDevice sd{machine, n};
    FirstFitModel model(n);
    sim::Rng rng(n);
    std::vector<std::int32_t> held;  // allocated slots, in no order
    for (int op = 0; op < 3000; ++op) {
      // Free more often as the device fills, so fragmentation persists;
      // now and then free a whole window, opening gaps that span words.
      if (!held.empty() && rng.Below(n + 1) < held.size()) {
        const std::size_t lo = rng.Below(n);
        const std::size_t hi = rng.Chance(1, 8) ? lo + rng.Range(1, 200) : lo + 1;
        for (std::size_t k = held.size(); k-- > 0;) {
          const auto slot = static_cast<std::size_t>(held[k]);
          if (slot >= lo && slot < hi) {
            sd.FreeSlot(held[k]);
            model.FreeSlot(held[k]);
            held[k] = held.back();
            held.pop_back();
          }
        }
      } else if (rng.Chance(1, 4)) {
        const std::int32_t got = sd.AllocSlot();
        ASSERT_EQ(model.AllocSlot(), got) << "op " << op;
        if (got != swp::kNoSlot) {
          held.push_back(got);
        }
      } else {
        // Short runs, as pageout clusters are; runs that exactly fill a
        // free gap, where an off-by-one bound shows; and runs up to the
        // device size, which span words.
        std::size_t want = 0;
        switch (rng.Below(3)) {
          case 0:
            want = rng.Range(1, 16);
            break;
          case 1:
            want = model.FreeRunAt(rng.Below(n));
            break;
          default:
            want = rng.Range(1, n + 1);
            break;
        }
        const std::int32_t got = sd.AllocContig(want);
        ASSERT_EQ(model.AllocContig(want), got) << "op " << op << " want " << want;
        for (std::size_t i = 0; got != swp::kNoSlot && i < want; ++i) {
          held.push_back(got + static_cast<std::int32_t>(i));
        }
      }
      ASSERT_EQ(model.used_slots(), sd.used_slots()) << "op " << op;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(model.IsUsed(i), sd.IsUsed(static_cast<std::int32_t>(i)))
            << "op " << op << " slot " << i;
      }
    }
  }
}

// A device with every slot allocated except the runs freed here; the
// allocation hint is back at slot 0.
void FillThenFree(swp::SwapDevice& sd, std::initializer_list<std::pair<int, int>> free_runs) {
  ASSERT_EQ(0, sd.AllocContig(sd.total_slots()));
  for (auto [first, n] : free_runs) {
    sd.FreeRange(first, static_cast<std::size_t>(n));
  }
}

TEST(SwapFirstFitTest, RunAcrossAWordBoundary) {
  sim::Machine machine;
  swp::SwapDevice sd{machine, 130};
  FillThenFree(sd, {{50, 7}, {60, 8}});
  EXPECT_EQ(60, sd.AllocContig(8));
  for (std::int32_t s = 60; s < 68; ++s) {
    EXPECT_TRUE(sd.IsUsed(s)) << s;
  }
  EXPECT_EQ(123u, sd.used_slots());
}

TEST(SwapFirstFitTest, RunEndingAtTheLastSlot) {
  sim::Machine machine;
  swp::SwapDevice sd{machine, 130};
  FillThenFree(sd, {{120, 10}});
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(11));
  EXPECT_EQ(120, sd.AllocContig(10));
  EXPECT_EQ(0u, sd.free_slots());
}

TEST(SwapFirstFitTest, RunOfTheWholeDevice) {
  sim::Machine machine;
  swp::SwapDevice sd{machine, 130};
  EXPECT_EQ(0, sd.AllocContig(130));
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(1));
  sd.FreeSlot(129);
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(130));
  sd.FreeRange(0, 129);
  EXPECT_EQ(0, sd.AllocContig(130));
}

TEST(SwapFirstFitTest, RunSpanningAWholeWord) {
  sim::Machine machine;
  swp::SwapDevice sd{machine, 256};
  // The run covers slots 128..191, one whole word; a 99-slot decoy run
  // comes first.
  FillThenFree(sd, {{1, 99}, {101, 100}});
  EXPECT_EQ(101, sd.AllocContig(100));
  EXPECT_EQ(1, sd.AllocContig(99));
}

TEST(SwapFirstFitTest, BadSlotSplitsAFreeRun) {
  sim::Machine machine;
  swp::SwapDevice sd{machine, 130};
  // Leave only slot 96, mid-word, allocated; a permanent write fault on it
  // retires it and moves the page to slot 0.
  FillThenFree(sd, {{0, 96}, {97, 33}});
  sim::FaultPlan plan;
  plan.fail_writes.push_back(sim::FaultSpec{1, /*permanent=*/true});
  machine.faults().SetPlan(sim::IoDevice::kSwapDisk, plan);
  std::array<std::byte, sim::kPageSize> page{};
  std::int32_t slot = 96;
  ASSERT_EQ(sim::kOk, sd.WriteSlotRemapping(&slot, page));
  ASSERT_EQ(0, slot);
  sd.FreeSlot(slot);
  ASSERT_TRUE(sd.IsBad(96));
  EXPECT_EQ(129u, sd.free_slots());
  // 129 slots are free, but no run of 97 crosses the bad slot.
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(97));
  EXPECT_EQ(0, sd.AllocContig(96));
  EXPECT_EQ(97, sd.AllocContig(33));
  EXPECT_FALSE(sd.IsUsed(96));
  EXPECT_EQ(0u, sd.free_slots());
}

TEST(SwapFirstFitTest, SeventySlotDeviceFillsInOrder) {
  sim::Machine machine;
  swp::SwapDevice sd{machine, 70};
  for (std::int32_t s = 0; s < 70; ++s) {
    ASSERT_EQ(s, sd.AllocSlot());
  }
  EXPECT_EQ(swp::kNoSlot, sd.AllocSlot());
  EXPECT_EQ(swp::kNoSlot, sd.AllocContig(1));
  EXPECT_EQ(70u, sd.used_slots());
}

}  // namespace
