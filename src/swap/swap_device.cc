#include "src/swap/swap_device.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/sim/assert.h"

namespace swp {

namespace {
// Cap on consecutive permanent-fault remaps within one write call, so a
// pathological fault plan (every slot bad) terminates with an error instead
// of consuming the whole device.
constexpr int kMaxRemapAttempts = 8;
}  // namespace

std::int32_t SwapDevice::AllocSlot(bool emergency) { return AllocContig(1, emergency); }

std::int32_t SwapDevice::ScanContig(std::size_t from, std::size_t to, std::size_t want) {
  std::size_t run = 0;        // free slots carried in from earlier words
  std::size_t run_first = 0;  // first slot of the carried run
  for (std::size_t w = from / kWordBits; w * kWordBits < to; ++w) {
    const std::size_t base = w * kWordBits;
    // Bit i set: slot base + i is free and inside [from, to).
    std::uint64_t avail = ~(used_[w] | bad_[w]);
    if (base < from) {
      avail &= ~std::uint64_t{0} << (from - base);
    }
    if (to - base < kWordBits) {
      avail &= (std::uint64_t{1} << (to - base)) - 1;
    }
    if (run > 0) {
      // The carried run starts left of anything inside this word.
      const auto low = static_cast<std::size_t>(std::countr_one(avail));
      if (run + low >= want) {
        return Claim(run_first, want);
      }
      if (low == kWordBits) {
        run += kWordBits;
        continue;
      }
    }
    if (want <= kWordBits) {
      // Shift-and doubling: bit i of `starts` survives iff slots
      // i .. i+have-1 are all free.
      std::uint64_t starts = avail;
      for (std::size_t have = 1; have < want;) {
        const std::size_t step = std::min(have, want - have);
        starts &= starts >> step;
        have += step;
      }
      if (starts != 0) {
        return Claim(base + static_cast<std::size_t>(std::countr_zero(starts)), want);
      }
    }
    // Only the word's top free bits can start a run that crosses into the
    // next word.
    run = static_cast<std::size_t>(std::countl_one(avail));
    run_first = base + kWordBits - run;
  }
  return kNoSlot;
}

std::int32_t SwapDevice::Claim(std::size_t first, std::size_t n) {
  for (std::size_t i = first; i < first + n; ++i) {
    SetBit(used_, i);
  }
  used_count_ += n;
  return static_cast<std::int32_t>(first);
}

std::int32_t SwapDevice::AllocContig(std::size_t want, bool emergency) {
  // Poll first: the pressure actuator (SetBalloonTarget) takes the slot
  // lock itself.
  disk_.machine().PollPressure();
  sim::LockGuard g(slot_lock_);
  if (want == 0 || want > free_slots()) {
    return kNoSlot;  // no run can exist; skip the scan
  }
  if (!emergency && free_slots() < want + reserved_slots_) {
    return kNoSlot;  // the run would eat into the pageout reserve
  }
  bool dips_reserve = free_slots() < want + reserved_slots_;
  // Start at the hint for locality, but a miss there must not give up:
  // rescan from slot 0. A run the first scan missed starts before the hint,
  // so the rescan can stop want - 1 slots past it.
  const std::size_t n = num_slots_;
  std::int32_t first = ScanContig(next_hint_, n, want);
  if (first == kNoSlot) {
    first = ScanContig(0, std::min(n, next_hint_ + want - 1), want);
  }
  if (first != kNoSlot) {
    next_hint_ = (static_cast<std::size_t>(first) + want) % n;
    if (dips_reserve) {
      ++disk_.machine().stats().swap_reserve_allocs;
    }
  }
  return first;
}

void SwapDevice::SetBalloonTarget(std::size_t target) {
  sim::LockGuard g(slot_lock_);
  balloon_target_ = std::min(target, num_slots_);
  AbsorbBalloon();  // any deficit left is absorbed by future FreeSlot calls
  ReleaseBalloon();
}

void SwapDevice::ApplyPressure(const sim::PressureEvent& ev) {
  std::size_t target = balloon_target_;
  switch (ev.op) {
    case sim::PressureOp::kShrink:
      target += static_cast<std::size_t>(ev.amount);
      break;
    case sim::PressureOp::kGrow:
      target -= target < ev.amount ? target : static_cast<std::size_t>(ev.amount);
      break;
    case sim::PressureOp::kSetAvail:
      target = num_slots_ > ev.amount ? num_slots_ - static_cast<std::size_t>(ev.amount) : 0;
      break;
  }
  SetBalloonTarget(target);
}

void SwapDevice::AbsorbBalloon() {
  // Claim the highest-numbered free slots first, away from the allocation
  // hint's locality.
  for (std::size_t i = num_slots_; i-- > 0 && balloon_slots_.size() < balloon_target_;) {
    if (!Bit(used_, i) && !Bit(bad_, i)) {
      SetBit(used_, i);
      ++used_count_;
      balloon_slots_.push_back(static_cast<std::int32_t>(i));
    }
  }
}

void SwapDevice::ReleaseBalloon() {
  while (balloon_slots_.size() > balloon_target_) {
    std::int32_t s = balloon_slots_.back();
    balloon_slots_.pop_back();
    ClearBit(used_, static_cast<std::size_t>(s));
    --used_count_;
  }
}

void SwapDevice::FreeSlot(std::int32_t slot) {
  sim::LockGuard g(slot_lock_);
  const std::size_t i = Index(slot);
  SIM_ASSERT_MSG(Bit(used_, i), "double free of swap slot");
  ClearBit(used_, i);
  SIM_ASSERT(used_count_ > 0);
  --used_count_;
  // Absorb one slot of any outstanding balloon deficit.
  if (balloon_slots_.size() < balloon_target_) {
    SetBit(used_, i);
    ++used_count_;
    balloon_slots_.push_back(slot);
  }
}

void SwapDevice::FreeRange(std::int32_t first, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    FreeSlot(first + static_cast<std::int32_t>(i));
  }
}

void SwapDevice::RetireSlot(std::int32_t slot) {
  sim::LockGuard g(slot_lock_);
  const std::size_t i = Index(slot);
  SIM_ASSERT(Bit(used_, i) && !Bit(bad_, i));
  ClearBit(used_, i);
  --used_count_;
  SetBit(bad_, i);
  ++bad_count_;
  ++disk_.machine().stats().bad_slots_remapped;
  sim::Machine& m = disk_.machine();
  if (m.tracer().enabled()) {
    m.tracer().Instant(m.cost_context(), "swap_slot_retired", m.clock().now(),
                       static_cast<std::uint64_t>(slot));
  }
}

int SwapDevice::WriteRun(std::int32_t first,
                         std::span<std::span<std::byte, sim::kPageSize>> pages) {
  for (std::size_t i = 0; i < pages.size(); ++i) {
    SIM_ASSERT(IsUsed(first + static_cast<std::int32_t>(i)));
  }
  if (int err = disk_.WriteOp(pages.size(), static_cast<std::uint64_t>(first));
      err != sim::kOk) {
    return err;
  }
  for (std::size_t i = 0; i < pages.size(); ++i) {
    std::memcpy(SlotData(first + static_cast<std::int32_t>(i)), pages[i].data(),
                sim::kPageSize);
  }
  return sim::kOk;
}

int SwapDevice::ReadRun(std::int32_t first,
                        std::span<std::span<std::byte, sim::kPageSize>> pages) {
  for (std::size_t i = 0; i < pages.size(); ++i) {
    SIM_ASSERT(IsUsed(first + static_cast<std::int32_t>(i)));
  }
  if (int err = disk_.ReadOp(pages.size(), static_cast<std::uint64_t>(first));
      err != sim::kOk) {
    return err;
  }
  for (std::size_t i = 0; i < pages.size(); ++i) {
    std::memcpy(pages[i].data(), SlotData(first + static_cast<std::int32_t>(i)),
                sim::kPageSize);
  }
  return sim::kOk;
}

int SwapDevice::WriteSlot(std::int32_t slot, std::span<const std::byte, sim::kPageSize> src) {
  SIM_ASSERT(IsUsed(slot));
  if (int err = disk_.WriteOp(1, static_cast<std::uint64_t>(slot)); err != sim::kOk) {
    return err;
  }
  std::memcpy(SlotData(slot), src.data(), sim::kPageSize);
  return sim::kOk;
}

int SwapDevice::ReadSlot(std::int32_t slot, std::span<std::byte, sim::kPageSize> dst) {
  SIM_ASSERT(IsUsed(slot));
  if (int err = disk_.ReadOp(1, static_cast<std::uint64_t>(slot)); err != sim::kOk) {
    return err;
  }
  std::memcpy(dst.data(), SlotData(slot), sim::kPageSize);
  return sim::kOk;
}

int SwapDevice::WriteRunRemapping(std::int32_t* first,
                                  std::span<std::span<std::byte, sim::kPageSize>> pages) {
  const sim::FaultInjector& inj = disk_.machine().faults();
  const std::size_t n = pages.size();
  for (int attempt = 0; attempt < kMaxRemapAttempts; ++attempt) {
    int err = WriteRun(*first, pages);
    if (err == sim::kOk) {
      return sim::kOk;
    }
    // Distinguish a grown defect from a transient error: permanent faults
    // leave the failed block marked bad in the injector.
    bool any_bad = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::int32_t s = *first + static_cast<std::int32_t>(i);
      if (inj.IsBadBlock(sim::IoDevice::kSwapDisk, static_cast<std::uint64_t>(s))) {
        any_bad = true;
      }
    }
    if (!any_bad) {
      return sim::kErrIO;  // transient; run is intact, caller may retry later
    }
    // Retire the bad slots, release the rest of the run, and move the whole
    // cluster to a fresh run elsewhere on the device.
    for (std::size_t i = 0; i < n; ++i) {
      std::int32_t s = *first + static_cast<std::int32_t>(i);
      if (inj.IsBadBlock(sim::IoDevice::kSwapDisk, static_cast<std::uint64_t>(s))) {
        RetireSlot(s);
      } else {
        FreeSlot(s);
      }
    }
    // The data is already committed to being written out: the replacement
    // run may come from the pageout reserve.
    std::int32_t moved = AllocContig(n, /*emergency=*/true);
    if (moved == kNoSlot) {
      *first = kNoSlot;
      sim::Machine& m = disk_.machine();
      ++m.stats().swap_full_events;
      if (m.tracer().enabled()) {
        m.tracer().Instant(m.cost_context(), "swap_full", m.clock().now(), n);
      }
      return sim::kErrNoSwap;
    }
    *first = moved;
  }
  return sim::kErrIO;
}

int SwapDevice::WriteSlotRemapping(std::int32_t* slot,
                                   std::span<const std::byte, sim::kPageSize> src) {
  std::byte* data = const_cast<std::byte*>(src.data());
  std::span<std::byte, sim::kPageSize> page{data, sim::kPageSize};
  std::span<std::span<std::byte, sim::kPageSize>> pages{&page, 1};
  return WriteRunRemapping(slot, pages);
}

}  // namespace swp
