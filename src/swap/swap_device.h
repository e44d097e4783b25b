// Simulated swap partition: an array of page-sized slots with a bitmap
// allocator that supports contiguous-run allocation. Contiguous runs are
// what UVM's aggressive pageout clustering (§6) needs: the pagedaemon
// reassigns dirty anonymous pages to a fresh contiguous run and pushes them
// out in one I/O operation, while BSD VM's swap pager does one I/O per page
// within its fixed per-object swap blocks.
//
// I/O is fallible: every transfer consults the machine's FaultInjector (the
// slot number doubles as the device block address). A permanent write fault
// marks the failed slot *bad* — it is retired from the allocator for the
// lifetime of the device — and the *Remapping write paths transparently
// reallocate the run elsewhere and retry, the way a disk firmware or the
// swap layer's blist handles grown defects.
#ifndef SRC_SWAP_SWAP_DEVICE_H_
#define SRC_SWAP_SWAP_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/assert.h"
#include "src/sim/host_pages.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"
#include "src/sim/types.h"
#include "src/vfs/disk.h"

namespace swp {

inline constexpr std::int32_t kNoSlot = -1;

// The host memory of one frame, as the transfer paths read or write it.
using PageBytes = std::span<std::byte, sim::kPageSize>;
using ConstPageBytes = std::span<const std::byte, sim::kPageSize>;

class SwapDevice {
 public:
  SwapDevice(sim::Machine& machine, std::size_t num_slots)
      : disk_(machine, vfs::Disk::Kind::kSwap),
        slot_lock_(machine, "swap.slots", sim::LockRank::kSwap),
        num_slots_(num_slots),
        used_((num_slots + kWordBits - 1) / kWordBits),
        bad_((num_slots + kWordBits - 1) / kWordBits),
        bytes_(num_slots, sim::HostPages::Residency::kLazy) {
    machine.pressure().RegisterActuator(
        sim::PressureResource::kSwapSlots,
        [this](const sim::PressureEvent& ev) {
          SetBalloonTarget(sim::BalloonTarget(balloon_target_, num_slots_, ev));
        });
  }

  SwapDevice(const SwapDevice&) = delete;
  SwapDevice& operator=(const SwapDevice&) = delete;

  std::size_t total_slots() const { return num_slots_; }
  std::size_t used_slots() const { return used_count_; }
  std::size_t bad_slots() const { return bad_count_; }
  std::size_t free_slots() const { return num_slots_ - used_count_ - bad_count_; }

  // Slots below which only the pageout path may allocate (default 0 =
  // disabled): a reserve of clustering slots so the daemon can always
  // push dirty anonymous memory out, even when normal allocations are
  // being refused. See DESIGN.md §12.
  std::size_t reserved_slots() const { return reserved_slots_; }
  void set_reserved_slots(std::size_t n) { reserved_slots_ = n; }

  // Pressure balloon: slots taken out of service by a pressure plan.
  // Ballooned slots are marked used (never data-bearing ones — only free
  // slots are absorbed; a deficit is absorbed as slots are freed).
  std::size_t balloon_slots() const { return balloon_slots_.size(); }
  std::size_t balloon_target() const { return balloon_target_; }
  void SetBalloonTarget(std::size_t target);

  // Allocate a single slot; kNoSlot when full (or, for non-emergency
  // requests, when only the pageout reserve remains).
  std::int32_t AllocSlot(bool emergency = false);
  // Allocate `n` contiguous slots: the leftmost free run at or after the
  // rotating hint, else the leftmost from slot 0; kNoSlot when none exists.
  std::int32_t AllocContig(std::size_t n, bool emergency = false);
  void FreeSlot(std::int32_t slot);
  void FreeRange(std::int32_t first, std::size_t n);

  // One I/O operation transferring `pages.size()` contiguous slots starting
  // at `first`. Each element of `pages` is the host memory of one frame.
  // Returns sim::kOk or sim::kErrIO; a failed read leaves `pages` untouched,
  // a failed write leaves the slot contents untouched.
  int WriteRun(std::int32_t first, std::span<const ConstPageBytes> pages);
  int ReadRun(std::int32_t first, std::span<const PageBytes> pages);
  // The one-slot read: ReadRun of a single page.
  int ReadSlot(std::int32_t slot, PageBytes dst) { return ReadRun(slot, {&dst, 1}); }

  // Write with bad-block remapping: like WriteRun on `*first`, but when the
  // device reports a *permanent* fault the now-bad slots are retired
  // (stats.bad_slots_remapped), the run is reallocated elsewhere, `*first`
  // is updated, and the write is retried. Returns:
  //   sim::kOk      — data durably written at `*first` (possibly moved);
  //   sim::kErrIO   — transient fault; run still allocated at `*first`,
  //                   caller may retry later;
  //   sim::kErrNoSwap — ran out of replacement slots; `*first` = kNoSlot
  //                   and the original run has been freed.
  int WriteRunRemapping(std::int32_t* first, std::span<const ConstPageBytes> pages);
  // The one-slot version (the BSD swap pager's one-I/O-per-page path).
  int WriteSlotRemapping(std::int32_t* slot, ConstPageBytes src) {
    return WriteRunRemapping(slot, {&src, 1});
  }

  // Both panic on a slot outside [0, total_slots()).
  bool IsUsed(std::int32_t slot) const { return Bit(used_, Index(slot)); }
  bool IsBad(std::int32_t slot) const { return Bit(bad_, Index(slot)); }

 private:
  static constexpr std::size_t kWordBits = 64;
  static bool Bit(const std::vector<std::uint64_t>& map, std::size_t i) {
    return ((map[i / kWordBits] >> (i % kWordBits)) & 1) != 0;
  }
  static void SetBit(std::vector<std::uint64_t>& map, std::size_t i) {
    map[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
  }
  static void ClearBit(std::vector<std::uint64_t>& map, std::size_t i) {
    map[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
  }
  std::size_t Index(std::int32_t slot) const {
    SIM_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < num_slots_);
    return static_cast<std::size_t>(slot);
  }

  std::byte* SlotData(std::int32_t slot) {
    return bytes_.Page(static_cast<std::size_t>(slot)).data();
  }
  // First fit over [from, to), 64 slots per step: claims and returns the
  // first slot of the leftmost run of `want` free slots lying wholly inside
  // the range, or kNoSlot.
  std::int32_t ScanContig(std::size_t from, std::size_t to, std::size_t want);
  // Marks slots [first, first + n) used; returns `first`.
  std::int32_t Claim(std::size_t first, std::size_t n);
  // Retire a slot after a permanent write fault: mark it bad, drop it from
  // the used set, and count the remap.
  void RetireSlot(std::int32_t slot);

  void AbsorbBalloon();   // free slots -> balloon, up to target
  void ReleaseBalloon();  // balloon -> free slots, down to target

  vfs::Disk disk_;
  // Guards the slot bitmap, counts, hint, and balloon. Zero-cost (the I/O
  // costs dominate and the paper charges no swap-map lock); rank kSwap is
  // the bottom of the order, legal under any fault- or pageout-path lock.
  sim::SimLock slot_lock_;
  std::size_t num_slots_;
  // One bit per slot, 64 slots a word; bits past num_slots_ stay clear.
  std::vector<std::uint64_t> used_;
  std::vector<std::uint64_t> bad_;
  // Slot contents, lazily zero-filled: a slot's host page exists only
  // after its first write (sim/host_pages.h).
  sim::HostPages bytes_;
  std::size_t used_count_ = 0;
  std::size_t bad_count_ = 0;
  std::size_t next_hint_ = 0;
  std::size_t reserved_slots_ = 0;
  std::vector<std::int32_t> balloon_slots_;
  std::size_t balloon_target_ = 0;
};

}  // namespace swp

#endif  // SRC_SWAP_SWAP_DEVICE_H_
