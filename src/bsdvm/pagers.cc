#include "src/bsdvm/pagers.h"

#include "src/sim/assert.h"

namespace bsdvm {

VnodePager::VnodePager(vfs::VnodeCache& cache, vfs::Vnode* vn) : cache_(cache), vn_(vn) {
  cache_.Ref(vn_);
}

VnodePager::~VnodePager() { cache_.Unref(vn_); }

bool VnodePager::HasPage(std::uint64_t pgindex) const {
  return pgindex * sim::kPageSize < vn_->size();
}

int VnodePager::GetPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) {
  if (int err = vn_->ReadPages(pgindex * sim::kPageSize, 1, pm.Data(p)); err != sim::kOk) {
    return err;
  }
  p->dirty = false;
  return sim::kOk;
}

int VnodePager::PutPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) {
  if (int err = vn_->WritePages(pgindex * sim::kPageSize, 1, pm.Data(p)); err != sim::kOk) {
    return err;  // page stays dirty; the pagedaemon retries
  }
  p->dirty = false;
  return sim::kOk;
}

SwapPager::~SwapPager() {
  for (auto& [bi, blk] : blocks_) {
    for (std::uint64_t i = 0; i < kBlockPages; ++i) {
      if (blk.slots[i] != swp::kNoSlot) {
        sd_.FreeSlot(blk.slots[i]);
      }
    }
  }
}

SwapPager::SwapBlock* SwapPager::FindBlock(std::uint64_t pgindex) {
  auto it = blocks_.find(pgindex / kBlockPages);
  return it == blocks_.end() ? nullptr : &it->second;
}

const SwapPager::SwapBlock* SwapPager::FindBlock(std::uint64_t pgindex) const {
  auto it = blocks_.find(pgindex / kBlockPages);
  return it == blocks_.end() ? nullptr : &it->second;
}

bool SwapPager::HasPage(std::uint64_t pgindex) const {
  const SwapBlock* blk = FindBlock(pgindex);
  return blk != nullptr && blk->valid[pgindex % kBlockPages];
}

int SwapPager::GetPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) {
  SwapBlock* blk = FindBlock(pgindex);
  SIM_ASSERT_MSG(blk != nullptr, "swap pager GetPage without data");
  std::uint64_t i = pgindex % kBlockPages;
  SIM_ASSERT(blk->valid[i] && blk->slots[i] != swp::kNoSlot);
  if (int err = sd_.ReadSlot(blk->slots[i], pm.Data(p)); err != sim::kOk) {
    return err;  // slot still holds the data; a refault retries
  }
  p->dirty = false;
  return sim::kOk;
}

int SwapPager::PutPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) {
  std::uint64_t bi = pgindex / kBlockPages;
  std::uint64_t i = pgindex % kBlockPages;
  // PutPage only runs on the pageout path, which may dip into the swap
  // reserve: refusing it here could deadlock the daemon (DESIGN.md §12).
  bool emergency = pm.in_pageout();
  auto it = blocks_.find(bi);
  if (it == blocks_.end()) {
    // First pageout into this 64 KB chunk: try to reserve a whole
    // contiguous swap block for it; under fragmentation fall back to
    // allocating slots one at a time.
    SwapBlock blk;
    std::int32_t base = sd_.AllocContig(kBlockPages, emergency);
    for (std::uint64_t k = 0; k < kBlockPages; ++k) {
      blk.slots[k] = base == swp::kNoSlot ? swp::kNoSlot : base + static_cast<std::int32_t>(k);
    }
    it = blocks_.emplace(bi, blk).first;
  }
  SwapBlock& blk = it->second;
  if (blk.slots[i] == swp::kNoSlot) {
    blk.slots[i] = sd_.AllocSlot(emergency);
    if (blk.slots[i] == swp::kNoSlot) {
      sim::Machine& m = pm.machine();
      ++m.stats().swap_full_events;
      if (m.tracer().enabled()) {
        m.tracer().Instant(sim::CostCat::kPageout, "swap_full", m.clock().now(), 1);
      }
      return sim::kErrNoSwap;
    }
  }
  // A permanent fault on the slot retires it and moves the write elsewhere;
  // blk.slots[i] tracks the replacement (BSD's fixed slot-per-block scheme
  // only survives bad media with this one exception).
  int err = sd_.WriteSlotRemapping(&blk.slots[i], pm.Data(p));
  if (err == sim::kErrNoSwap) {
    // Remapping retired the slot and found no replacement. The resident
    // page (still dirty) is the only copy now.
    blk.valid[i] = false;
    return err;
  }
  if (err != sim::kOk) {
    return err;  // transient: slot intact, page stays dirty for retry
  }
  blk.valid[i] = true;
  p->dirty = false;
  return sim::kOk;
}

void SwapPager::Invalidate(std::uint64_t pgindex) {
  SwapBlock* blk = FindBlock(pgindex);
  if (blk == nullptr) {
    return;
  }
  std::uint64_t i = pgindex % kBlockPages;
  if (blk->slots[i] != swp::kNoSlot) {
    sd_.FreeSlot(blk->slots[i]);
    blk->slots[i] = swp::kNoSlot;
  }
  blk->valid[i] = false;
}

void SwapPager::ForEachSlot(const std::function<void(std::int32_t, bool)>& fn) const {
  for (const auto& [bi, blk] : blocks_) {
    for (std::uint64_t i = 0; i < kBlockPages; ++i) {
      if (blk.slots[i] != swp::kNoSlot) {
        fn(blk.slots[i], blk.valid[i]);
      }
    }
  }
}

}  // namespace bsdvm
