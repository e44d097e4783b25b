// BSD VM pagers (§6). In BSD VM the pager is a separately allocated
// vm_pager structure pointing at pager-private data (vn_pager) plus a
// global hash table mapping pagers back to objects; the allocation and hash
// costs are charged when a vnode is first mapped. The BSD pager API has the
// VM system allocate the page and the pager merely fill it, and all I/O is
// one page per operation — both properties the paper calls out.
#ifndef SRC_BSDVM_PAGERS_H_
#define SRC_BSDVM_PAGERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "src/phys/phys_mem.h"
#include "src/sim/pool.h"
#include "src/sim/types.h"
#include "src/swap/swap_device.h"
#include "src/vfs/vnode.h"

namespace bsdvm {

class VmObject;

class Pager {
 public:
  virtual ~Pager() = default;

  // Does backing store hold data for this page index?
  virtual bool HasPage(std::uint64_t pgindex) const = 0;
  // Fill an already-allocated page from backing store (one I/O operation).
  // Returns sim::kOk or sim::kErrIO; on error the page is untouched and the
  // backing copy remains valid.
  virtual int GetPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) = 0;
  // Write a page to backing store (one I/O operation). Returns sim::kOk,
  // sim::kErrIO (page stays dirty), or sim::kErrNoSwap.
  virtual int PutPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) = 0;
};

// Pager for vnode-backed objects. Holds a reference to the vnode for the
// life of the object (which, with the object cache, is what pins vnodes and
// causes the suboptimal-recycling conflict described in §4).
class VnodePager : public Pager {
 public:
  VnodePager(vfs::VnodeCache& cache, vfs::Vnode* vn);
  ~VnodePager() override;

  bool HasPage(std::uint64_t pgindex) const override;
  int GetPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) override;
  int PutPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) override;

  vfs::Vnode* vnode() { return vn_; }

 private:
  vfs::VnodeCache& cache_;
  vfs::Vnode* vn_;
};

// Pager for anonymous (internal) objects. Swap space is organized in
// fixed-size swap blocks (32–128 KB in the paper; 64 KB = 16 slots here):
// the first pageout into a block reserves the whole block, contiguously
// when possible — but I/O is still one page per operation, and a page's
// swap location is fixed for the life of the block (no UVM-style
// reassignment).
class SwapPager : public Pager {
 public:
  static constexpr std::uint64_t kBlockPages = 16;

  // Block-map nodes come from `blocks` when given (BsdVm's swap-block
  // slab); a null resource falls back to the heap (standalone tests).
  explicit SwapPager(swp::SwapDevice& sd, sim::PoolResource* blocks = nullptr)
      : sd_(sd), blocks_(BlockAlloc(blocks)) {}
  ~SwapPager() override;

  bool HasPage(std::uint64_t pgindex) const override;
  int GetPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) override;
  // Returns sim::kErrNoSwap when swap space is exhausted. Permanent slot
  // write errors are remapped in place (the block's slot is updated).
  int PutPage(phys::PhysMem& pm, phys::Page* p, std::uint64_t pgindex) override;

  // Drop any backing-store copy of this page (MADV_FREE support).
  void Invalidate(std::uint64_t pgindex);

  // Visit every device slot this pager has reserved, in ascending
  // page-index order. Whole blocks are reserved up front, so a slot may be
  // allocated (`valid == false`) without holding data yet — the audit's
  // swap-ownership check needs both kinds. Read-only.
  void ForEachSlot(const std::function<void(std::int32_t slot, bool valid)>& fn) const;

 private:
  struct SwapBlock {
    std::int32_t slots[kBlockPages];  // kNoSlot when unallocated
    bool valid[kBlockPages] = {};
  };

  SwapBlock* FindBlock(std::uint64_t pgindex);
  const SwapBlock* FindBlock(std::uint64_t pgindex) const;

  using BlockAlloc = sim::PoolAllocator<std::pair<const std::uint64_t, SwapBlock>>;
  using BlockMap = std::map<std::uint64_t, SwapBlock, std::less<std::uint64_t>, BlockAlloc>;

  swp::SwapDevice& sd_;
  BlockMap blocks_;  // keyed by pgindex / kBlockPages
};

}  // namespace bsdvm

#endif  // SRC_BSDVM_PAGERS_H_
