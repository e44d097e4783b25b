// UVM's anonymous memory layer (§5.2): anons and amaps. An anon describes
// one page of anonymous memory (resident page and/or swap slot) with a
// reference count; an amap maps a range of virtual pages to anons. This
// two-level scheme replaces BSD VM's unbounded shadow-object chains: a COW
// lookup is one amap probe plus one object probe, and reference counts make
// the collapse operation (and its leaks) unnecessary.
//
// Following §5.4, the amap *interface* is separated from its implementation:
// Amap delegates slot storage to an AmapImpl, with an array implementation
// for dense amaps and a hash implementation for large sparse ones (the
// "hybrid" improvement the paper suggests).
#ifndef SRC_CORE_AMAP_H_
#define SRC_CORE_AMAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/phys/page.h"
#include "src/sim/pool.h"
#include "src/sim/types.h"
#include "src/swap/swap_device.h"

namespace uvm {

// One page of anonymous memory. An anon with ref_count == 1 is privately
// writable; an anon referenced from several amaps is copy-on-write.
struct Anon {
  int ref_count = 1;
  phys::Page* page = nullptr;          // resident page, if any
  std::int32_t swap_slot = swp::kNoSlot;  // backing-store copy, if any
};

// Storage strategy for an amap's slot -> anon table.
class AmapImpl {
 public:
  virtual ~AmapImpl() = default;
  virtual Anon* Get(std::uint64_t slot) const = 0;
  virtual void Set(std::uint64_t slot, Anon* anon) = 0;  // nullptr clears
  virtual std::uint64_t nslots() const = 0;
  virtual std::size_t count() const = 0;  // occupied slots
  virtual void ForEach(const std::function<void(std::uint64_t, Anon*)>& fn) const = 0;
  virtual const char* kind() const = 0;
};

// Dense array implementation: O(1) access, O(nslots) space.
class ArrayAmapImpl : public AmapImpl {
 public:
  explicit ArrayAmapImpl(std::uint64_t nslots) : slots_(nslots, nullptr) {}
  Anon* Get(std::uint64_t slot) const override;
  void Set(std::uint64_t slot, Anon* anon) override;
  std::uint64_t nslots() const override { return slots_.size(); }
  std::size_t count() const override { return count_; }
  void ForEach(const std::function<void(std::uint64_t, Anon*)>& fn) const override;
  const char* kind() const override { return "array"; }

 private:
  std::vector<Anon*> slots_;
  std::size_t count_ = 0;
};

// Sparse hash implementation: O(occupied) space for large, thin amaps.
// Hash nodes (and bucket arrays) come from the machine's slab pool, so
// fork/exit churn recycles them.
class HashAmapImpl : public AmapImpl {
 public:
  using NodeAlloc = sim::PoolAllocator<std::pair<const std::uint64_t, Anon*>>;
  HashAmapImpl(std::uint64_t nslots, sim::PoolResource& nodes)
      : nslots_(nslots), map_(NodeAlloc(nodes)) {}
  Anon* Get(std::uint64_t slot) const override;
  void Set(std::uint64_t slot, Anon* anon) override;
  std::uint64_t nslots() const override { return nslots_; }
  std::size_t count() const override { return map_.size(); }
  void ForEach(const std::function<void(std::uint64_t, Anon*)>& fn) const override;
  const char* kind() const override { return "hash"; }

 private:
  std::uint64_t nslots_;
  std::unordered_map<std::uint64_t, Anon*, std::hash<std::uint64_t>, std::equal_to<std::uint64_t>,
                     NodeAlloc>
      map_;
};

// Policy for choosing an implementation when an amap is created.
enum class AmapImplPolicy : std::uint8_t {
  kArray,   // always array (UVM's original implementation)
  kHash,    // always hash
  kHybrid,  // array for small amaps, hash beyond a threshold
};

struct Amap {
  explicit Amap(std::unique_ptr<AmapImpl> impl_in) : impl(std::move(impl_in)) {}

  int ref_count = 1;
  // Set when the amap is deliberately shared between entries (shared
  // inheritance / map-entry sharing) as opposed to COW-shared; a shared
  // amap must be copied eagerly when a needs-copy clone is taken of it.
  bool shared = false;
  std::unique_ptr<AmapImpl> impl;

  Anon* Get(std::uint64_t slot) const { return impl->Get(slot); }
  void Set(std::uint64_t slot, Anon* anon) { impl->Set(slot, anon); }
};

// `hash_nodes` supplies the slab storage for a hash impl's nodes; the
// array impl ignores it.
std::unique_ptr<AmapImpl> MakeAmapImpl(AmapImplPolicy policy, std::uint64_t nslots,
                                       sim::PoolResource& hash_nodes);

}  // namespace uvm

#endif  // SRC_CORE_AMAP_H_
