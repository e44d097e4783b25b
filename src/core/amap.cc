#include "src/core/amap.h"

#include <algorithm>
#include <vector>

#include "src/sim/annotations.h"
#include "src/sim/assert.h"

namespace uvm {

Anon* ArrayAmapImpl::Get(std::uint64_t slot) const {
  SIM_ASSERT(slot < slots_.size());
  return slots_[slot];
}

void ArrayAmapImpl::Set(std::uint64_t slot, Anon* anon) {
  SIM_ASSERT(slot < slots_.size());
  if (slots_[slot] != nullptr && anon == nullptr) {
    --count_;
  } else if (slots_[slot] == nullptr && anon != nullptr) {
    ++count_;
  }
  slots_[slot] = anon;
}

void ArrayAmapImpl::ForEach(const std::function<void(std::uint64_t, Anon*)>& fn) const {
  for (std::uint64_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] != nullptr) {
      fn(i, slots_[i]);
    }
  }
}

Anon* HashAmapImpl::Get(std::uint64_t slot) const {
  SIM_ASSERT(slot < nslots_);
  auto it = map_.find(slot);
  return it == map_.end() ? nullptr : it->second;
}

void HashAmapImpl::Set(std::uint64_t slot, Anon* anon) {
  SIM_ASSERT(slot < nslots_);
  if (anon == nullptr) {
    map_.erase(slot);
  } else {
    map_[slot] = anon;
  }
}

void HashAmapImpl::ForEach(const std::function<void(std::uint64_t, Anon*)>& fn) const {
  // Visit slots in ascending order. Callers do work with observable ordering
  // (fork COW, amap teardown frees pages to a LIFO free list), so iteration
  // must not leak unordered_map hash order into simulation results — and the
  // dense ArrayAmapImpl already walks slots ascending, so the two policies
  // stay behaviourally interchangeable.
  std::vector<std::uint64_t> slots;
  slots.reserve(map_.size());
  SIM_ORDERED_OK("collect-only walk; slots sorted before any observable work");
  for (const auto& [slot, anon] : map_) {
    slots.push_back(slot);
  }
  std::sort(slots.begin(), slots.end());
  for (std::uint64_t slot : slots) {
    fn(slot, map_.at(slot));
  }
}

std::unique_ptr<AmapImpl> MakeAmapImpl(AmapImplPolicy policy, std::uint64_t nslots,
                                       sim::PoolResource& hash_nodes) {
  // Threshold for the hybrid policy: beyond 1024 slots (4 MB of address
  // space) the dense array's up-front cost outweighs hash overhead for the
  // sparse mappings large areas typically are.
  constexpr std::uint64_t kHybridThreshold = 1024;
  switch (policy) {
    case AmapImplPolicy::kArray:
      return std::make_unique<ArrayAmapImpl>(nslots);
    case AmapImplPolicy::kHash:
      return std::make_unique<HashAmapImpl>(nslots, hash_nodes);
    case AmapImplPolicy::kHybrid:
      if (nslots > kHybridThreshold) {
        return std::make_unique<HashAmapImpl>(nslots, hash_nodes);
      }
      return std::make_unique<ArrayAmapImpl>(nslots);
  }
  SIM_PANIC("bad amap policy");
}

}  // namespace uvm
