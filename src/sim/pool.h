// Deterministic slab/arena allocation for VM metadata (DESIGN.md §14).
//
// Real UVM keeps metadata allocation off the fault path with the kernel's
// pool(9)-style allocators; the simulator's hot structures (map entries,
// anons, pv entries, page-store chunks, swap blocks) used to pay a
// general-purpose heap call each. This header provides the replacements:
//
//   Arena         chunked bump allocator; never returns memory until death.
//   PoolBase      fixed-size block pool over its own Arena: magazines of
//                 blocks are carved per refill and recycled through a LIFO
//                 freelist.
//   Pool<T>       typed New/Delete on top of PoolBase.
//   PoolResource  variable-size pool: per-size-class LIFO freelists over a
//                 shared Arena (the backing store for PoolAllocator).
//   PoolAllocator STL allocator over a PoolResource, for pooling the nodes
//                 of std::list / std::map / std::unordered_map members.
//   PoolRegistry  per-Machine roster of live pools for stats dumps and
//                 teardown audits.
//
// Determinism: the freelist is strictly LIFO — freeing block B and
// allocating again returns B — and refills carve magazines in ascending
// address order, so the sequence of blocks a workload observes depends only
// on its own alloc/free order, never on heap layout. No pointer value ever
// feeds back into simulation state (pools are host-side accelerators).
//
// Virtual time: pools charge nothing themselves. Each conversion site keeps
// its existing CostCat::kAlloc charge (anon_alloc_ns, map_entry_alloc_ns,
// object_alloc_ns, ...) — that constant-time model is exactly what a slab
// allocator provides, so every table reproduction stays byte-identical.
//
// Teardown: destroying a PoolBase/PoolResource with live blocks is a leak
// in the owning layer and asserts. Owners therefore declare pools before
// the members whose teardown returns blocks to them.
#ifndef SRC_SIM_POOL_H_
#define SRC_SIM_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "src/sim/assert.h"

namespace sim {

struct PoolStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t slab_refills = 0;  // magazines carved from the arena
  std::uint64_t live = 0;          // allocs - frees
  std::uint64_t high_water = 0;    // max live ever observed
};

class PoolBase;
class PoolResource;

// Roster of live pools, in creation order (deterministic). One per Machine;
// dumps and audits walk it instead of tracking globals.
class PoolRegistry {
 public:
  void Register(const PoolBase* pool) { pools_.push_back(pool); }
  void Unregister(const PoolBase* pool) { Remove(pools_, pool); }
  void Register(const PoolResource* res) { resources_.push_back(res); }
  void Unregister(const PoolResource* res) { Remove(resources_, res); }

  // Aggregate stats over every live pool and resource (defined below, after
  // PoolBase / PoolResource).
  PoolStats Aggregate() const;
  template <typename Fn>
  void ForEachPool(Fn&& fn) const;  // creation order
  template <typename Fn>
  void ForEachResource(Fn&& fn) const;

 private:
  template <typename T>
  static void Remove(std::vector<const T*>& v, const T* x) {
    auto it = std::find(v.begin(), v.end(), x);
    SIM_ASSERT(it != v.end());
    v.erase(it);
  }

  std::vector<const PoolBase*> pools_;
  std::vector<const PoolResource*> resources_;
};

// Chunked bump allocator. Lazy: a fresh Arena owns no memory until the
// first Carve. Chunks are only returned to the heap by the destructor.
class Arena {
 public:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes) : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    while (chunks_ != nullptr) {
      ChunkHeader* next = chunks_->next;
      ::operator delete(chunks_);
      chunks_ = next;
    }
  }

  // Bytes are rounded up to kAlign; every returned block is kAlign-aligned.
  void* Carve(std::size_t bytes) {
    bytes = RoundUp(bytes);
    if (static_cast<std::size_t>(limit_ - cursor_) < bytes) {
      NewChunk(bytes);
    }
    void* p = cursor_;
    cursor_ += bytes;
    return p;
  }

  std::size_t bytes_reserved() const { return bytes_reserved_; }

  static constexpr std::size_t RoundUp(std::size_t bytes) {
    return (bytes + kAlign - 1) & ~(kAlign - 1);
  }

 private:
  struct ChunkHeader {
    ChunkHeader* next;
  };

  void NewChunk(std::size_t min_bytes) {
    // Oversized requests get a dedicated chunk; the tail of the previous
    // chunk is abandoned (bounded waste, simpler than chunk lists per size).
    const std::size_t header = RoundUp(sizeof(ChunkHeader));
    const std::size_t payload = std::max(chunk_bytes_, min_bytes);
    auto* raw = static_cast<std::byte*>(::operator new(header + payload));
    auto* h = new (raw) ChunkHeader{chunks_};
    chunks_ = h;
    cursor_ = raw + header;
    limit_ = cursor_ + payload;
    bytes_reserved_ += header + payload;
  }

  std::size_t chunk_bytes_;
  ChunkHeader* chunks_ = nullptr;
  std::byte* cursor_ = nullptr;
  std::byte* limit_ = nullptr;
  std::size_t bytes_reserved_ = 0;
};

// Fixed-size block pool. Get/Put are a freelist pop/push; an empty freelist
// refills by carving one magazine of blocks from the arena.
class PoolBase {
 public:
  static constexpr std::size_t kDefaultMagazine = 64;

  PoolBase(const char* name, std::size_t block_bytes, PoolRegistry* registry = nullptr,
           std::size_t magazine = kDefaultMagazine)
      : name_(name),
        block_bytes_(Arena::RoundUp(std::max(block_bytes, sizeof(FreeNode)))),
        magazine_(magazine == 0 ? 1 : magazine),
        registry_(registry) {
    if (registry_ != nullptr) {
      registry_->Register(this);
    }
  }

  PoolBase(const PoolBase&) = delete;
  PoolBase& operator=(const PoolBase&) = delete;

  ~PoolBase() {
    SIM_ASSERT_MSG(st_.live == 0, "slab blocks still live at teardown (leak in owning layer)");
    if (registry_ != nullptr) {
      registry_->Unregister(this);
    }
  }

  void* Get() {
    if (free_ == nullptr) {
      Refill();
    }
    FreeNode* n = free_;
    free_ = n->next;
    ++st_.allocs;
    if (++st_.live > st_.high_water) {
      st_.high_water = st_.live;
    }
    return n;
  }

  // LIFO: the very next Get returns `p` again.
  void Put(void* p) {
    SIM_ASSERT(st_.live > 0);
    auto* n = static_cast<FreeNode*>(p);
    n->next = free_;
    free_ = n;
    ++st_.frees;
    --st_.live;
  }

  const char* name() const { return name_; }
  const PoolStats& stats() const { return st_; }
  std::size_t arena_bytes() const { return arena_.bytes_reserved(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  void Refill() {
    // One arena carve per magazine; threaded back-to-front so Get hands
    // blocks out in ascending address order within the slab.
    auto* base = static_cast<std::byte*>(arena_.Carve(block_bytes_ * magazine_));
    for (std::size_t i = magazine_; i-- > 0;) {
      auto* n = reinterpret_cast<FreeNode*>(base + i * block_bytes_);
      n->next = free_;
      free_ = n;
    }
    ++st_.slab_refills;
  }

  const char* name_;
  std::size_t block_bytes_;
  std::size_t magazine_;
  PoolRegistry* registry_;
  Arena arena_;
  FreeNode* free_ = nullptr;
  PoolStats st_;
};

// Typed pool: placement-construct on Get, destroy on Put.
template <typename T>
class Pool {
 public:
  explicit Pool(const char* name, PoolRegistry* registry = nullptr,
                std::size_t magazine = PoolBase::kDefaultMagazine)
      : base_(name, sizeof(T), registry, magazine) {
    static_assert(alignof(T) <= Arena::kAlign, "over-aligned type needs a custom arena");
  }

  template <typename... Args>
  T* New(Args&&... args) {
    return new (base_.Get()) T(std::forward<Args>(args)...);
  }

  void Delete(T* p) {
    p->~T();
    base_.Put(p);
  }

  const char* name() const { return base_.name(); }
  const PoolStats& stats() const { return base_.stats(); }

 private:
  PoolBase base_;
};

// Variable-size pool: one LIFO freelist per size class, all carving from a
// shared arena. Backs PoolAllocator, whose containers allocate a small set
// of distinct node/bucket-array sizes — classes are created on demand and
// live for the resource's lifetime.
class PoolResource {
 public:
  // Class granularity: exact 16-byte steps for small blocks (container
  // nodes), 1 KB steps beyond that (bucket arrays, page-store chunks).
  static constexpr std::size_t kSmallStep = 16;
  static constexpr std::size_t kSmallMax = 512;
  static constexpr std::size_t kLargeStep = 1024;
  // Above this, allocation goes straight to the heap: giant one-off blocks
  // (e.g. a huge hash table's bucket array) would pin arena chunks forever.
  static constexpr std::size_t kDirectBytes = 256 * 1024;
  // Per-refill carve target: a magazine is as many blocks as fit in this
  // many bytes (at least one).
  static constexpr std::size_t kSlabBytes = 16 * 1024;

  explicit PoolResource(const char* name, PoolRegistry* registry = nullptr)
      : name_(name), registry_(registry) {
    if (registry_ != nullptr) {
      registry_->Register(this);
    }
  }

  PoolResource(const PoolResource&) = delete;
  PoolResource& operator=(const PoolResource&) = delete;

  ~PoolResource() {
    SIM_ASSERT_MSG(st_.live == 0, "slab blocks still live at teardown (leak in owning layer)");
    if (registry_ != nullptr) {
      registry_->Unregister(this);
    }
  }

  void* Allocate(std::size_t bytes) {
    if (bytes > kDirectBytes) {
      Count();
      return ::operator new(bytes);
    }
    SizeClass& c = ClassFor(BlockFor(bytes));
    if (c.free == nullptr) {
      Refill(c);
    }
    FreeNode* n = c.free;
    c.free = n->next;
    Count();
    return n;
  }

  void Deallocate(void* p, std::size_t bytes) {
    if (p == nullptr) {
      return;
    }
    ++st_.frees;
    SIM_ASSERT(st_.live > 0);
    --st_.live;
    if (bytes > kDirectBytes) {
      ::operator delete(p);
      return;
    }
    SizeClass& c = ClassFor(BlockFor(bytes));
    auto* n = static_cast<FreeNode*>(p);
    n->next = c.free;
    c.free = n;
  }

  const char* name() const { return name_; }
  const PoolStats& stats() const { return st_; }
  std::size_t size_class_count() const { return classes_.size(); }
  std::size_t arena_bytes() const { return arena_.bytes_reserved(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct SizeClass {
    std::size_t block;
    FreeNode* free;
  };

  static std::size_t BlockFor(std::size_t bytes) {
    if (bytes <= kSmallMax) {
      return std::max<std::size_t>(kSmallStep, (bytes + kSmallStep - 1) & ~(kSmallStep - 1));
    }
    return (bytes + kLargeStep - 1) & ~(kLargeStep - 1);
  }

  SizeClass& ClassFor(std::size_t block) {
    auto it = std::lower_bound(classes_.begin(), classes_.end(), block,
                               [](const SizeClass& c, std::size_t b) { return c.block < b; });
    if (it == classes_.end() || it->block != block) {
      it = classes_.insert(it, SizeClass{block, nullptr});
    }
    return *it;
  }

  void Refill(SizeClass& c) {
    const std::size_t count = std::max<std::size_t>(1, kSlabBytes / c.block);
    auto* base = static_cast<std::byte*>(arena_.Carve(c.block * count));
    for (std::size_t i = count; i-- > 0;) {
      auto* n = reinterpret_cast<FreeNode*>(base + i * c.block);
      n->next = c.free;
      c.free = n;
    }
    ++st_.slab_refills;
  }

  void Count() {
    ++st_.allocs;
    if (++st_.live > st_.high_water) {
      st_.high_water = st_.live;
    }
  }

  const char* name_;
  PoolRegistry* registry_;
  Arena arena_;
  std::vector<SizeClass> classes_;  // sorted by block size
  PoolStats st_;
};

// STL allocator over a PoolResource. A default-constructed (null-resource)
// allocator falls back to the heap, so containers in contexts without a
// Machine keep working unchanged.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  PoolAllocator() = default;
  explicit PoolAllocator(PoolResource* resource) : resource_(resource) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : resource_(other.resource()) {}  // NOLINT

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= Arena::kAlign, "over-aligned type needs a custom arena");
    const std::size_t bytes = n * sizeof(T);
    if (resource_ != nullptr) {
      return static_cast<T*>(resource_->Allocate(bytes));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) {
    if (resource_ != nullptr) {
      resource_->Deallocate(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  PoolResource* resource() const { return resource_; }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.resource_ == b.resource_;
  }
  friend bool operator!=(const PoolAllocator& a, const PoolAllocator& b) { return !(a == b); }

 private:
  PoolResource* resource_ = nullptr;
};

inline PoolStats PoolRegistry::Aggregate() const {
  PoolStats total;
  auto add = [&total](const PoolStats& s) {
    total.allocs += s.allocs;
    total.frees += s.frees;
    total.slab_refills += s.slab_refills;
    total.live += s.live;
    total.high_water += s.high_water;
  };
  for (const PoolBase* p : pools_) {
    add(p->stats());
  }
  for (const PoolResource* r : resources_) {
    add(r->stats());
  }
  return total;
}

template <typename Fn>
void PoolRegistry::ForEachPool(Fn&& fn) const {
  for (const PoolBase* p : pools_) {
    fn(*p);
  }
}

template <typename Fn>
void PoolRegistry::ForEachResource(Fn&& fn) const {
  for (const PoolResource* r : resources_) {
    fn(*r);
  }
}

}  // namespace sim

#endif  // SRC_SIM_POOL_H_
