// Deterministic slab/arena allocation for VM metadata (DESIGN.md §14).
//
// Real UVM keeps metadata allocation off the fault path with the kernel's
// pool(9)-style allocators; the simulator's hot structures (map entries,
// anons, amaps, objects, pv entries, page tables, page-store chunks, swap
// blocks) used to pay a general-purpose heap call each. This header
// provides the replacement:
//
//   Arena         chunked bump allocator; never returns memory until death.
//   PoolResource  size-classed pool: one LIFO freelist per size class over
//                 one Arena, with typed New<T>/Delete for single objects.
//                 Each Machine owns one (Machine::pools()), and every
//                 pooled structure of that machine comes from it.
//   PoolAllocator STL allocator over a PoolResource, for pooling the nodes
//                 of std::list / std::map / std::unordered_map members.
//
// Determinism: each freelist is strictly LIFO — freeing block B and
// allocating the same size class again returns B — and a refill carves its
// slab in ascending address order, so the sequence of blocks a workload
// observes depends only on its own alloc/free order, never on heap layout.
// No pointer value ever feeds back into simulation state (the pool is a
// host-side accelerator).
//
// Virtual time: the pool charges nothing itself. Each allocation site keeps
// its CostCat::kAlloc charge (anon_alloc_ns, map_entry_alloc_ns,
// object_alloc_ns, ...) — that constant-time model is exactly what a slab
// allocator provides, so every table reproduction stays byte-identical.
//
// Teardown: destroying a PoolResource with live blocks is a leak in some
// layer and asserts. The Machine's resource dies with the Machine, after
// every layer built on it.
#ifndef SRC_SIM_POOL_H_
#define SRC_SIM_POOL_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "src/sim/assert.h"

namespace sim {

struct PoolStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t slab_refills = 0;  // slabs carved from the arena
  std::uint64_t live = 0;          // allocs - frees
  std::uint64_t high_water = 0;    // max live ever observed
};

// Chunked bump allocator. Lazy: a fresh Arena owns no memory until the
// first Carve. Chunks are only returned to the heap by the destructor.
class Arena {
 public:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  Arena() = default;
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
    const std::size_t payload = std::max(kChunkBytes, min_bytes);
    auto* raw = static_cast<std::byte*>(::operator new(header + payload));
    auto* h = new (raw) ChunkHeader{chunks_};
    chunks_ = h;
    cursor_ = raw + header;
    limit_ = cursor_ + payload;
    bytes_reserved_ += header + payload;
  }

  ChunkHeader* chunks_ = nullptr;
  std::byte* cursor_ = nullptr;
  std::byte* limit_ = nullptr;
  std::size_t bytes_reserved_ = 0;
};

// Size-classed pool: Allocate/Deallocate are a freelist pop/push on the
// request's size class; an empty freelist refills by carving one slab of
// blocks from the arena.
class PoolResource {
 public:
  // Size classes: 16-byte steps up to 512 B (container nodes, anons, pv
  // entries), 1 KB steps up to kDirectBytes (bucket arrays, page tables,
  // page-store chunks). A class is found by arithmetic, not by search.
  static constexpr std::size_t kSmallStep = 16;
  static constexpr std::size_t kSmallMax = 512;
  static constexpr std::size_t kLargeStep = 1024;
  // Above this, allocation goes straight to the heap: giant one-off blocks
  // (e.g. a huge hash table's bucket array) would pin arena chunks forever.
  static constexpr std::size_t kDirectBytes = 256 * 1024;
  // A refill carves as many blocks as fit in this many bytes, at least one:
  // an 8 KB page table gets exactly one, so no unused table is carved
  // (and made resident on the host) before a pmap needs it.
  static constexpr std::size_t kSlabBytes = 16 * 1024;

  PoolResource() = default;
  PoolResource(const PoolResource&) = delete;
  PoolResource& operator=(const PoolResource&) = delete;

  ~PoolResource() {
    SIM_ASSERT_MSG(st_.live == 0, "slab blocks still live at teardown (leak in owning layer)");
  }

  void* Allocate(std::size_t bytes) {
    Count();
    if (bytes > kDirectBytes) {
      return ::operator new(bytes);
    }
    const std::size_t cls = ClassOf(bytes);
    if (free_[cls] == nullptr) {
      Refill(cls);
    }
    FreeNode* n = free_[cls];
    free_[cls] = n->next;
    return n;
  }

  // LIFO: the very next Allocate of the same size class returns `p` again.
  void Deallocate(void* p, std::size_t bytes) {
    if (p == nullptr) {
      return;
    }
    SIM_ASSERT(st_.live > 0);
    ++st_.frees;
    --st_.live;
    if (bytes > kDirectBytes) {
      ::operator delete(p);
      return;
    }
    FreeNode*& head = free_[ClassOf(bytes)];
    auto* n = static_cast<FreeNode*>(p);
    n->next = head;
    head = n;
  }

  // Typed single objects: placement-construct on New, destroy on Delete.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(alignof(T) <= Arena::kAlign, "over-aligned type needs a custom arena");
    return new (Allocate(sizeof(T))) T(std::forward<Args>(args)...);
  }

  template <typename T>
  void Delete(T* p) {
    p->~T();
    Deallocate(p, sizeof(T));
  }

  // Totals over every block this pool has handed out; for Machine::pools(),
  // the machine's figures that vmbench and bench_fleet print.
  PoolStats Aggregate() const { return st_; }
  std::size_t arena_bytes() const { return arena_.bytes_reserved(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr std::size_t kSmallClasses = kSmallMax / kSmallStep;
  static constexpr std::size_t kClasses = kSmallClasses + kDirectBytes / kLargeStep;

  // Class of a request of 0 < bytes <= kDirectBytes (0 shares class 0).
  static constexpr std::size_t ClassOf(std::size_t bytes) {
    if (bytes <= kSmallMax) {
      return (std::max<std::size_t>(bytes, 1) - 1) / kSmallStep;
    }
    return kSmallClasses + (bytes - 1) / kLargeStep;
  }

  static constexpr std::size_t BlockBytes(std::size_t cls) {
    return cls < kSmallClasses ? (cls + 1) * kSmallStep : (cls - kSmallClasses + 1) * kLargeStep;
  }

  void Refill(std::size_t cls) {
    // One arena carve per slab, threaded back-to-front so Allocate hands
    // blocks out in ascending address order within the slab.
    const std::size_t block = BlockBytes(cls);
    const std::size_t count = std::max<std::size_t>(1, kSlabBytes / block);
    auto* base = static_cast<std::byte*>(arena_.Carve(block * count));
    for (std::size_t i = count; i-- > 0;) {
      auto* n = reinterpret_cast<FreeNode*>(base + i * block);
      n->next = free_[cls];
      free_[cls] = n;
    }
    ++st_.slab_refills;
  }

  void Count() {
    ++st_.allocs;
    if (++st_.live > st_.high_water) {
      st_.high_water = st_.live;
    }
  }

  Arena arena_;
  std::array<FreeNode*, kClasses> free_{};
  PoolStats st_;
};

// STL allocator over a PoolResource.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  explicit PoolAllocator(PoolResource& resource) : resource_(&resource) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : resource_(&other.resource()) {}  // NOLINT

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= Arena::kAlign, "over-aligned type needs a custom arena");
    return static_cast<T*>(resource_->Allocate(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) { resource_->Deallocate(p, n * sizeof(T)); }

  PoolResource& resource() const { return *resource_; }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.resource_ == b.resource_;
  }
  friend bool operator!=(const PoolAllocator& a, const PoolAllocator& b) { return !(a == b); }

 private:
  PoolResource* resource_;
};

}  // namespace sim

#endif  // SRC_SIM_POOL_H_
