// Two-level chunked ("radix") store of an object's resident pages, shared
// by uvm::UvmObject and bsdvm::VmObject. Replaces the seed's
// std::map<pgindex, Page*>: the hot lookup becomes one directory probe plus
// one array index, and a single-entry last-chunk hint makes runs of
// lookups/inserts into the same 2 MB region O(1) with no search at all.
//
// The directory is an ordered std::map so that iteration walks pages in
// ascending page-index order — terminate/flush paths build clustered I/O
// runs from that order and the deterministic stats dumps depend on it.
// Page lookups carry no virtual-time charge (they never did); the
// structure only buys host time. Probes are counted in the stats block
// given at construction (sim::Stats::pagestore_lookups).
//
// Chunks (the 4 KB leaves) are slab-allocated from the machine's
// PoolResource, also given at construction.
#ifndef SRC_PHYS_PAGE_STORE_H_
#define SRC_PHYS_PAGE_STORE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "src/sim/assert.h"
#include "src/sim/pool.h"
#include "src/sim/stats.h"

namespace phys {

struct Page;

class PageStore {
 public:
  static constexpr std::uint64_t kChunkShift = 9;  // 512 pages (2 MB) per leaf
  static constexpr std::uint64_t kChunkPages = 1ull << kChunkShift;
  static constexpr std::uint64_t kChunkMask = kChunkPages - 1;

 private:
  static constexpr std::uint64_t kWordBits = 64;
  static constexpr std::uint64_t kWords = kChunkPages / kWordBits;

  struct Chunk {
    std::array<Page*, kChunkPages> slots{};
    // Bit i is set exactly when slots[i] is occupied; lets iteration jump
    // over empty slots a word at a time.
    std::array<std::uint64_t, kWords> occupied{};
    std::uint32_t live = 0;

    void Set(std::uint64_t slot) { occupied[slot / kWordBits] |= Bit(slot); }
    void Clear(std::uint64_t slot) { occupied[slot / kWordBits] &= ~Bit(slot); }
    // The first occupied slot at or after `slot`, or kChunkPages if none.
    std::uint64_t NextOccupied(std::uint64_t slot) const {
      std::uint64_t w = slot / kWordBits;
      std::uint64_t bits = occupied[w] & (~0ull << (slot % kWordBits));
      while (bits == 0) {
        if (++w == kWords) {
          return kChunkPages;
        }
        bits = occupied[w];
      }
      return w * kWordBits + static_cast<std::uint64_t>(std::countr_zero(bits));
    }
    static std::uint64_t Bit(std::uint64_t slot) { return 1ull << (slot % kWordBits); }
  };
  using Dir = std::map<std::uint64_t, Chunk*>;

 public:
  class const_iterator {
   public:
    using value_type = std::pair<std::uint64_t, Page*>;

    const_iterator() = default;
    const value_type& operator*() const { return cur_; }
    const value_type* operator->() const { return &cur_; }
    const_iterator& operator++() {
      ++slot_;
      Settle();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.dir_it_ == b.dir_it_ && a.slot_ == b.slot_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) { return !(a == b); }

   private:
    friend class PageStore;
    const_iterator(const Dir* dir, Dir::const_iterator it, std::uint64_t slot)
        : dir_(dir), dir_it_(it), slot_(slot) {
      Settle();
    }
    // Advance to the first occupied slot at or after the current position;
    // normalize to (end, 0) when exhausted. The current slot is tested
    // before the bitmap is searched: dense chunks then step as a plain
    // array walk, without a dependent shift/mask/count chain per page.
    void Settle() {
      while (dir_it_ != dir_->end()) {
        const Chunk& c = *dir_it_->second;
        if (slot_ < kChunkPages && c.slots[slot_] == nullptr) {
          slot_ = c.NextOccupied(slot_);
        }
        if (slot_ < kChunkPages) {
          cur_ = {(dir_it_->first << kChunkShift) | slot_, c.slots[slot_]};
          return;
        }
        ++dir_it_;
        slot_ = 0;
      }
      slot_ = 0;
    }

    const Dir* dir_ = nullptr;
    Dir::const_iterator dir_it_{};
    std::uint64_t slot_ = 0;
    value_type cur_{};
  };

  // `pool` and `stats` must outlive the store.
  PageStore(sim::PoolResource& pool, sim::Stats* stats) : stats_(stats), pool_(pool) {}
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  ~PageStore() {
    for (auto& [key, c] : chunks_) {
      FreeChunk(c);
    }
  }

  Page* Lookup(std::uint64_t pgindex) const {
    CountLookup();
    const Chunk* c = FindChunk(pgindex >> kChunkShift);
    return c == nullptr ? nullptr : c->slots[pgindex & kChunkMask];
  }

  bool contains(std::uint64_t pgindex) const { return Lookup(pgindex) != nullptr; }

  // Insert a page at a currently-empty index (std::map::emplace semantics
  // at all call sites: never used to overwrite).
  void emplace(std::uint64_t pgindex, Page* page) {
    SIM_ASSERT(page != nullptr);
    Chunk& c = EnsureChunk(pgindex >> kChunkShift);
    Page*& slot = c.slots[pgindex & kChunkMask];
    SIM_ASSERT_MSG(slot == nullptr, "page store double insert");
    slot = page;
    c.Set(pgindex & kChunkMask);
    ++c.live;
    ++size_;
  }

  // Insert-or-replace (the loan-break path swaps a page in place).
  void Put(std::uint64_t pgindex, Page* page) {
    SIM_ASSERT(page != nullptr);
    Chunk& c = EnsureChunk(pgindex >> kChunkShift);
    Page*& slot = c.slots[pgindex & kChunkMask];
    if (slot == nullptr) {
      c.Set(pgindex & kChunkMask);
      ++c.live;
      ++size_;
    }
    slot = page;
  }

  std::size_t erase(std::uint64_t pgindex) {
    auto it = chunks_.find(pgindex >> kChunkShift);
    if (it == chunks_.end() || it->second->slots[pgindex & kChunkMask] == nullptr) {
      return 0;
    }
    it->second->slots[pgindex & kChunkMask] = nullptr;
    it->second->Clear(pgindex & kChunkMask);
    --it->second->live;
    --size_;
    if (it->second->live == 0) {
      if (hint_key_ == it->first) {
        hint_key_ = kNoChunk;
        hint_chunk_ = nullptr;
      }
      FreeChunk(it->second);
      chunks_.erase(it);
    }
    return 1;
  }

  const_iterator erase(const const_iterator& it) {
    std::uint64_t idx = it->first;
    erase(idx);
    return lower_bound(idx + 1);
  }

  const_iterator find(std::uint64_t pgindex) const {
    CountLookup();
    auto dit = chunks_.find(pgindex >> kChunkShift);
    if (dit == chunks_.end() || dit->second->slots[pgindex & kChunkMask] == nullptr) {
      return end();
    }
    return const_iterator(&chunks_, dit, pgindex & kChunkMask);
  }

  const_iterator lower_bound(std::uint64_t pgindex) const {
    auto dit = chunks_.find(pgindex >> kChunkShift);
    if (dit != chunks_.end()) {
      return const_iterator(&chunks_, dit, pgindex & kChunkMask);
    }
    return const_iterator(&chunks_, chunks_.lower_bound(pgindex >> kChunkShift), 0);
  }

  const_iterator begin() const { return const_iterator(&chunks_, chunks_.begin(), 0); }
  const_iterator end() const { return const_iterator(&chunks_, chunks_.end(), 0); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kNoChunk = ~0ull;

  void CountLookup() const { ++stats_->pagestore_lookups; }

  const Chunk* FindChunk(std::uint64_t key) const {
    if (key == hint_key_) {
      return hint_chunk_;
    }
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      return nullptr;
    }
    hint_key_ = key;
    hint_chunk_ = it->second;  // stable until the chunk is erased
    return hint_chunk_;
  }

  Chunk& EnsureChunk(std::uint64_t key) {
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      it = chunks_.emplace(key, AllocChunk()).first;
    }
    hint_key_ = key;
    hint_chunk_ = it->second;
    return *it->second;
  }

  Chunk* AllocChunk() { return pool_.New<Chunk>(); }

  void FreeChunk(Chunk* c) { pool_.Delete(c); }

  Dir chunks_;
  std::size_t size_ = 0;
  sim::Stats* stats_;
  sim::PoolResource& pool_;
  // Last-chunk cache: valid while the chunk exists (erase invalidates).
  mutable std::uint64_t hint_key_ = kNoChunk;
  mutable const Chunk* hint_chunk_ = nullptr;
};

}  // namespace phys

#endif  // SRC_PHYS_PAGE_STORE_H_
