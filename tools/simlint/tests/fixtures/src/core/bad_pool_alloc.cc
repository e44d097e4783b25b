// Fixture: naked heap allocations of pool-owned metadata types that must
// be flagged — machine.pools().New<T>() is the only legal allocator in src/.
#include "src/sim/rng.h"

namespace uvm {
struct Anon {};
struct Amap {};
}  // namespace uvm
namespace bsdvm {
class VmObject {};
}  // namespace bsdvm
namespace mmu {
struct PvEntry {};
struct PtTable {};
}  // namespace mmu

namespace core {

uvm::Anon* LeakAnon() {
  return new uvm::Anon();  // LINE-NAKED-NEW-ANON
}

uvm::Amap* LeakAmap() {
  return new uvm::Amap;  // LINE-NAKED-NEW-AMAP
}

void* LeakObject() {
  return new bsdvm::VmObject();  // LINE-NAKED-NEW-OBJECT
}

auto LeakUnique() {
  return std::make_unique<uvm::Anon>();  // LINE-NAKED-MAKE-UNIQUE
}

void* LeakPvEntry() {
  return new mmu::PvEntry{};  // LINE-NAKED-NEW-PV
}

void* LeakPageTable() {
  return new mmu::PtTable();  // LINE-NAKED-NEW-PTTABLE
}

}  // namespace core
