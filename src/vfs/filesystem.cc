#include "src/vfs/filesystem.h"

#include <cstdint>

#include "src/sim/assert.h"

namespace vfs {

void Filesystem::CreateFile(const std::string& name, std::vector<std::byte> contents) {
  SIM_ASSERT_MSG(cache_.Peek(name) == nullptr, "recreate of open file");
  files_[name] = std::move(contents);
}

void Filesystem::FillPattern(const std::string& name, std::size_t off, std::span<std::byte> out) {
  // Byte n is bits 16-23 of hash(name) * 31 + n * kStep in 64-bit
  // arithmetic. Those bits depend only on the low 32 bits, so one 32-bit
  // value stepped by kStep yields the same bytes, in a loop the compiler
  // vectorizes; a 64-bit multiply per byte does not vectorize, and that
  // scalar loop's speed depends on code alignment.
  constexpr std::uint32_t kStep = 2654435761u;
  const std::size_t h = std::hash<std::string>{}(name) * 31;
  auto x = static_cast<std::uint32_t>(h + off * kStep);
  for (std::byte& b : out) {
    b = static_cast<std::byte>(x >> 16);
    x += kStep;
  }
}

std::byte Filesystem::PatternByte(const std::string& name, std::size_t off) {
  std::byte b;
  FillPattern(name, off, {&b, 1});
  return b;
}

void Filesystem::CreateFilePattern(const std::string& name, std::size_t size) {
  std::vector<std::byte> data(size);
  FillPattern(name, 0, data);
  CreateFile(name, std::move(data));
}

Vnode* Filesystem::Open(const std::string& name, int* err) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    if (err != nullptr) {
      *err = sim::kErrNoEnt;
    }
    return nullptr;
  }
  return cache_.Get(name, &it->second, err);
}

}  // namespace vfs
