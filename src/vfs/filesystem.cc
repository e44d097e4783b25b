#include "src/vfs/filesystem.h"

#include "src/sim/assert.h"

namespace vfs {

void Filesystem::CreateFile(const std::string& name, std::vector<std::byte> contents) {
  SIM_ASSERT_MSG(cache_.Peek(name) == nullptr, "recreate of open file");
  files_[name] = std::move(contents);
}

void Filesystem::FillPattern(const std::string& name, std::size_t off, std::span<std::byte> out) {
  const std::size_t h = std::hash<std::string>{}(name) * 31;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((h + (off + i) * 2654435761u) >> 16);
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
