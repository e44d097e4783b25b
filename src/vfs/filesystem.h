// The in-memory "on disk" filesystem: a flat namespace of files whose
// contents live in host memory but whose access is charged through the
// simulated Disk. Open() returns referenced vnodes through the VnodeCache.
#ifndef SRC_VFS_FILESYSTEM_H_
#define SRC_VFS_FILESYSTEM_H_

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/machine.h"
#include "src/vfs/disk.h"
#include "src/vfs/vnode.h"

namespace vfs {

class Filesystem {
 public:
  Filesystem(sim::Machine& machine, std::size_t max_vnodes)
      : disk_(machine, Disk::Kind::kFilesystem), cache_(machine, disk_, max_vnodes) {}

  // Create a file with the given contents; replaces any existing file.
  void CreateFile(const std::string& name, std::vector<std::byte> contents);
  // Create a file of `size` bytes filled with a deterministic pattern
  // derived from the name and byte offset (tests verify reads against it).
  void CreateFilePattern(const std::string& name, std::size_t size);

  // Open a file, returning a referenced vnode (nullptr if absent or the
  // vnode table is exhausted; `err` distinguishes kErrNoEnt from
  // kErrNoVnode). Callers must Close() when done.
  Vnode* Open(const std::string& name, int* err = nullptr);
  void Close(Vnode* vn) { cache_.Unref(vn); }

  bool Exists(const std::string& name) const { return files_.contains(name); }
  // The pattern bytes of file `name` from byte `off` on, written to `out`.
  // The name is hashed once per call, not once per byte.
  static void FillPattern(const std::string& name, std::size_t off, std::span<std::byte> out);
  // Expected byte at `off` of a pattern file (for content verification):
  // FillPattern for one byte.
  static std::byte PatternByte(const std::string& name, std::size_t off);

  VnodeCache& cache() { return cache_; }
  Disk& disk() { return disk_; }

 private:
  Disk disk_;
  VnodeCache cache_;
  std::unordered_map<std::string, std::vector<std::byte>> files_;
};

}  // namespace vfs

#endif  // SRC_VFS_FILESYSTEM_H_
