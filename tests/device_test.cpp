// Device-mapping tests (§4 "any kernel abstraction memory mappable", §6
// "pager chooses the page" / ROM case): shared mappings read and write the
// device frames directly with no I/O and no page allocation; private
// mappings are COW over the device.
#include <gtest/gtest.h>

#include "src/harness/world.h"

namespace {

using harness::VmKind;
using harness::World;

class DeviceTest : public ::testing::TestWithParam<VmKind> {
 protected:
  World w{GetParam()};
};

TEST_P(DeviceTest, SharedMappingReadsDeviceContents) {
  kern::DeviceMem* dev = w.kernel->RegisterDevice("/dev/fb0", 4);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs attrs;
  attrs.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapDevice(p, &a, dev, attrs));
  // Prime the page-table page for this region, then measure.
  ASSERT_EQ(sim::kOk, w.kernel->TouchRead(p, a, 1));
  std::uint64_t ops = w.machine.stats().disk_ops;
  std::size_t free_before = w.pm.free_pages();
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 2 * sim::kPageSize + 5, b));
  EXPECT_EQ(vfs::Filesystem::PatternByte("/dev/fb0", 2 * sim::kPageSize + 5), b[0]);
  // No I/O and no page allocation: the pager handed out the device frame.
  EXPECT_EQ(ops, w.machine.stats().disk_ops);
  EXPECT_EQ(free_before, w.pm.free_pages());
}

TEST_P(DeviceTest, SharedWritesHitDeviceMemoryDirectly) {
  kern::DeviceMem* dev = w.kernel->RegisterDevice("/dev/fb0", 2);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs attrs;
  attrs.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapDevice(p, &a, dev, attrs));
  w.kernel->TouchWrite(p, a, 1, std::byte{0xEE});
  // Visible in the device's frame itself (what "hardware" would see).
  EXPECT_EQ(std::byte{0xEE}, w.pm.Data(dev->pages[0])[0]);
  // And through a second process's shared mapping.
  kern::Proc* q = w.kernel->Spawn();
  sim::Vaddr a2 = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapDevice(q, &a2, dev, attrs));
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(q, a2, b));
  EXPECT_EQ(std::byte{0xEE}, b[0]);
}

TEST_P(DeviceTest, PrivateMappingIsCowOverDevice) {
  kern::DeviceMem* dev = w.kernel->RegisterDevice("/dev/rom0", 2);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs attrs;  // private by default
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapDevice(p, &a, dev, attrs));
  w.kernel->TouchWrite(p, a, 1, std::byte{0x01});
  // The device frame is untouched; the process sees its private copy.
  EXPECT_EQ(vfs::Filesystem::PatternByte("/dev/rom0", 0), w.pm.Data(dev->pages[0])[0]);
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{0x01}, b[0]);
  w.CheckInvariants();
}

TEST_P(DeviceTest, DevicePagesSurviveMemoryPressure) {
  harness::WorldConfig cfg;
  cfg.ram_pages = 96;
  World w2(GetParam(), cfg);
  kern::DeviceMem* dev = w2.kernel->RegisterDevice("/dev/fb0", 4);
  kern::Proc* p = w2.kernel->Spawn();
  kern::MapAttrs attrs;
  attrs.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w2.kernel->MmapDevice(p, &a, dev, attrs));
  w2.kernel->TouchWrite(p, a, 1, std::byte{0x77});
  sim::Vaddr hog = 0;
  ASSERT_EQ(sim::kOk, w2.kernel->MmapAnon(p, &hog, 120 * sim::kPageSize, kern::MapAttrs{}));
  w2.kernel->TouchWrite(p, hog, 120 * sim::kPageSize, std::byte{1});
  // The device frame was never paged out or repurposed.
  EXPECT_EQ(std::byte{0x77}, w2.pm.Data(dev->pages[0])[0]);
  w2.CheckInvariants();
}

TEST_P(DeviceTest, FaultBeyondDeviceFails) {
  kern::DeviceMem* dev = w.kernel->RegisterDevice("/dev/fb0", 2);
  kern::Proc* p = w.kernel->Spawn();
  kern::MapAttrs attrs;
  attrs.shared = true;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapDevice(p, &a, dev, attrs));
  std::vector<std::byte> b(1);
  EXPECT_EQ(sim::kErrFault, w.kernel->ReadMem(p, a + 2 * sim::kPageSize, b));
}

TEST_P(DeviceTest, RegisterIsIdempotent) {
  kern::DeviceMem* d1 = w.kernel->RegisterDevice("/dev/fb0", 2);
  kern::DeviceMem* d2 = w.kernel->RegisterDevice("/dev/fb0", 8);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(2u, d1->pages.size());
}

TEST_P(DeviceTest, UnmappedDeviceTearsDownCleanly) {
  w.kernel->RegisterDevice("/dev/never_mapped", 4);
  // World teardown must free the frames without panicking.
}

INSTANTIATE_TEST_SUITE_P(BothVms, DeviceTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
