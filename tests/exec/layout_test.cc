#include "exec/layout.h"

#include <gtest/gtest.h>

namespace dimsum {
namespace {

TEST(DiskSpaceTest, BaseExtentsAreContiguousFromZero) {
  DiskSpace space{sim::DiskParams{}};
  EXPECT_EQ(space.AllocateBase(250), 0);
  EXPECT_EQ(space.AllocateBase(250), 250);
  EXPECT_EQ(space.base_pages_used(), 500);
}

TEST(DiskSpaceTest, TempRegionStartsAtMidDisk) {
  sim::DiskParams params;
  DiskSpace space{params};
  const int64_t temp = space.AllocateTemp(10);
  EXPECT_EQ(temp, params.total_pages() / 2);
  EXPECT_GT(temp, space.AllocateBase(100));
  // Temp extents are contiguous too, and never count as base pages.
  EXPECT_EQ(space.AllocateTemp(50), temp + 10);
  EXPECT_EQ(space.temp_pages_used(), 60);
  EXPECT_EQ(space.base_pages_used(), 100);
}

TEST(DiskSpaceDeathTest, OverflowingBaseRegionFails) {
  sim::DiskParams params;
  params.num_cylinders = 10;  // tiny disk
  DiskSpace space{params};
  EXPECT_DEATH(space.AllocateBase(params.total_pages()), "disk full");
}

}  // namespace
}  // namespace dimsum
