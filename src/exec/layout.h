#ifndef DIMSUM_EXEC_LAYOUT_H_
#define DIMSUM_EXEC_LAYOUT_H_

#include <cstdint>

#include "common/check.h"
#include "sim/disk.h"

namespace dimsum {

/// Block allocator for one disk. Base data (relations, client-cache copies)
/// grows contiguously from block 0; temporary extents (join partitions)
/// grow from the middle of the disk, so base scans and temp I/O live in
/// different disk regions and interleaving them costs seeks -- the
/// contention/interference effect central to the paper's Section 4.2.2.
class DiskSpace {
 public:
  explicit DiskSpace(const sim::DiskParams& params)
      : capacity_(params.total_pages()),
        temp_start_(capacity_ / 2),
        next_base_(0),
        next_temp_(capacity_ / 2) {}

  /// Allocates a contiguous base-data extent; returns its first block.
  int64_t AllocateBase(int64_t pages) {
    DIMSUM_CHECK_GT(pages, 0);
    const int64_t start = next_base_;
    next_base_ += pages;
    DIMSUM_CHECK_LE(next_base_, temp_start_) << "disk full (base region)";
    return start;
  }

  /// Allocates a contiguous temporary extent; returns its first block.
  int64_t AllocateTemp(int64_t pages) {
    DIMSUM_CHECK_GT(pages, 0);
    const int64_t start = next_temp_;
    next_temp_ += pages;
    DIMSUM_CHECK_LE(next_temp_, capacity_) << "disk full (temp region)";
    return start;
  }

  int64_t base_pages_used() const { return next_base_; }
  int64_t temp_pages_used() const { return next_temp_ - temp_start_; }

 private:
  int64_t capacity_;
  int64_t temp_start_;
  int64_t next_base_;
  int64_t next_temp_;
};

}  // namespace dimsum

#endif  // DIMSUM_EXEC_LAYOUT_H_
