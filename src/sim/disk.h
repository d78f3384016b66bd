#ifndef DIMSUM_SIM_DISK_H_
#define DIMSUM_SIM_DISK_H_

#include <coroutine>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "sim/fifo.h"
#include "sim/simulator.h"
#include "sim/span.h"

namespace dimsum::sim {

/// Disk geometry and timing parameters. The defaults are calibrated (see
/// tests/sim/disk_test.cc and bench/disk_calibration.cc) so that, as in the
/// paper's Fujitsu M2266 configuration [PCV94], a page read costs roughly
/// 3.5 ms sequential and 11.8 ms random.
struct DiskParams {
  /// Pages on one track; the transfer time of a page is
  /// rotation_ms / pages_per_track.
  int pages_per_track = 4;
  /// Pages per cylinder (pages_per_track x tracks per cylinder).
  int pages_per_cylinder = 60;
  int num_cylinders = 5000;
  /// One full platter rotation, ms (~5000 rpm).
  double rotation_ms = 12.0;
  /// Head settle time charged on any seek, ms.
  double settle_ms = 1.0;
  /// Seek time is settle_ms + seek_factor_ms * sqrt(cylinder distance).
  double seek_factor_ms = 0.0345;
  /// Fixed controller/command overhead per request, ms.
  double controller_overhead_ms = 0.5;
  /// Number of pages the controller reads ahead of a sequential stream.
  int readahead_pages = 8;
  /// Controller cache capacity in pages.
  int cache_pages = 64;
  /// Host-side write-behind quota: Write() suspends once this many writes
  /// are outstanding.
  int max_pending_writes = 16;

  int64_t total_pages() const {
    return static_cast<int64_t>(num_cylinders) * pages_per_cylinder;
  }
  double transfer_ms() const { return rotation_ms / pages_per_track; }
};

/// The disk controller's page cache: at most `capacity` pages, each a
/// block and the time it is or becomes available, evicted FIFO by insert
/// (a hit does not refresh a page). It is a ring of `capacity` slots,
/// allocated at the first insert, plus a count of live pages per bucket
/// (`block & 255`): a zero count proves a block absent without a scan.
/// A count saturates at 255 and then stays there, so it never reports a
/// cached block absent for any capacity.
class ControllerCache {
 public:
  struct Page {
    int64_t block;
    double available_at;
    friend bool operator==(const Page&, const Page&) = default;
  };

  /// Requires capacity >= 0; a zero capacity caches nothing.
  explicit ControllerCache(int capacity);

  /// The cached page of `block`, or null.
  const Page* Find(int64_t block) const;
  /// Caches `block` as available at `available_at`. A cached block keeps
  /// its place and the earlier of the two times; otherwise, when the cache
  /// is full, the oldest insert is evicted.
  void Insert(int64_t block, double available_at);
  /// Drops `block`'s page, if cached; the others keep their order.
  void Erase(int64_t block);
  /// Drops every page due after `now`; the others keep their order.
  void DropDueAfter(double now);

  int size() const { return size_; }
  /// The cached pages, oldest insert first.
  std::vector<Page> Pages() const;
  /// The live-page count of `block`'s bucket (255 once saturated).
  int bucket_count(int64_t block) const {
    return counts_.empty() ? 0 : counts_[Bucket(block)];
  }

 private:
  static constexpr std::size_t kBuckets = 256;
  static constexpr uint8_t kSaturated = 255;

  static std::size_t Bucket(int64_t block) {
    return static_cast<std::size_t>(block) & (kBuckets - 1);
  }
  /// Ring slot of the i-th oldest page, 0 <= i <= size_.
  int Slot(int i) const {
    const int slot = head_ + i;
    return slot >= capacity_ ? slot - capacity_ : slot;
  }
  /// Age rank (0 = oldest) of `block`'s page, or -1; scans newest first,
  /// where a streaming reader's prefetched pages sit.
  int IndexOf(int64_t block) const;
  void Count(int64_t block);
  void Uncount(int64_t block);

  int capacity_;
  std::vector<Page> ring_;      // capacity_ slots once allocated
  std::vector<uint8_t> counts_;  // kBuckets counts once allocated
  int head_ = 0;  // slot of the oldest page
  int size_ = 0;
  /// Pages inserted since the previous DropDueAfter (at most capacity_),
  /// and the time it ran: every page inserted before it was due by then.
  int fresh_ = 0;
  double dropped_at_ = 0.0;
};

/// Detailed single-arm disk. Models elevator (SCAN) scheduling, seek as a
/// settle + sqrt(distance) curve, rotational latency derived from the
/// platter's angular position, a controller cache with streaming
/// read-ahead, and host-side write-behind with a flush barrier.
///
/// Reads that hit the controller cache are served without moving the arm
/// but still pay the page transfer serially (so a synchronous sequential
/// reader sees the calibrated per-request cost, ~3.5 ms/page, even when a
/// think-time gap separates its requests). An intervening non-contiguous
/// arm operation aborts not-yet-complete read-ahead (this is what destroys
/// a scan's sequential pattern when join temp I/O interleaves with it --
/// the paper's interference effect).
class Disk {
 public:
  Disk(Simulator& sim, std::string name, const DiskParams& params);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  const std::string& name() const { return name_; }
  const DiskParams& params() const { return params_; }

  /// Reads one page; resumes the caller when the data is available.
  /// `stats`, when non-null, receives the request's queueing/service split
  /// (cache hits count the residual prefetch wait as queueing and the
  /// transfer + controller overhead as service); written with plain memory
  /// stores at the existing submit/dispatch points, never perturbing event
  /// timing.
  auto Read(int64_t block, ReqStats* stats = nullptr) {
    struct Awaiter {
      Disk& disk;
      int64_t block;
      ReqStats* stats;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        disk.SubmitRead(block, h, stats);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, block, stats};
  }

  /// Write-behind page write: completes as soon as the request is accepted
  /// (suspends only when the pending-write quota is exhausted). Use Flush()
  /// to wait for durability.
  auto Write(int64_t block) {
    struct Awaiter {
      Disk& disk;
      int64_t block;
      bool await_ready() {
        if (disk.pending_writes_ < disk.params_.max_pending_writes) {
          disk.SubmitWrite(block);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        disk.write_waiters_.push_back({h, block});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, block};
  }

  /// Waits until all accepted writes have reached the platter.
  auto Flush() {
    struct Awaiter {
      Disk& disk;
      bool await_ready() const noexcept { return disk.pending_writes_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        disk.flush_waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  // --- statistics -------------------------------------------------------
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t cache_hits() const { return cache_hits_; }
  /// Time the arm was busy (excludes cache-hit service).
  double busy_ms() const { return busy_ms_; }
  /// Total time requests spent queued for the arm before their operation
  /// started (excludes service and cache-hit waits).
  double wait_ms() const { return wait_ms_; }
  /// Requests currently queued for the arm (excludes the one in service).
  std::size_t queue_depth() const { return arm_queue_.size(); }
  /// Whether the arm is executing an operation.
  bool in_service() const { return arm_busy_; }
  /// Split of the arm's busy time into its mechanical components
  /// (seek + settle, rotational latency, page transfer, controller
  /// overhead); the four sum to busy_ms().
  double seek_ms() const { return seek_ms_; }
  double rotate_ms() const { return rotate_ms_; }
  double transfer_ms() const { return transfer_ms_; }
  double overhead_ms() const { return overhead_ms_; }
  /// Pages the controller's streaming read-ahead prefetched into its cache.
  uint64_t readahead_pages() const { return readahead_pages_; }
  /// Read-ahead streams aborted by an intervening non-contiguous arm op.
  uint64_t readahead_aborts() const { return readahead_aborts_; }
  /// Deepest the elevator queue ever got.
  int max_queue_depth() const { return max_queue_depth_; }
  double Utilization(double horizon_ms) const {
    return horizon_ms > 0.0 ? busy_ms_ / horizon_ms : 0.0;
  }
  void ResetStats();

  // --- observability ----------------------------------------------------
  /// Routes each arm operation's total service time into `histogram` (not
  /// owned; null disables).
  void set_service_histogram(Histogram* histogram) {
    service_hist_ = histogram;
  }
  /// Assigns this disk's trace track; events are recorded only while the
  /// simulator has a TraceSink attached.
  void SetTraceTrack(int pid, int tid) {
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

 private:
  struct ArmRequest {
    int64_t block;
    bool is_write;
    std::coroutine_handle<> handle;  // null for writes
    double enqueue_time;
    ReqStats* stats = nullptr;  // optional caller-owned split out-param
  };
  struct WriteWaiter {
    std::coroutine_handle<> handle;
    int64_t block;
  };

  /// Mechanical breakdown of one arm operation.
  struct ArmService {
    double seek = 0.0;      // settle + sqrt-curve seek
    double rotate = 0.0;    // rotational latency
    double transfer = 0.0;  // page transfer
    double overhead = 0.0;  // controller/command overhead
    double total() const { return seek + rotate + transfer + overhead; }
  };

  void SubmitRead(int64_t block, std::coroutine_handle<> handle,
                  ReqStats* stats);
  void SubmitWrite(int64_t block);
  void EnqueueArm(ArmRequest request);
  void DispatchArm();
  void CompleteArm(const ArmRequest& request);
  ArmService ArmServiceTime(int64_t block) const;
  void ExtendReadAhead(int64_t block, double from_time);
  void AbortPendingReadAhead();

  int Cylinder(int64_t block) const {
    return static_cast<int>(block / params_.pages_per_cylinder);
  }

  Simulator& sim_;
  std::string name_;
  DiskParams params_;

  // Arm/elevator state.
  bool arm_busy_ = false;
  int head_cylinder_ = 0;
  bool sweep_up_ = true;
  std::multimap<int, ArmRequest> arm_queue_;  // keyed by cylinder
  /// The operation the arm is executing, plus its mechanical breakdown
  /// and start time; valid from DispatchArm until the completion callback
  /// finishes. Kept in members so the completion lambda captures only
  /// `this` (one pointer) and schedules without out-of-line callback
  /// state (see sim/event.h).
  ArmRequest arm_current_{};
  ArmService arm_service_{};
  double arm_start_ = 0.0;

  ControllerCache cache_;
  int64_t stream_next_ = -1;   // next block the read-ahead stream will load
  double stream_time_ = 0.0;   // when stream_next_ becomes available

  // Write-behind bookkeeping.
  int pending_writes_ = 0;
  Fifo<WriteWaiter> write_waiters_;
  std::vector<std::coroutine_handle<>> flush_waiters_;

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t cache_hits_ = 0;
  double busy_ms_ = 0.0;
  double wait_ms_ = 0.0;
  double seek_ms_ = 0.0;
  double rotate_ms_ = 0.0;
  double transfer_ms_ = 0.0;
  double overhead_ms_ = 0.0;
  uint64_t readahead_pages_ = 0;
  uint64_t readahead_aborts_ = 0;
  int max_queue_depth_ = 0;

  Histogram* service_hist_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_DISK_H_
