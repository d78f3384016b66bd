#include "sim/disk.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "sim/trace.h"

namespace dimsum::sim {

ControllerCache::ControllerCache(int capacity) : capacity_(capacity) {
  DIMSUM_CHECK_GE(capacity_, 0);
}

const ControllerCache::Page* ControllerCache::Find(int64_t block) const {
  const int index = IndexOf(block);
  return index < 0 ? nullptr : &ring_[Slot(index)];
}

void ControllerCache::Insert(int64_t block, double available_at) {
  if (capacity_ == 0) return;
  if (ring_.empty()) {
    ring_.resize(capacity_);
    counts_.resize(kBuckets);
  }
  if (const int index = IndexOf(block); index >= 0) {
    Page& page = ring_[Slot(index)];
    page.available_at = std::min(page.available_at, available_at);
    return;
  }
  // When full, the new page takes the oldest one's slot.
  const int slot = Slot(size_);
  if (size_ == capacity_) {
    Uncount(ring_[head_].block);
    if (++head_ == capacity_) head_ = 0;
  } else {
    ++size_;
  }
  ring_[slot] = Page{block, available_at};
  Count(block);
  if (fresh_ < capacity_) ++fresh_;
}

void ControllerCache::Erase(int64_t block) {
  const int index = IndexOf(block);
  if (index < 0) return;
  Uncount(block);
  for (int i = index + 1; i < size_; ++i) ring_[Slot(i - 1)] = ring_[Slot(i)];
  --size_;
}

void ControllerCache::DropDueAfter(double now) {
  // The previous drop left no page due after its own time, and a re-insert
  // only moves a page earlier, so every page inserted before it is due by
  // `now` unless time ran backwards. Only the fresh pages, the newest in
  // insertion order, need a look.
  const int scan = now >= dropped_at_ ? std::min(fresh_, size_) : size_;
  dropped_at_ = now;
  fresh_ = 0;
  int kept = size_ - scan;
  int from = Slot(kept);
  int to = from;
  for (int i = size_ - scan; i < size_; ++i) {
    const Page page = ring_[from];
    if (page.available_at > now) {
      Uncount(page.block);
    } else {
      ring_[to] = page;
      if (++to == capacity_) to = 0;
      ++kept;
    }
    if (++from == capacity_) from = 0;
  }
  size_ = kept;
}

std::vector<ControllerCache::Page> ControllerCache::Pages() const {
  std::vector<Page> pages;
  for (int i = 0; i < size_; ++i) pages.push_back(ring_[Slot(i)]);
  return pages;
}

int ControllerCache::IndexOf(int64_t block) const {
  if (size_ == 0 || counts_[Bucket(block)] == 0) return -1;
  int slot = Slot(size_ - 1);
  for (int index = size_ - 1; index >= 0; --index) {
    if (ring_[slot].block == block) return index;
    slot = (slot == 0 ? capacity_ : slot) - 1;
  }
  return -1;
}

void ControllerCache::Count(int64_t block) {
  uint8_t& count = counts_[Bucket(block)];
  if (count != kSaturated) ++count;
}

void ControllerCache::Uncount(int64_t block) {
  uint8_t& count = counts_[Bucket(block)];
  if (count != kSaturated) --count;
}

Disk::Disk(Simulator& sim, std::string name, const DiskParams& params)
    : sim_(sim), name_(std::move(name)), params_(params),
      cache_(params.cache_pages) {
  DIMSUM_CHECK_GT(params_.pages_per_track, 0);
  DIMSUM_CHECK_GE(params_.pages_per_cylinder, params_.pages_per_track);
  DIMSUM_CHECK_GT(params_.num_cylinders, 0);
  DIMSUM_CHECK_GT(params_.rotation_ms, 0.0);
  // NaN fails these; with no write admitted, Write would block forever.
  DIMSUM_CHECK_GE(params_.settle_ms, 0.0);
  DIMSUM_CHECK_GE(params_.seek_factor_ms, 0.0);
  DIMSUM_CHECK_GE(params_.controller_overhead_ms, 0.0);
  DIMSUM_CHECK_GE(params_.readahead_pages, 0);
  // cache_ has checked cache_pages.
  DIMSUM_CHECK_GE(params_.max_pending_writes, 1);
}

void Disk::ResetStats() {
  reads_ = 0;
  writes_ = 0;
  cache_hits_ = 0;
  busy_ms_ = 0.0;
  wait_ms_ = 0.0;
  seek_ms_ = 0.0;
  rotate_ms_ = 0.0;
  transfer_ms_ = 0.0;
  overhead_ms_ = 0.0;
  readahead_pages_ = 0;
  readahead_aborts_ = 0;
  max_queue_depth_ = 0;
}

void Disk::SubmitRead(int64_t block, std::coroutine_handle<> handle,
                      ReqStats* stats) {
  DIMSUM_CHECK_GE(block, 0);
  DIMSUM_CHECK_LT(block, params_.total_pages());
  ++reads_;
  if (const ControllerCache::Page* page = cache_.Find(block)) {
    // Controller cache hit: served without the arm.
    ++cache_hits_;
    const double available_at = page->available_at;
    const double wait = std::max(0.0, available_at - sim_.now());
    if (stats != nullptr) {
      stats->wait_ms += wait;
      stats->service_ms +=
          params_.transfer_ms() + params_.controller_overhead_ms;
    }
    if (TraceSink* trace = sim_.trace()) {
      trace->Instant(trace_pid_, trace_tid_, "cache-hit", "disk", sim_.now(),
                     {{"block", static_cast<double>(block)},
                      {"wait_ms", wait}});
    }
    ExtendReadAhead(block, std::max(available_at, sim_.now()));
    sim_.Resume(
        wait + params_.transfer_ms() + params_.controller_overhead_ms,
        handle);
    return;
  }
  EnqueueArm(ArmRequest{block, /*is_write=*/false, handle, sim_.now(), stats});
}

void Disk::SubmitWrite(int64_t block) {
  DIMSUM_CHECK_GE(block, 0);
  DIMSUM_CHECK_LT(block, params_.total_pages());
  ++writes_;
  ++pending_writes_;
  // A write makes any cached copy of this page stale.
  cache_.Erase(block);
  EnqueueArm(ArmRequest{block, /*is_write=*/true, {}, sim_.now()});
}

void Disk::EnqueueArm(ArmRequest request) {
  arm_queue_.emplace(Cylinder(request.block), std::move(request));
  const int depth = static_cast<int>(arm_queue_.size());
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
  if (TraceSink* trace = sim_.trace()) {
    trace->CounterSample(trace_pid_, name_ + " queue", sim_.now(),
                         "queue_depth", static_cast<double>(depth));
  }
  DispatchArm();
}

void Disk::DispatchArm() {
  if (arm_busy_ || arm_queue_.empty()) return;
  // Elevator (SCAN): continue in the sweep direction; reverse at the end.
  auto it = arm_queue_.end();
  if (sweep_up_) {
    it = arm_queue_.lower_bound(head_cylinder_);
    if (it == arm_queue_.end()) {
      sweep_up_ = false;
      it = std::prev(arm_queue_.end());
    }
  } else {
    it = arm_queue_.upper_bound(head_cylinder_);
    if (it == arm_queue_.begin()) {
      sweep_up_ = true;
      it = arm_queue_.begin();
    } else {
      it = std::prev(it);
    }
  }
  ArmRequest request = std::move(it->second);
  arm_queue_.erase(it);
  arm_busy_ = true;

  // A non-contiguous arm operation aborts read-ahead in progress: pages the
  // controller has not finished prefetching never arrive.
  if (request.block != stream_next_) AbortPendingReadAhead();

  // The arm is single-service: the in-flight operation lives in members
  // so the completion callback captures only `this` and stays inline in
  // its event (see sim/event.h).
  arm_current_ = std::move(request);
  wait_ms_ += sim_.now() - arm_current_.enqueue_time;
  arm_service_ = ArmServiceTime(arm_current_.block);
  const double total = arm_service_.total();
  if (arm_current_.stats != nullptr) {
    arm_current_.stats->wait_ms += sim_.now() - arm_current_.enqueue_time;
    arm_current_.stats->service_ms += total;
  }
  busy_ms_ += total;
  seek_ms_ += arm_service_.seek;
  rotate_ms_ += arm_service_.rotate;
  transfer_ms_ += arm_service_.transfer;
  overhead_ms_ += arm_service_.overhead;
  if (service_hist_ != nullptr) service_hist_->Add(total);
  head_cylinder_ = Cylinder(arm_current_.block);
  arm_start_ = sim_.now();
  sim_.Call(total, [this] {
    arm_busy_ = false;
    if (TraceSink* trace = sim_.trace()) {
      trace->Complete(trace_pid_, trace_tid_,
                      arm_current_.is_write ? "write" : "read", "disk",
                      arm_start_, sim_.now(),
                      {{"block", static_cast<double>(arm_current_.block)},
                       {"queue_wait_ms", arm_start_ - arm_current_.enqueue_time},
                       {"seek_ms", arm_service_.seek},
                       {"rotate_ms", arm_service_.rotate},
                       {"transfer_ms", arm_service_.transfer}});
      trace->CounterSample(trace_pid_, name_ + " queue", sim_.now(),
                           "queue_depth",
                           static_cast<double>(arm_queue_.size()));
    }
    // Copy out: CompleteArm can re-enter DispatchArm (write-waiter
    // admission), which repopulates arm_current_.
    const ArmRequest finished = arm_current_;
    CompleteArm(finished);
    DispatchArm();
  });
}

Disk::ArmService Disk::ArmServiceTime(int64_t block) const {
  ArmService service;
  const int cylinder = Cylinder(block);
  const int distance = std::abs(cylinder - head_cylinder_);
  if (distance > 0) {
    service.seek =
        params_.settle_ms +
        params_.seek_factor_ms * std::sqrt(static_cast<double>(distance));
  }
  // Rotational latency from the platter's angular position when the head
  // arrives, to the start angle of the target page on its track.
  const double arrive = sim_.now() + service.seek;
  const double angle_now =
      std::fmod(arrive, params_.rotation_ms) / params_.rotation_ms;
  const double target =
      static_cast<double>(block % params_.pages_per_track) /
      static_cast<double>(params_.pages_per_track);
  double rotation_frac = target - angle_now;
  if (rotation_frac < 0.0) rotation_frac += 1.0;
  service.rotate = rotation_frac * params_.rotation_ms;
  service.transfer = params_.transfer_ms();
  service.overhead = params_.controller_overhead_ms;
  return service;
}

void Disk::CompleteArm(const ArmRequest& request) {
  if (request.is_write) {
    DIMSUM_CHECK_GT(pending_writes_, 0);
    --pending_writes_;
    // Admit one blocked writer, if any.
    if (!write_waiters_.empty()) {
      WriteWaiter waiter = write_waiters_.front();
      write_waiters_.pop_front();
      SubmitWrite(waiter.block);
      sim_.Resume(0.0, waiter.handle);
    }
    if (pending_writes_ == 0) {
      for (auto handle : flush_waiters_) sim_.Resume(0.0, handle);
      flush_waiters_.clear();
    }
    return;
  }
  // Read miss completed: start a fresh read-ahead stream behind it.
  cache_.Insert(request.block, sim_.now());
  stream_next_ = request.block + 1;
  stream_time_ = sim_.now() + params_.transfer_ms();
  ExtendReadAhead(request.block, sim_.now());
  sim_.Resume(0.0, request.handle);
}

void Disk::ExtendReadAhead(int64_t block, double from_time) {
  if (stream_next_ < 0 || params_.readahead_pages <= 0) return;
  // Only extend when `block` belongs to the active stream's recent window.
  if (stream_next_ <= block || stream_next_ - block > params_.readahead_pages + 1) {
    return;
  }
  if (stream_time_ < from_time) stream_time_ = from_time;
  const int64_t limit =
      std::min(block + params_.readahead_pages, params_.total_pages() - 1);
  const int64_t first = stream_next_;
  while (stream_next_ <= limit) {
    cache_.Insert(stream_next_, stream_time_);
    ++stream_next_;
    stream_time_ += params_.transfer_ms();
  }
  const int64_t added = stream_next_ - first;
  if (added > 0) {
    readahead_pages_ += static_cast<uint64_t>(added);
    if (TraceSink* trace = sim_.trace()) {
      trace->Instant(trace_pid_, trace_tid_, "readahead", "disk", sim_.now(),
                     {{"pages", static_cast<double>(added)},
                      {"next_block", static_cast<double>(stream_next_)}});
    }
  }
}

void Disk::AbortPendingReadAhead() {
  if (stream_next_ >= 0) ++readahead_aborts_;
  cache_.DropDueAfter(sim_.now());
  stream_next_ = -1;
}

}  // namespace dimsum::sim
