#ifndef DIMSUM_SIM_EVENT_QUEUE_H_
#define DIMSUM_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <vector>

#include "sim/event.h"
#include "sim/fifo.h"

namespace dimsum::sim {

/// The simulator's event list: a binary min-heap over (time, seq), plus a
/// FIFO lane that takes events due at the current instant (half or more
/// of all events) for a push and a pop instead of two sifts. Seq is
/// unique per simulator, so (time, seq) is a strict total order. Pop takes
/// the earlier of the lane head and the heap top, which is exactly what
/// one heap holding both would pop, since the lane stays sorted (see
/// PushLane); every run is deterministic.
///
/// The sifts are hand-written rather than std::push_heap/std::pop_heap:
/// they hold the moving event in a local and copy each displaced parent or
/// child once. The std:: version measured slower end to end (DESIGN.md §7).
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    for (Event& ev : heap_) ev.DestroyPending();
    for (Event& ev : lane_) ev.DestroyPending();
  }

  bool empty() const { return heap_.empty() && lane_.empty(); }
  std::size_t size() const { return heap_.size() + lane_.size(); }

  /// Adds an event to the heap.
  void Push(Event ev) {
    heap_.push_back(ev);
    SiftUp(heap_.size() - 1);
  }

  /// Appends an event to the same-instant lane. Requires `ev` to be no
  /// earlier by (time, seq) than any event already in the lane. The
  /// simulator sends here only events due at its current time: they get
  /// rising seq, and its clock cannot pass a pending lane event, so the
  /// lane drains before the clock advances.
  void PushLane(Event ev) { lane_.push_back(ev); }

  /// Time of the earliest event; requires !empty().
  double PeekTime() const {
    return LaneFirst() ? lane_.front().time : heap_.front().time;
  }

  /// Removes and returns the earliest event by (time, seq); requires
  /// !empty(). The caller owns the event: either Dispatch() it or
  /// release it with DestroyPending().
  Event Pop() {
    if (LaneFirst()) {
      const Event head = lane_.front();
      lane_.pop_front();
      return head;
    }
    Event top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return top;
  }

 private:
  /// Whether the earliest event is the lane head; requires !empty().
  bool LaneFirst() const {
    return !lane_.empty() &&
           (heap_.empty() || EarlierThan(lane_.front(), heap_.front()));
  }

  void SiftUp(std::size_t i) {
    Event ev = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!EarlierThan(ev, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  void SiftDown(std::size_t i) {
    Event ev = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t smallest = i;
      const std::size_t left = 2 * i + 1;
      const std::size_t right = 2 * i + 2;
      const Event* best = &ev;
      if (left < n && EarlierThan(heap_[left], *best)) {
        smallest = left;
        best = &heap_[left];
      }
      if (right < n && EarlierThan(heap_[right], *best)) {
        smallest = right;
      }
      if (smallest == i) break;
      heap_[i] = heap_[smallest];
      i = smallest;
    }
    heap_[i] = ev;
  }

  std::vector<Event> heap_;
  Fifo<Event> lane_;
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_EVENT_QUEUE_H_
