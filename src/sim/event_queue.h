#ifndef DIMSUM_SIM_EVENT_QUEUE_H_
#define DIMSUM_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <vector>

#include "sim/event.h"

namespace dimsum::sim {

/// The simulator's event list: a binary min-heap over (time, seq). Seq is
/// unique per simulator, so the pop order is a strict total order and
/// every run is deterministic.
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
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void Push(Event ev) {
    heap_.push_back(ev);
    SiftUp(heap_.size() - 1);
  }

  /// Time of the earliest event; requires !empty().
  double PeekTime() const { return heap_.front().time; }

  /// Removes and returns the earliest event by (time, seq); requires
  /// !empty(). The caller owns the event: either Dispatch() it or
  /// release it with DestroyPending().
  Event Pop() {
    Event top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return top;
  }

 private:
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
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_EVENT_QUEUE_H_
