#ifndef DIMSUM_SIM_FIFO_H_
#define DIMSUM_SIM_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace dimsum::sim {

/// First-in first-out queue on one vector and a head index: the kernel's
/// wait queues and its same-instant event lane. Unlike std::deque, an
/// empty Fifo allocates nothing, and a drained one keeps its capacity for
/// the next burst. Popped slots, and whatever a caller left in them, are
/// destroyed when the queue drains or once they outnumber the live items
/// (then the live items move to the front), so memory stays proportional
/// to the peak live size and each item moves O(1) times amortized.
template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  /// Oldest item; requires !empty().
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }

  void push_back(T item) { items_.push_back(std::move(item)); }

  /// Removes the oldest item; requires !empty().
  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ > items_.size() - head_) {
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
  }

  /// Live items, oldest first.
  auto begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  auto end() { return items_.end(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_FIFO_H_
