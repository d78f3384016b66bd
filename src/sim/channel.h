#ifndef DIMSUM_SIM_CHANNEL_H_
#define DIMSUM_SIM_CHANNEL_H_

#include <coroutine>
#include <optional>
#include <utility>

#include "common/check.h"
#include "sim/fifo.h"
#include "sim/simulator.h"

namespace dimsum::sim {

/// Bounded producer/consumer channel. `Put` suspends while the buffer is
/// full; `Get` suspends while it is empty and returns std::nullopt once the
/// channel is closed and drained. A capacity-1 channel between a network
/// producer process and its consumer gives exactly the paper's
/// "producer stays one page ahead of its consumer" pipelining.
template <typename T>
class Channel {
 public:
  Channel(Simulator& sim, size_t capacity) : sim_(sim), capacity_(capacity) {
    DIMSUM_CHECK_GE(capacity, size_t{1});
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  struct PutAwaiter {
    Channel& channel;
    T value;
    bool await_ready() {
      if (channel.buffer_.size() < channel.capacity_) {
        channel.PushAndWakeGetter(std::move(value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      channel.putters_.push_back(Putter{h, std::move(value)});
    }
    void await_resume() const noexcept {}
  };

  struct GetAwaiter {
    Channel& channel;
    std::optional<T> result;
    bool await_ready() {
      if (!channel.buffer_.empty()) {
        result = std::move(channel.buffer_.front());
        channel.buffer_.pop_front();
        channel.AdmitPutter();
        return true;
      }
      if (channel.closed_) {
        result = std::nullopt;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      channel.getters_.push_back(Getter{h, this});
    }
    std::optional<T> await_resume() { return std::move(result); }
  };

  /// Inserts a value, suspending while the channel is full.
  PutAwaiter Put(T value) {
    DIMSUM_CHECK(!closed_);
    return PutAwaiter{*this, std::move(value)};
  }

  /// Removes a value, suspending while the channel is empty; nullopt on a
  /// closed, drained channel.
  GetAwaiter Get() { return GetAwaiter{*this, std::nullopt}; }

  /// Marks the end of the stream and wakes blocked getters.
  void Close() {
    if (closed_) return;
    closed_ = true;
    // No putters can be waiting when Close is called by the producer.
    while (!getters_.empty()) {
      Getter getter = getters_.front();
      getters_.pop_front();
      getter.awaiter->result = std::nullopt;
      sim_.Resume(0.0, getter.handle);
    }
  }

  bool closed() const { return closed_; }
  size_t size() const { return buffer_.size(); }

 private:
  struct Putter {
    std::coroutine_handle<> handle;
    T value;
  };
  struct Getter {
    std::coroutine_handle<> handle;
    GetAwaiter* awaiter;
  };

  /// Adds a value to the buffer; if a getter is blocked, hands it over and
  /// schedules the getter's resumption.
  void PushAndWakeGetter(T value) {
    if (!getters_.empty()) {
      DIMSUM_CHECK(buffer_.empty());
      Getter getter = getters_.front();
      getters_.pop_front();
      getter.awaiter->result = std::move(value);
      sim_.Resume(0.0, getter.handle);
      return;
    }
    buffer_.push_back(std::move(value));
  }

  /// After a slot frees up, admits one blocked putter.
  void AdmitPutter() {
    if (putters_.empty()) return;
    Putter putter = std::move(putters_.front());
    putters_.pop_front();
    PushAndWakeGetter(std::move(putter.value));
    sim_.Resume(0.0, putter.handle);
  }

  Simulator& sim_;
  size_t capacity_;
  bool closed_ = false;
  Fifo<T> buffer_;
  Fifo<Putter> putters_;
  Fifo<Getter> getters_;
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_CHANNEL_H_
