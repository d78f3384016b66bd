#ifndef DIMSUM_SIM_SIMULATOR_H_
#define DIMSUM_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/check.h"
#include "sim/event_queue.h"

namespace dimsum::sim {

class Process;
class TelemetrySampler;
class TraceSink;

/// Discrete-event simulation kernel.
///
/// Keeps a virtual clock (milliseconds) and a binary heap of events with
/// a FIFO lane for events due now (see sim/event_queue.h). Events are
/// either coroutine resumptions or plain callbacks, stored inline without
/// heap allocation (sim/event.h). Ties are broken by insertion order, so
/// runs are fully deterministic.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in milliseconds.
  double now() const { return now_; }

  /// Schedules `handle` to be resumed `delay` ms from now. The delay
  /// must be non-negative (NaN fails the check).
  void Resume(double delay, std::coroutine_handle<> handle) {
    DIMSUM_CHECK_GE(delay, 0.0);
    DIMSUM_CHECK(handle);
    Event ev;
    ev.BindCoroutine(handle);
    Push(now_ + delay, ev);
  }

  /// Schedules `fn` to run `delay` ms from now. Trivially copyable
  /// callables up to Event::kInlineBytes are stored in the event itself;
  /// an empty callable (e.g. a default-constructed std::function) fails
  /// here rather than at dispatch. The delay must be non-negative (NaN
  /// fails the check).
  template <typename F>
  void Call(double delay, F&& fn) {
    DIMSUM_CHECK_GE(delay, 0.0);
    Event ev;
    DIMSUM_CHECK(ev.BindCallback(std::forward<F>(fn))) << "empty callback";
    Push(now_ + delay, ev);
  }

  /// Starts a detached process; see sim/task.h.
  void Spawn(Process process);

  /// Starts a detached process and invokes `on_done` when it completes.
  void Spawn(Process process, std::function<void()> on_done);

  /// Processes the next event. Returns false if the queue is empty.
  bool Step() {
    if (queue_.empty()) return false;
    Event event = queue_.Pop();
    DIMSUM_CHECK_GE(event.time, now_);
    // Telemetry samples the interval boundaries the clock is about to
    // cross *before* the event dispatches: state is piecewise-constant
    // between events, so the boundary reads are exact and sampling never
    // schedules an event of its own (see sim/telemetry.h).
    if (telemetry_ != nullptr) SampleTelemetry(event.time);
    now_ = event.time;
    ++processed_;
    event.Dispatch();
    return true;
  }

  /// Runs until no events remain.
  void Run() {
    while (Step()) {
    }
  }

  /// Runs until the clock reaches `time` (events at exactly `time` are
  /// processed) or the queue empties.
  void RunUntil(double time) {
    while (!queue_.empty() && queue_.PeekTime() <= time) Step();
    if (now_ < time) {
      if (telemetry_ != nullptr) SampleTelemetry(time);
      now_ = time;
    }
  }

  // --- kernel counters --------------------------------------------------
  /// Number of events processed so far.
  uint64_t processed_events() const { return processed_; }
  /// Events currently pending.
  std::size_t queue_depth() const { return queue_.size(); }
  /// High-water mark of pending events over the run.
  std::size_t peak_queue_depth() const { return peak_depth_; }

  /// Optional trace sink (see sim/trace.h), not owned. Instrumented
  /// components test `trace()` for null before recording, so a simulator
  /// without a sink pays one predictable branch per event site.
  TraceSink* trace() const { return trace_; }
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Optional telemetry sampler (see sim/telemetry.h), not owned. Like the
  /// trace sink, a simulator without one pays a single predictable branch
  /// per Step; with one attached, sampling is a pure read of simulation
  /// state and never perturbs event order or results.
  TelemetrySampler* telemetry() const { return telemetry_; }
  void set_telemetry(TelemetrySampler* sampler) { telemetry_ = sampler; }

  /// Suspends the awaiting coroutine for `delay` ms of virtual time.
  /// A non-positive delay does not suspend; NaN fails the schedule check.
  auto Delay(double delay) {
    struct Awaiter {
      Simulator& sim;
      double delay;
      bool await_ready() const noexcept { return delay <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) { sim.Resume(delay, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, delay};
  }

 private:
  /// Out-of-line AdvanceTo (TelemetrySampler is incomplete here).
  void SampleTelemetry(double time);

  void Push(double time, Event& ev) {
    ev.time = time;
    ev.seq = next_seq_++;
    // An event due now skips the heap (see EventQueue::PushLane).
    if (time == now_) {
      queue_.PushLane(ev);
    } else {
      queue_.Push(ev);
    }
    if (queue_.size() > peak_depth_) peak_depth_ = queue_.size();
  }

  double now_ = 0.0;
  TraceSink* trace_ = nullptr;
  TelemetrySampler* telemetry_ = nullptr;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  std::size_t peak_depth_ = 0;
  EventQueue queue_;
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_SIMULATOR_H_
