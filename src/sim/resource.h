#ifndef DIMSUM_SIM_RESOURCE_H_
#define DIMSUM_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "sim/fifo.h"
#include "sim/simulator.h"
#include "sim/span.h"

namespace dimsum::sim {

/// Single-server FIFO queueing resource (the paper models CPUs and the
/// network this way). `co_await resource.Use(t)` waits for the server,
/// holds it for `t` ms of virtual time, and resumes the caller when done.
class Resource {
 public:
  /// `service_scale` multiplies every requested service time; a half-speed
  /// CPU is a Resource with scale 2.0.
  Resource(Simulator& sim, std::string name, double service_scale = 1.0)
      : sim_(sim), name_(std::move(name)), service_scale_(service_scale) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  const std::string& name() const { return name_; }
  double service_scale() const { return service_scale_; }

  /// `stats`, when non-null, receives this request's queueing/service split
  /// (written additively at dispatch with plain memory stores -- never
  /// perturbs event timing). Requests short-circuited by the zero-service
  /// fast path write nothing: they neither queue nor suspend.
  auto Use(double service_ms, ReqStats* stats = nullptr) {
    service_ms *= service_scale_;
    struct Awaiter {
      Resource& resource;
      double service_ms;
      ReqStats* stats;
      bool await_ready() const noexcept { return service_ms <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        resource.Enqueue(h, service_ms, stats);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, service_ms, stats};
  }

  // --- statistics -------------------------------------------------------
  uint64_t total_requests() const { return total_requests_; }
  double busy_ms() const { return busy_ms_; }
  /// Total time requests spent waiting for the server (excludes service).
  double wait_ms() const { return wait_ms_; }
  /// Requests currently waiting (excludes the one in service).
  std::size_t queue_depth() const { return queue_.size(); }
  /// Whether a request currently holds the server.
  bool in_service() const { return busy_; }
  /// Fraction of [0, horizon_ms] the server was busy.
  double Utilization(double horizon_ms) const {
    return horizon_ms > 0.0 ? busy_ms_ / horizon_ms : 0.0;
  }
  void ResetStats() {
    total_requests_ = 0;
    busy_ms_ = 0.0;
    wait_ms_ = 0.0;
  }

  // --- observability ----------------------------------------------------
  /// Routes each request's queueing delay into `histogram` (not owned;
  /// null disables). Used by the network link's queueing-delay histogram.
  void set_wait_histogram(Histogram* histogram) { wait_hist_ = histogram; }
  /// Assigns this resource's trace track; events are recorded only while
  /// the simulator has a TraceSink attached.
  void SetTraceTrack(int pid, int tid) {
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

 private:
  struct Request {
    std::coroutine_handle<> handle;
    double service_ms;
    double enqueue_time;
    ReqStats* stats = nullptr;  ///< optional caller-owned split out-param
  };

  void Enqueue(std::coroutine_handle<> handle, double service_ms,
               ReqStats* stats);
  void Dispatch();

  Simulator& sim_;
  std::string name_;
  double service_scale_ = 1.0;
  bool busy_ = false;
  /// The request currently holding the server, plus its trace figures;
  /// valid from Dispatch until the completion callback finishes. Kept in
  /// members so the completion lambda captures only `this` (one pointer)
  /// and schedules without any out-of-line callback state.
  Request in_service_{};
  double in_service_wait_ = 0.0;
  double in_service_start_ = 0.0;
  Fifo<Request> queue_;
  uint64_t total_requests_ = 0;
  double busy_ms_ = 0.0;
  double wait_ms_ = 0.0;
  Histogram* wait_hist_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
};

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_RESOURCE_H_
