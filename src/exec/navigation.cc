#include "exec/navigation.h"

#include <list>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace dimsum {
namespace {

/// Server page-buffer capacity (pages) for a session.
constexpr int64_t kServerBufferPages = 512;

/// Simple LRU set of page numbers.
class LruBuffer {
 public:
  explicit LruBuffer(int64_t capacity) : capacity_(capacity) {}

  bool Contains(int64_t page) const { return index_.count(page) > 0; }

  /// Marks `page` most-recently-used, inserting (and possibly evicting) as
  /// needed. Returns true if the page was already resident.
  bool Touch(int64_t page) {
    auto it = index_.find(page);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (capacity_ <= 0) return false;
    order_.push_front(page);
    index_[page] = order_.begin();
    if (static_cast<int64_t>(order_.size()) > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    return false;
  }

 private:
  int64_t capacity_;
  std::list<int64_t> order_;
  std::unordered_map<int64_t, std::list<int64_t>::iterator> index_;
};

struct Session {
  const NavigationSpec& spec;
  const SystemConfig& config;
  NavigationPolicy policy;
  ExecSystem& system;
  SiteRuntime& client;
  SiteRuntime& server;
  DiskExtent extent;
  int64_t pages;
  int object_bytes;
  NavigationResult* result;
};

/// Reads `page` of the navigated relation at the server, honoring the
/// server's session buffer.
sim::Task<void> ServerReadPage(Session& s, LruBuffer& server_buffer,
                               int64_t page) {
  if (server_buffer.Touch(page)) co_return;  // buffer hit: no I/O
  co_await s.server.cpu.Use(s.config.params.DiskCpuMs());
  co_await s.server.disk(s.extent.disk).Read(s.extent.start + page);
  ++s.result->server_disk_reads;
}

sim::Process Navigate(Session& s, bool* done) {
  Rng rng(s.spec.seed);
  LruBuffer client_buffer(s.spec.client_buffer_pages);
  LruBuffer server_buffer(kServerBufferPages);
  const CostParams& p = s.config.params;
  const int object_bytes = s.object_bytes;
  const double request_cpu = p.MsgCpuMs(p.fault_request_bytes);
  const double page_cpu = p.MsgCpuMs(p.page_bytes);
  const double object_cpu = p.MsgCpuMs(object_bytes);
  // CPU cost of dereferencing an object in a resident page.
  const double deref_cpu = p.InstrMs(p.hash_inst + p.compare_inst);

  int64_t current_page = 0;
  for (int step = 0; step < s.spec.num_steps; ++step) {
    // Choose the next object's page.
    if (!rng.Bernoulli(s.spec.locality)) {
      current_page = rng.UniformInt(0, s.pages - 1);
    }
    if (s.policy == NavigationPolicy::kDataShipping) {
      if (client_buffer.Touch(current_page)) {
        ++s.result->client_buffer_hits;
        co_await s.client.cpu.Use(deref_cpu);
        continue;
      }
      // Page fault: synchronous round trip shipping the whole page.
      co_await s.client.cpu.Use(request_cpu);
      co_await s.system.network().Transfer(p.fault_request_bytes);
      co_await s.server.cpu.Use(request_cpu);
      co_await ServerReadPage(s, server_buffer, current_page);
      co_await s.server.cpu.Use(page_cpu);
      co_await s.system.network().Transfer(p.page_bytes);
      co_await s.client.cpu.Use(page_cpu);
      co_await s.client.cpu.Use(deref_cpu);
      ++s.result->page_faults;
      s.result->bytes_on_wire += p.fault_request_bytes + p.page_bytes;
    } else {
      // Query-shipping: RPC per dereference; only the object returns.
      co_await s.client.cpu.Use(request_cpu);
      co_await s.system.network().Transfer(p.fault_request_bytes);
      co_await s.server.cpu.Use(request_cpu);
      co_await ServerReadPage(s, server_buffer, current_page);
      co_await s.server.cpu.Use(deref_cpu);
      co_await s.server.cpu.Use(object_cpu);
      co_await s.system.network().Transfer(object_bytes);
      co_await s.client.cpu.Use(object_cpu);
      ++s.result->object_rpcs;
      s.result->bytes_on_wire += p.fault_request_bytes + object_bytes;
    }
  }
  *done = true;
}

}  // namespace

NavigationResult RunNavigation(const NavigationSpec& spec,
                               const Catalog& catalog,
                               const SystemConfig& config,
                               NavigationPolicy policy) {
  DIMSUM_CHECK_GE(spec.locality, 0.0);
  DIMSUM_CHECK_LT(spec.locality, 1.0 + 1e-9);
  sim::Simulator sim;
  ExecSystem system(sim, config);
  system.LoadData(catalog);
  NavigationResult result;
  Session session{
      spec,
      config,
      policy,
      system,
      system.site(kClientSite),
      system.site(catalog.PrimarySite(spec.relation)),
      system.RelationExtent(spec.relation),
      catalog.relation(spec.relation).Pages(config.params.page_bytes),
      catalog.relation(spec.relation).tuple_bytes,
      &result};
  bool done = false;
  sim.Spawn(Navigate(session, &done));
  sim.Run();
  DIMSUM_CHECK(done);
  result.elapsed_ms = sim.now();
  return result;
}

}  // namespace dimsum
