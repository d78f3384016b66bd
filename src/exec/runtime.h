#ifndef DIMSUM_EXEC_RUNTIME_H_
#define DIMSUM_EXEC_RUNTIME_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/ids.h"
#include "cost/params.h"
#include "exec/buffer_pool.h"
#include "exec/layout.h"
#include "sim/disk.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/telemetry.h"

namespace dimsum {

/// Runtime configuration of the simulated client-server system.
struct SystemConfig {
  CostParams params;                  // Table 2 settings (incl. NumDisks)
  sim::DiskParams disk_params;        // calibrated disk model
  int num_servers = 1;
  /// Client sites (sites 0..num_clients-1); servers follow at
  /// num_clients..num_clients+num_servers-1. The paper's configuration is
  /// one client; multi-client workloads give every query a home client.
  int num_clients = 1;
  /// Buffer frames per site. The default comfortably fits maximum-
  /// allocation joins on the benchmark relations; restrict it to model
  /// memory pressure from other clients.
  int64_t site_memory_frames = 4096;
  /// External random-read load per server, requests/second (the paper's
  /// multi-client load model; 40/60/70 in Figure 4). Requests are spread
  /// over the server's disks.
  std::map<SiteId, double> server_disk_load_per_sec;

  // --- derived site-numbering helpers -----------------------------------
  int num_sites() const { return num_clients + num_servers; }
  bool IsClientSite(SiteId site) const {
    return site >= 0 && site < num_clients;
  }

  // --- observability (never changes simulation results) -----------------
  /// When non-null, the executor attaches this sink to its simulator and
  /// records virtual-time spans for disks, CPUs, the network link, and
  /// every operator (not owned; must outlive the execution).
  sim::TraceSink* trace = nullptr;
  /// Collect disk service-time and network queueing-delay histograms into
  /// ExecMetrics (off by default: one Histogram::Add per arm op/message).
  bool collect_histograms = false;
  /// Collect per-operator actuals (ExecMetrics::operator_actuals, indexed
  /// by pre-order plan-node id) for EXPLAIN ANALYZE. Pure observation --
  /// clock reads and accumulation only -- so results are bit-identical
  /// with this on or off (asserted by tests).
  bool collect_operator_actuals = false;
  /// Collect per-query causal spans (resource queueing/service splits,
  /// channel waits, fault stalls) into ExecSession per-ticket span sets for
  /// critical-path extraction (core/critical_path.h). Implies the pre-order
  /// operator numbering of collect_operator_actuals. Pure observation --
  /// clock reads and memory writes at existing handoff points -- so
  /// results are bit-identical with this on or off (asserted by tests; see
  /// DESIGN.md §9).
  bool collect_spans = false;
  /// When non-null, the executor attaches this virtual-time utilization
  /// sampler to its simulator and registers per-site CPU/disk/link and
  /// buffer-pool probes (not owned; must outlive the execution). Sampling
  /// reads state at clock-interval boundaries and never schedules an
  /// event, so results are bit-identical with it on or off (see
  /// sim/telemetry.h and DESIGN.md §8).
  sim::TelemetrySampler* telemetry = nullptr;

  // --- fault injection --------------------------------------------------
  /// Deterministic fault schedule (not owned; must outlive the execution).
  /// Null or empty means a healthy run: the executor then takes exactly
  /// its pre-fault code paths, so all existing experiments stay
  /// bit-identical. Crash clauses should target server sites; queries on
  /// a crashed site's resources stall until the restart unless the
  /// workload layer re-optimizes around it (see workload/driver.h).
  const sim::FaultSchedule* faults = nullptr;
};

/// Location of a contiguous on-disk extent within a site.
struct DiskExtent {
  int disk = 0;        // disk index within the site
  int64_t start = 0;   // first block
};

/// One machine: CPU, NumDisks disks, space management, and a buffer pool.
struct SiteRuntime {
  SiteRuntime(sim::Simulator& sim, SiteId id, const SystemConfig& config)
      : id(id),
        cpu(sim, "cpu" + std::to_string(id),
            config.params.CpuTimeFactor(id)),
        memory(sim, config.site_memory_frames) {
    const int num_disks = std::max(1, config.params.num_disks);
    for (int d = 0; d < num_disks; ++d) {
      disks.push_back(std::make_unique<sim::Disk>(
          sim, "disk" + std::to_string(id) + "." + std::to_string(d),
          config.disk_params));
      spaces.emplace_back(config.disk_params);
    }
  }

  int num_disks() const { return static_cast<int>(disks.size()); }
  sim::Disk& disk(int index) {
    DIMSUM_CHECK_GE(index, 0);
    DIMSUM_CHECK_LT(index, num_disks());
    return *disks[index];
  }

  /// Allocates a base-data extent on a specific disk.
  DiskExtent AllocateBase(int disk_index, int64_t pages) {
    DIMSUM_CHECK_LT(disk_index, num_disks());
    return DiskExtent{disk_index, spaces[disk_index].AllocateBase(pages)};
  }

  /// Allocates a temp extent on a specific disk (modulo the disk count);
  /// used to stripe join partitions so that a partition's build and probe
  /// halves share an arm while different partitions use different arms.
  DiskExtent AllocateTempOn(int disk_index, int64_t pages) {
    const int d = disk_index % num_disks();
    return DiskExtent{d, spaces[d].AllocateTemp(pages)};
  }

  double TotalDiskBusyMs() const {
    double total = 0.0;
    for (const auto& disk : disks) total += disk->busy_ms();
    return total;
  }

  SiteId id;
  sim::Resource cpu;
  std::vector<std::unique_ptr<sim::Disk>> disks;
  std::vector<DiskSpace> spaces;
  BufferPool memory;
};

/// The simulated cluster: `num_clients` clients (sites 0..num_clients-1),
/// `num_servers` servers, and a shared network. Loads base relations onto
/// server disks (round-robin across a site's disks) and cached prefixes
/// onto each client's disk(s) per the catalog.
class ExecSystem {
 public:
  ExecSystem(sim::Simulator& sim, const SystemConfig& config);

  /// Places base extents and per-client cache extents per `catalog`. The
  /// catalog's client count must match the configured one.
  void LoadData(const Catalog& catalog);

  SiteRuntime& site(SiteId id) {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, static_cast<SiteId>(sites_.size()));
    return *sites_[id];
  }
  sim::Network& network() { return network_; }
  int num_sites() const { return static_cast<int>(sites_.size()); }
  int num_clients() const { return num_clients_; }
  bool IsClientSite(SiteId site) const {
    return site >= 0 && site < num_clients_;
  }

  /// Extent of the relation's copy stored at `site` (must be one of the
  /// loaded catalog's replica sites for the relation).
  DiskExtent RelationExtent(SiteId site, RelationId id) const {
    return relation_extents_.at({site, id});
  }
  /// Extent of the relation's primary copy (on its first replica site).
  DiskExtent RelationExtent(RelationId id) const {
    return primary_extents_.at(id);
  }
  /// Extent of the copy of shard `shard` of a sharded relation stored at
  /// `site` (must hold one per the loaded catalog's shard map).
  DiskExtent ShardExtent(SiteId site, RelationId id, int shard) const {
    return shard_extents_.at(std::make_tuple(site, id, shard));
  }
  /// Extent of the relation's cached prefix on `client` (only valid when
  /// the catalog caches a non-zero prefix there).
  DiskExtent CacheExtent(SiteId client, RelationId id) const {
    return cache_extents_.at({client, id});
  }

 private:
  std::vector<std::unique_ptr<SiteRuntime>> sites_;
  sim::Network network_;
  int num_clients_;
  /// One base extent per (replica site, relation) copy.
  std::map<std::pair<SiteId, RelationId>, DiskExtent> relation_extents_;
  /// One base extent per (site, relation, shard) copy of sharded
  /// relations.
  std::map<std::tuple<SiteId, RelationId, int>, DiskExtent> shard_extents_;
  std::map<RelationId, DiskExtent> primary_extents_;
  std::map<std::pair<SiteId, RelationId>, DiskExtent> cache_extents_;
  int page_bytes_;
};

}  // namespace dimsum

#endif  // DIMSUM_EXEC_RUNTIME_H_
