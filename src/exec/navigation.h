#ifndef DIMSUM_EXEC_NAVIGATION_H_
#define DIMSUM_EXEC_NAVIGATION_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "exec/runtime.h"

namespace dimsum {

/// Navigational (pointer-chasing) data access -- the workload class the
/// paper's introduction uses to motivate data-shipping and names as future
/// work ("we intend to analyze the effects of navigation-based access").
///
/// An application at the client dereferences a chain of object references
/// into one relation. With probability `locality` the next object lives on
/// the same page as the current one; otherwise it is drawn uniformly from
/// the relation. Both sides keep an LRU page buffer for the session; the
/// server's holds 512 pages.
struct NavigationSpec {
  RelationId relation = 0;
  int num_steps = 1000;
  /// Probability that the next object is on the current page.
  double locality = 0.9;
  /// Client page-buffer capacity (pages) for faulted-in pages.
  int64_t client_buffer_pages = 64;
  uint64_t seed = 1;
};

/// How object references are resolved.
enum class NavigationPolicy {
  /// Data-shipping: the client faults whole pages in (one synchronous
  /// round trip per miss) and navigates within its buffer; the paper's
  /// "light-weight interaction ... needed to support navigational access".
  kDataShipping,
  /// Query-shipping: every dereference is an RPC to the server, which
  /// returns just the object.
  kQueryShipping,
};

struct NavigationResult {
  double elapsed_ms = 0.0;
  int64_t client_buffer_hits = 0;
  int64_t page_faults = 0;   // DS: pages shipped to the client
  int64_t object_rpcs = 0;   // QS: per-object round trips
  int64_t server_disk_reads = 0;
  int64_t bytes_on_wire = 0;
};

/// Runs a navigation session against a fresh simulated system.
/// Deterministic given spec.seed.
NavigationResult RunNavigation(const NavigationSpec& spec,
                               const Catalog& catalog,
                               const SystemConfig& config,
                               NavigationPolicy policy);

}  // namespace dimsum

#endif  // DIMSUM_EXEC_NAVIGATION_H_
