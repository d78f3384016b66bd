#ifndef DIMSUM_CORE_EXPERIMENT_H_
#define DIMSUM_CORE_EXPERIMENT_H_

#include <cstdint>
#include <functional>

#include "common/stats.h"

namespace dimsum {

/// The paper's stopping rule: "experiments were executed repeatedly so
/// that the 90% confidence intervals for all results were within 5%"
/// (CI half-width / mean).
inline constexpr double kReplicationRelativeError = 0.05;

/// Replication control, mirroring the paper's methodology.
struct ReplicationOptions {
  int min_replications = 3;
  int max_replications = 24;
};

/// Runs `trial(seed)` with seeds base_seed, base_seed+1, ... until the 90%
/// confidence interval is within kReplicationRelativeError (or the
/// replication cap is reached) and returns the accumulated statistics.
///
/// Trials run concurrently on the global thread pool (DIMSUM_THREADS) in
/// deterministic speculative batches: a batch of consecutive seeds runs in
/// parallel, results are folded into the statistics in seed order, and the
/// stopping rule is re-checked after each fold — so the returned stats are
/// bit-identical to a strictly sequential run at any thread count. A trial
/// launched speculatively but past the sequential stopping point is
/// discarded. `trial` must therefore be a pure, thread-safe function of
/// its seed.
RunningStat Replicate(const std::function<double(uint64_t)>& trial,
                      const ReplicationOptions& options = {},
                      uint64_t base_seed = 1);

}  // namespace dimsum

#endif  // DIMSUM_CORE_EXPERIMENT_H_
