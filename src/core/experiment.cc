#include "core/experiment.h"

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"

namespace dimsum {

RunningStat Replicate(const std::function<double(uint64_t)>& trial,
                      const ReplicationOptions& options, uint64_t base_seed) {
  RunningStat stat;
  ThreadPool& pool = GlobalThreadPool();
  int completed = 0;  // trials folded into `stat`, in seed order
  while (completed < options.max_replications) {
    // The sequential rule cannot stop before min_replications, so the
    // first batch runs them all; later batches speculate one seed per
    // worker. Batch sizing affects only wasted speculation, never the
    // result: folds happen in seed order and stop exactly where the
    // sequential loop would.
    const int want = completed == 0 ? std::max(1, options.min_replications)
                                    : std::max(1, pool.thread_count());
    const int batch = std::min(want, options.max_replications - completed);
    std::vector<double> values(static_cast<std::size_t>(batch));
    pool.ParallelFor(batch, [&](int j) {
      values[static_cast<std::size_t>(j)] =
          trial(base_seed + static_cast<uint64_t>(completed + j));
    });
    for (int j = 0; j < batch; ++j) {
      stat.Add(values[static_cast<std::size_t>(j)]);
      ++completed;
      if (completed >= options.min_replications &&
          stat.WithinRelativeError(kReplicationRelativeError)) {
        return stat;  // remaining speculative trials in `values` discarded
      }
    }
  }
  return stat;
}

}  // namespace dimsum
