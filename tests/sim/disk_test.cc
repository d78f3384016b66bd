#include "sim/disk.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace dimsum::sim {
namespace {

Process SequentialReader(Simulator& sim, Disk& disk, int64_t start, int count,
                         double* elapsed) {
  const double begin = sim.now();
  for (int i = 0; i < count; ++i) {
    co_await disk.Read(start + i);
  }
  *elapsed = sim.now() - begin;
}

Process RandomReader(Simulator& sim, Disk& disk, int count, uint64_t seed,
                     double* elapsed) {
  Rng rng(seed);
  const double begin = sim.now();
  for (int i = 0; i < count; ++i) {
    co_await disk.Read(rng.UniformInt(0, disk.params().total_pages() - 1));
  }
  *elapsed = sim.now() - begin;
}

// The paper calibrates its disk to ~3.5 ms per page sequential.
TEST(DiskTest, SequentialReadCalibration) {
  Simulator sim;
  Disk disk(sim, "d", DiskParams{});
  double elapsed = 0.0;
  constexpr int kPages = 2000;
  sim.Spawn(SequentialReader(sim, disk, 0, kPages, &elapsed));
  sim.Run();
  const double per_page = elapsed / kPages;
  EXPECT_NEAR(per_page, 3.5, 0.25) << "sequential ms/page";
}

// ... and ~11.8 ms per page random.
TEST(DiskTest, RandomReadCalibration) {
  Simulator sim;
  Disk disk(sim, "d", DiskParams{});
  double elapsed = 0.0;
  constexpr int kPages = 4000;
  sim.Spawn(RandomReader(sim, disk, kPages, 99, &elapsed));
  sim.Run();
  const double per_page = elapsed / kPages;
  EXPECT_NEAR(per_page, 11.8, 0.6) << "random ms/page";
}

TEST(DiskTest, ReadAheadProducesCacheHits) {
  Simulator sim;
  Disk disk(sim, "d", DiskParams{});
  double elapsed = 0.0;
  sim.Spawn(SequentialReader(sim, disk, 100, 100, &elapsed));
  sim.Run();
  EXPECT_EQ(disk.reads(), 100u);
  // Nearly every page after the first should come from read-ahead.
  EXPECT_GT(disk.cache_hits(), 90u);
}

TEST(DiskTest, DisabledReadAheadMakesSequentialSlow) {
  DiskParams params;
  params.readahead_pages = 0;
  Simulator sim;
  Disk disk(sim, "d", params);
  double elapsed = 0.0;
  constexpr int kPages = 500;
  sim.Spawn(SequentialReader(sim, disk, 0, kPages, &elapsed));
  sim.Run();
  EXPECT_EQ(disk.cache_hits(), 0u);
  // Without read-ahead, each read pays nearly a full rotation.
  EXPECT_GT(elapsed / kPages, 8.0);
}

Process InterleavedReaders(Simulator& sim, Disk& disk, double* elapsed) {
  // Alternate between a sequential stream and a far-away region: the
  // interference destroys the sequential pattern.
  const double begin = sim.now();
  constexpr int kPairs = 200;
  for (int i = 0; i < kPairs; ++i) {
    co_await disk.Read(1000 + i);
    co_await disk.Read(200000 + static_cast<int64_t>(i) * 61);
  }
  *elapsed = sim.now() - begin;
}

TEST(DiskTest, InterferenceBreaksSequentialPattern) {
  Simulator sim;
  Disk disk(sim, "d", DiskParams{});
  double elapsed = 0.0;
  sim.Spawn(InterleavedReaders(sim, disk, &elapsed));
  sim.Run();
  // 400 I/Os; if the sequential half still cost 3.5 ms the total would be
  // ~3 s. Interference should push the average well above that.
  const double per_page = elapsed / 400.0;
  EXPECT_GT(per_page, 8.0);
}

Process WriterThenFlush(Simulator& sim, Disk& disk, int count, double* accept,
                        double* flushed) {
  const double begin = sim.now();
  for (int i = 0; i < count; ++i) {
    co_await disk.Write(50000 + i * 977);  // scattered writes
  }
  *accept = sim.now() - begin;
  co_await disk.Flush();
  *flushed = sim.now() - begin;
}

TEST(DiskTest, WriteBehindAcceptsFasterThanPlatter) {
  Simulator sim;
  Disk disk(sim, "d", DiskParams{});
  double accept = 0.0;
  double flushed = 0.0;
  sim.Spawn(WriterThenFlush(sim, disk, 8, &accept, &flushed));
  sim.Run();
  // 8 writes fit in the write-behind quota: accepted instantly.
  EXPECT_EQ(accept, 0.0);
  EXPECT_GT(flushed, 8 * 3.0);  // but they still cost real arm time
  EXPECT_EQ(disk.writes(), 8u);
}

TEST(DiskTest, WriteQuotaThrottlesWriter) {
  DiskParams params;
  params.max_pending_writes = 2;
  Simulator sim;
  Disk disk(sim, "d", params);
  double accept = 0.0;
  double flushed = 0.0;
  sim.Spawn(WriterThenFlush(sim, disk, 20, &accept, &flushed));
  sim.Run();
  EXPECT_GT(accept, 0.0);  // writer had to wait for the quota
  EXPECT_EQ(disk.writes(), 20u);
  EXPECT_GE(flushed, accept);
}

Process OneRead(Simulator& sim, Disk& disk, int64_t block, double* done) {
  co_await disk.Read(block);
  *done = sim.now();
}

Process OneReadAfter(Simulator& sim, Disk& disk, double start, int64_t block,
                     double* done) {
  co_await sim.Delay(start);
  co_await disk.Read(block);
  *done = sim.now();
}

TEST(DiskTest, ElevatorOrdersByCylinder) {
  // While the arm serves an initial request, three reads at increasing
  // cylinders queue up; the elevator serves them in sweep order regardless
  // of arrival order.
  DiskParams params;
  Simulator sim;
  Disk disk(sim, "d", params);
  double blocker = 0.0;
  double near = 0.0;
  double mid = 0.0;
  double far = 0.0;
  const int64_t ppc = params.pages_per_cylinder;
  sim.Spawn(OneRead(sim, disk, 0, &blocker));  // occupies the arm
  sim.Spawn(OneReadAfter(sim, disk, 0.1, 4000 * ppc, &far));
  sim.Spawn(OneReadAfter(sim, disk, 0.1, 10 * ppc, &near));
  sim.Spawn(OneReadAfter(sim, disk, 0.1, 2000 * ppc, &mid));
  sim.Run();
  EXPECT_LT(blocker, near);
  EXPECT_LT(near, mid);
  EXPECT_LT(mid, far);
}

// Reads `blocks` one after another and records the disk's running
// cache-hit count after each read.
Process ReadEach(Disk& disk, std::vector<int64_t> blocks,
                 std::vector<uint64_t>* hits) {
  for (const int64_t block : blocks) {
    co_await disk.Read(block);
    hits->push_back(disk.cache_hits());
  }
}

TEST(DiskTest, ControllerCacheEvictsOldestInsertFirst) {
  // Five pages on distinct cylinders through a four-page cache. Eviction
  // is FIFO by insertion: a hit does not refresh a page's position.
  DiskParams params;
  params.cache_pages = 4;
  params.readahead_pages = 0;  // only read misses fill the cache
  Simulator sim;
  Disk disk(sim, "d", params);
  const int64_t ppc = params.pages_per_cylinder;
  const int64_t a = 100 * ppc;
  const int64_t b = 200 * ppc;
  const int64_t c = 300 * ppc;
  const int64_t d = 400 * ppc;
  const int64_t e = 500 * ppc;
  std::vector<uint64_t> hits;
  // a b c d fill the cache; a hits; e evicts a (the oldest insert, even
  // though it was just read); a misses and evicts b; c still hits; b
  // misses.
  sim.Spawn(ReadEach(disk, {a, b, c, d, a, e, a, c, b}, &hits));
  sim.Run();
  EXPECT_EQ(hits, (std::vector<uint64_t>{0, 0, 0, 0, 1, 1, 1, 2, 2}));
  EXPECT_EQ(disk.reads(), 9u);
}

Process ReadWriteRead(Disk& disk, int64_t block, std::vector<uint64_t>* hits) {
  co_await disk.Read(block);
  hits->push_back(disk.cache_hits());
  co_await disk.Read(block);
  hits->push_back(disk.cache_hits());
  co_await disk.Write(block);
  co_await disk.Read(block);
  hits->push_back(disk.cache_hits());
  co_await disk.Read(block);
  hits->push_back(disk.cache_hits());
}

TEST(DiskTest, WriteInvalidatesCachedPage) {
  // miss, hit, write, miss (the write dropped the cached copy), then a hit
  // on the copy the re-read cached.
  DiskParams params;
  params.readahead_pages = 0;
  Simulator sim;
  Disk disk(sim, "d", params);
  std::vector<uint64_t> hits;
  sim.Spawn(ReadWriteRead(disk, 7000, &hits));
  sim.Run();
  EXPECT_EQ(hits, (std::vector<uint64_t>{0, 1, 1, 2}));
  EXPECT_EQ(disk.writes(), 1u);
}

Process ReadAheadThenJump(Simulator& sim, Disk& disk, int64_t start,
                          int64_t far, std::vector<uint64_t>* hits,
                          uint64_t* prefetched, uint64_t* aborts) {
  co_await disk.Read(start);  // miss: prefetches start+1.. at 3 ms a page
  *prefetched = disk.readahead_pages();
  co_await sim.Delay(7.0);  // start+1 and start+2 arrive; the rest do not
  co_await disk.Read(far);  // non-contiguous: aborts the stream
  *aborts = disk.readahead_aborts();
  hits->push_back(disk.cache_hits());
  co_await disk.Read(start + 2);  // arrived before the abort: still cached
  hits->push_back(disk.cache_hits());
  co_await disk.Read(start + 3);  // in flight at the abort: dropped
  hits->push_back(disk.cache_hits());
}

TEST(DiskTest, NonContiguousArmOpDropsInFlightReadAhead) {
  DiskParams params;
  ASSERT_EQ(params.transfer_ms(), 3.0);
  ASSERT_EQ(params.readahead_pages, 8);
  Simulator sim;
  Disk disk(sim, "d", params);
  std::vector<uint64_t> hits;
  uint64_t prefetched = 0;
  uint64_t aborts = 0;
  sim.Spawn(ReadAheadThenJump(sim, disk, 1000, 200000, &hits, &prefetched,
                              &aborts));
  sim.Run();
  EXPECT_EQ(prefetched, 8u);
  // The first read had no stream to abort; the jump aborted one.
  EXPECT_EQ(aborts, 1u);
  EXPECT_EQ(hits, (std::vector<uint64_t>{0, 1, 1}));
}

TEST(DiskTest, StatsResetClearsCounters) {
  Simulator sim;
  Disk disk(sim, "d", DiskParams{});
  double elapsed = 0.0;
  sim.Spawn(SequentialReader(sim, disk, 0, 10, &elapsed));
  sim.Run();
  EXPECT_GT(disk.reads(), 0u);
  disk.ResetStats();
  EXPECT_EQ(disk.reads(), 0u);
  EXPECT_EQ(disk.busy_ms(), 0.0);
}

TEST(DiskTest, UtilizationAtFortyRequestsPerSecondIsAboutHalf) {
  // The paper's load experiments: 40 random reads/sec ~ 50% utilization.
  Simulator sim;
  Disk disk(sim, "d", DiskParams{});
  struct LoadGen {
    static Process OneRequest(Disk& disk, int64_t block) {
      co_await disk.Read(block);
    }
    // Open-loop Poisson arrivals: requests are issued at the arrival rate
    // regardless of how long individual requests take.
    static Process Run(Simulator& sim, Disk& disk, double rate_per_sec,
                       double horizon_ms, uint64_t seed) {
      Rng rng(seed);
      while (sim.now() < horizon_ms) {
        co_await sim.Delay(rng.Exponential(1000.0 / rate_per_sec));
        sim.Spawn(OneRequest(
            disk, rng.UniformInt(0, disk.params().total_pages() - 1)));
      }
    }
  };
  constexpr double kHorizon = 120000.0;  // 2 minutes
  sim.Spawn(LoadGen::Run(sim, disk, 40.0, kHorizon, 5));
  sim.Run();
  EXPECT_NEAR(disk.Utilization(kHorizon), 0.5, 0.08);
}

/// The controller cache as Disk kept it before the ring: one vector in
/// insertion order, found newest first, appended to with the oldest page
/// evicted past capacity, and filtered with std::erase_if.
struct VectorCache {
  std::size_t capacity;
  std::vector<ControllerCache::Page> pages;

  ControllerCache::Page* Find(int64_t block) {
    for (auto it = pages.rbegin(); it != pages.rend(); ++it) {
      if (it->block == block) return &*it;
    }
    return nullptr;
  }
  void Insert(int64_t block, double available_at) {
    if (ControllerCache::Page* page = Find(block)) {
      page->available_at = std::min(page->available_at, available_at);
      return;
    }
    pages.push_back({block, available_at});
    if (pages.size() > capacity) pages.erase(pages.begin());
  }
  void Erase(int64_t block) {
    std::erase_if(pages, [block](const auto& page) {
      return page.block == block;
    });
  }
  void DropDueAfter(double now) {
    std::erase_if(pages, [now](const auto& page) {
      return page.available_at > now;
    });
  }
};

/// The cache holds the reference's pages in the same order, and each
/// bucket's count is exact or saturated.
::testing::AssertionResult SameCache(const ControllerCache& cache,
                                     const VectorCache& reference) {
  if (cache.Pages() != reference.pages) {
    return ::testing::AssertionFailure() << "pages differ";
  }
  std::array<int, 256> counts{};
  for (const ControllerCache::Page& page : reference.pages) {
    ++counts[static_cast<std::size_t>(page.block & 255)];
  }
  for (int bucket = 0; bucket < 256; ++bucket) {
    const int count = cache.bucket_count(bucket);
    if (count != counts[bucket] && count != 255) {
      return ::testing::AssertionFailure()
             << "bucket " << bucket << " counts " << count << ", holds "
             << counts[bucket];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Seeded random operation sequences with nondecreasing `now`, checked
/// against VectorCache after every operation: inserts of random blocks
/// (due before, at or after `now`), read-ahead-like runs of consecutive
/// blocks, finds, erases and drops. Blocks come from twice the capacity
/// so pages are evicted and re-inserted; with `one_bucket` every block is
/// a multiple of 256.
void CheckRandomizedOps(int capacity, bool one_bucket) {
  Rng rng(20261020 + static_cast<uint64_t>(capacity));
  const int64_t distinct = 2 * capacity + 8;
  for (int trial = 0; trial < 10; ++trial) {
    ControllerCache cache(capacity);
    VectorCache reference{static_cast<std::size_t>(capacity), {}};
    double now = 0.0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.Bernoulli(0.3)) now += rng.Exponential(3.0);
      const int64_t draw = rng.UniformInt(0, distinct - 1);
      const int64_t block = one_bucket ? draw * 256 : draw;
      const double available_at =
          rng.Bernoulli(0.3) ? now : now + (rng.NextDouble() - 0.25) * 20.0;
      const double kind = rng.NextDouble();
      if (kind < 0.45) {
        cache.Insert(block, available_at);
        reference.Insert(block, available_at);
      } else if (kind < 0.6) {
        const int64_t pages = rng.UniformInt(1, 8);
        for (int64_t i = 0; i < pages; ++i) {
          const int64_t next = one_bucket ? block + 256 * i : block + i;
          cache.Insert(next, available_at + 3.0 * static_cast<double>(i));
          reference.Insert(next, available_at + 3.0 * static_cast<double>(i));
        }
      } else if (kind < 0.75) {
        const ControllerCache::Page* found = cache.Find(block);
        const ControllerCache::Page* expected = reference.Find(block);
        ASSERT_EQ(found == nullptr, expected == nullptr)
            << "capacity " << capacity << " trial " << trial << " op " << op;
        if (found != nullptr) {
          ASSERT_EQ(*found, *expected);
        }
      } else if (kind < 0.85) {
        cache.Erase(block);
        reference.Erase(block);
      } else {
        cache.DropDueAfter(now);
        reference.DropDueAfter(now);
      }
      ASSERT_TRUE(SameCache(cache, reference))
          << "capacity " << capacity << " one_bucket " << one_bucket
          << " trial " << trial << " op " << op;
    }
  }
}

TEST(ControllerCacheDifferentialTest, RandomizedOpsMatchTheVectorCache) {
  for (const int capacity : {0, 1, 4, 64, 300}) {
    CheckRandomizedOps(capacity, /*one_bucket=*/false);
  }
  // 300 pages in one bucket saturate its count.
  CheckRandomizedOps(300, /*one_bucket=*/true);
}

TEST(ControllerCacheTest, DropAtAnEarlierTimeChecksEveryPage) {
  // Only pages inserted since the previous drop can be due after a later
  // time; a drop at an earlier time must look at every page.
  ControllerCache cache(4);
  cache.Insert(7, 10.0);
  cache.DropDueAfter(20.0);
  ASSERT_NE(cache.Find(7), nullptr);
  cache.DropDueAfter(5.0);
  EXPECT_EQ(cache.Find(7), nullptr);
  EXPECT_EQ(cache.size(), 0);
}

// Builds a disk from `params`; dies if the constructor rejects them.
void BuildDisk(const DiskParams& params) {
  Simulator sim;
  Disk disk(sim, "d", params);
}

TEST(DiskDeathTest, RejectsNegativeCachePages) {
  DiskParams params;
  params.cache_pages = -1;
  EXPECT_DEATH(BuildDisk(params), "check failed");
}

TEST(DiskDeathTest, RejectsNegativeReadAhead) {
  DiskParams params;
  params.readahead_pages = -1;
  EXPECT_DEATH(BuildDisk(params), "check failed");
}

TEST(DiskDeathTest, RejectsZeroWriteQuota) {
  // With no write admitted, the first Write would suspend forever.
  DiskParams params;
  params.max_pending_writes = 0;
  EXPECT_DEATH(BuildDisk(params), "check failed");
}

TEST(DiskDeathTest, RejectsNegativeOrNanSettle) {
  DiskParams params;
  params.settle_ms = -1.0;
  EXPECT_DEATH(BuildDisk(params), "check failed");
  params.settle_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(BuildDisk(params), "check failed");
}

TEST(DiskDeathTest, RejectsNegativeOrNanSeekFactor) {
  DiskParams params;
  params.seek_factor_ms = -0.01;
  EXPECT_DEATH(BuildDisk(params), "check failed");
  params.seek_factor_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(BuildDisk(params), "check failed");
}

TEST(DiskDeathTest, RejectsNegativeOrNanControllerOverhead) {
  DiskParams params;
  params.controller_overhead_ms = -0.5;
  EXPECT_DEATH(BuildDisk(params), "check failed");
  params.controller_overhead_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(BuildDisk(params), "check failed");
}

}  // namespace
}  // namespace dimsum::sim
