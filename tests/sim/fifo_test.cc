#include "sim/fifo.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dimsum::sim {
namespace {

TEST(FifoTest, OrderSurvivesCompaction) {
  // Long interleaved push/pop runs that never drain: the queue compacts
  // whenever popped slots outnumber live ones and must still pop in push
  // order. Move-only items make compaction move rather than copy.
  Rng rng(20261017);
  for (const double push_share : {0.5, 0.52, 0.6}) {
    Fifo<std::unique_ptr<int>> fifo;
    int pushed = 0;
    int popped = 0;
    fifo.push_back(std::make_unique<int>(pushed++));
    for (int op = 0; op < 50000; ++op) {
      if (fifo.size() == 1 || rng.NextDouble() < push_share) {
        fifo.push_back(std::make_unique<int>(pushed++));
      } else {
        ASSERT_EQ(*fifo.front(), popped) << "op " << op;
        fifo.pop_front();
        ++popped;
      }
      ASSERT_FALSE(fifo.empty());
      ASSERT_EQ(fifo.size(), static_cast<std::size_t>(pushed - popped));
    }
    while (!fifo.empty()) {
      ASSERT_EQ(*fifo.front(), popped++);
      fifo.pop_front();
    }
    EXPECT_EQ(popped, pushed);
  }
}

std::vector<int> Items(Fifo<int>& fifo) {
  return std::vector<int>(fifo.begin(), fifo.end());
}

TEST(FifoTest, IterationVisitsLiveItemsOldestFirst) {
  Fifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(Items(fifo), std::vector<int>{});
  for (int i = 0; i < 10; ++i) fifo.push_back(i);
  for (int i = 0; i < 3; ++i) fifo.pop_front();  // popped slots remain
  fifo.push_back(10);
  EXPECT_EQ(Items(fifo), (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10}));
  for (int i = 0; i < 4; ++i) fifo.pop_front();  // compacts
  EXPECT_EQ(Items(fifo), (std::vector<int>{7, 8, 9, 10}));
  while (!fifo.empty()) fifo.pop_front();  // drains
  EXPECT_EQ(Items(fifo), std::vector<int>{});
  fifo.push_back(11);
  EXPECT_EQ(fifo.front(), 11);
  EXPECT_EQ(Items(fifo), std::vector<int>{11});
}

}  // namespace
}  // namespace dimsum::sim
