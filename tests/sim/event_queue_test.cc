#include "sim/event_queue.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dimsum::sim {
namespace {

/// An inert event: a coroutine-kind target that is never dispatched, so
/// order tests can push/pop freely with no cleanup obligations.
Event MakeEvent(double time, uint64_t seq) {
  Event ev;
  ev.time = time;
  ev.seq = seq;
  return ev;
}

std::pair<double, uint64_t> Key(const Event& ev) {
  return {ev.time, ev.seq};
}

TEST(EventQueueTest, PopsInTimeThenSeqOrder) {
  EventQueue queue;
  queue.Push(MakeEvent(5.0, 0));
  queue.Push(MakeEvent(1.0, 1));
  queue.Push(MakeEvent(5.0, 2));
  queue.Push(MakeEvent(0.5, 3));
  ASSERT_EQ(queue.size(), 4u);
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{0.5, 3}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{1.0, 1}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{5.0, 0}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{5.0, 2}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, EqualTimeBurstPopsInSeqOrder) {
  // Thousands of same-instant events (a broadcast fan-out) must pop in
  // insertion order.
  EventQueue queue;
  for (uint64_t s = 0; s < 5000; ++s) queue.Push(MakeEvent(7.5, s));
  for (uint64_t s = 0; s < 5000; ++s) {
    ASSERT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{7.5, s}));
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, PushEarlierThanLastPopPopsFirst) {
  // The queue does not assume the simulator's monotone-time contract: a
  // push earlier than the last pop is still the next event out.
  EventQueue queue;
  queue.Push(MakeEvent(10.0, 0));
  queue.Push(MakeEvent(20.0, 1));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{10.0, 0}));
  queue.Push(MakeEvent(1.0, 2));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{1.0, 2}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{20.0, 1}));
}

/// Property check: under a randomized mix of pushes (clustered,
/// same-instant, sparse tail, far future, at the previous push's time and
/// earlier than now) and pops, the queue pops exactly what a sorted
/// (time, seq) reference holds first. With `lane`, a push at exactly
/// `now` goes to the same-instant lane, as in Simulator::Push; without it
/// every push goes to the heap.
void CheckRandomizedWorkloads(bool lane) {
  Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue queue;
    std::set<std::pair<double, uint64_t>> reference;
    uint64_t seq = 0;
    double now = 0.0;  // floor for new pushes, mimicking simulator time
    double last = 0.0;  // the previous push's time
    for (int op = 0; op < 4000; ++op) {
      if (queue.empty() || rng.NextDouble() < 0.55) {
        double time = now;
        const double shape = rng.NextDouble();
        if (shape < 0.3) {
          time = now + rng.Exponential(5.0);  // clustered near now
        } else if (shape < 0.6) {
          time = now;  // same-instant burst
        } else if (shape < 0.8) {
          time = now + rng.Exponential(5000.0);  // sparse tail
        } else if (shape < 0.85) {
          time = now + rng.NextDouble() * 1e7;  // far future
        } else if (shape < 0.9) {
          // Often a tie at a future instant, still on the heap when the
          // clock reaches it and same-instant pushes join it.
          time = last;
        } else {
          time = now * rng.NextDouble();  // earlier than now
        }
        last = time;
        const Event ev = MakeEvent(time, seq++);
        if (lane && time == now) {
          queue.PushLane(ev);
        } else {
          queue.Push(ev);
        }
        reference.insert(Key(ev));
      } else {
        const std::pair<double, uint64_t> first = *reference.begin();
        reference.erase(reference.begin());
        ASSERT_EQ(queue.PeekTime(), first.first);
        const Event ev = queue.Pop();
        ASSERT_EQ(Key(ev), first)
            << "lane " << lane << " trial " << trial << " op " << op;
        if (ev.time > now) now = ev.time;
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    for (const std::pair<double, uint64_t>& key : reference) {
      ASSERT_EQ(Key(queue.Pop()), key);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueueDifferentialTest, RandomizedWorkloadsPopIdentically) {
  // The same workloads twice: on the heap alone, where same-instant ties
  // meet between pops, and through lane plus heap.
  CheckRandomizedWorkloads(/*lane=*/false);
  CheckRandomizedWorkloads(/*lane=*/true);
}

}  // namespace
}  // namespace dimsum::sim
