// Tests for the binary-heap pending-event set that serves as the slot
// calendar's test oracle (heap_event_queue.hpp).
#include "heap_event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace {

using firefly::sim::EventQueue;
using firefly::sim::SimTime;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::milliseconds(30), [&] { order.push_back(3); });
  q.schedule(SimTime::milliseconds(10), [&] { order.push_back(1); });
  q.schedule(SimTime::milliseconds(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::milliseconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule(SimTime::milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const auto id = q.schedule(SimTime::milliseconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const auto id = q.schedule(SimTime::milliseconds(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto early = q.schedule(SimTime::milliseconds(1), [] {});
  q.schedule(SimTime::milliseconds(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), SimTime::milliseconds(5));
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, NextTimeOnEmptyIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::max());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const auto a = q.schedule(SimTime::milliseconds(1), [] {});
  q.schedule(SimTime::milliseconds(2), [] {});
  EXPECT_EQ(q.size(), 2U);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1U);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StressRandomScheduleCancelKeepsOrder) {
  EventQueue q;
  firefly::util::Rng rng(77);
  std::vector<firefly::sim::EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(q.schedule(SimTime::microseconds(
                                 static_cast<std::int64_t>(rng.uniform_index(10000))),
                             [] {}));
  }
  for (int i = 0; i < 500; ++i) {
    q.cancel(ids[rng.uniform_index(ids.size())]);
  }
  SimTime last = SimTime::zero();
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

}  // namespace
