/// \file request_queue_test.cpp
/// Queue edge cases the service's admission control is specified by:
/// explicit full-queue reject (never a silent drop), absence of priority
/// inversion, zero-capacity config error, close/drain semantics, the
/// stat reserve, blocking backpressure, bounded-wait admission and the
/// overload shed watermarks.

#include "serve/request_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace idp::serve {
namespace {

Request make_request(std::uint64_t id, Priority priority) {
  Request r;
  r.id = id;
  r.priority = priority;
  return r;
}

TEST(RequestQueue, ZeroCapacityIsAConfigError) {
  EXPECT_THROW(RequestQueue(RequestQueueConfig{.capacity = 0}),
               std::invalid_argument);
}

TEST(RequestQueue, StatReserveMustLeaveRoomForOthers) {
  EXPECT_THROW(
      RequestQueue(RequestQueueConfig{.capacity = 4, .stat_reserve = 4}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      RequestQueue(RequestQueueConfig{.capacity = 4, .stat_reserve = 3}));
}

TEST(RequestQueue, FullQueueRejectsExplicitly) {
  RequestQueue queue(RequestQueueConfig{.capacity = 2});
  EXPECT_EQ(queue.try_push(make_request(0, Priority::kRoutine)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(make_request(1, Priority::kRoutine)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(make_request(2, Priority::kRoutine)),
            Admission::kRejectedFull);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.stats().accepted, 2u);
  EXPECT_EQ(queue.stats().rejected_full, 1u);
  EXPECT_EQ(queue.high_water(), 2u);
  // Nothing was dropped: exactly the two accepted requests come back out.
  QueuedRequest out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.request.id, 0u);
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.request.id, 1u);
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(RequestQueue, NoPriorityInversion) {
  RequestQueue queue(RequestQueueConfig{.capacity = 16});
  // Arrival order deliberately worst-case: batch first, stat last.
  queue.try_push(make_request(0, Priority::kBatch));
  queue.try_push(make_request(1, Priority::kBatch));
  queue.try_push(make_request(2, Priority::kRoutine));
  queue.try_push(make_request(3, Priority::kStat));
  queue.try_push(make_request(4, Priority::kRoutine));
  queue.try_push(make_request(5, Priority::kStat));

  // Dispatch: every stat before every routine before every batch, FIFO
  // within each class.
  std::vector<std::uint64_t> order;
  QueuedRequest out;
  while (queue.try_pop(out)) order.push_back(out.request.id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 5, 2, 4, 0, 1}));
}

TEST(RequestQueue, StatReserveKeepsSlotsForEmergencies) {
  RequestQueue queue(RequestQueueConfig{.capacity = 3, .stat_reserve = 1});
  EXPECT_EQ(queue.try_push(make_request(0, Priority::kRoutine)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(make_request(1, Priority::kBatch)),
            Admission::kAccepted);
  // Non-stat admission stops at capacity - reserve...
  EXPECT_EQ(queue.try_push(make_request(2, Priority::kRoutine)),
            Admission::kRejectedFull);
  // ...while a stat request still gets the reserved slot.
  EXPECT_EQ(queue.try_push(make_request(3, Priority::kStat)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(make_request(4, Priority::kStat)),
            Admission::kRejectedFull);
}

TEST(RequestQueue, CloseDrainsThenSignalsEnd) {
  RequestQueue queue(RequestQueueConfig{.capacity = 4});
  queue.try_push(make_request(7, Priority::kRoutine));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.try_push(make_request(8, Priority::kStat)),
            Admission::kRejectedClosed);
  EXPECT_EQ(queue.push_wait(make_request(9, Priority::kStat)),
            Admission::kRejectedClosed);
  // The accepted request still drains...
  QueuedRequest out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out.request.id, 7u);
  // ...then pop reports the end instead of blocking.
  EXPECT_FALSE(queue.pop(out));
}

TEST(RequestQueue, PushWaitBlocksUntilSpace) {
  RequestQueue queue(RequestQueueConfig{.capacity = 1});
  ASSERT_EQ(queue.push_wait(make_request(0, Priority::kRoutine)),
            Admission::kAccepted);
  std::atomic<bool> second_admitted{false};
  std::thread pusher([&] {
    EXPECT_EQ(queue.push_wait(make_request(1, Priority::kRoutine)),
              Admission::kAccepted);
    second_admitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_admitted.load());  // backpressure held it
  QueuedRequest out;
  ASSERT_TRUE(queue.pop(out));
  pusher.join();
  EXPECT_TRUE(second_admitted.load());
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.request.id, 1u);
}

TEST(RequestQueue, BlockedPushWaitWakesOnClose) {
  RequestQueue queue(RequestQueueConfig{.capacity = 1});
  ASSERT_EQ(queue.push_wait(make_request(0, Priority::kRoutine)),
            Admission::kAccepted);
  std::atomic<bool> done{false};
  std::thread pusher([&] {
    EXPECT_EQ(queue.push_wait(make_request(1, Priority::kRoutine)),
              Admission::kRejectedClosed);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  pusher.join();
  EXPECT_TRUE(done.load());
}

TEST(RequestQueue, PushWaitForTimesOutOnAFullQueue) {
  RequestQueue queue(RequestQueueConfig{.capacity = 1});
  ASSERT_EQ(queue.push_wait(make_request(0, Priority::kRoutine)),
            Admission::kAccepted);
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.push_wait_for(make_request(1, Priority::kRoutine),
                                std::chrono::milliseconds(20)),
            Admission::kRejectedTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - before,
            std::chrono::milliseconds(20));
  EXPECT_EQ(queue.stats().timed_out, 1u);
  EXPECT_EQ(queue.depth(), 1u) << "a timed-out push must leave nothing behind";
}

TEST(RequestQueue, PushWaitForAdmitsWhenAPopFreesSpaceInTime) {
  RequestQueue queue(RequestQueueConfig{.capacity = 1});
  ASSERT_EQ(queue.push_wait(make_request(0, Priority::kRoutine)),
            Admission::kAccepted);
  std::atomic<bool> admitted{false};
  std::thread pusher([&] {
    EXPECT_EQ(queue.push_wait_for(make_request(1, Priority::kRoutine),
                                  std::chrono::seconds(30)),
              Admission::kAccepted);
    admitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  QueuedRequest out;
  ASSERT_TRUE(queue.pop(out));  // frees the slot; the waiter must wake
  pusher.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(queue.stats().timed_out, 0u);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.request.id, 1u);
}

TEST(RequestQueue, PushWaitForWakesAsRejectedClosedOnClose) {
  RequestQueue queue(RequestQueueConfig{.capacity = 1});
  ASSERT_EQ(queue.push_wait(make_request(0, Priority::kRoutine)),
            Admission::kAccepted);
  std::atomic<bool> done{false};
  std::thread pusher([&] {
    EXPECT_EQ(queue.push_wait_for(make_request(1, Priority::kRoutine),
                                  std::chrono::seconds(30)),
              Admission::kRejectedClosed)
        << "closing must beat the timeout, with the closed verdict";
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  pusher.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(queue.stats().timed_out, 0u);
}

TEST(RequestQueue, ShedWatermarksMustBeOrderedAndFitUsableCapacity) {
  // A batch watermark above the non-stat capacity could never fire.
  EXPECT_THROW(RequestQueue(RequestQueueConfig{.capacity = 8,
                                               .stat_reserve = 2,
                                               .batch_shed_depth = 7}),
               std::invalid_argument);
  // Shedding routine before batch inverts the value order.
  EXPECT_THROW(RequestQueue(RequestQueueConfig{.capacity = 8,
                                               .batch_shed_depth = 6,
                                               .routine_shed_depth = 4}),
               std::invalid_argument);
  EXPECT_NO_THROW(RequestQueue(RequestQueueConfig{.capacity = 8,
                                                  .stat_reserve = 2,
                                                  .batch_shed_depth = 4,
                                                  .routine_shed_depth = 6}));
}

TEST(RequestQueue, OverloadShedsBatchFirstThenRoutineNeverStat) {
  RequestQueue queue(RequestQueueConfig{.capacity = 8,
                                        .stat_reserve = 1,
                                        .batch_shed_depth = 2,
                                        .routine_shed_depth = 4});
  // Below every watermark: all classes admit.
  EXPECT_EQ(queue.try_push(make_request(0, Priority::kBatch)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(make_request(1, Priority::kRoutine)),
            Admission::kAccepted);
  // Depth 2 = batch watermark: batch sheds, routine and stat still admit.
  EXPECT_EQ(queue.try_push(make_request(2, Priority::kBatch)),
            Admission::kRejectedShed);
  EXPECT_EQ(queue.try_push(make_request(3, Priority::kRoutine)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(make_request(4, Priority::kStat)),
            Admission::kAccepted);
  // Depth 4 = routine watermark: routine sheds too...
  EXPECT_EQ(queue.try_push(make_request(5, Priority::kRoutine)),
            Admission::kRejectedShed);
  // ...and a blocking push must not wait for a shed class: overload means
  // "go away now", not "queue up more load".
  EXPECT_EQ(queue.push_wait(make_request(6, Priority::kBatch)),
            Admission::kRejectedShed);
  EXPECT_EQ(queue.push_wait_for(make_request(7, Priority::kRoutine),
                                std::chrono::seconds(30)),
            Admission::kRejectedShed);
  // Stat is never shed: it admits through the watermarks up to the full
  // capacity (including its reserve).
  for (std::uint64_t id = 8; id < 12; ++id) {
    EXPECT_EQ(queue.try_push(make_request(id, Priority::kStat)),
              Admission::kAccepted);
  }
  EXPECT_EQ(queue.depth(), 8u);
  EXPECT_EQ(queue.try_push(make_request(12, Priority::kStat)),
            Admission::kRejectedFull)
      << "at full capacity even stat gets the *full* verdict, not shed";

  // Every admission attempt landed in exactly one explicit bucket.
  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.shed, 4u);
  EXPECT_EQ(stats.rejected_full, 1u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.depth, 8u);
  EXPECT_EQ(stats.high_water, 8u);
  EXPECT_EQ(queue.stats().shed, 4u);
}

TEST(RequestQueueStats, MergeAggregatesAcrossShards) {
  QueueStats a{.depth = 2,
               .high_water = 5,
               .accepted = 10,
               .rejected_full = 1,
               .shed = 3,
               .timed_out = 2};
  QueueStats b{.depth = 1,
               .high_water = 7,
               .accepted = 4,
               .rejected_full = 2,
               .shed = 1,
               .timed_out = 0};
  a.merge(b);
  EXPECT_EQ(a.depth, 3u);
  EXPECT_EQ(a.high_water, 7u);
  EXPECT_EQ(a.accepted, 14u);
  EXPECT_EQ(a.rejected_full, 3u);
  EXPECT_EQ(a.shed, 4u);
  EXPECT_EQ(a.timed_out, 2u);
}

TEST(RequestQueue, BlockingPopWaitsForWork) {
  RequestQueue queue(RequestQueueConfig{.capacity = 4});
  std::atomic<bool> got{false};
  std::thread popper([&] {
    QueuedRequest out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.request.id, 42u);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  queue.try_push(make_request(42, Priority::kBatch));
  popper.join();
  EXPECT_TRUE(got.load());
}

}  // namespace
}  // namespace idp::serve
