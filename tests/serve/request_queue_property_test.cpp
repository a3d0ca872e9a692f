/// \file request_queue_property_test.cpp
/// Seed-sweep property test for serve::RequestQueue under randomized
/// concurrent producers. For a fixed seed set, the properties that must
/// hold regardless of thread interleaving:
///
/// - admission is never silent: accepted + rejected-full + rejected-closed
///   accounts for every attempt, and the queue's own counters agree;
/// - everything accepted is eventually popped, exactly once;
/// - FIFO within a (producer, priority) lane is preserved end to end;
/// - sequentially, dispatch is strict priority (stat, routine, batch) with
///   FIFO inside each class;
/// - the stat reserve admits stat traffic after routine traffic has filled
///   the shared portion, and never admits routine into the reserve.

#include "serve/request_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "util/random.hpp"

namespace idp::serve {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 77, 0xfeedface, 2026};

/// A producer-stamped request: the tenant field carries the producer id
/// and the patient field the per-producer emission index, so the consumer
/// can reconstruct each producer's per-priority emission order.
Request stamped(std::size_t producer, std::uint64_t index,
                Priority priority) {
  Request r;
  r.id = (static_cast<std::uint64_t>(producer) << 32) | index;
  r.session.tenant = static_cast<std::uint32_t>(producer);
  r.session.patient = index;
  r.priority = priority;
  return r;
}

struct ConcurrentRunResult {
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t popped = 0;
  /// Popped (producer, priority) -> emission indices in pop order.
  std::map<std::pair<std::uint32_t, Priority>, std::vector<std::uint64_t>>
      lanes;
};

/// Drive `producers` threads of `per_producer` seeded admission attempts
/// (mixed try_push / push_wait) against one consumer thread.
ConcurrentRunResult run_concurrent(std::uint64_t seed, std::size_t producers,
                                   std::uint64_t per_producer,
                                   RequestQueueConfig config) {
  RequestQueue queue(config);
  ConcurrentRunResult result;
  result.attempts = producers * per_producer;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_full{0};

  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const auto priority =
            static_cast<Priority>(rng.index(kPriorityCount));
        Request r = stamped(p, i, priority);
        // Mix blocking and non-blocking admission; push_wait can only be
        // rejected by closure, which never happens while producers run.
        const bool blocking = rng.index(2) == 0;
        const Admission admission = blocking ? queue.push_wait(std::move(r))
                                             : queue.try_push(std::move(r));
        switch (admission) {
          case Admission::kAccepted:
            accepted.fetch_add(1, std::memory_order_relaxed);
            break;
          case Admission::kRejectedFull:
            rejected_full.fetch_add(1, std::memory_order_relaxed);
            break;
          case Admission::kRejectedClosed:
            ADD_FAILURE() << "queue closed while producers were live";
            break;
          case Admission::kRejectedShed:
          case Admission::kRejectedTimeout:
            // This drill configures no shed watermarks and never uses
            // bounded waits.
            ADD_FAILURE() << "unexpected admission outcome: "
                          << to_string(admission);
            break;
        }
      }
    });
  }

  // Single consumer: drains until the queue is closed and empty.
  std::thread consumer([&] {
    QueuedRequest q;
    while (queue.pop(q)) {
      ++result.popped;
      result
          .lanes[{q.request.session.tenant, q.request.priority}]
          .push_back(q.request.session.patient);
    }
  });

  for (std::thread& t : threads) t.join();
  queue.close();
  consumer.join();

  result.accepted = accepted.load();
  result.rejected_full = rejected_full.load();
  EXPECT_EQ(queue.stats().accepted, result.accepted)
      << "queue admission counter disagrees with the producers' account";
  EXPECT_EQ(queue.stats().rejected_full, result.rejected_full);
  EXPECT_EQ(queue.depth(), 0u) << "close() left requests stranded";
  return result;
}

TEST(RequestQueueProperty, AdmissionIsNeverSilentUnderConcurrency) {
  for (const std::uint64_t seed : kSeeds) {
    RequestQueueConfig config;
    config.capacity = 32;  // small: forces genuine rejection pressure
    const ConcurrentRunResult r = run_concurrent(seed, 4, 200, config);
    EXPECT_EQ(r.accepted + r.rejected_full, r.attempts)
        << "seed " << seed << ": an admission attempt vanished";
    EXPECT_EQ(r.popped, r.accepted)
        << "seed " << seed << ": accepted requests were lost or duplicated";
  }
}

TEST(RequestQueueProperty, PerProducerPerPriorityFifoSurvivesConcurrency) {
  for (const std::uint64_t seed : kSeeds) {
    RequestQueueConfig config;
    config.capacity = 64;
    const ConcurrentRunResult r = run_concurrent(seed, 4, 200, config);
    for (const auto& [lane, indices] : r.lanes) {
      for (std::size_t i = 1; i < indices.size(); ++i) {
        ASSERT_LT(indices[i - 1], indices[i])
            << "seed " << seed << ": producer " << lane.first
            << " priority " << static_cast<int>(lane.second)
            << " was popped out of emission order";
      }
    }
  }
}

TEST(RequestQueueProperty, SequentialDispatchIsStrictPriorityThenFifo) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    RequestQueue queue;  // default capacity: everything admits
    std::array<std::uint64_t, kPriorityCount> emitted{};
    for (std::uint64_t i = 0; i < 120; ++i) {
      const auto priority = static_cast<Priority>(rng.index(kPriorityCount));
      const auto p = static_cast<std::size_t>(priority);
      ASSERT_EQ(queue.try_push(stamped(0, emitted[p]++, priority)),
                Admission::kAccepted);
    }
    // With no concurrent pushes, pops must come out grouped stat, routine,
    // batch -- and FIFO inside each group.
    queue.close();
    int last_priority = -1;
    std::array<std::uint64_t, kPriorityCount> next_index{};
    QueuedRequest q;
    std::uint64_t popped = 0;
    while (queue.pop(q)) {
      ++popped;
      const int p = static_cast<int>(q.request.priority);
      ASSERT_GE(p, last_priority)
          << "seed " << seed << ": a lower-priority request overtook";
      last_priority = p;
      ASSERT_EQ(q.request.session.patient,
                next_index[static_cast<std::size_t>(p)]++)
          << "seed " << seed << ": FIFO broken within priority " << p;
    }
    EXPECT_EQ(popped, 120u);
  }
}

TEST(RequestQueueProperty, StatReserveAdmitsStatWhenRoutineIsShutOut) {
  RequestQueueConfig config;
  config.capacity = 8;
  config.stat_reserve = 2;
  RequestQueue queue(config);
  // Routine may only use capacity - stat_reserve = 6 slots.
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_EQ(queue.try_push(stamped(0, i, Priority::kRoutine)),
              Admission::kAccepted);
  }
  EXPECT_EQ(queue.try_push(stamped(0, 6, Priority::kRoutine)),
            Admission::kRejectedFull)
      << "routine traffic leaked into the stat reserve";
  EXPECT_EQ(queue.try_push(stamped(0, 0, Priority::kBatch)),
            Admission::kRejectedFull);
  // The reserve is exactly two stat slots.
  EXPECT_EQ(queue.try_push(stamped(1, 0, Priority::kStat)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(stamped(1, 1, Priority::kStat)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(stamped(1, 2, Priority::kStat)),
            Admission::kRejectedFull)
      << "the reserve is not a capacity extension";
  EXPECT_EQ(queue.depth(), 8u);
  EXPECT_EQ(queue.stats().accepted, 8u);
  EXPECT_EQ(queue.stats().rejected_full, 3u);
  // Popping one slot readmits stat immediately; routine still needs the
  // shared portion to fall below 6.
  QueuedRequest q;
  ASSERT_TRUE(queue.try_pop(q));
  EXPECT_EQ(q.request.priority, Priority::kStat) << "strict priority broken";
  EXPECT_EQ(queue.try_push(stamped(0, 7, Priority::kRoutine)),
            Admission::kRejectedFull);
  EXPECT_EQ(queue.try_push(stamped(1, 3, Priority::kStat)),
            Admission::kAccepted);
}

TEST(RequestQueueProperty, SeedsProduceDistinctButAccountedSchedules) {
  // Different seeds steer different admission mixes, but the accounting
  // property holds for each -- the sweep's reason for existing.
  std::vector<std::uint64_t> accepted_counts;
  for (const std::uint64_t seed : kSeeds) {
    RequestQueueConfig config;
    config.capacity = 16;
    const ConcurrentRunResult r = run_concurrent(seed, 2, 100, config);
    EXPECT_EQ(r.accepted + r.rejected_full, r.attempts);
    accepted_counts.push_back(r.accepted);
  }
  EXPECT_EQ(accepted_counts.size(), 5u);
}

}  // namespace
}  // namespace idp::serve
