// The bounded queue's overload contract: never block, never throw, shed the
// lowest-laxity request first, and always leave the client with an answer.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "easched/faults/fault_injection.hpp"
#include "easched/service/request_queue.hpp"

namespace easched {
namespace {

bool ready(const std::future<ServiceDecision>& fut) {
  return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// laxity = window - work; pick (deadline, work) to hit a target laxity.
Task with_laxity(double laxity) { return Task{0.0, laxity + 2.0, 2.0}; }

TEST(RequestQueueOverloadTest, UnboundedQueueNeverRejects) {
  RequestQueue queue;  // capacity 0
  EXPECT_EQ(queue.capacity(), 0u);
  std::vector<std::future<ServiceDecision>> futures;
  for (int i = 0; i < 100; ++i) futures.push_back(queue.push(with_laxity(1.0)));
  EXPECT_EQ(queue.depth(), 100u);
  EXPECT_EQ(queue.shed() + queue.overload_rejected(), 0u);
  for (const auto& fut : futures) EXPECT_FALSE(ready(fut));
}

TEST(RequestQueueOverloadTest, ShedsLowestLaxityQueuedVictim) {
  RequestQueue queue(2);
  auto fut_a = queue.push(with_laxity(5.0));
  auto fut_b = queue.push(with_laxity(3.0));
  EXPECT_EQ(queue.depth(), 2u);

  // A laxer arrival displaces the tightest queued request (B), which is
  // answered on the spot.
  auto fut_c = queue.push(with_laxity(10.0));
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.shed(), 1u);
  ASSERT_TRUE(ready(fut_b));
  const ServiceDecision shed_decision = fut_b.get();
  EXPECT_FALSE(shed_decision.admission.admitted);
  EXPECT_EQ(shed_decision.error_kind, AdmissionErrorKind::kOverload);
  EXPECT_FALSE(shed_decision.admission.rejection_reason.empty());
  EXPECT_FALSE(ready(fut_a));
  EXPECT_FALSE(ready(fut_c));

  // A tighter arrival than everything queued is itself rejected.
  auto fut_d = queue.push(with_laxity(1.0));
  EXPECT_EQ(queue.overload_rejected(), 1u);
  ASSERT_TRUE(ready(fut_d));
  EXPECT_EQ(fut_d.get().error_kind, AdmissionErrorKind::kOverload);

  // The survivors are A and C, still in arrival order.
  auto batch = queue.pop_all(16);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].task.deadline, with_laxity(5.0).deadline);
  EXPECT_EQ(batch[1].task.deadline, with_laxity(10.0).deadline);
  EXPECT_LT(batch[0].sequence, batch[1].sequence);
  EXPECT_EQ(queue.shed() + queue.overload_rejected(), 2u);
}

TEST(RequestQueueOverloadTest, LaxityTieRejectsTheArrival) {
  RequestQueue queue(1);
  auto incumbent = queue.push(with_laxity(4.0));
  auto arrival = queue.push(with_laxity(4.0));  // equal laxity: not *strictly* laxer
  EXPECT_EQ(queue.shed(), 0u);
  EXPECT_EQ(queue.overload_rejected(), 1u);
  EXPECT_FALSE(ready(incumbent));
  ASSERT_TRUE(ready(arrival));
  EXPECT_EQ(arrival.get().error_kind, AdmissionErrorKind::kOverload);
}

TEST(RequestQueueOverloadTest, InjectedDropAnswersWithoutEnqueuing) {
  FaultInjector injector(FaultPlan::parse("request_drop:p=1"));
  faults::FaultScope scope(injector);
  RequestQueue queue(4);
  auto fut = queue.push(with_laxity(3.0));
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.fault_dropped(), 1u);
  ASSERT_TRUE(ready(fut));
  const ServiceDecision decision = fut.get();
  EXPECT_FALSE(decision.admission.admitted);
  EXPECT_EQ(decision.error_kind, AdmissionErrorKind::kDropped);
}

TEST(RequestQueueOverloadTest, InjectedDuplicateGetsItsOwnSequence) {
  FaultInjector injector(FaultPlan::parse("request_dup:p=1"));
  faults::FaultScope scope(injector);
  RequestQueue queue;
  auto fut = queue.push(with_laxity(3.0));
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.fault_duplicated(), 1u);

  auto batch = queue.pop_all(16);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].task.deadline, batch[1].task.deadline);
  EXPECT_NE(batch[0].sequence, batch[1].sequence);
  EXPECT_FALSE(ready(fut));  // the original still awaits a batch decision
}

TEST(RequestQueueOverloadTest, OverloadCountersAccountForEveryPush) {
  RequestQueue queue(1);
  (void)queue.push(with_laxity(2.0));
  std::vector<std::future<ServiceDecision>> rejected;
  for (int i = 0; i < 5; ++i) rejected.push_back(queue.push(with_laxity(1.0)));
  EXPECT_EQ(queue.overload_rejected(), 5u);
  EXPECT_EQ(queue.shed(), 0u);
  for (const auto& fut : rejected) EXPECT_TRUE(ready(fut));
  // Six pushes: five answered at the queue, one left for a batch to decide.
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.pop_all(16).size(), 1u);
}

}  // namespace
}  // namespace easched
