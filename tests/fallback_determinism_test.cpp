// ISSUE satellite: the same seeded fault plan must yield bit-identical
// fallback outcomes — served rung, failure trail, energy, and the plan's
// exact segments — at any thread-pool size.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

struct RecordedOutcome {
  PlanRung served = PlanRung::kNone;
  std::vector<RungFailure> failures;
  double energy = 0.0;
  std::vector<Segment> segments;

  friend bool operator==(const RecordedOutcome&, const RecordedOutcome&) = default;
};

/// Run a fixed stream of `instances` workloads of `task_count` tasks through
/// the chain under `exec`, with a fresh injector executing `spec` (fresh =
/// per-site counters restart, so every run draws the identical verdict
/// sequence).
std::vector<RecordedOutcome> run_stream(const std::string& spec, const Exec& exec,
                                        std::size_t task_count = 8,
                                        std::uint64_t instances = 8) {
  FaultInjector injector(FaultPlan::parse(spec));
  faults::FaultScope scope(injector);

  const PowerModel power(3.0, 0.1);
  FallbackOptions options;
  options.try_exact = true;

  std::vector<RecordedOutcome> outcomes;
  for (std::uint64_t i = 0; i < instances; ++i) {
    Rng rng(Rng::seed_of("fallback-determinism", i));
    WorkloadConfig config;
    config.task_count = task_count;
    const TaskSet tasks = generate_workload(config, rng);

    const FallbackPlan plan = plan_with_fallback(tasks, 4, power, options, exec);
    RecordedOutcome out;
    out.served = plan.outcome.served;
    for (const RungAttempt& attempt : plan.outcome.attempts) out.failures.push_back(attempt.failure);
    out.energy = plan.energy;
    out.segments = plan.schedule.segments();
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

TEST(FallbackDeterminismTest, SeededFaultPlanIsBitIdenticalAcrossPoolSizes) {
  // Solver-site faults only: they are consulted on the (sequential) calling
  // thread, so the verdict sequence is identical at any pool size. Job-site
  // faults are deliberately absent — their verdict *assignment* is racy by
  // design (and harmless; see fault_injection.hpp).
  const std::string spec = "seed=11;solver_stall:p=0.4;solver_nan:p=0.3";

  const std::vector<RecordedOutcome> serial = run_stream(spec, Exec::serial());

  // The stream must actually exercise both paths, or this test proves
  // nothing: some exact rungs fail over to F2, some serve.
  bool saw_exact = false;
  bool saw_fallback = false;
  for (const RecordedOutcome& out : serial) {
    ASSERT_NE(out.served, PlanRung::kNone);
    saw_exact = saw_exact || out.served == PlanRung::kExact;
    saw_fallback = saw_fallback || out.served != PlanRung::kExact;
  }
  EXPECT_TRUE(saw_exact);
  EXPECT_TRUE(saw_fallback);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const std::vector<RecordedOutcome> parallel = run_stream(spec, Exec::on(pool));
    EXPECT_EQ(parallel, serial) << "pool size " << threads;
  }
}

// The 8-task stream above stays below the kernel grain, where a pool runs
// every loop inline. One 130-task instance (the exact rung's solver makes
// larger streams slow) puts the rungs' task and subinterval loops past it.
TEST(FallbackDeterminismTest, AboveGrainStreamIsBitIdenticalAcrossPoolSizes) {
  const std::string spec = "seed=11;solver_stall:p=0.4;solver_nan:p=0.3";
  constexpr std::size_t kTasks = 130;
  constexpr std::uint64_t kInstances = 1;
  const std::vector<RecordedOutcome> serial =
      run_stream(spec, Exec::serial(), kTasks, kInstances);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    ASSERT_TRUE(Exec::on(pool).parallel(kTasks));
    const std::vector<RecordedOutcome> parallel =
        run_stream(spec, Exec::on(pool), kTasks, kInstances);
    EXPECT_EQ(parallel, serial) << "pool size " << threads;
  }
}

TEST(FallbackDeterminismTest, RepeatedRunsWithSameSeedMatchExactly) {
  const std::string spec = "seed=23;solver_stall:p=0.5";
  const std::vector<RecordedOutcome> first = run_stream(spec, Exec::serial());
  const std::vector<RecordedOutcome> second = run_stream(spec, Exec::serial());
  EXPECT_EQ(first, second);

  // A different seed steers the chain differently somewhere in the stream.
  const std::vector<RecordedOutcome> other = run_stream("seed=24;solver_stall:p=0.5", Exec::serial());
  EXPECT_NE(other, first);
}

}  // namespace
}  // namespace easched
