// Differential test of incremental delta replanning: 25 seeded workloads,
// random admit/remove sequences of 50+ ops, pools of 1, 2 and 8 threads,
// plus 200-task sequences large enough that the pooled loops fan out.
// After every op the delta planner's plan must be bit-identical to the
// from-scratch DER pipeline — availability values and cached sums, energy
// fold, segment list — and both schedules must pass the validator. A second
// battery replays the same sequences on different pool sizes and asserts the
// delta plans agree across pools step for step (the determinism contract of
// `parallel/exec.hpp` extended to the splice path).

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "differential.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/incremental.hpp"

namespace easched {
namespace {

using differential::ReplayStats;
using differential::replay_admit_remove;

constexpr std::size_t kWorkloads = 25;
constexpr std::size_t kOps = 50;

std::size_t base_tasks_for(std::size_t index) {
  const std::size_t sizes[] = {5, 12, 20, 33, 40};
  return sizes[index % 5];
}

int cores_for(std::size_t index) {
  const int cores[] = {1, 2, 4, 8};
  return cores[index % 4];
}

TEST(IncrementalDifferential, SerialSequencesMatchFromScratch) {
  for (std::size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE(w);
    const ReplayStats stats = replay_admit_remove("incremental-differential", w,
                                                  base_tasks_for(w), kOps, cores_for(w),
                                                  Exec::serial());
    if (HasFatalFailure()) return;
    ASSERT_EQ(stats.steps, kOps + 1);
    // The first quote always rebuilds (no cached plan); nearly every later
    // one must ride the single-op splice path, or the test is not actually
    // exercising the delta code it claims to.
    ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    ASSERT_GE(stats.single_ops, stats.delta_steps - 1);
  }
}

TEST(IncrementalDifferential, PooledSequencesMatchFromScratch) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const Exec exec = Exec::on(pool);
    for (std::size_t w = 0; w < kWorkloads; ++w) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " workload=" << w);
      const ReplayStats stats = replay_admit_remove("incremental-differential", w,
                                                    base_tasks_for(w), kOps, cores_for(w), exec);
      if (HasFatalFailure()) return;
      ASSERT_EQ(stats.steps, kOps + 1);
      ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    }
  }
}

// A 200-task base set: the splice, repack and pipeline loops run past the
// kernel grain, so the pools above really run the delta path in parallel
// (the sizes above all stay below it, where a pool runs every loop inline).
TEST(IncrementalDifferential, PooledSequencesAboveGrainMatchFromScratch) {
  constexpr std::size_t kBaseTasks = 200;
  constexpr std::size_t kAboveGrainOps = 12;
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const Exec exec = Exec::on(pool);
    ASSERT_TRUE(exec.parallel(kBaseTasks));
    for (std::size_t w = 0; w < 2; ++w) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " workload=" << w);
      const ReplayStats stats =
          replay_admit_remove("incremental-differential-above-grain", w, kBaseTasks,
                              kAboveGrainOps, cores_for(w + 2), exec);
      if (HasFatalFailure()) return;
      ASSERT_EQ(stats.steps, kAboveGrainOps + 1);
      ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    }
  }
}

// Replay one sequence under several pool sizes, recording the delta plan at
// every step, and require the recorded plans to agree exactly across pools:
// the splice path must keep the kernel's bit-identical-at-any-pool-size
// contract on its own output, not merely agree with some per-pool reference.
TEST(IncrementalDifferential, DeltaPlansBitIdenticalAcrossPools) {
  constexpr std::size_t kSeeds = 5;
  for (std::size_t w = 0; w < kSeeds; ++w) {
    SCOPED_TRACE(w);
    // Build the shared op sequence once (same draws for every pool size).
    Rng rng(Rng::seed_of("incremental-cross-pool", w));
    WorkloadConfig config;
    config.task_count = base_tasks_for(w);
    const TaskSet base = generate_workload(config, rng);
    std::vector<std::vector<Task>> steps;
    std::vector<Task> live(base.begin(), base.end());
    steps.push_back(live);
    for (std::size_t op = 0; op < kOps; ++op) {
      if (live.size() <= 1 || rng.uniform() < 0.6) {
        WorkloadConfig one;
        one.task_count = 1;
        const TaskSet extra = generate_workload(one, rng);
        live.push_back(extra[0]);
      } else {
        const std::size_t victim = static_cast<std::size_t>(rng.uniform_index(live.size()));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      steps.push_back(live);
    }

    const PowerModel power(3.0, 0.05);
    DeltaOptions options;
    options.cores = cores_for(w);

    std::vector<DeltaPlan> reference;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const Exec exec = Exec::on(pool);
      DeltaPlanner planner(power, options);
      for (std::size_t s = 0; s < steps.size(); ++s) {
        const DeltaPlan plan = planner.plan_to(TaskSet(steps[s]), exec);
        if (threads == 1) {
          reference.push_back(plan);
          continue;
        }
        ASSERT_EQ(plan.energy, reference[s].energy)
            << "threads=" << threads << " step=" << s;
        differential::expect_schedule_identical(plan.schedule, reference[s].schedule);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace easched
